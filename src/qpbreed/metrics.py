"""State-quality measures: overlap fidelity, effective squeezing, dB
conversion, Wigner functions, and position densities."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .fock import VACUUM_VARIANCE, FockConfig, _i_powers, displacement, hermite_functions, top_level

SQRT_PI = math.sqrt(math.pi)


def fidelity(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Overlap magnitude |⟨a|b⟩| between two normalized pure states.

    Note this is the amplitude overlap, not its square; all tabulated
    fidelities in this package follow that convention. ``b`` is one state
    of w levels. ``a`` is one state of w levels, giving a float, or a
    (..., w) stack, giving the array of its rows' overlaps with ``b``, as
    one matrix-vector product; a row's value agrees with the float of that
    row alone up to rounding. A corner w < dim scores states cut to the
    levels they occupy.
    """
    if a.shape[-1:] != b.shape:
        raise ValueError(f"state dimensions differ: {a.shape} vs {b.shape}")
    return float(abs(np.vdot(a, b))) if a.ndim == 1 else np.abs(a @ b.conj())


@lru_cache(maxsize=None)
def _probe(cfg: FockConfig, direction: str) -> np.ndarray:
    """The probe displacement of :func:`effective_squeezing`. Along q it is
    D(√π), a shift T of the position, so :func:`~qpbreed.fock.displacement`
    gives it a real matrix and an imaginary part of exact zeros: only the
    real part is kept. Along p it is D(i√π) = R·T·R†, R = iⁿ, the same real
    shift T between phases, so entry [m, n] is the exact i^(m−n)
    (:func:`~qpbreed.fock._i_powers`) times the q probe's."""
    if direction == "p":
        n = np.arange(cfg.dim)
        op = _i_powers(n[:, None] - n) * _probe(cfg, "q")
    else:
        op = np.ascontiguousarray(displacement(cfg, SQRT_PI).real)
    op.setflags(write=False)
    return op


def effective_squeezing(cfg: FockConfig, state: np.ndarray, direction: str = "q") -> float | np.ndarray:
    """Grid-state quality δ = (1/√π)·√(ln |⟨D⟩|⁻²).

    The probe displacement is √π along the chosen direction (real amplitude
    for 'q', imaginary for 'p'); for an ideal grid state of squeezing Δ both
    directions give δ = Δ. Gives 0.0 where the overlap magnitude reaches 1
    numerically and inf where it vanishes. ``state`` is one state, giving a
    float, or a (..., w) stack, giving an array of δ. It holds the first
    w ≤ dim Fock levels, zero above, and is probed with the ``[:w, :w]``
    corner of the dim-level probe, so w is read from its shape: a state
    cut to the levels it occupies gives the δ of the same state padded
    with zeros to dim, up to rounding. The q probe is a real matrix, so a
    real state is probed in real arithmetic.
    """
    if direction not in ("q", "p"):
        raise ValueError(f"direction must be 'q' or 'p', got {direction!r}")
    width = state.shape[-1]
    overlap = np.abs(np.vecdot(state, state @ _probe(cfg, direction)[:width, :width].T))
    with np.errstate(divide="ignore"):
        delta = np.sqrt(-2.0 * np.log(np.minimum(overlap, 1.0))) / SQRT_PI
    delta = np.where(overlap >= 1.0, 0.0, delta)
    return float(delta) if delta.ndim == 0 else delta


def sgkp_db(delta: float) -> float:
    """Squeezing in decibels relative to the vacuum variance 1/2."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return -10.0 * math.log10(delta**2 / VACUUM_VARIANCE)


def wigner(state: np.ndarray, q_axis: np.ndarray, p_axis: np.ndarray) -> np.ndarray:
    """Wigner function, W(q,p) = (1/π)·⟨ψ|D(α) Π D†(α)|ψ⟩ with α = (q+ip)/√2
    and Π the Fock parity, normalized so that ∫∫ W dq dp = 1, as the
    (len(q_axis), len(p_axis)) array of its values on the grid.

    Evaluated through the equivalent autocorrelation integral
    W(q,p) = (1/π) ∫ ψ*(q+y) ψ(q−y) e^{2ipy} dy with the wavefunction from
    the stable Hermite-function recurrence. Unlike a term-by-term expansion
    of the displaced parity, every intermediate here is O(1), so the result
    stays accurate out to arbitrary phase-space distance and for states
    occupying the full truncated basis. The integrand is band-limited, so a
    trapezoid sum at a few times the Nyquist rate is exponentially accurate.

    ψ is evaluated once, from the Hermite functions up to the state's top
    occupied level, on one x grid that holds every q ± y. Its step h is
    the q spacing divided by 2^j, for the smallest j ≥ 0 that puts h at or
    below the sampling bound π/(2.5·bandwidth), and the y step is h
    itself. On :func:`default_grid` h lies between half the bound and the
    bound; a q axis finer than half the bound sums proportionally more y
    terms than the bound needs. A one-point q axis takes the bound itself
    as its step. ``q_axis`` must therefore be evenly spaced; ``p_axis``
    may be any set of points. Since the integrand at −y is the conjugate
    of that at y, only y ≥ 0 is summed, with the y > 0 terms doubled, and
    only the real part is formed:
    Re(P·e^{2ipy}) = Re P·cos 2py − Im P·sin 2py for the products
    P = ψ*(q+y)ψ(q−y), formed in ψ's dtype in one product over all the
    evaluated rows, an (evaluated rows) × (y terms) array, with Re P and
    Im P each summed as one real matrix product. The cosine part is even
    in p and the sine part odd, so both are evaluated at the distinct |p|
    only.

    A real ψ is its own conjugate and has real P: W is the cosine part
    alone, even in p, and its cells at ±p are copies. A real ψ of one
    parity (its odd or its even Fock levels all zero) also has
    ψ(−x) = ±ψ(x), so W is even in q as well: on an exactly antisymmetric
    q axis only the rows q ≥ 0 are evaluated and the rows q < 0 are
    copies. Such a grid is bitwise mirror-symmetric.
    """
    state = np.asarray(state)
    real = not np.iscomplexobj(state)
    dim = state.shape[0]
    q_axis = np.asarray(q_axis, dtype=float)
    p_axis = np.asarray(p_axis, dtype=float)

    # classically allowed radius of the highest Fock level, plus tail room
    x_max = math.sqrt(2 * dim + 1) + 3.0
    p_extreme = float(np.max(np.abs(p_axis))) if p_axis.size else 0.0
    q_extreme = float(np.max(np.abs(q_axis)))
    bandwidth = 2 * math.sqrt(2 * dim + 1) + 2 * p_extreme
    bound = math.pi / (2.5 * bandwidth)
    y_max = x_max + q_extreme

    n_q = len(q_axis)
    stride = 1  # x-grid points between neighbouring q values
    if n_q == 1:
        h = bound
    else:
        spacing = (q_axis[-1] - q_axis[0]) / (n_q - 1)
        if spacing == 0 or np.max(np.abs(np.diff(q_axis) - spacing)) > 1e-9 * abs(spacing):
            raise ValueError("q_axis must be evenly spaced with a nonzero spacing")
        while abs(spacing) / stride > bound:
            stride *= 2
        h = spacing / stride
    m = math.ceil(y_max / abs(h))  # y steps on each side of 0

    # cell [i, j] of the grid is cell [rows[i], columns[j]] of those evaluated
    p_eval, columns = np.unique(np.abs(p_axis), return_inverse=True)
    rows = np.arange(n_q)
    one_parity = not state[1::2].any() or not state[0::2].any()
    if real and one_parity and np.array_equal(q_axis, -q_axis[::-1]):
        rows = np.maximum(rows, n_q - 1 - rows) - n_q // 2
    first = n_q - 1 - int(rows.max())  # the evaluated rows are q_axis[first:]
    n_eval = n_q - first
    x = q_axis[0] + h * np.arange(first * stride - m, (n_q - 1) * stride + m + 1)
    psi = _wavefunction(state, x)

    angles = np.multiply.outer(2 * h * np.arange(m + 1), p_eval)
    doubled = np.full((m + 1, 1), 2.0)  # a y > 0 term stands for ±y
    doubled[0] = 1.0
    cosines = np.cos(angles) * doubled
    sines = None if real else np.sin(angles) * doubled
    del angles  # before the products are formed, so that the two are never held at once

    # row i, column k: ψ*(q_i + y_k)·ψ(q_i − y_k), from strided views of ψ
    windows = np.lib.stride_tricks.sliding_window_view(psi, m + 1)
    products = windows[m::stride].conj() * windows[: n_eval * stride : stride, ::-1]
    values = (products.real @ cosines)[np.ix_(rows, columns)]
    if not real:
        values -= np.sign(p_axis) * (products.imag @ sines)[:, columns]
    values *= abs(h) / math.pi
    return values


def _wavefunction(state: np.ndarray, x: np.ndarray) -> np.ndarray:
    """ψ(x) = Σₙ cₙ φₙ(x), summed up to the state's top occupied level; a
    real state is evaluated in real arithmetic."""
    levels = max(1, top_level(state) + 1)
    return state[:levels] @ hermite_functions(levels, np.asarray(x, dtype=float))


def position_density(state: np.ndarray, q_axis: np.ndarray) -> np.ndarray:
    """|ψ(q)|² for the wavefunction ψ(q) = Σₙ cₙ φₙ(q) (:func:`_wavefunction`);
    a real state is evaluated in real arithmetic."""
    return np.abs(_wavefunction(np.asarray(state), q_axis)) ** 2


def default_grid() -> np.ndarray:
    """The package's phase-space plotting axis: 201 points 0.05·k over
    [−5, 5], k = −100..100, exactly antisymmetric, so that :func:`wigner`
    can mirror a grid in q."""
    return 0.05 * np.arange(-100, 101)
