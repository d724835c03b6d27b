"""State-quality measures: overlap fidelity, effective squeezing, dB
conversion, Wigner functions, and position densities."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import VACUUM_VARIANCE, FockConfig, displacement

SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class WignerGrid:
    q_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray  # shape (len(q_axis), len(p_axis))

    def integral(self) -> float:
        return float(np.trapezoid(np.trapezoid(self.values, self.p_axis, axis=1), self.q_axis))


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Overlap magnitude |⟨a|b⟩| between two normalized pure states.

    Note this is the amplitude overlap, not its square; all tabulated
    fidelities in this package follow that convention.
    """
    if a.shape != b.shape:
        raise ValueError(f"state dimensions differ: {a.shape} vs {b.shape}")
    return float(abs(np.vdot(a, b)))


@lru_cache(maxsize=None)
def _probe(cfg: FockConfig, direction: str) -> np.ndarray:
    beta = SQRT_PI if direction == "q" else 1j * SQRT_PI
    op = displacement(cfg, beta)
    op.setflags(write=False)
    return op


def effective_squeezing(cfg: FockConfig, state: np.ndarray, direction: str = "q") -> float | np.ndarray:
    """Grid-state quality δ = (1/√π)·√(ln |⟨D⟩|⁻²).

    The probe displacement is √π along the chosen direction (real amplitude
    for 'q', imaginary for 'p'); for an ideal grid state of squeezing Δ both
    directions give δ = Δ. Gives 0.0 where the overlap magnitude reaches 1
    numerically and inf where it vanishes. ``state`` is one state, giving a
    float, or a (..., dim) stack, giving an array of δ.
    """
    if direction not in ("q", "p"):
        raise ValueError(f"direction must be 'q' or 'p', got {direction!r}")
    overlap = np.abs(np.einsum("...j,...j->...", np.conj(state), state @ _probe(cfg, direction).T))
    with np.errstate(divide="ignore"):
        delta = np.sqrt(-2.0 * np.log(np.minimum(overlap, 1.0))) / SQRT_PI
    delta = np.where(overlap >= 1.0, 0.0, delta)
    return float(delta) if delta.ndim == 0 else delta


def sgkp_db(delta: float) -> float:
    """Squeezing in decibels relative to the vacuum variance 1/2."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return -10.0 * math.log10(delta**2 / VACUUM_VARIANCE)


def wigner(state: np.ndarray, q_axis: np.ndarray, p_axis: np.ndarray) -> WignerGrid:
    """Wigner function, W(q,p) = (1/π)·⟨ψ|D(α) Π D†(α)|ψ⟩ with α = (q+ip)/√2
    and Π the Fock parity, normalized so that ∫∫ W dq dp = 1.

    Evaluated through the equivalent autocorrelation integral
    W(q,p) = (1/π) ∫ ψ*(q+y) ψ(q−y) e^{2ipy} dy with the wavefunction from
    the stable Hermite-function recurrence. Unlike a term-by-term expansion
    of the displaced parity, every intermediate here is O(1), so the result
    stays accurate out to arbitrary phase-space distance and for states
    occupying the full truncated basis. The integrand is band-limited, so a
    trapezoid sum at a few times the Nyquist rate is exponentially accurate.
    """
    state = np.asarray(state, dtype=complex)
    dim = state.shape[0]
    q_axis = np.asarray(q_axis, dtype=float)
    p_axis = np.asarray(p_axis, dtype=float)

    # classically allowed radius of the highest Fock level, plus tail room
    x_max = math.sqrt(2 * dim + 1) + 3.0
    p_extreme = float(np.max(np.abs(p_axis))) if p_axis.size else 0.0
    q_extreme = float(np.max(np.abs(q_axis))) if q_axis.size else 0.0
    bandwidth = 2 * math.sqrt(2 * dim + 1) + 2 * p_extreme
    step = math.pi / (2.5 * bandwidth)
    y_max = x_max + q_extreme
    count = 2 * math.ceil(y_max / step) + 1
    y = np.linspace(-y_max, y_max, count)
    step = y[1] - y[0]

    phases = np.exp(2j * np.outer(p_axis, y))
    values = np.empty((len(q_axis), len(p_axis)))
    for i, q in enumerate(q_axis):
        phi = hermite_functions(dim, np.concatenate([q + y, q - y]))
        psi_plus = state.conj() @ phi[:, :count]
        psi_minus = state @ phi[:, count:]
        values[i] = np.real(phases @ (psi_plus * psi_minus)) * step / math.pi
    return WignerGrid(q_axis=q_axis, p_axis=p_axis, values=values)


def hermite_functions(max_n: int, x: np.ndarray) -> np.ndarray:
    """Normalized harmonic-oscillator eigenfunctions φ₀..φ_{max_n−1} at x.

    Stable three-term recurrence on the normalized functions; no factorials
    are formed, so it is usable up to n of a few hundred.
    """
    x = np.asarray(x, dtype=float)
    phi = np.zeros((max_n, len(x)))
    phi[0] = math.pi ** -0.25 * np.exp(-0.5 * x**2)
    if max_n > 1:
        phi[1] = math.sqrt(2.0) * x * phi[0]
    for n in range(2, max_n):
        phi[n] = math.sqrt(2.0 / n) * x * phi[n - 1] - math.sqrt((n - 1) / n) * phi[n - 2]
    return phi


def position_density(state: np.ndarray, q_axis: np.ndarray) -> np.ndarray:
    """|ψ(q)|² for the wavefunction ψ(q) = Σₙ cₙ φₙ(q)."""
    state = np.asarray(state, dtype=complex)
    phi = hermite_functions(state.shape[0], np.asarray(q_axis, dtype=float))
    psi = state @ phi
    return np.abs(psi) ** 2


def default_grid() -> np.ndarray:
    """The package's phase-space plotting axis: 201 points over [−5, 5]."""
    return np.linspace(-5.0, 5.0, 201)
