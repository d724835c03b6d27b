"""Operators and states on a truncated Fock space.

Conventions: q = (a + a†)/√2, p = i(a† − a)/√2, vacuum quadrature variance
Δ₀² = 1/2. All constructors are pure functions of an immutable
:class:`FockConfig`; heavyweight operators are cached per config and must be
treated as read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

VACUUM_VARIANCE = 0.5


@dataclass(frozen=True)
class FockConfig:
    """Truncation settings for the single-mode Hilbert space."""

    dim: int = 50

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"Hilbert-space dimension must be at least 2, got {self.dim}")


@dataclass(frozen=True)
class BinomialParams:
    """Rotation-symmetry order N and truncation parameter K of a binomial codeword."""

    N: int
    K: int

    def __post_init__(self):
        if self.N < 1 or self.K < 1:
            raise ValueError(f"binomial parameters must be positive, got N={self.N}, K={self.K}")

    @property
    def top_level(self) -> int:
        """Highest occupied Fock level."""
        return 2 * (self.K // 2) * self.N


@dataclass(frozen=True)
class QunaughtParams:
    """Target squeezing Δ of the grid (qunaught) state: the width of its
    peaks and of its envelope. Every Δ in (0, 1) gives the exact comb,
    compressed to the box (:func:`qunaught_state`)."""

    delta: float

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise ValueError(f"squeezing delta must be in (0, 1), got {self.delta}")


def top_level(state: np.ndarray) -> int:
    """Last nonzero Fock level of a state, or of any row of a stack; −1 if
    every entry is zero."""
    occupied = np.flatnonzero(np.any(state.reshape(-1, state.shape[-1]), axis=0))
    return int(occupied[-1]) if occupied.size else -1


@lru_cache(maxsize=None)
def annihilation(cfg: FockConfig) -> np.ndarray:
    a = np.zeros((cfg.dim, cfg.dim), dtype=complex)
    n = np.arange(1, cfg.dim)
    a[n - 1, n] = np.sqrt(n)
    return a


def _i_powers(n: np.ndarray) -> np.ndarray:
    """iⁿ for an integer array n, each an exact ±1 or ±i read from a table
    of four, where numpy's ``1j ** n`` is off by up to 9.4e-14 past n = 99."""
    return np.array([1, 1j, -1, -1j])[n % 4]


def hermite_functions(max_n: int, x: np.ndarray) -> np.ndarray:
    """Normalized harmonic-oscillator eigenfunctions φ₀..φ_{max_n−1} at x.

    Stable three-term recurrence on the normalized functions; no factorials
    are formed. Every φ_n is carried by φ₀ = π^{−1/4}e^{−x²/2}, which is
    subnormal past |x| ≈ 37.6 and zero past 38.6, so every φ_n loses
    precision there and then reads 0: φ_644(38.5) reads 4.509e-12 against
    the true 4.441e-12, φ_644(38.6) 2.49e-12 against 1.08e-12, and
    φ_644(38.61), truly about 9e-13, reads 0. The trapezoid grids
    (:func:`_trapezoid`) first reach past 38.6 at dim 468.
    """
    x = np.asarray(x, dtype=float)
    phi = np.zeros((max_n, len(x)))
    phi[0] = math.pi ** -0.25 * np.exp(-0.5 * x**2)
    if max_n > 1:
        phi[1] = math.sqrt(2.0) * x * phi[0]
    for n in range(2, max_n):
        phi[n] = math.sqrt(2.0 / n) * x * phi[n - 1] - math.sqrt((n - 1) / n) * phi[n - 2]
    return phi


def _trapezoid(dim: int) -> tuple[float, float]:
    """Largest step h and reach L of the trapezoid sums that project on the
    Hermite functions φ_n, n < dim. A product of two of them oscillates at
    wave numbers up to 2√(2·dim + 1), so h = π/(5√(2·dim + 1)) is 2.5 times
    finer than its Nyquist step, where the trapezoid rule is exponentially
    accurate. Past L = √(2·dim + 1) + 8, every φ_n is below 1e-21."""
    root = math.sqrt(2 * dim + 1)
    return math.pi / (5 * root), root + 8


def displacement(cfg: FockConfig, beta: complex) -> np.ndarray:
    """Displacement operator exp(βa† − β*a), compressed to the box.

    With β = |β|e^{iφ}, D(β) = R·T·R† with R = e^{iφn}, where T shifts the
    position by s = √2|β|: T_mn = ∫φ_m(x)φ_n(x − s)dx, real. Each entry is
    one trapezoid sum over the grid of step h on [−L, L] (:func:`_trapezoid`),
    from one table of the φ_n on that grid and on its shift by −s. Every
    entry is the exact matrix element, at every dim and amplitude.
    """
    step, reach = _trapezoid(cfg.dim)
    x = -reach + step * np.arange(math.ceil(2 * reach / step) + 1)
    phi = hermite_functions(cfg.dim, np.concatenate([x, x - math.sqrt(2) * abs(beta)]))
    shifted = step * phi[:, : x.size] @ phi[:, x.size :].T
    phase = np.exp(1j * np.angle(beta) * np.arange(cfg.dim))
    return phase[:, None] * shifted * phase.conj()


def binomial_state(cfg: FockConfig, params: BinomialParams) -> np.ndarray:
    """Zero-logical codeword of the N-fold binomial code.

    Amplitude √(2^{1−K} C(K, 2k)) on Fock level 2kN for k = 0..⌊K/2⌋, as a
    real (float64) vector.
    """
    if params.top_level >= cfg.dim:
        raise ValueError(
            f"binomial state (N={params.N}, K={params.K}) occupies Fock level "
            f"{params.top_level}, outside dim {cfg.dim}"
        )
    state = np.zeros(cfg.dim)
    for k in range(params.K // 2 + 1):
        state[2 * k * params.N] = math.sqrt(math.comb(params.K, 2 * k) / 2 ** (params.K - 1))
    return state * (1 / np.linalg.norm(state))


def squeezed_vacuum(cfg: FockConfig, delta: float) -> np.ndarray:
    """Gaussian state with position variance delta²/2 (delta=1 is the vacuum):
    the one peak exp(−x²/(2Δ²)) of :func:`_even_peaks`, the analytic
    even-Fock series λⁿ√((2n)!)/(2ⁿn!), λ = tanh(ln delta), cut to the box
    and normalized. The state is real (float64), its odd levels exactly zero.
    """
    if not 0 < delta <= 1:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    return _even_peaks(cfg, delta, lambda t: t == 0)


def qunaught_state(cfg: FockConfig, params: QunaughtParams) -> np.ndarray:
    """Grid state: envelope-weighted comb of displaced squeezed vacua.

    Σ_t exp(−πΔ²t²) D(t√π) S(Δ)|0⟩, cut to the box and normalized. Peak
    spacing in position is √(2π), so the state encodes no qubit. D(t√π)
    shifts the position by t√(2π), so the comb is the wavefunction
    Σ_t exp(−πΔ²t²)·exp(−(x − t√(2π))²/(2Δ²)) of :func:`_even_peaks`; its
    levels n < dim are those of every larger dim, so the target does not
    depend on the truncation beyond the norm. The state is real (float64),
    its odd levels exactly zero.
    """
    delta = params.delta
    return _even_peaks(cfg, delta, lambda t: np.exp(-math.pi * delta**2 * t**2))


def _even_peaks(cfg: FockConfig, delta: float, weight) -> np.ndarray:
    """The state of wavefunction Σ_t weight(|t|)·exp(−(x − t√(2π))²/(2Δ²))
    over the integers t, projected on the φ_n, n < dim, and normalized;
    ``weight`` maps an array of teeth t ≥ 0 to their weights.

    The function is even, so its projection is 0 on the odd φ_n and, on the
    even ones, the peak at t√(2π) counted twice for t > 0. The teeth beyond
    L + 10Δ (:func:`_trapezoid`), which no φ_n reaches, and those of zero
    weight are left out. Each peak's integrals are one trapezoid sum on its
    own grid t√(2π) + Δu, |u| ≤ 10, of step min(0.25, h/Δ) in u, which
    resolves both the peak and the φ_n.
    """
    largest, reach = _trapezoid(cfg.dim)
    step = min(0.25, largest / delta)
    u = step * np.arange(-math.floor(10 / step), math.floor(10 / step) + 1)
    teeth = np.arange(math.floor((reach + 10 * delta) / math.sqrt(2 * math.pi)) + 1)
    weights = weight(teeth) * np.where(teeth > 0, 2.0, 1.0)
    teeth, weights = teeth[weights > 0], weights[weights > 0]
    phi = hermite_functions(cfg.dim, (math.sqrt(2 * math.pi) * teeth[:, None] + delta * u).ravel())
    state = phi @ np.outer(weights, np.exp(-0.5 * u**2)).ravel()
    state[1::2] = 0.0
    return state / np.linalg.norm(state)


class _SectorStore:
    """The (dim, dim, dim) packed blocks of :func:`beamsplitter` for one
    dim, and the number ``written`` of sectors t < written built into them:
    the whole sectors t < dim come first, then the cut ones, always in
    order, since each sector is built from sector t − 1. They are the view
    ``blocks`` = ``bordered[:, 1:, 1:]`` of one (dim, dim + 1, dim + 1)
    array whose row and column 0 of each block are level −1 and stay zero.
    The array is the one a dim holds however it is reached; it is read-only
    outside the writes of :func:`_write_sectors`, and the view always."""

    def __init__(self, dim: int):
        self.bordered = np.zeros((dim, dim + 1, dim + 1))
        self.bordered[0, 1, 1] = 1.0
        self.bordered.setflags(write=False)
        self.blocks = self.bordered[:, 1:, 1:]
        self.written = 1

    def sectors(self, end: int) -> np.ndarray:
        """The blocks, with every sector t < end built: those past the
        last one built are built from it, in order."""
        if self.written < end:
            self.bordered.setflags(write=True)
            try:
                _write_sectors(self.bordered, range(self.written, end))
            finally:
                self.bordered.setflags(write=False)
            self.written = end
        return self.blocks


@lru_cache(maxsize=None)
def _sector_store(dim: int) -> _SectorStore:
    return _SectorStore(dim)


@lru_cache(maxsize=None)
def beamsplitter(cfg: FockConfig) -> np.ndarray:
    """Balanced (50:50) beamsplitter U = exp(θ(a†b − ab†)), θ = π/4, as its
    total-photon-number sectors, packed two to a block: slice b of the
    (dim, dim, dim) result is a real matrix on the photon numbers k of the
    measured mode (the kept one has l = t − k). It holds the whole sector
    t = b on rows and columns 0..b and, for b ≤ dim − 2, the cut sector
    t = dim + b on rows and columns b + 1..dim − 1, the levels k whose l
    stays inside the truncation; its other entries are zero.

    Every block is the exact operator, compressed to the box: sector t is
    the Wigner d^{t/2}(π/2) matrix of the Schwinger map, and a cut sector
    keeps its rows and columns inside the truncation. A whole sector's
    block is orthogonal. A cut sector's block is not: the weight it sends
    to levels outside the box is the truncation's true leakage, so a state
    that reaches sector dim loses norm through it (:func:`_write_sectors`).

    A dim holds one packed array (:class:`_SectorStore`), filled on
    demand. :func:`apply_beamsplitter` on a corner w < dim builds the whole
    sectors t < w only, carrying on from the last one built. This call
    builds the rest of the whole sectors and then the cut ones, on levels
    the whole ones leave zero; :func:`apply_beamsplitter` makes it only for
    a state that reaches sector dim.
    """
    return _sector_store(cfg.dim).sectors(2 * cfg.dim - 1)


def _write_sectors(bordered: np.ndarray, totals: range) -> None:
    """Write each sector t of ``totals``, in order, into the zero-bordered
    blocks of :class:`_SectorStore`, where level k is at index k + 1, from
    sector t − 1, already there.

    The recursion is t·U|k, l⟩ = √k·A·U|k − 1, l⟩ + √l·B·U|k, l − 1⟩, with
    A = U a† U† = (a† − b†)/√2 and B = U b† U† = (a† + b†)/√2. Every
    coefficient of this averaged recursion is at most 1 in size, which keeps
    it stable where the one-term ladder recursion is not. Row and column k
    of sector t need rows and columns k − 1 and k of sector t − 1, so sector
    t on its box levels low..high reads sector t − 1 on levels
    low − 1..high only, one slice of the bordered block: a cut sector is the
    exact sub-block, with no larger window. A whole sector (low = 0) reads
    the zero level −1 of the border, and level t, outside sector t − 1 and
    still zero, as the cut sector t + dim − 1 that shares its block comes
    later; both meet a zero coefficient √k or √l.
    """
    dim = len(bordered)
    roots = np.sqrt(np.arange(dim))
    for total in totals:
        low, high = max(0, total - dim + 1), min(total, dim - 1)
        # sector t − 1 on levels low − 1..high, at indices low..high + 1
        previous = bordered[(total - 1) % dim, low : high + 2, low : high + 2]
        root = roots[low : high + 1]  # √k; reversed, √l = √(t − k)
        from_a = root * previous[:, :-1]  # column k: √k·U|k − 1, l⟩, rows from level low − 1
        from_b = root[::-1] * previous[:, 1:]  # √l·U|k, l − 1⟩
        block = bordered[total % dim, low + 1 : high + 2, low + 1 : high + 2]
        np.add(from_a[:-1], from_b[:-1], out=block)  # the a† parts of A and B
        block *= root[:, None]
        from_b -= from_a  # their b† parts, in place to spare two temporaries
        from_b[1:] *= root[::-1, None]
        block += from_b[1:]
        block /= total * math.sqrt(2)


@lru_cache(maxsize=None)
def _sector_index(dim: int) -> np.ndarray:
    """Row ((k + l) mod dim)·dim + k, in the dim² rows of the packed
    sectors of :func:`beamsplitter`, of each entry [k, l] of a (dim, dim)
    coefficient matrix, flattened in C order: a permutation of range(dim²)."""
    k, l = np.indices((dim, dim))
    index = ((k + l) % dim * dim + k).ravel()
    index.setflags(write=False)
    return index


def apply_beamsplitter(cfg: FockConfig, coeff: np.ndarray) -> np.ndarray:
    """The beamsplitter on (..., w, w) coefficient matrices [k, l] of
    |k⟩|l⟩, w ≤ dim. Entry [k, l] lies in sector k + l. The entries are
    permuted into the packed sectors' rows, one column per state, go through
    the real blocks in one batched matmul, and are permuted back. The
    columns take the stack's dtype promoted to at least float64, and the
    matmul runs on their float64 view, in which a complex column is two
    real ones: one path mixes every stack. A real input gives a real
    (float64) result at half the cost of a complex one, and any other dtype
    gives the float64 or complex128 result of its cast. The zero entries of
    a block that pair one sector with its partner only add exact zeros to
    each dot product.

    A corner w < dim must hold exact zeros in every sector t ≥ w, as a
    joint state of two states with top levels summing to w − 1 does. It is
    mixed by the corner [:w, :w, :w] of the packed blocks, the whole sectors
    t < w at their places for ``_sector_index(w)``, each built by the
    first call that needs it. It needs no cut sector: those are built only
    when w = dim (:func:`beamsplitter`).
    """
    width = coeff.shape[-1]
    if width == cfg.dim:
        blocks = beamsplitter(cfg)
    else:
        blocks = _sector_store(cfg.dim).sectors(width)[:width, :width, :width]
    index = _sector_index(width)
    flat = coeff.reshape(-1, width * width)
    sectors = np.empty((width * width, len(flat)), dtype=np.result_type(flat, np.float64))
    sectors[index] = flat.T
    columns = sectors.view(np.float64)  # a complex column is two real ones
    mixed = (blocks @ columns.reshape(width, width, -1)).reshape(columns.shape)
    return mixed.view(sectors.dtype)[index].T.reshape(coeff.shape)
