"""Operators and states on a truncated Fock space.

Conventions: q = (a + a†)/√2, p = i(a† − a)/√2, vacuum quadrature variance
Δ₀² = 1/2. All constructors are pure functions of an immutable
:class:`FockConfig`; heavyweight operators are cached per config and must be
treated as read-only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import eig_hermitian_tridiagonal

VACUUM_VARIANCE = 0.5

#: Extra Fock levels of the space a displacement is exponentiated on before
#: it is cut back to ``dim``, to keep truncation-edge error out of it.
DISPLACEMENT_PAD = 20

#: Largest weight exp(−πΔ²t²) of a qunaught peak left out of its envelope sum.
QUNAUGHT_TAIL = 1e-12


@dataclass(frozen=True)
class FockConfig:
    """Truncation settings for the single-mode Hilbert space."""

    dim: int = 50

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"Hilbert-space dimension must be at least 2, got {self.dim}")


@dataclass(frozen=True)
class QuadratureBasis:
    """Eigenvalues (ascending) and eigenvectors of one quadrature axis."""

    axis: str
    dim: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def center_index(self) -> int:
        """Index of the innermost negative eigenvalue (24 at dim 50)."""
        return self.dim // 2 - 1


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
    """Target squeezing Δ of the grid (qunaught) state."""

    delta: float

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise ValueError(f"squeezing delta must be in (0, 1), got {self.delta}")

    @property
    def t_max(self) -> int:
        """Envelope cutoff: the peak sum runs over |t| < t_max, the smallest
        cutoff whose first omitted weight exp(−πΔ²t_max²) is below
        :data:`QUNAUGHT_TAIL`."""
        return math.ceil(math.sqrt(-math.log(QUNAUGHT_TAIL) / (math.pi * self.delta**2)))


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


@lru_cache(maxsize=None)
def quadrature_basis(cfg: FockConfig, axis: str) -> QuadratureBasis:
    """Diagonalize the q or p quadrature on the truncated Fock space.

    q is real symmetric tridiagonal in the Fock basis, so its eigenvectors
    are real (float64). p shares its spectrum and its eigenvectors are
    obtained through the Fock-diagonal phase map |n⟩ → iⁿ|n⟩, under which
    p = F q F†: row n of the complex p eigenvectors is iⁿ times row n of the
    q eigenvectors, exactly. So the p basis is built from the cached q
    basis, and a dim makes one eigensolve for both axes; they share the
    eigenvalue array.
    """
    if axis not in ("q", "p"):
        raise ValueError(f"axis must be 'q' or 'p', got {axis!r}")
    if axis == "p":
        q = quadrature_basis(cfg, "q")
        vectors = (1j ** np.arange(cfg.dim))[:, None] * q.eigenvectors
        vectors.setflags(write=False)
        return QuadratureBasis(axis=axis, dim=cfg.dim, eigenvalues=q.eigenvalues, eigenvectors=vectors)
    offdiag = np.sqrt(np.arange(1, cfg.dim) / 2.0)
    values, vectors = eig_hermitian_tridiagonal(np.zeros(cfg.dim), offdiag)
    vectors.setflags(write=False)
    values.setflags(write=False)
    return QuadratureBasis(axis=axis, dim=cfg.dim, eigenvalues=values, eigenvectors=vectors)


def displacement(cfg: FockConfig, beta: complex) -> np.ndarray:
    """Displacement operator exp(βa† − β*a), built on a padded space.

    With β = |β|e^{iφ}, D(β) = R exp(−i√2|β|p) R† with R = e^{iφn}: a phase
    function of the p eigenbasis of dim + DISPLACEMENT_PAD levels, cut back
    to dim. This is the exact exponential of the padded truncated generator,
    accurate for amplitudes up to |β| ~ √π at the default configuration.
    """
    if abs(beta) ** 2 > cfg.dim / 4:
        warnings.warn(
            f"displacement amplitude |beta|^2 = {abs(beta)**2:.1f} is large for "
            f"dim {cfg.dim}; matrix elements near the truncation edge are unreliable "
            f"below dim {math.ceil(4 * abs(beta) ** 2)}",
            stacklevel=2,
        )
    basis = quadrature_basis(FockConfig(cfg.dim + DISPLACEMENT_PAD), "p")
    rows = np.exp(1j * np.angle(beta) * np.arange(cfg.dim))[:, None] * basis.eigenvectors[: cfg.dim]
    return (rows * np.exp(-1j * math.sqrt(2) * abs(beta) * basis.eigenvalues)) @ rows.conj().T


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
    """Gaussian state with position variance delta²/2 (delta=1 is the vacuum).

    Computed from the analytic even-Fock series λⁿ√((2n)!)/(2ⁿn!) with
    λ = tanh(ln delta), then normalized in the truncated space. This avoids
    exponentiating the two-photon generator at the truncation edge. The
    state is real (float64).
    """
    if not 0 < delta <= 1:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    lam = math.tanh(math.log(delta))
    state = np.zeros(cfg.dim)
    state[0] = 1.0
    coeff = 1.0
    for n in range(1, (cfg.dim - 1) // 2 + 1):
        coeff *= lam * math.sqrt((2 * n) * (2 * n - 1)) / (2 * n)
        state[2 * n] = coeff
    return state * (1 / np.linalg.norm(state))


def qunaught_state(cfg: FockConfig, params: QunaughtParams) -> np.ndarray:
    """Grid state: envelope-weighted comb of displaced squeezed vacua.

    Σ_t exp(−πΔ²t²) D(t√π) S(Δ)|0⟩, normalized in the truncated space.
    Peak spacing in position is √(2π), so the state encodes no qubit. Every
    D(t√π) = exp(−i√(2π)t·p), so the sum is one comb function of p on the
    space of dim + DISPLACEMENT_PAD levels used by :func:`displacement`,
    cut back to dim. The comb's peak at p = 0 has width Δ; a Δ below half
    the spacing of the padded p eigenvalues at p = 0 leaves it to one
    eigenvector or none, so the truncation cannot resolve the comb, and
    raises ValueError.

    The comb is applied in the real padded q eigenbasis, through the frame
    F = diag(iⁿ) with p = F q F†: comb(p)|s⟩ = F comb(q) F†|s⟩. The squeezed
    vacuum s lives on the even levels, where F and F† are the real sign
    (−1)^{n/2}; comb(q) is even in q, so it keeps the parity. The state is
    thus real (float64), and its odd levels are set to exactly zero rather
    than left at rounding.
    """
    basis = quadrature_basis(FockConfig(cfg.dim + DISPLACEMENT_PAD), "q")
    center = basis.center_index
    spacing = basis.eigenvalues[center + 1] - basis.eigenvalues[center]
    if params.delta < spacing / 2:
        raise ValueError(
            f"qunaught delta={params.delta} is too small for dim {cfg.dim}: "
            f"it must be at least {spacing / 2:.4g}, half the p eigenvalue spacing at p = 0"
        )
    comb = np.ones(basis.dim)
    for t in range(1, params.t_max):
        weight = math.exp(-math.pi * params.delta**2 * t**2)
        comb += 2 * weight * np.cos(math.sqrt(2 * math.pi) * t * basis.eigenvalues)  # peaks +t and −t
    frame = np.zeros(cfg.dim)
    frame[0::2] = (-1.0) ** np.arange((cfg.dim + 1) // 2)  # iⁿ on the even levels
    rows = basis.eigenvectors[: cfg.dim]
    state = frame * (rows @ (comb * (rows.T @ (frame * squeezed_vacuum(cfg, params.delta)))))
    return state / np.linalg.norm(state)


@lru_cache(maxsize=None)
def _packed_sectors(dim: int) -> np.ndarray:
    """The (dim, dim, dim) packed blocks of :func:`beamsplitter` with only
    the whole sectors t < dim filled in. The cut sectors stay zero until
    :func:`beamsplitter` writes them into this same array."""
    blocks = np.zeros((dim, dim, dim))
    blocks[0, 0, 0] = 1.0
    _write_sectors(blocks, range(1, dim))
    blocks.setflags(write=False)
    return blocks


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

    The cut sectors are written into the array of the whole ones
    (:func:`_packed_sectors`), on levels that array leaves zero, so a dim
    holds one packed array however it is reached. They are built on the
    first call; :func:`apply_beamsplitter` makes that call only for a state
    that reaches sector dim.
    """
    blocks = _packed_sectors(cfg.dim)
    blocks.setflags(write=True)
    try:
        _write_sectors(blocks, range(cfg.dim, 2 * cfg.dim - 1))
    finally:
        blocks.setflags(write=False)
    return blocks


def _write_sectors(blocks: np.ndarray, totals: range) -> None:
    """Write each sector t of ``totals``, in order, into the packed
    ``blocks`` of :func:`beamsplitter` from sector t − 1, already there.

    The recursion is t·U|k, l⟩ = √k·A·U|k − 1, l⟩ + √l·B·U|k, l − 1⟩, with
    A = U a† U† = (a† − b†)/√2 and B = U b† U† = (a† + b†)/√2. Every
    coefficient of this averaged recursion is at most 1 in size, which keeps
    it stable where the one-term ladder recursion is not. Row and column k
    of sector t need rows and columns k − 1 and k of sector t − 1, so sector
    t on its box levels low..high needs sector t − 1 on levels
    low − 1..high only: a cut sector is the exact sub-block, with no larger
    window. A whole sector (low = 0) reads sector t − 1 padded with a zero
    level −1, and on level t, outside sector t − 1; both meet a zero
    coefficient √k or √l.
    """
    dim = len(blocks)
    for total in totals:
        low, high = max(0, total - dim + 1), min(total, dim - 1)
        read = slice(max(0, low - 1), high + 1)
        previous = blocks[(total - 1) % dim, read, read]
        if not low:
            previous = np.pad(previous, (1, 0))
        root = np.sqrt(np.arange(low, high + 1))  # √k; reversed, √l = √(t − k)
        from_a = root * previous[:, :-1]  # column k: √k·U|k − 1, l⟩, rows from level low − 1
        from_b = root[::-1] * previous[:, 1:]  # √l·U|k, l − 1⟩
        block = blocks[total % dim, low : high + 1, low : high + 1]
        block[:] = root[:, None] * (from_a + from_b)[:-1]  # the a† parts of A and B
        block += root[::-1, None] * (from_b - from_a)[1:]  # their b† parts
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
    permuted into the packed sectors' rows, go through the real blocks in
    one batched matmul, one column per state, and are permuted back; a
    complex stack adds one more column per state for its imaginary part. So
    a real input gives a real (float64) result at half the cost of a complex
    one. The zero entries of a block that pair one sector with its partner
    only add exact zeros to each dot product.

    A corner w < dim must hold exact zeros in every sector t ≥ w, as a
    joint state of two states with top levels summing to w − 1 does. It is
    mixed by the corner [:w, :w, :w] of the packed blocks, the whole sectors
    t < w at their places for ``_sector_index(w)``, and needs no cut sector:
    those are built only when w = dim.
    """
    width = coeff.shape[-1]
    if width == cfg.dim:
        blocks = beamsplitter(cfg)
    else:
        blocks = _packed_sectors(cfg.dim)[:width, :width, :width]
    index = _sector_index(width)
    flat = coeff.reshape(-1, width * width)
    split = np.iscomplexobj(flat)
    parts = np.concatenate([flat.real, flat.imag]) if split else flat
    sectors = np.empty((width * width, len(parts)))
    sectors[index] = parts.T
    mixed = (blocks @ sectors.reshape(width, width, -1)).reshape(sectors.shape)
    mixed = mixed[index].T
    if split:
        mixed = mixed[: len(flat)] + 1j * mixed[len(flat) :]
    return mixed.reshape(coeff.shape)
