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

from .numerics import DEFAULT_TOLERANCES, eig_hermitian_tridiagonal, expm_skew_hermitian

VACUUM_VARIANCE = 0.5

#: Extra Fock levels of the space a displacement is exponentiated on before
#: it is cut back to ``dim``, to keep truncation-edge error out of it.
DISPLACEMENT_PAD = 20

#: Least norm of a qunaught comb, as a share of its weight sum, that is not rounding noise.
MIN_COMB_NORM = 1e-8


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
    """Target squeezing and envelope cutoff of the grid (qunaught) state.

    The peak-envelope sum runs over |t| < t_max; t_max=None picks the
    smallest cutoff whose first omitted weight exp(−πΔ²t_max²) is below
    1e−12.
    """

    delta: float
    t_max: int | None = None

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise ValueError(f"squeezing delta must be in (0, 1), got {self.delta}")
        if self.t_max is None:
            object.__setattr__(self, "t_max", _auto_t_max(self.delta))
        if self.t_max < 1:
            raise ValueError(f"envelope cutoff t_max must be at least 1, got {self.t_max}")
        tail = math.exp(-math.pi * self.delta**2 * self.t_max**2)
        if tail >= DEFAULT_TOLERANCES.qunaught_tail:
            raise ValueError(
                f"envelope cutoff t_max={self.t_max} leaves weight {tail:.2e} "
                f"in the first omitted term at delta={self.delta}; increase t_max"
            )


def _auto_t_max(delta: float) -> int:
    tail = DEFAULT_TOLERANCES.qunaught_tail
    return math.ceil(math.sqrt(-math.log(tail) / (math.pi * delta**2)))


@lru_cache(maxsize=None)
def annihilation(cfg: FockConfig) -> np.ndarray:
    a = np.zeros((cfg.dim, cfg.dim), dtype=complex)
    n = np.arange(1, cfg.dim)
    a[n - 1, n] = np.sqrt(n)
    return a


@lru_cache(maxsize=None)
def quadrature_basis(cfg: FockConfig, axis: str) -> QuadratureBasis:
    """Diagonalize the q or p quadrature on the truncated Fock space.

    q is real symmetric tridiagonal in the Fock basis. p shares its spectrum
    and its eigenvectors are obtained through the Fock-diagonal phase map
    |n⟩ → iⁿ|n⟩, under which p = F q F†.
    """
    if axis not in ("q", "p"):
        raise ValueError(f"axis must be 'q' or 'p', got {axis!r}")
    offdiag = np.sqrt(np.arange(1, cfg.dim) / 2.0)
    values, vectors = eig_hermitian_tridiagonal(np.zeros(cfg.dim), offdiag)
    if axis == "p":
        vectors = (1j ** np.arange(cfg.dim))[:, None] * vectors
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

    Amplitude √(2^{1−K} C(K, 2k)) on Fock level 2kN for k = 0..⌊K/2⌋.
    """
    if params.top_level >= cfg.dim:
        raise ValueError(
            f"binomial state (N={params.N}, K={params.K}) occupies Fock level "
            f"{params.top_level}, outside dim {cfg.dim}"
        )
    state = np.zeros(cfg.dim, dtype=complex)
    for k in range(params.K // 2 + 1):
        state[2 * k * params.N] = math.sqrt(math.comb(params.K, 2 * k) / 2 ** (params.K - 1))
    return state / np.linalg.norm(state)


def squeezed_vacuum(cfg: FockConfig, delta: float) -> np.ndarray:
    """Gaussian state with position variance delta²/2 (delta=1 is the vacuum).

    Computed from the analytic even-Fock series λⁿ√((2n)!)/(2ⁿn!) with
    λ = tanh(ln delta), then normalized in the truncated space. This avoids
    exponentiating the two-photon generator at the truncation edge.
    """
    if not 0 < delta <= 1:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    lam = math.tanh(math.log(delta))
    state = np.zeros(cfg.dim, dtype=complex)
    state[0] = 1.0
    coeff = 1.0
    for n in range(1, (cfg.dim - 1) // 2 + 1):
        coeff *= lam * math.sqrt((2 * n) * (2 * n - 1)) / (2 * n)
        state[2 * n] = coeff
    return state / np.linalg.norm(state)


def qunaught_state(cfg: FockConfig, params: QunaughtParams) -> np.ndarray:
    """Grid state: envelope-weighted comb of displaced squeezed vacua.

    Σ_t exp(−πΔ²t²) D(t√π) S(Δ)|0⟩, normalized in the truncated space.
    Peak spacing in position is √(2π), so the state encodes no qubit. Every
    D(t√π) = exp(−i√(2π)t·p), so the sum is one comb function of p applied
    in the padded p eigenbasis used by :func:`displacement`; a Δ too small for
    dim leaves only rounding noise of the comb there and raises ValueError.
    """
    basis = quadrature_basis(FockConfig(cfg.dim + DISPLACEMENT_PAD), "p")
    comb = np.ones(basis.dim)
    weight_sum = 1.0
    for t in range(1, params.t_max):
        weight = math.exp(-math.pi * params.delta**2 * t**2)
        weight_sum += 2 * weight
        comb += 2 * weight * np.cos(math.sqrt(2 * math.pi) * t * basis.eigenvalues)  # peaks +t and −t
    rows = basis.eigenvectors[: cfg.dim]
    state = rows @ (comb * (rows.conj().T @ squeezed_vacuum(cfg, params.delta)))
    norm = np.linalg.norm(state)
    if norm < MIN_COMB_NORM * weight_sum:
        raise ValueError(f"qunaught delta={params.delta} is too small for dim {cfg.dim}")
    return state / norm


@lru_cache(maxsize=None)
def beamsplitter(cfg: FockConfig) -> np.ndarray:
    """Balanced (50:50) beamsplitter exp(θ(a†b − ab†)), θ = π/4, as its
    total-photon-number blocks: slice t of the (2·dim − 1, dim, dim) result
    is the real orthogonal block of sector k + l = t on |k⟩|l⟩ (k the
    measured mode, l the kept one), indexed by k, with zero rows and columns
    where l = t − k falls outside the truncation.
    """
    dim = cfg.dim
    blocks = np.zeros((2 * dim - 1, dim, dim))
    for total in range(2 * dim - 1):
        lo, hi = max(0, total - dim + 1), min(total, dim - 1) + 1
        ks = np.arange(lo, hi - 1)
        coupling = math.pi / 4 * np.sqrt((ks + 1) * (total - ks))
        blocks[total, lo:hi, lo:hi] = expm_skew_hermitian(np.diag(coupling, -1) - np.diag(coupling, 1))
    blocks.setflags(write=False)
    return blocks


def apply_beamsplitter(cfg: FockConfig, coeff: np.ndarray) -> np.ndarray:
    """The beamsplitter on (..., dim, dim) coefficient matrices [k, l] of
    |k⟩|l⟩. Entry [k, l] lies in sector k + l; the real and imaginary parts
    of every state go through the real blocks in one batched matmul.
    """
    dim = cfg.dim
    k, l = np.indices((dim, dim))
    flat = coeff.reshape(-1, dim, dim)
    sectors = np.zeros((2 * dim - 1, dim, 2 * len(flat)))
    sectors[k + l, k] = np.concatenate([flat.real, flat.imag]).transpose(1, 2, 0)
    mixed = (beamsplitter(cfg) @ sectors)[k + l, k].transpose(2, 0, 1)
    return (mixed[: len(flat)] + 1j * mixed[len(flat) :]).reshape(coeff.shape)
