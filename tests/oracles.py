"""Independent numerical oracles for the test suite.

Everything here is computed by a different algorithm than the library code
it checks: Gauss-Hermite nodes by root bracketing on the Hermite-function
recurrence (vs numpy's symmetric eigensolver), displacement matrix
elements by the closed-form Laguerre series and by the Padé matrix
exponential of the padded generator (vs a phase function of the p
eigenbasis), the grid state as a sum of separately displaced peaks (vs one
comb function of p), the beamsplitter as the Padé exponential of its
two-mode generator assembled from Kronecker products, or of each
photon-number sector's generator assembled from single-mode matrix elements
(vs the d^j recursion for whole sectors and a half-size real eigensolve for
truncated ones; mpmath's 40-digit exponential for the small truncated
sectors), and Wigner values by assembling the displaced-parity
expectation directly.
:func:`direct_two_iteration_enumeration` breeds every first-level pair,
where the library breeds a quarter of them and fills in the rest by
exchange and parity symmetry.
:func:`dense_beamsplitter` is not an oracle: it writes out, as a dense
matrix, the operator the library applies. The quadrature operators, the
constant schedule and the tolerances below are used only by the tests.
"""

import math

import mpmath
import numpy as np
import scipy.linalg
from scipy.special import eval_genlaguerre

from qpbreed.fock import (
    DISPLACEMENT_PAD,
    FockConfig,
    annihilation,
    apply_beamsplitter,
    squeezed_vacuum,
)
from qpbreed.numerics import PROBABILITY_FLOOR
from qpbreed.protocol import Schedule, breed_step, default_input

HERMITIAN = 1e-12
UNITARITY = 1e-10
EIG_RESIDUAL = 1e-10
DISTRIBUTION_SUM = 1e-10
BEAMSPLITTER_ROUTES = 1e-9


def quadrature(cfg, angle):
    """Rotated quadrature (a e^{−iθ} + a† e^{iθ})/√2; θ=0 gives q, θ=π/2 gives p."""
    a = annihilation(cfg)
    return (a * np.exp(-1j * angle) + a.conj().T * np.exp(1j * angle)) / math.sqrt(2)


def constant_schedule(axis, iterations):
    """The same measurement axis at every iteration."""
    return Schedule((axis,) * iterations)


def hermite_phi(n_max, x):
    """Normalized Hermite functions phi_0..phi_n_max at scalar or array x."""
    x = np.asarray(x, dtype=float)
    phi = np.zeros((n_max + 1,) + x.shape)
    phi[0] = math.pi ** -0.25 * np.exp(-0.5 * x**2)
    if n_max >= 1:
        phi[1] = math.sqrt(2.0) * x * phi[0]
    for n in range(2, n_max + 1):
        phi[n] = math.sqrt(2.0 / n) * x * phi[n - 1] - math.sqrt((n - 1) / n) * phi[n - 2]
    return phi


def gauss_hermite_nodes(n):
    """The n roots of the Hermite polynomial H_n, by bracketing + Newton.

    These are exactly the eigenvalues of the n-level truncated position
    quadrature (Jacobi matrix with off-diagonal sqrt(k/2)).
    """
    limit = math.sqrt(2 * n + 1) + 1.0
    grid = np.linspace(-limit, limit, 40 * n + 1)
    values = hermite_phi(n, grid)[n]
    roots = []
    for i in range(len(grid) - 1):
        if values[i] == 0.0:
            roots.append(grid[i])
            continue
        if values[i] * values[i + 1] < 0:
            lo, hi = grid[i], grid[i + 1]
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                fm = hermite_phi(n, np.array([mid]))[n][0]
                if hermite_phi(n, np.array([lo]))[n][0] * fm <= 0:
                    hi = mid
                else:
                    lo = mid
            x = 0.5 * (lo + hi)
            # Newton polish: phi_n' = sqrt(2n) phi_{n-1} - x phi_n
            for _ in range(5):
                col = hermite_phi(n, np.array([x]))[:, 0]
                deriv = math.sqrt(2 * n) * col[n - 1] - x * col[n]
                x -= col[n] / deriv
            roots.append(x)
    assert len(roots) == n, f"found {len(roots)} roots, expected {n}"
    return np.sort(np.array(roots))


def displacement_element(m, n, beta):
    """<m|D(beta)|n> from the closed-form associated-Laguerre expression."""
    b2 = abs(beta) ** 2
    if m >= n:
        log_ratio = 0.5 * (_log_fact(n) - _log_fact(m))
        poly = eval_genlaguerre(n, m - n, b2)
        return math.exp(-0.5 * b2 + log_ratio) * beta ** (m - n) * poly
    # D(beta)^dagger = D(-beta), so <m|D(beta)|n> = conj(<n|D(-beta)|m>)
    return np.conj(displacement_element(n, m, -beta))


def _log_fact(k):
    return math.lgamma(k + 1)


def displacement_matrix(dim, beta):
    out = np.zeros((dim, dim), dtype=complex)
    for m in range(dim):
        for n in range(dim):
            out[m, n] = displacement_element(m, n, beta)
    return out


def padded_expm_displacement(dim, beta):
    """D(β) as scipy's ``expm`` of βa† − β*a on dim + DISPLACEMENT_PAD
    levels, cut back to dim."""
    a = annihilation(FockConfig(dim + DISPLACEMENT_PAD))
    return scipy.linalg.expm(beta * a.conj().T - np.conj(beta) * a)[:dim, :dim]


def qunaught_peak_sum(dim, params):
    """Σ_t exp(−πΔ²t²) D(t√π) S(Δ)|0⟩ summed peak by peak with
    :func:`padded_expm_displacement`, normalized."""
    core = squeezed_vacuum(FockConfig(dim), params.delta)
    state = np.zeros(dim, dtype=complex)
    for t in range(-(params.t_max - 1), params.t_max):
        weight = math.exp(-math.pi * params.delta**2 * t**2)
        state += weight * (padded_expm_displacement(dim, t * math.sqrt(math.pi)) @ core)
    return state / np.linalg.norm(state)


def parity_operator(dim):
    return np.diag((-1.0) ** np.arange(dim))


def wigner_point(state, q, p, pad=30):
    """W(q, p) by assembling <psi|D(alpha) P D(alpha)^dag|psi>/pi directly
    from oracle displacement matrix elements on a padded space."""
    dim = len(state)
    alpha = (q + 1j * p) / math.sqrt(2)
    big = np.zeros(dim + pad, dtype=complex)
    big[:dim] = state
    d = displacement_matrix(dim + pad, -alpha)
    shifted = d @ big
    return float(np.sum((-1.0) ** np.arange(dim + pad) * np.abs(shifted) ** 2) / math.pi)


def generator_beamsplitter(cfg):
    """scipy's Padé ``expm`` of the two-mode generator θ(a†b − ab†),
    θ = π/4, on the dim² space with index k·dim + l for |k⟩|l⟩. The
    truncated generator keeps total photon number, so this matches the
    library's block-wise beamsplitter on every sector, truncated or not."""
    a = annihilation(cfg)
    identity = np.eye(cfg.dim)
    a1 = np.kron(a, identity)
    a2 = np.kron(identity, a)
    return scipy.linalg.expm((math.pi / 4) * (a1.conj().T @ a2 - a1 @ a2.conj().T))


#: Truncated beamsplitter sectors of at most this many levels are
#: exponentiated in extended precision: their couplings reach about 78 at
#: dim 101, where scipy's double-precision ``expm`` is off by up to 9.4e-13.
MPMATH_SECTOR_LEVELS = 8


def sector_expm_beamsplitter(cfg):
    """The ``(2·dim − 1, dim, dim)`` blocks of ``fock.beamsplitter``, each
    as the exponential of its sector's own truncated generator: the matrix
    elements ⟨k, t − k|θ(a†b − ab†)|k', t − k'⟩ over the levels k with both
    photon numbers inside the truncation. Whole sectors and the larger
    truncated ones use scipy's Padé ``expm``; truncated sectors of at most
    :data:`MPMATH_SECTOR_LEVELS` levels use mpmath's at 40 digits."""
    adag = annihilation(cfg).real.T
    blocks = np.zeros((2 * cfg.dim - 1, cfg.dim, cfg.dim))
    for total in range(2 * cfg.dim - 1):
        ks = np.arange(max(0, total - cfg.dim + 1), min(total, cfg.dim - 1) + 1)
        k, l = np.ix_(ks, ks), np.ix_(total - ks, total - ks)
        generator = (math.pi / 4) * (adag[k] * adag.T[l] - adag.T[k] * adag[l])
        if total >= cfg.dim and len(ks) <= MPMATH_SECTOR_LEVELS:
            with mpmath.workdps(40):
                exact = mpmath.expm(mpmath.matrix(generator.tolist()))
                blocks[total, k[0], k[1]] = np.array(exact.tolist(), dtype=float)
        else:
            blocks[total, k[0], k[1]] = scipy.linalg.expm(generator)
    return blocks


def dense_beamsplitter(cfg):
    """The dim²×dim² matrix of ``fock.apply_beamsplitter``, column k·dim + l
    being its image of |k⟩|l⟩, so that the dense checks run on the code the
    breeding step uses."""
    basis = np.eye(cfg.dim**2).reshape(cfg.dim**2, cfg.dim, cfg.dim)
    return apply_beamsplitter(cfg, basis).reshape(cfg.dim**2, cfg.dim**2).T


def direct_two_iteration_enumeration(cfg, target):
    """``(probability, fidelity)`` of every [q1, q2, p] leaf of the default
    two-iteration tree, breeding all dim² first-level pairs; fidelity is nan
    where the second-level outcome underflows."""
    psi0 = default_input(cfg)
    probs, posts = breed_step(psi0, psi0, "q", cfg)
    probability = np.empty((cfg.dim,) * 3)
    fid = np.empty_like(probability)
    for q1 in range(cfg.dim):
        cond, second = breed_step(posts[q1], posts, "p", cfg)
        probability[q1] = probs[q1] * probs[:, None] * cond
        kept = cond > PROBABILITY_FLOOR
        fid[q1] = np.where(kept, np.abs(second @ target.conj()), np.nan)
    return probability, fid
