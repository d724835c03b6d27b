"""Independent numerical oracles for the test suite.

Everything here is computed by a different algorithm than the library code
it checks: Gauss-Hermite nodes by root bracketing on the Hermite-function
recurrence (vs the LAPACK tridiagonal eigensolver), displacement matrix
elements by the closed-form Laguerre series and by the Padé matrix
exponential of the padded generator (vs a phase function of the p
eigenbasis), the grid state as a sum of separately displaced peaks (vs one
comb function of p), the two-mode beamsplitter generator assembled from
Kronecker products (vs per-sector blocks), and Wigner values by assembling
the displaced-parity expectation directly. :func:`dense_beamsplitter` is
not an oracle: it writes out, as a dense matrix, the operator the library
applies.
"""

import math

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


def beamsplitter_generator(cfg):
    """Two-mode generator θ(a†b − ab†), θ = π/4, on the dim² space with
    index k·dim + l for |k⟩|l⟩; exponentiating it must agree with the
    library's block-wise beamsplitter on every sector that fits the
    truncation."""
    a = annihilation(cfg)
    identity = np.eye(cfg.dim)
    a1 = np.kron(a, identity)
    a2 = np.kron(identity, a)
    return (math.pi / 4) * (a1.conj().T @ a2 - a1 @ a2.conj().T)


def dense_beamsplitter(cfg):
    """The dim²×dim² matrix of ``fock.apply_beamsplitter``, column k·dim + l
    being its image of |k⟩|l⟩, so that the dense checks run on the code the
    breeding step uses."""
    basis = np.eye(cfg.dim**2).reshape(cfg.dim**2, cfg.dim, cfg.dim)
    return apply_beamsplitter(cfg, basis).reshape(cfg.dim**2, cfg.dim**2).T
