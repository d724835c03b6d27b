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
sectors; and, for the worst truncated sectors, the 40-digit exponential
of each sector's symmetric tridiagonal form through mpmath's ``eigsy``),
and Wigner values by assembling the displaced-parity expectation directly.
:func:`unreduced_wigner` is the library's Wigner sum on every grid point in
complex arithmetic, where the library evaluates the symmetry-reduced part
of the grid in real arithmetic and mirrors it.
:func:`p_basis_qunaught_state` builds the grid state in the complex p
eigenbasis, where the library uses the real q eigenbasis.
:func:`direct_two_iteration_enumeration` breeds every first-level pair,
where the library breeds an eighth of them, scores half of their p
outcomes and fills in the rest by exchange and the mirror of each
outcome. :func:`exchange_parity_leaf_fold` is the earlier fold, by
exchange and global parity only.
:func:`full_breed_step` breeds on all dim levels of each mode, where the
library breeds on the corner of levels its inputs occupy.
:func:`tree_log_probability` breeds every node of a uniformly post-selected
tree, where the library follows one branch and weighs each level's
log-probability by its number of nodes.
:func:`expm_skew_tridiagonal` exponentiates one truncated sector at a time
and assembles it at full size from its lifted half-size eigenvectors, where
the library diagonalizes the half-size parts of all truncated sectors
grouped by size and assembles each sector at half size in the mirror
basis; :func:`per_sector_beamsplitter` writes its sectors into the packed
blocks.
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
    _packed_sectors,
    apply_beamsplitter,
    squeezed_vacuum,
)
from qpbreed.homodyne import projection_amplitudes, quadrature_basis
from qpbreed.numerics import PROBABILITY_FLOOR, SKEW_HERMITIAN_TOL
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


def p_basis_qunaught_state(cfg, params):
    """``fock.qunaught_state`` as a complex state: the comb function of p
    applied in the complex padded p eigenbasis itself, where the library
    applies it in the real q eigenbasis through the frame iⁿ."""
    basis = quadrature_basis(FockConfig(cfg.dim + DISPLACEMENT_PAD), "p")
    comb = np.ones(basis.dim)
    for t in range(1, params.t_max):
        weight = math.exp(-math.pi * params.delta**2 * t**2)
        comb += 2 * weight * np.cos(math.sqrt(2 * math.pi) * t * basis.eigenvalues)
    rows = basis.eigenvectors[: cfg.dim]
    state = rows @ (comb * (rows.conj().T @ squeezed_vacuum(cfg, params.delta)))
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


def unreduced_wigner(state, q_axis, p_axis):
    """``metrics.wigner`` evaluated on every grid point in complex
    arithmetic, with no symmetry used: the same x grid, y step and sums,
    but the products ψ*(q+y)ψ(q−y) of every q row are complex and meet the
    complex phases e^{2ipy} of every p in one complex matrix product."""
    state = np.asarray(state, dtype=complex)
    dim = state.shape[0]
    q_axis = np.asarray(q_axis, dtype=float)
    p_axis = np.asarray(p_axis, dtype=float)
    x_max = math.sqrt(2 * dim + 1) + 3.0
    p_extreme = float(np.max(np.abs(p_axis))) if p_axis.size else 0.0
    bandwidth = 2 * math.sqrt(2 * dim + 1) + 2 * p_extreme
    bound = math.pi / (2.5 * bandwidth)
    y_max = x_max + float(np.max(np.abs(q_axis)))
    n_q = len(q_axis)
    stride = 1
    if n_q == 1:
        h = bound
    else:
        spacing = (q_axis[-1] - q_axis[0]) / (n_q - 1)
        while abs(spacing) / stride > bound:
            stride *= 2
        h = spacing / stride
    skip = max(1, int(bound // abs(h)))
    m = math.ceil(y_max / (skip * abs(h)))
    x = q_axis[0] + h * np.arange(-m * skip, (n_q - 1) * stride + m * skip + 1)
    psi = state @ hermite_phi(dim - 1, x)
    windows = np.lib.stride_tricks.sliding_window_view(psi, m * skip + 1)[:, ::skip]
    products = windows[m * skip :: stride].conj() * windows[: n_q * stride : stride, ::-1]
    y_step = skip * h
    phases = np.exp(np.multiply.outer(2j * y_step * np.arange(m + 1), p_axis))
    phases[1:] *= 2
    return (products @ phases).real * (abs(y_step) / math.pi)


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
    """The packed ``(dim, dim, dim)`` blocks of ``fock.beamsplitter``: each
    sector t as the exponential of its own truncated generator, the matrix
    elements ⟨k, t − k|θ(a†b − ab†)|k', t − k'⟩ over the levels k with both
    photon numbers inside the truncation, written to block t mod dim on
    those rows and columns. Whole sectors and the larger truncated ones use
    scipy's Padé ``expm``; truncated sectors of at most
    :data:`MPMATH_SECTOR_LEVELS` levels use mpmath's at 40 digits."""
    adag = annihilation(cfg).real.T
    blocks = np.zeros((cfg.dim, cfg.dim, cfg.dim))
    for total in range(2 * cfg.dim - 1):
        ks = np.arange(max(0, total - cfg.dim + 1), min(total, cfg.dim - 1) + 1)
        k, l = np.ix_(ks, ks), np.ix_(total - ks, total - ks)
        generator = (math.pi / 4) * (adag[k] * adag.T[l] - adag.T[k] * adag[l])
        if total >= cfg.dim and len(ks) <= MPMATH_SECTOR_LEVELS:
            with mpmath.workdps(40):
                exact = mpmath.expm(mpmath.matrix(generator.tolist()))
                blocks[total % cfg.dim, k[0], k[1]] = np.array(exact.tolist(), dtype=float)
        else:
            blocks[total % cfg.dim, k[0], k[1]] = scipy.linalg.expm(generator)
    return blocks


def eigsy_sector_beamsplitter(cfg, total):
    """Sector ``total`` of ``fock.beamsplitter`` at 40 digits, by mpmath's
    ``eigsy`` of the sector's symmetric tridiagonal form, as a square matrix
    on the sector's own levels k, max(0, total − dim + 1)..min(total, dim − 1).

    On those levels, the generator θ(a†b − ab†) has
    G[j + 1, j] = −G[j, j + 1] = θ·√((k_j + 1)(t − k_j)). So G = −i·D·S·D†,
    D = diag(iʲ), where S is symmetric tridiagonal with the same couplings,
    and with S = V·diag(λ)·Vᵀ, exp(G) = D·V·diag(e^{−iλ})·Vᵀ·D†. Entry
    [m, k] of that is C, S, −C, −S for (m − k) mod 4 = 0, 1, 2, 3, with
    C = V·diag(cos λ)·Vᵀ and S = V·diag(sin λ)·Vᵀ."""
    ks = range(max(0, total - cfg.dim + 1), min(total, cfg.dim - 1) + 1)
    n = len(ks)
    block = np.zeros((n, n))
    with mpmath.workdps(40):
        tridiagonal = mpmath.zeros(n, n)
        for j, k in enumerate(ks[:-1]):
            tridiagonal[j, j + 1] = tridiagonal[j + 1, j] = (
                mpmath.pi / 4 * mpmath.sqrt((k + 1) * (total - k))
            )
        values, vectors = mpmath.eigsy(tridiagonal)
        parts = [
            vectors * mpmath.diag([f(value) for value in values]) * vectors.T
            for f in (mpmath.cos, mpmath.sin)
        ]
        for m in range(n):
            for k in range(n):
                sign = -1 if (m - k) % 4 >= 2 else 1
                block[m, k] = sign * parts[(m - k) % 2][m, k]
    return block


def expm_skew_tridiagonal(coupling):
    """Real orthogonal exponential of the skew-symmetric tridiagonal
    generator G with G[j + 1, j] = −G[j, j + 1] = coupling[j], for
    persymmetric couplings (equal to their own reverse), one generator per
    call.

    With D = diag(iʲ), G = −i·D·S·D†, where S = VΛVᵀ is the real symmetric
    tridiagonal matrix with the same couplings. So exp(G)[m, k] is
    ±(V·diag(cos λ + sin λ)·Vᵀ)[m, k], with + where (m − k) mod 4 is 0 or 1.
    S commutes with the reversal of the index, so each of its eigenvectors is
    mirror-symmetric or mirror-antisymmetric, and V comes from real
    eigensolves of half the size: two for odd n, one for even n, where the
    antisymmetric half-size matrix is −P·(the symmetric one)·P with
    P = diag((−1)ʲ), so its eigenpairs are (−λ, P·v). The eigenvectors are
    lifted to full size and the exponential is summed there.
    """
    coupling = np.asarray(coupling, dtype=float)
    if coupling.ndim != 1:
        raise ValueError("coupling must be a vector")
    scale = max(1.0, float(np.max(np.abs(coupling)))) if coupling.size else 1.0
    defect = float(np.max(np.abs(coupling - coupling[::-1]))) if coupling.size else 0.0
    if defect > SKEW_HERMITIAN_TOL * scale:
        raise ValueError(f"coupling is not persymmetric (defect {defect:.3e} at scale {scale:.3e})")
    n = coupling.size + 1
    half, odd = divmod(n, 2)
    if half == 0:
        return np.ones((1, 1))
    inner, middle = coupling[: half - 1], coupling[half - 1]
    if odd:  # the middle level couples only to the mirror-symmetric combinations
        plus = np.linalg.eigh(_symmetric_tridiagonal(np.append(inner, np.sqrt(2) * middle)))
        minus = np.linalg.eigh(_symmetric_tridiagonal(inner))
    else:
        plus = np.linalg.eigh(_symmetric_tridiagonal(inner, middle))
        signs = (-1.0) ** np.arange(half)
        minus = (-plus[0], signs[:, None] * plus[1])
    rotation = np.zeros((n, n))
    for mirror, (values, vectors) in ((1.0, plus), (-1.0, minus)):
        lifted = np.zeros((n, len(values)))
        lifted[:half] = vectors[:half] / np.sqrt(2)
        lifted[n - half :] = mirror * vectors[half - 1 :: -1] / np.sqrt(2)
        if len(values) > half:
            lifted[half] = vectors[half]
        rotation += (lifted * (np.cos(values) + np.sin(values))) @ lifted.T
    levels = np.arange(n)
    return np.where((levels[:, None] - levels) & 2, -rotation, rotation)  # (m − k) mod 4 is 2 or 3


def _symmetric_tridiagonal(offdiag, corner=0.0):
    """Zero-diagonal symmetric tridiagonal matrix, but for ``corner`` as its
    last diagonal entry."""
    size = len(offdiag) + 1
    matrix = np.zeros((size, size))
    j = np.arange(size - 1)
    matrix[j, j + 1] = matrix[j + 1, j] = offdiag
    matrix[-1, -1] = corner
    return matrix


def per_sector_beamsplitter(cfg):
    """The packed ``(dim, dim, dim)`` blocks of ``fock.beamsplitter``, with
    the library's whole sectors and each cut sector t = dim + b from its own
    :func:`expm_skew_tridiagonal` call, written to block b on its levels
    b + 1..dim − 1."""
    blocks = _packed_sectors(cfg.dim).copy()
    for b in range(cfg.dim - 1):
        ks = np.arange(b + 1, cfg.dim - 1)
        coupling = math.pi / 4 * np.sqrt((ks + 1) * (cfg.dim + b - ks))
        blocks[b, b + 1 :, b + 1 :] = expm_skew_tridiagonal(coupling)
    return blocks


def dense_beamsplitter(cfg):
    """The dim²×dim² matrix of ``fock.apply_beamsplitter``, column k·dim + l
    being its image of |k⟩|l⟩, so that the dense checks run on the code the
    breeding step uses."""
    basis = np.eye(cfg.dim**2).reshape(cfg.dim**2, cfg.dim, cfg.dim)
    return apply_beamsplitter(cfg, basis).reshape(cfg.dim**2, cfg.dim**2).T


def full_breed_step(left, right, axis, cfg):
    """``protocol.breed_step`` on the full (…, dim, dim) joint coefficients:
    every sector mixed, projected and normalized on all dim levels, whatever
    levels the inputs occupy."""
    mixed = apply_beamsplitter(cfg, left[:, None] * right[..., None, :])
    amplitudes = projection_amplitudes(mixed, quadrature_basis(cfg, axis))
    probabilities = np.vecdot(amplitudes, amplitudes).real
    kept = probabilities > PROBABILITY_FLOOR
    scale = np.divide(1.0, np.sqrt(probabilities), out=np.zeros_like(probabilities), where=kept)
    return probabilities, amplitudes * scale[..., None]


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


def exchange_parity_leaf_fold(dim):
    """``(fold, canonical)`` as ``protocol.leaf_fold`` gave them when it
    folded by arm exchange and global parity only, a group of order 4:
    canonical pairs q1 ≤ q2 with q1 + q2 ≤ dim − 1, with every p, about a
    quarter of all leaves. A leaf with q1 + q2 > dim − 1 goes to the parity
    image of its sorted pair, p to dim − 1 − p. A self-conjugate pair,
    q1 + q2 = dim − 1, is its own parity image up to exchange; its leaves
    p and dim − 1 − p stay apart. ``canonical`` is given as a
    (dim, dim, dim) mask, like the library's."""
    q1, q2 = np.indices((dim, dim))
    low, high = np.sort([q1, q2], axis=0)
    mirrored = low + high > dim - 1
    low, high = np.where(mirrored, [dim - 1 - high, dim - 1 - low], [low, high])
    pair = low * dim - low * (low - 1) + high - low
    fold = np.where(mirrored[..., None], np.arange(dim)[::-1], np.arange(dim))
    fold += dim * pair[..., None]
    pairs = (q1 <= q2) & (q1 + q2 <= dim - 1)
    return fold, np.repeat(pairs[..., None], dim, axis=2)


def tree_log_probability(cfg, schedule, selected, state):
    """``(log probability, root state)`` of the full breeding tree of
    ``state``: each of its 2^k − 1 measurements selects its level's index in
    ``selected``. Every node is bred from its own two children, and the tree
    probability is the product of its 2^k − 1 outcome probabilities."""
    nodes = [(0.0, state)] * 2**schedule.iterations
    for axis, index in zip(schedule.axes, selected):
        parents = []
        for (log_left, left), (log_right, right) in zip(nodes[0::2], nodes[1::2]):
            probs, posts = breed_step(left, right, axis, cfg)
            parents.append((log_left + log_right + math.log(probs[index]), posts[index]))
        nodes = parents
    return nodes[0]
