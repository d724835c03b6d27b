"""Independent numerical oracles for the test suite.

Everything here is computed by a different algorithm than the library code
it checks: Gauss-Hermite nodes by root bracketing on the Hermite-function
recurrence (vs numpy's symmetric eigensolver), displacement matrix
elements by the closed-form Laguerre series (vs trapezoid sums of shifted
Hermite functions), the squeezed vacuum by its analytic Fock series and
the grid state by adaptive quadrature of each level against scipy's
Hermite polynomials (vs trapezoid sums over the Hermite-function
recurrence on each peak's grid), the beamsplitter as the Padé exponential of its
two-mode generator assembled from Kronecker products on 2·dim − 1 levels,
or of each photon-number sector's whole generator assembled from
single-mode matrix elements, both cut to the box (vs the d^j recursion,
carried past sector dim − 1 on the box levels only), the same recursion
written afresh in one pass with ``np.pad`` for the zero level −1 (vs the
zero level −1 the sector store keeps as a border of its own array, filled
corner by corner), and, for the largest
sectors, the closed-form Krawtchouk sum of each matrix element in exact
integers and 40-digit square roots,
and Wigner values by assembling the displaced-parity expectation directly.
:func:`unreduced_wigner` is the library's Wigner sum on every grid point in
complex arithmetic, where the library evaluates the symmetry-reduced part
of the grid in real arithmetic and mirrors it.
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
:func:`reference_breed` is the truncation-free reference: it breeds in
whole sectors on every level the inputs reach and projects on the Hermite
functions at an outcome value x, where the library cuts each mode to dim
levels and projects on the eigenvectors of the truncated quadrature.
:func:`dense_beamsplitter` is not an oracle: it writes out, as a dense
matrix, the operator the library applies. The quadrature operators, the
constant schedule and the tolerances below are used only by the tests.
"""

import math
import warnings

import mpmath
import numpy as np
import scipy.integrate
import scipy.linalg
from scipy.special import eval_genlaguerre, eval_hermite

from qpbreed.fock import FockConfig, annihilation, apply_beamsplitter, top_level
from qpbreed.homodyne import projection_amplitudes, quadrature_basis
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


def squeezed_vacuum_series(dim, delta):
    """S(Δ)|0⟩ from its analytic even-Fock series λⁿ√((2n)!)/(2ⁿn!),
    λ = tanh(ln Δ), cut to dim levels and normalized."""
    lam = math.tanh(math.log(delta))
    state = np.zeros(dim)
    state[0] = 1.0
    coeff = 1.0
    for n in range(1, (dim - 1) // 2 + 1):
        coeff *= lam * math.sqrt((2 * n) * (2 * n - 1)) / (2 * n)
        state[2 * n] = coeff
    return state / np.linalg.norm(state)


def quad_qunaught_state(dim, delta):
    """Σ_t exp(−πΔ²t²) D(t√π) S(Δ)|0⟩ cut to dim levels and normalized,
    level by level: scipy's adaptive ``quad`` of φ_n(x)·ψ(x), with φ_n from
    ``eval_hermite`` and ψ the comb Σ_t exp(−πΔ²t²)·exp(−(x − t√(2π))²/(2Δ²))
    over its teeth of weight above 1e-30 that come within 10 of the turning
    point √(2·dim − 1) of φ_{dim−1}. Each peak is integrated on its own
    interval t√(2π) ± 12Δ. An integral that cancels to about zero (an odd
    level, or a peak past the level's turning point) cannot meet the relative
    tolerance, and quad's warning of that is silenced: its absolute error
    stays at rounding."""
    spacing = math.sqrt(2 * math.pi)
    reach = math.sqrt(2 * dim - 1) + 10 + 12 * delta
    teeth = [t for t in range(-40, 41) if math.pi * (delta * t) ** 2 < 69 and abs(t) * spacing < reach]
    state = np.zeros(dim)
    for n in range(dim):
        norm = math.exp(-0.5 * (math.lgamma(n + 1) + n * math.log(2)) - 0.25 * math.log(math.pi))
        for t in teeth:
            center = t * spacing
            weight = math.exp(-math.pi * delta**2 * t**2)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
                value, _ = scipy.integrate.quad(
                    lambda x: norm * eval_hermite(n, x) * math.exp(-0.5 * (x**2 + ((x - center) / delta) ** 2)),
                    center - 12 * delta,
                    center + 12 * delta,
                    epsabs=0,
                    epsrel=1e-13,
                    limit=200,
                )
            state[n] += weight * value
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
    θ = π/4, on 2·dim − 1 levels per mode, cut to the dim² box with index
    k·dim + l for |k⟩|l⟩. Every sector t that meets the box, t ≤ 2·dim − 2,
    is whole on 2·dim − 1 levels, so this is the exact operator compressed
    to the box."""
    levels = 2 * cfg.dim - 1
    a = annihilation(FockConfig(levels)).real
    identity = np.eye(levels)
    a1 = np.kron(a, identity)
    a2 = np.kron(identity, a)
    full = scipy.linalg.expm((math.pi / 4) * (a1.T @ a2 - a1 @ a2.T))
    box = (np.arange(cfg.dim)[:, None] * levels + np.arange(cfg.dim)).ravel()
    return full[np.ix_(box, box)]


def sector_expm_beamsplitter(cfg):
    """The packed ``(dim, dim, dim)`` blocks of ``fock.beamsplitter``: each
    sector t, 0 ≤ t ≤ 2·dim − 2, as scipy's Padé ``expm`` of its whole
    generator, the matrix elements ⟨k, t − k|θ(a†b − ab†)|k', t − k'⟩ over
    k = 0..t, cut to the levels k with both photon numbers inside the
    truncation and written to block t mod dim on those rows and columns."""
    blocks = np.zeros((cfg.dim, cfg.dim, cfg.dim))
    for total in range(2 * cfg.dim - 1):
        k = np.arange(total)
        coupling = (math.pi / 4) * np.sqrt((k + 1) * (total - k))  # G[k + 1, k] = −G[k, k + 1]
        box = slice(max(0, total - cfg.dim + 1), min(total, cfg.dim - 1) + 1)
        whole = scipy.linalg.expm(np.diag(coupling, -1) - np.diag(coupling, 1))
        blocks[total % cfg.dim, box, box] = whole[box, box]
    return blocks


def full_row_sectors(dim, top):
    """The packed ``(dim, dim, dim)`` blocks of ``fock.beamsplitter`` with
    the sectors t < ``top`` written, t ≤ 2·dim − 2, each from sector t − 1
    on every row and column of its box by the d-matrix recursion, in one
    pass. A whole sector reads sector t − 1 padded with a zero level −1 by
    ``np.pad``, and on level t, which holds zeros; a cut one reads the
    levels low − 1..dim − 1 of its box."""
    blocks = np.zeros((dim, dim, dim))
    blocks[0, 0, 0] = 1.0
    for total in range(1, top):
        low, high = max(0, total - dim + 1), min(total, dim - 1)
        read = slice(max(0, low - 1), high + 1)
        previous = blocks[(total - 1) % dim, read, read]
        if not low:
            previous = np.pad(previous, (1, 0))
        root = np.sqrt(np.arange(low, high + 1))  # √k; reversed, √l = √(t − k)
        from_a = root * previous[:, :-1]  # √k·U|k − 1, l⟩, rows from level low − 1
        from_b = root[::-1] * previous[:, 1:]  # √l·U|k, l − 1⟩
        block = blocks[total % dim, low : high + 1, low : high + 1]
        block[:] = root[:, None] * (from_a + from_b)[:-1]
        block += root[::-1, None] * (from_b - from_a)[1:]
        block /= total * math.sqrt(2)
    return blocks


def closed_form_sector_block(cfg, total):
    """Sector ``total`` of the exact beamsplitter at 40 digits, on the
    levels k = max(0, total − dim + 1)..min(total, dim − 1) that the box
    keeps, from the closed form of its matrix elements. With
    U a† U† = (a† − b†)/√2 and U b† U† = (a† + b†)/√2,
    U|k, t − k⟩ = 2^{−t/2}(a† − b†)ᵏ(a† + b†)^{t−k}|0⟩/√(k!(t − k)!), so

        ⟨m, t − m|U|k, t − k⟩ = √(m!(t − m)!/(k!(t − k)!·2ᵗ))
                                · Σᵢ (−1)^{k−i} C(k, i) C(t − k, m − i),

    a Krawtchouk polynomial, summed in exact integers; only the square root
    is taken in 40-digit arithmetic."""
    ks = range(max(0, total - cfg.dim + 1), min(total, cfg.dim - 1) + 1)
    block = np.zeros((len(ks), len(ks)))
    with mpmath.workdps(40):
        for row, m in enumerate(ks):
            for col, k in enumerate(ks):
                terms = range(max(0, m + k - total), min(k, m) + 1)
                krawtchouk = sum(
                    (-1) ** (k - i) * math.comb(k, i) * math.comb(total - k, m - i) for i in terms
                )
                weight = mpmath.mpf(math.factorial(m) * math.factorial(total - m))
                weight /= math.factorial(k) * math.factorial(total - k) * 2**total
                block[row, col] = float(krawtchouk * mpmath.sqrt(weight))
    return block


def whole_sector_blocks(top):
    """Yield the exact beamsplitter block of each sector t = 0..top whole,
    the (t + 1)-square Wigner d^{t/2}(π/2) matrix, indexed [m, k] by the
    photon numbers of the measured mode, each from the one before by
    t·U|k, l⟩ = √k·A·U|k − 1, l⟩ + √l·B·U|k, l − 1⟩ on a copy padded with
    a zero level −1 and a zero level t. Only one block is held at a time."""
    block = np.ones((1, 1))
    yield block
    for total in range(1, top + 1):
        padded = np.pad(block, 1)  # levels −1..t of sector t − 1
        k = np.arange(total + 1)
        down = np.sqrt(k) * padded[:, :-1]  # √k·U|k − 1, l⟩, rows m = −1..t
        across = np.sqrt(total - k) * padded[:, 1:]  # √l·U|k, l − 1⟩
        a_dagger = np.sqrt(k)[:, None] * (down + across)[:-1]
        b_dagger = np.sqrt(total - k)[:, None] * (across - down)[1:]
        block = (a_dagger + b_dagger) / (total * math.sqrt(2))
        yield block


#: Kept-mode levels of the truncation-free reference. Against 120 levels it
#: agrees to 1 − |⟨·|·⟩| ≤ 1e-13 along the pqpqpqpq chain at dim 50's node C.
REFERENCE_LEVELS = 160


def whole_sector_mix(left, right):
    """The exact beamsplitter image of ``left`` ⊗ ``right``, as its (W, W)
    coefficient matrix [k, l] with W = T_L + T_R + 1 from the inputs' top
    levels: every sector the joint state reaches is whole on W levels, so
    nothing is cut."""
    tl, tr = top_level(left), top_level(right)
    width = tl + tr + 1
    mixed = np.zeros((width, width), np.result_type(left, right))
    for total, block in enumerate(whole_sector_blocks(width - 1)):
        ks = np.arange(max(0, total - tr), min(total, tl) + 1)
        m = np.arange(total + 1)
        mixed[m, total - m] = block[:, ks] @ (left[ks] * right[total - ks])
    return mixed


def reference_breed(left, right, axis, x):
    """The unnormalized kept-mode state, on :data:`REFERENCE_LEVELS` levels,
    after the measured mode of the exact beamsplitter image of ``left`` ⊗
    ``right`` gives the value ``x`` of quadrature ``axis``: the joint state
    of :func:`whole_sector_mix` projected on the Hermite functions φ_k(x),
    times (−i)ᵏ for p. Cutting the kept mode to :data:`REFERENCE_LEVELS` is
    its only truncation."""
    mixed = whole_sector_mix(left, right)
    width = len(mixed)
    phi = hermite_phi(width - 1, x)
    if axis == "p":
        phi = phi * (-1j) ** np.arange(width)
    kept = np.zeros(REFERENCE_LEVELS, np.result_type(phi, mixed))
    kept[: min(width, REFERENCE_LEVELS)] = (phi @ mixed)[:REFERENCE_LEVELS]
    return kept


def reference_chain(state, schedule, x):
    """Yield the normalized kept-mode state of a uniform chain after 1..k
    levels, each breeding the previous state with itself by
    :func:`reference_breed` at the value ``x``."""
    for axis in schedule.axes:
        state = reference_breed(state, state, axis, x)
        state = state / np.linalg.norm(state)
        yield state


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
