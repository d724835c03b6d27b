"""The breeding engine.

One breeding step sends two copies of a state through a balanced
beamsplitter and measures a quadrature of the first output mode. Iterating
with post-selection turns binomial code states into approximate grid
(qunaught) states. A run with k iterations consumes 2^k input states and
performs 2^k − 1 measurements arranged in a binary tree; when every branch
of a level post-selects the same outcome, all branches of that level are
identical and the whole tree collapses to a single chain.

Probability bookkeeping is done in natural-log space throughout, so success
probabilities far below double-precision underflow (e.g. at 8 iterations)
remain exact.

Counting convention: reported reference values for outcome sequences
aggregate a sequence together with all of its per-measurement mirror images
(the opposite-sign eigenvalue at each measurement), which all occur with
the same probability and yield equivalent output states. Records in this
module store the single-sequence probability; to compare with the
aggregated convention, multiply it by 2^m with :func:`sign_aggregated`, or
add m·ln 2 to its log with :func:`sign_aggregation_log`, where m counts the
measurements whose outcome has a distinct mirror (:func:`distinct_mirrors`):
all m = 2^k − 1 of k iterations at an even dim, but at an odd dim not those
of the middle outcome, index (dim − 1)/2, the zero eigenvalue and its own
mirror. :class:`BranchResult` carries both probabilities. The
two-iteration enumeration copies leaves by these same mirror images (with
arm exchange), which are exact at every dim: :func:`leaf_fold`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import (
    BinomialParams,
    FockConfig,
    QunaughtParams,
    apply_beamsplitter,
    binomial_state,
    qunaught_state,
    top_level,
)
from .homodyne import projection_amplitudes, quadrature_basis, select_outcome
from .metrics import effective_squeezing, fidelity
from .numerics import PROBABILITY_FLOOR, NumericalError


@dataclass(frozen=True)
class Schedule:
    """Measurement axes, one per iteration."""

    axes: tuple[str, ...]

    def __post_init__(self):
        if any(axis not in ("q", "p") for axis in self.axes):
            raise ValueError(f"schedule axes must be 'q' or 'p', got {self.axes}")

    @property
    def iterations(self) -> int:
        return len(self.axes)

    @classmethod
    def from_string(cls, text: str) -> "Schedule":
        return cls(tuple(text))

    @classmethod
    def alternating(cls, iterations: int, start: str = "q") -> "Schedule":
        other = "p" if start == "q" else "q"
        return cls(tuple(start if i % 2 == 0 else other for i in range(iterations)))


@dataclass(frozen=True)
class BranchResult:
    """Post-selected protocol output for one chain of outcomes: the chain
    record. Every field but ``state`` is a field of the chain JSON record."""

    outcome_path: tuple[tuple[int, int], ...]  # (iteration, eigenvalue index)
    iterations: int
    log_probability: float  # single-sequence, natural log
    probability: float  # single-sequence
    aggregated_probability: float  # with every distinct mirror image
    state: np.ndarray
    fidelity: float
    effective_squeezing_q: float
    effective_squeezing_p: float

    @classmethod
    def evaluate(cls, cfg: FockConfig, prefix, target: np.ndarray) -> "BranchResult":
        """The record of one ``(outcome_path, log_probability, state)``
        prefix from :func:`chain_prefixes`. Level j of k selects one outcome
        in each of its 2^(k − j) measurements, so it adds 2^(k − j) mirror
        factors where its outcome has a distinct mirror."""
        path, log_probability, state = prefix
        k = len(path)
        m = sum(2 ** (k - level) * distinct_mirrors(cfg.dim, index) for level, index in path)
        return cls(
            outcome_path=path,
            iterations=k,
            log_probability=log_probability,
            probability=math.exp(log_probability),
            aggregated_probability=math.exp(log_probability + sign_aggregation_log(m)),
            state=state,
            fidelity=fidelity(state, target),
            effective_squeezing_q=effective_squeezing(cfg, state, "q"),
            effective_squeezing_p=effective_squeezing(cfg, state, "p"),
        )


def distinct_mirrors(dim: int, index):
    """1 for an outcome index whose mirror, dim − 1 − index, is another
    outcome, and 0 for the middle outcome of an odd dim, (dim − 1)/2, the
    zero eigenvalue and its own mirror; elementwise on an index array."""
    return (2 * index != dim - 1) * 1


def sign_aggregation_log(measurements: int) -> float:
    """log of the 2^m factor between single-sequence and aggregated counting."""
    return measurements * math.log(2.0)


def sign_aggregated(probability, measurements: int):
    return probability * 2.0**measurements


def default_input(cfg: FockConfig) -> np.ndarray:
    return binomial_state(cfg, BinomialParams(N=2, K=3))


def default_target(cfg: FockConfig) -> np.ndarray:
    return qunaught_state(cfg, QunaughtParams(delta=0.4))


def breed_step(
    left: np.ndarray,
    right: np.ndarray,
    axis: str,
    cfg: FockConfig,
    outcomes: slice = slice(None),
):
    """One breeding step, over the outcomes ``outcomes`` of the measured
    quadrature: a slice of its dim outcomes, all of them by default.

    ``left`` enters the measured port. Each input is one state or an
    (n, dim) stack of states: one state is bred with every row of a stack,
    and two stacks, of equal length, row i with row i. Returns
    ``(probabilities, posts)``: with s outcomes in the slice (dim by
    default), shapes (s,) and (s, dim) for two states, (n, s) and
    (n, s, dim) with a stack. ``posts[..., i, :]`` is the normalized
    kept-mode state after the slice's i-th outcome, or a zero row where the
    outcome probability is at or below the underflow floor. The outcomes
    outside the slice are neither projected nor normalized, and a slice of
    two or more outcomes gives, bit for bit, the same rows as the full call
    (:func:`~qpbreed.homodyne.projection_amplitudes`).

    The beamsplitter conserves total photon number, so inputs with top
    Fock levels T_L and T_R (the largest over a stack's rows) give a joint
    state in sectors t ≤ T_L + T_R, and posts that are zero above level
    T_L + T_R. The step works on the occupied corner of w = min(dim,
    T_L + T_R + 1) levels of each mode: the (…, w, w) joint coefficients
    are mixed, projected onto the sliced outcomes, and the posts padded
    with zeros to dim. Levels are read from the arrays, so from a binomial input
    of top level T the level-k posts stay within 2ᵏ·T photons. Every pair
    of a stack is bred on the corner of its widest rows, so a row's posts
    agree with those of its own step up to rounding.

    Real inputs are bred in real arithmetic throughout, since the
    beamsplitter blocks and the q eigenvectors are real: measured in q they
    give real (float64) posts, and measured in p complex posts, from the
    phases iⁿ of the p eigenvectors, except as below. Complex inputs give
    complex posts.

    A state bred with itself (``right`` equal to ``left``, for a stack every
    row with itself) gives posts with exactly zero odd levels. ψ⊗ψ is
    symmetric under exchange of the modes, and the balanced beamsplitter
    turns that symmetry into the parity of
    the kept mode: the joint wavefunction ψ((x + y)/√2)·ψ((x − y)/√2) is
    even in the kept mode's coordinate y (Hong–Ou–Mandel interference).
    Every beamsplitter block is the exact operator compressed to the
    truncation, which keeps exchange and parity, so the rule holds at every
    dim; the odd levels, rounding of order 1e-16, are set to zero. If the
    amplitudes are then exactly real, the posts are float64. So a real
    input of one parity gives real, parity-even posts on both axes: its
    joint state lies in even sectors, so in p an even kept level meets only
    even measured levels k, whose phases (−i)ᵏ are real.

    The probabilities are those of the truncated model, not renormalized.
    Over all dim outcomes they sum to 1 while the joint state lies in
    whole sectors (T_L + T_R < dim). A step that reaches sector dim sums to
    1 minus the weight the exact beamsplitter sends outside the truncation,
    its leakage; each post is normalized on its own.

    Raises ValueError, naming its length and dim, when an input has more
    than dim levels, rather than breed it cut to the box, or fewer, rather
    than read it as padded with zeros; and numpy's broadcast ValueError
    for two stacks of unequal length.
    """
    wrong = {left.shape[-1], right.shape[-1]} - {cfg.dim}
    if wrong:
        levels = max(wrong)  # a longer input is named first
        relation = "more" if levels > cfg.dim else "fewer"
        raise ValueError(f"input state has {levels} levels, {relation} than dim {cfg.dim}")
    top = top_level(left) + top_level(right)
    width = max(1, min(cfg.dim, top + 1))
    mixed = apply_beamsplitter(cfg, left[..., :width, None] * right[..., None, :width])
    amplitudes = projection_amplitudes(mixed, quadrature_basis(cfg, axis), outcomes)
    if np.array_equal(left, right):  # ψ⊗ψ
        amplitudes[..., 1::2] = 0.0  # the kept mode is exactly parity-even
        if np.iscomplexobj(amplitudes) and not amplitudes.imag.any():
            amplitudes = amplitudes.real
    probabilities = np.vecdot(amplitudes, amplitudes).real
    kept = probabilities > PROBABILITY_FLOOR
    scale = np.divide(1.0, np.sqrt(probabilities), out=np.zeros_like(probabilities), where=kept)
    posts = np.zeros(amplitudes.shape[:-1] + (cfg.dim,), amplitudes.dtype)  # zero above the corner
    np.multiply(amplitudes, scale[..., None], out=posts[..., :width])
    return probabilities, posts


def chain_prefixes(
    cfg: FockConfig,
    schedule: Schedule,
    selected,
    state: np.ndarray | None = None,
):
    """Walk a uniformly post-selected chain once.

    Yields ``(outcome_path, log_probability, state)`` after 0, 1, …, k
    levels, starting from ``state`` (the default input when None). Each
    entry of ``selected`` is an eigenvalue index or a peak label
    (C/S1/S2/S), resolved on that level's own outcome distribution so
    labels stay valid at any dim. When every measurement of level j selects
    the same eigenvalue, all 2^{k−j} branches of that level are identical,
    so the log-probability is Σ_j 2^{k−j}·ln p_j.
    """
    if len(selected) != schedule.iterations:
        raise ValueError(
            f"need one selected outcome per iteration: got {len(selected)} "
            f"for {schedule.iterations} iterations"
        )
    if state is None:
        state = default_input(cfg)
    log_prob = 0.0
    path = ()
    yield path, log_prob, state
    for level, (axis, token) in enumerate(zip(schedule.axes, selected), start=1):
        probabilities, posts = breed_step(state, state, axis, cfg)
        try:
            index = select_outcome(quadrature_basis(cfg, axis), probabilities, token)
        except (ValueError, NumericalError) as exc:
            raise type(exc)(f"level {level}: {exc}") from None
        log_prob = 2.0 * log_prob + math.log(float(probabilities[index]))
        state = posts[index]
        path += ((level, index),)
        yield path, log_prob, state


def run_chain(
    cfg: FockConfig,
    schedule: Schedule,
    selected: list[int] | tuple[int, ...],
    target: np.ndarray | None = None,
) -> BranchResult:
    """Uniformly post-selected breeding collapsed to a chain: the last
    prefix of :func:`chain_prefixes`, with its quality measures."""
    *_, last = chain_prefixes(cfg, schedule, selected)
    return BranchResult.evaluate(cfg, last, default_target(cfg) if target is None else target)


#: Refuse enumerations larger than this many leaves (dim³); guards against a
#: misconfigured dimension turning one command into hours of work.
MAX_ENUMERATION_LEAVES = 2_000_000


@lru_cache(maxsize=None)
def leaf_fold(dim: int):
    """The fold of the dim³ two-iteration leaves ``[q1, q2, p]`` by arm
    exchange and the three single-outcome mirrors.

    The group, of order 16, is generated by the exchange of the two arms,
    (q1, q2, p) → (q2, q1, p), and by the mirror of each outcome on its own:
    q1 → dim − 1 − q1, q2 → dim − 1 − q2 and p → dim − 1 − p. With
    c = ⌈dim/2⌉, each orbit holds one leaf with q1 ≤ q2 < c and p < c:
    each index goes to min(i, dim − 1 − i), and the two q's are sorted.

    Returns ``(fold, canonical)``. ``canonical`` is the (dim, dim, dim) mask
    of those leaves, the product of a pair mask and an outcome mask; in
    lexicographic order they are the c²(c + 1)/2 canonical leaves. Its
    outcome mask keeps the first c p outcomes, a prefix, which the
    enumeration measures as a slice. ``fold[q1, q2, p]`` is the position
    of the leaf's orbit representative among them. Both arrays are built
    once per dim and are read-only.

    For the default input the group acts exactly on the enumeration, at
    every dim, as follows:
    - q mirror: the input is parity-even, so every first-level post is
      exactly parity-even (:func:`breed_step` sets its odd levels to zero)
      and q, dim − 1 − q herald the same state, up to sign, with the same
      probability.
    - p mirror: the first-level posts are real, and the conjugate of p
      eigenvector j is ± p eigenvector dim − 1 − j, so p and dim − 1 − p
      give conjugate posts, with the same probability, fidelity to a real
      target and q-probe δ.
    - exchange: the beamsplitter blocks are the exact operator compressed
      to the truncation, so swapping the arms of a second step keeps its
      outcome distribution, in whole and in cut sectors alike.

    Raises ValueError when dim³ exceeds :data:`MAX_ENUMERATION_LEAVES`,
    before any array is built: the fold is the enumeration's first dim³
    allocation, and every enumeration builds it first.
    """
    if dim**3 > MAX_ENUMERATION_LEAVES:
        raise ValueError(
            f"enumeration at dim {dim} would produce {dim**3} leaves, over the "
            f"budget of {MAX_ENUMERATION_LEAVES}"
        )
    half = (dim + 1) // 2
    mirror = np.minimum(np.arange(dim), np.arange(dim)[::-1])  # i → min(i, dim − 1 − i)
    low, high = np.minimum.outer(mirror, mirror), np.maximum.outer(mirror, mirror)
    pair = low * half - low * (low - 1) // 2 + high - low  # rank among canonical pairs
    fold = half * pair[..., None] + mirror
    q1, q2, p = np.indices((dim, dim, dim), sparse=True)
    canonical = (q1 <= q2) & (q2 < half) & (p < half)
    for array in fold, canonical:
        array.setflags(write=False)
    return fold, canonical


def enumerate_two_iterations(cfg: FockConfig, target: np.ndarray | None = None):
    """Exact joint distribution over all dim³ two-iteration outcome triples.

    The first iteration measures q on both arms, the second measures p; the
    post-state from the first-index branch enters the measured port.
    Returns ``(probability, fidelity, effective_squeezing)``, three
    (dim, dim, dim) arrays indexed ``[q1, q2, p]``: the single-sequence
    probability, and the quality measures of each leaf, nan where the leaf
    probability underflows. Only the canonical leaves of :func:`leaf_fold`
    are bred and scored: for each q1 < ⌈dim/2⌉, one stack against
    q2 ∈ [q1, ⌈dim/2⌉), measured on its first ⌈dim/2⌉ p outcomes only (the
    fold's outcome mask, a prefix, passed to :func:`breed_step` as a
    slice). At dim 50 that is 325 of the 2,500 first-level pairs and 8,125
    of the 125,000 leaves. Each array is one gather of their values
    through ``fold``, so the leaves of an orbit are bit-identical.

    Two first-level posts of top level T₁ give second-level posts within
    the corner of w = min(dim, 2·T₁ + 1) levels (17 for the default input),
    zero above, so fidelity and δ are scored on that corner: each stack of
    posts and the target cut to w levels, through
    :func:`~qpbreed.metrics.fidelity` and
    :func:`~qpbreed.metrics.effective_squeezing`. The probabilities are
    those of the full breed bit for bit; fidelity and δ agree with scores
    of the dim-level posts up to rounding.

    The copies are exact, since the group is exact at every dim (see
    :func:`leaf_fold`). Below dim 4·T + 1, T the top Fock level of the
    input (4 for the default input), the second step reaches sector dim,
    and the leaves sum to less than 1 by its leakage.

    Raises ValueError when dim is over the leaf budget (:func:`leaf_fold`,
    built first, before the target or any state), or when ``target`` is not
    a vector of dim levels.
    """
    dim = cfg.dim
    fold, canonical = leaf_fold(dim)
    if target is None:
        target = default_target(cfg)
    if target.shape != (dim,):
        raise ValueError(f"target has shape {target.shape}, not the ({dim},) of dim {dim}")
    psi0 = default_input(cfg)
    probs, posts = breed_step(psi0, psi0, "q", cfg)
    pairs = canonical.any(axis=2)
    kept = slice(np.count_nonzero(canonical.any(axis=(0, 1))))  # a prefix of the p outcomes
    width = min(dim, 2 * top_level(posts) + 1)  # the second-level posts' occupied corner
    blocks = []
    for q1 in np.flatnonzero(pairs.any(axis=1)):
        cond, second = breed_step(posts[q1], posts[pairs[q1]], "p", cfg, kept)
        second = second[..., :width]
        quality = [fidelity(second, target[:width]), effective_squeezing(cfg, second, "q")]
        block = np.stack([probs[q1] * probs[pairs[q1], None] * cond, *quality])
        block[1:, cond <= PROBABILITY_FLOOR] = math.nan  # underflowed leaves
        blocks.append(block)
    return tuple(np.take(np.concatenate(blocks, axis=1).reshape(3, -1), fold, axis=1))


def probability_fidelity_curve(probability, fidelities, thresholds) -> list[tuple[float, float]]:
    """Cumulative success probability of reaching at least each fidelity.

    ``probability`` and ``fidelities`` are matching arrays of leaves: every
    leaf, or the canonical leaves of :func:`leaf_fold` with each probability
    weighted by its orbit size."""
    return [(float(t), float(np.sum(probability[fidelities >= t]))) for t in thresholds]


def effective_squeezing_curve(probability, deltas, bounds) -> list[tuple[float, float]]:
    """Cumulative success probability of effective squeezing at or below each
    bound, over leaves given as for :func:`probability_fidelity_curve`."""
    return [(float(b), float(np.sum(probability[deltas <= b]))) for b in bounds]


@dataclass(frozen=True)
class SweepRecord:
    target_delta: float
    N: int
    K: int
    iteration: int
    fidelity: float
    supported: bool


def sweep_binomial_inputs(
    cfg: FockConfig, N_list, K_list, schedule: Schedule, *target_deltas: float
) -> list[SweepRecord]:
    """Chain fidelity after 0..k iterations for a grid of binomial inputs,
    against the qunaught target of each given Δ.

    Post-selects the innermost negative eigenvalue at every level and gives
    records by target, then N, K and iteration. The inputs whose top level
    fits the truncation are one (n, dim) stack, and each level breeds it
    with itself in one :func:`breed_step`, every row with itself, on the
    center outcome and the next: the first row of a slice of two is, bit
    for bit, that of the full step. Unsupported (N, K) combinations (Fock
    support outside the truncation) are flagged at iteration 0, and a chain
    whose selected outcome underflows, a zero post, is flagged at that
    level with no record after it; neither is fatal.
    """
    targets = [qunaught_state(cfg, QunaughtParams(delta)) for delta in target_deltas]
    center = quadrature_basis(cfg, "q").center_index
    inputs = [BinomialParams(N=n_sym, K=k_trunc) for n_sym in N_list for k_trunc in K_list]
    fits = [params for params in inputs if params.top_level < cfg.dim]
    stacks = [np.array([binomial_state(cfg, params) for params in fits]).reshape(-1, cfg.dim)]
    for axis in schedule.axes:
        posts = breed_step(stacks[-1], stacks[-1], axis, cfg, slice(center, center + 2))[1]
        stacks.append(posts[:, 0])
    chains = zip(*stacks)  # the states of each input that fits, level by level
    levels = []  # (N, K, iteration, state), state None where unsupported
    for params in inputs:
        for level, state in enumerate(next(chains) if params.top_level < cfg.dim else [None]):
            supported = state is not None and state.any()
            levels.append((params.N, params.K, level, state if supported else None))
            if not supported:
                break
    records = []
    for delta, target in zip(target_deltas, targets):
        for n_sym, k_trunc, level, state in levels:
            fid = math.nan if state is None else fidelity(state, target)
            records.append(SweepRecord(delta, n_sym, k_trunc, level, fid, state is not None))
    return records
