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
(the opposite-sign eigenvalue at each of the m measurements), which all
occur with the same probability and yield equivalent output states. Records
in this module store the single-sequence probability; multiply by 2^m, via
:func:`sign_aggregated`, to compare with the aggregated convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    BinomialParams, FockConfig, QunaughtParams, apply_beamsplitter, binomial_state, qunaught_state
)
from .homodyne import OutcomeDistribution, projection_amplitudes, quadrature_basis, resolve_outcome
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
    """Post-selected protocol output for one chain of outcomes."""

    outcome_path: tuple[tuple[int, int], ...]  # (iteration, eigenvalue index)
    log_probability: float  # single-sequence, natural log
    state: np.ndarray
    fidelity: float
    effective_squeezing_q: float
    effective_squeezing_p: float

    @classmethod
    def evaluate(cls, cfg: FockConfig, prefix, target: np.ndarray) -> "BranchResult":
        """Quality measures of one ``(outcome_path, log_probability, state)``
        prefix from :func:`chain_prefixes`."""
        path, log_probability, state = prefix
        return cls(
            outcome_path=path,
            log_probability=log_probability,
            state=state,
            fidelity=fidelity(state, target),
            effective_squeezing_q=effective_squeezing(cfg, state, "q"),
            effective_squeezing_p=effective_squeezing(cfg, state, "p"),
        )

    @property
    def probability(self) -> float:
        return math.exp(self.log_probability)

    def sign_aggregated_probability(self) -> float:
        """Probability under the mirror-aggregated counting convention: a
        k-iteration tree performs 2^k − 1 measurements, each of which has a
        mirror-sign twin with identical statistics."""
        measurements = measurements_in_tree(len(self.outcome_path))
        return math.exp(self.log_probability + sign_aggregation_log(measurements))


def sign_aggregation_log(measurements: int) -> float:
    """log of the 2^m factor between single-sequence and aggregated counting."""
    return measurements * math.log(2.0)


def sign_aggregated(probability, measurements: int):
    return probability * 2.0**measurements


def measurements_in_tree(iterations: int) -> int:
    """A k-iteration breeding tree contains 2^k − 1 homodyne measurements."""
    return 2**iterations - 1


def default_input(cfg: FockConfig) -> np.ndarray:
    return binomial_state(cfg, BinomialParams(N=2, K=3))


def default_target(cfg: FockConfig) -> np.ndarray:
    return qunaught_state(cfg, QunaughtParams(delta=0.4))


def breed_step(left: np.ndarray, right: np.ndarray, axis: str, cfg: FockConfig):
    """One breeding step, over every outcome of the measured quadrature.

    ``left`` enters the measured port. ``right`` is one state, or an
    (n, dim) stack whose rows are each bred with ``left``. Returns
    ``(probabilities, posts)``: shapes (dim,) and (dim, dim) for one state,
    (n, dim) and (n, dim, dim) for a stack. ``posts[..., i, :]`` is the
    normalized kept-mode state after outcome i, or a zero row where the
    outcome probability is at or below the underflow floor.
    """
    mixed = apply_beamsplitter(cfg, left[:, None] * right[..., None, :])
    amplitudes = projection_amplitudes(mixed, quadrature_basis(cfg, axis))
    probabilities = np.sum(np.abs(amplitudes) ** 2, axis=-1)
    kept = probabilities > PROBABILITY_FLOOR
    posts = np.divide(
        amplitudes,
        np.sqrt(probabilities)[..., None],
        out=np.zeros_like(amplitudes),
        where=kept[..., None],
    )
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
        basis = quadrature_basis(cfg, axis)
        try:
            index = resolve_outcome(
                OutcomeDistribution(axis, basis.eigenvalues, probabilities), token
            )
        except ValueError as exc:
            raise ValueError(f"level {level}: {exc}") from None
        prob = float(probabilities[index])
        if prob <= PROBABILITY_FLOOR:
            raise NumericalError(
                f"selected outcome {index} at level {level} has probability "
                f"{prob:.3e}, below the underflow floor"
            )
        log_prob = 2.0 * log_prob + math.log(prob)
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


def check_enumeration_budget(dim: int) -> None:
    """Raise ValueError if a two-iteration enumeration at ``dim`` would
    exceed :data:`MAX_ENUMERATION_LEAVES`."""
    if dim**3 > MAX_ENUMERATION_LEAVES:
        raise ValueError(
            f"enumeration at dim {dim} would produce {dim**3} leaves, over the "
            f"budget of {MAX_ENUMERATION_LEAVES}"
        )


def enumerate_two_iterations(cfg: FockConfig, target: np.ndarray | None = None):
    """Exact joint distribution over all dim³ two-iteration outcome triples.

    The first iteration measures q on both arms, the second measures p; the
    post-state from the first-index branch enters the measured port.
    Returns ``(probability, fidelity, effective_squeezing)``, three
    (dim, dim, dim) arrays indexed ``[q1, q2, p]``: the single-sequence
    probability, and the quality measures of each leaf, nan where the leaf
    probability underflows. Only first-level pairs with q1 on the negative
    half and q2 ≥ q1 are bred; the remaining leaves follow from exchange
    symmetry of the two arms and from parity (global mirror), roughly a 4×
    reduction.
    """
    dim = cfg.dim
    check_enumeration_budget(dim)
    if target is None:
        target = default_target(cfg)
    psi0 = default_input(cfg)
    probs, posts = breed_step(psi0, psi0, "q", cfg)
    half = (dim + 1) // 2  # canonical first indices: below ceil(dim/2)
    leaves = np.empty((3, dim, dim, dim))
    for q1 in range(half):
        cond, second = breed_step(posts[q1], posts[q1:], "p", cfg)
        quality = [np.abs(second @ target.conj()), effective_squeezing(cfg, second, "q")]
        block = np.stack([probs[q1] * probs[q1:, None] * cond, *quality])
        block[1:, cond <= PROBABILITY_FLOOR] = math.nan  # underflowed leaves
        leaves[:, q1, q1:] = block
        leaves[:, q1:, q1] = block  # exchange of the two arms
    # parity mirrors all three indices onto pairs with both on the positive half
    leaves[:, half:, half:] = leaves[:, ::-1, ::-1, ::-1][:, half:, half:]
    return tuple(leaves)


def probability_fidelity_curve(probability, fidelities, thresholds) -> list[tuple[float, float]]:
    """Cumulative success probability of reaching at least each fidelity."""
    return [(float(t), float(np.sum(probability[fidelities >= t]))) for t in thresholds]


def effective_squeezing_curve(probability, deltas, bounds) -> list[tuple[float, float]]:
    """Cumulative success probability of effective squeezing at or below each bound."""
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

    Post-selects the innermost negative eigenvalue at every level, breeds
    each chain once and gives records by target, then N, K and iteration.
    Unsupported (N, K) combinations (Fock support outside the truncation)
    and chains whose selected outcome underflows are flagged rather than
    fatal.
    """
    targets = [qunaught_state(cfg, QunaughtParams(delta)) for delta in target_deltas]
    center = [quadrature_basis(cfg, "q").center_index] * schedule.iterations
    levels = []  # (N, K, iteration, state), state None where unsupported
    for n_sym in N_list:
        for k_trunc in K_list:
            params = BinomialParams(N=n_sym, K=k_trunc)
            if params.top_level >= cfg.dim:
                levels.append((n_sym, k_trunc, 0, None))
                continue
            level = 0
            try:
                for path, _, state in chain_prefixes(
                    cfg, schedule, center, binomial_state(cfg, params)
                ):
                    level = len(path)
                    levels.append((n_sym, k_trunc, level, state))
            except NumericalError:
                levels.append((n_sym, k_trunc, level + 1, None))
    records = []
    for delta, target in zip(target_deltas, targets):
        for n_sym, k_trunc, level, state in levels:
            fid = math.nan if state is None else fidelity(state, target)
            records.append(SweepRecord(delta, n_sym, k_trunc, level, fid, state is not None))
    return records
