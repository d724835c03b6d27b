import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qpbreed import (
    BinomialParams,
    FockConfig,
    NumericalError,
    Schedule,
    binomial_state,
    breed_step,
    default_input,
    default_target,
    effective_squeezing_curve,
    enumerate_two_iterations,
    fidelity,
    probability_fidelity_curve,
    quadrature_basis,
    run_chain,
    sign_aggregated,
    sweep_binomial_inputs,
)
from qpbreed.fock import apply_beamsplitter
from qpbreed.homodyne import projection_amplitudes
from qpbreed.numerics import PROBABILITY_FLOOR
from qpbreed.protocol import chain_prefixes, distinct_mirrors, leaf_fold, sign_aggregation_log

from oracles import (
    constant_schedule,
    direct_two_iteration_enumeration,
    exchange_parity_leaf_fold,
    full_breed_step,
    hermite_phi,
    quadrature,
    reference_breed,
    reference_chain,
    tree_log_probability,
    whole_sector_mix,
)


def test_schedule_constructors():
    assert Schedule.alternating(4).axes == ("q", "p", "q", "p")
    assert Schedule.alternating(3, start="p").axes == ("p", "q", "p")
    assert Schedule.from_string("qppq").iterations == 4
    with pytest.raises(ValueError):
        Schedule(("q", "x"))


def test_measurement_count():
    assert sign_aggregated(1.0, 3) == 8.0
    assert sign_aggregation_log(3) == pytest.approx(3 * math.log(2))


def test_distinct_mirrors_spares_only_the_middle_outcome_of_an_odd_dim():
    assert distinct_mirrors(4, np.arange(4)).tolist() == [1, 1, 1, 1]
    assert distinct_mirrors(5, np.arange(5)).tolist() == [1, 1, 0, 1, 1]
    assert distinct_mirrors(51, 25) == 0 and distinct_mirrors(51, 24) == 1


def test_breed_step_probabilities_valid(cfg, psi0, first_level):
    probs, posts = first_level
    assert abs(probs.sum() - 1) < 1e-10
    assert probs.min() >= 0
    kept = probs > PROBABILITY_FLOOR
    assert np.max(np.abs(np.linalg.norm(posts[kept], axis=1) - 1)) < 1e-10
    assert not posts[~kept].any()


def random_states(dim, seed, even=False):
    """Two normalized random complex states, parity-even if ``even``."""
    states = np.random.default_rng(seed).normal(size=(2, dim, 2)) @ np.array([1, 1j])
    if even:
        states[:, 1::2] = 0
    return states / np.linalg.norm(states, axis=1, keepdims=True)


@settings(database=None, derandomize=True, deadline=None)
@given(
    dim=st.integers(2, 40),
    axis=st.sampled_from("qp"),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_breed_step_probabilities_sum_to_one(dim, axis, seed, data):
    """The outcome probabilities sum to 1 while the joint state lies in
    whole sectors (T_L + T_R < dim). Past that they sum to the weight that
    the exact beamsplitter keeps inside the box, never above 1: the rest is
    the truncation's leakage, reported, not renormalized away. Each state
    gets a random top level, dim − 1 for full support."""
    left, right = random_states(dim, seed)
    tops = data.draw(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)), label="tops")
    for state, top in zip((left, right), tops):
        state[top + 1 :] = 0
        state /= np.linalg.norm(state)
    probs, _ = breed_step(left, right, axis, FockConfig(dim))
    in_box = np.sum(np.abs(whole_sector_mix(left, right)[:dim, :dim]) ** 2)
    assert abs(probs.sum() - in_box) < 1e-12
    assert probs.sum() <= 1 + 1e-12
    if sum(tops) < dim:
        assert abs(probs.sum() - 1) < 1e-12


@settings(database=None, derandomize=True, deadline=None)
@given(dim=st.integers(2, 40), axis=st.sampled_from("qp"), seed=st.integers(0, 2**32 - 1))
def test_breed_step_mirror_symmetric_for_even_inputs(dim, axis, seed):
    # two even inputs make the joint state even under parity on both modes,
    # which maps each outcome onto its mirror image
    probs, _ = breed_step(*random_states(dim, seed, even=True), axis, FockConfig(dim))
    assert np.max(np.abs(probs - probs[::-1])) < 1e-12


@settings(database=None, derandomize=True, deadline=None)
@given(
    params=st.builds(BinomialParams, N=st.integers(1, 4), K=st.integers(1, 9)).filter(
        lambda params: params.top_level <= 9
    ),
    axes=st.tuples(st.sampled_from("qp"), st.sampled_from("qp")),
    data=st.data(),
)
def test_breed_step_exchange_symmetric_for_binomial_inputs(params, axes, data):
    """Exchanging the arms of a second step keeps its outcome distribution.

    The atlas fold relies on this. It holds at every dim, in cut sectors
    too: the beamsplitter blocks are the exact operator compressed to the
    box, which keeps the symmetry. Two first-level posts of an input with
    top Fock level T reach 4T photons, so below dim 4·T + 1 the second step
    reaches sector dim.
    """
    dim = data.draw(st.integers(max(2, params.top_level + 1), 40), label="dim")
    i, j = data.draw(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)), label="i, j")
    cfg = FockConfig(dim)
    psi = binomial_state(cfg, params)
    _, posts = breed_step(psi, psi, axes[0], cfg)
    forward, _ = breed_step(posts[i], posts[j], axes[1], cfg)
    backward, _ = breed_step(posts[j], posts[i], axes[1], cfg)
    assert np.max(np.abs(forward - backward)) < 1e-12


@settings(database=None, derandomize=True, deadline=None)
@given(
    dim=st.integers(2, 40),
    axis=st.sampled_from("qp"),
    n=st.one_of(st.none(), st.integers(1, 4)),
    seed=st.integers(0, 2**32 - 1),
)
def test_breed_step_real_input_matches_its_complex_cast(dim, axis, n, seed):
    """A real input is bred in real arithmetic: measured in q it stays real.
    Its outcomes must be those of the same input cast to complex. The
    amplitudes post·√p are compared, since a normalized post of an outcome
    with a tiny probability magnifies rounding."""
    rng = np.random.default_rng(seed)
    left, right = rng.normal(size=dim), rng.normal(size=(dim,) if n is None else (n, dim))
    left /= np.linalg.norm(left)
    right /= np.linalg.norm(right, axis=-1, keepdims=True)
    cfg = FockConfig(dim)
    probs, posts = breed_step(left, right, axis, cfg)
    cast_probs, cast_posts = breed_step(left.astype(complex), right.astype(complex), axis, cfg)
    assert probs.dtype == np.float64
    assert posts.dtype == (np.float64 if axis == "q" else np.complex128)
    assert posts.shape == cast_posts.shape
    assert np.max(np.abs(probs - cast_probs)) < 1e-13
    amplitudes = posts * np.sqrt(probs)[..., None]
    assert np.max(np.abs(amplitudes - cast_posts * np.sqrt(cast_probs)[..., None])) < 1e-13


@settings(database=None, derandomize=True, deadline=None)
@given(
    dim=st.integers(2, 40),
    axis=st.sampled_from("qp"),
    n=st.one_of(st.none(), st.integers(1, 4)),
    complex_input=st.booleans(),
    data=st.data(),
)
def test_breed_step_matches_the_full_dim_breed(dim, axis, n, complex_input, data):
    """breed_step mixes and projects only the levels its inputs occupy; the
    full-dim breed of the same inputs must give the same outcomes. Each
    state (each row of a stack) gets a random top level, dim − 1 for full
    support and −1 for a zero row."""
    rows = 1 if n is None else n
    tops = data.draw(st.lists(st.integers(-1, dim - 1), min_size=rows + 1, max_size=rows + 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    states = rng.normal(size=(rows + 1, dim))
    if complex_input:
        states = states + 1j * rng.normal(size=states.shape)
    states[np.arange(dim) > np.array(tops)[:, None]] = 0
    norms = np.linalg.norm(states, axis=1, keepdims=True)
    states /= np.where(norms > 0, norms, 1)
    left, right = states[0], states[1] if n is None else states[1:]
    cfg = FockConfig(dim)
    probs, posts = breed_step(left, right, axis, cfg)
    full_probs, full_posts = full_breed_step(left, right, axis, cfg)
    assert probs.dtype == full_probs.dtype
    if not np.array_equal(left, right):  # two draws may come out equal: see the next test
        assert posts.dtype == full_posts.dtype
    assert posts.shape == full_posts.shape
    assert np.max(np.abs(probs - full_probs)) < 1e-13
    assert np.max(np.abs(posts - full_posts)) < 1e-13


@settings(database=None, derandomize=True, deadline=None, max_examples=200)
@given(
    dim=st.integers(2, 40),
    axis=st.sampled_from("qp"),
    complex_input=st.booleans(),
    one_parity=st.booleans(),
    data=st.data(),
)
def test_breed_step_of_a_state_with_itself_matches_the_full_dim_breed(
    dim, axis, complex_input, one_parity, data
):
    """A state bred with itself, top level T, gives the full-dim breed's
    outcomes, at every dim: its posts' odd levels must be exact zeros, and
    the posts real when ψ is real and, for a p measurement, of one
    parity."""
    top = data.draw(st.integers(0, dim - 1), label="top")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    state = rng.normal(size=dim)
    if complex_input:
        state = state + 1j * rng.normal(size=dim)
    state[top + 1 :] = 0
    if one_parity:
        state[(top + 1) % 2 : top : 2] = 0  # the levels below T of the other parity
    state /= np.linalg.norm(state)
    cfg = FockConfig(dim)
    probs, posts = breed_step(state, state, axis, cfg)
    full_probs, full_posts = full_breed_step(state, state, axis, cfg)
    assert probs.dtype == np.float64
    assert np.max(np.abs(probs - full_probs)) < 1e-13
    assert np.max(np.abs(posts - full_posts)) < 1e-13
    # a joint state that leaves the box whole (|1⟩|1⟩ at dim 2) gives zero, real posts
    real = not complex_input and (axis == "q" or one_parity or top == 0) or not posts.any()
    assert posts.dtype == (np.float64 if real else np.complex128)
    assert not posts[:, 1::2].any()


@pytest.mark.parametrize("dim, top", [(50, 8), (50, 49), (51, 12)])
@pytest.mark.parametrize("axis", "qp")
@pytest.mark.parametrize("complex_input", [False, True])
def test_breed_step_on_a_slice_of_outcomes_gives_those_rows_of_the_full_step(
    dim, top, axis, complex_input
):
    """A slice of the measured outcomes gives, bit for bit, the same rows
    of probabilities and posts as the full step: for one state, a stack and
    a state bred with itself, on a corner w = 2·top + 1 < dim, at full
    width, and at an odd dim."""
    rng = np.random.default_rng(dim + top)
    states = rng.normal(size=(4, dim))
    if complex_input:
        states = states + 1j * rng.normal(size=states.shape)
    states[:, top + 1 :] = 0
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    cfg = FockConfig(dim)
    for left, right in ((states[0], states[1:]), (states[0], states[1]), (states[0], states[0])):
        probs, posts = breed_step(left, right, axis, cfg)
        for outcomes in (slice((dim + 1) // 2), slice(3, dim - 2), slice(1, None, 2)):
            sliced_probs, sliced_posts = breed_step(left, right, axis, cfg, outcomes)
            assert sliced_probs.shape == probs[..., outcomes].shape
            assert sliced_probs.tobytes() == probs[..., outcomes].tobytes()
            assert sliced_posts.dtype == posts.dtype
            assert sliced_posts.shape == posts[..., outcomes, :].shape
            assert sliced_posts.tobytes() == posts[..., outcomes, :].tobytes()


@pytest.mark.parametrize("axis", "qp")
def test_equal_arms_give_parity_even_posts_at_every_dim(axis):
    # the default input, top level T = 4, bred with itself: every post is
    # real and exactly parity-even on both axes, in whole sectors (dims 9
    # and 50) and when the joint state reaches the cut sectors (dims 5 and
    # 8), where it still matches the full-dim breed
    for dim in (5, 8, 9, 50):
        cfg = FockConfig(dim)
        psi0 = default_input(cfg)
        _, posts = breed_step(psi0, psi0, axis, cfg)
        assert posts.dtype == np.float64 and not posts[:, 1::2].any()
        _, full_posts = full_breed_step(psi0, psi0, axis, cfg)
        assert np.max(np.abs(posts - full_posts)) < 1e-13


@pytest.mark.parametrize("axis", "qp")
def test_first_level_posts_stay_within_twice_the_input_top(cfg, psi0, axis):
    # the beamsplitter conserves total photon number: two copies of the
    # input, top level T = 4, give posts exactly zero above level 2T = 8,
    # and some outcome reaches level 8
    top = int(np.flatnonzero(psi0)[-1])
    _, posts = breed_step(psi0, psi0, axis, cfg)
    assert top == 4
    assert not np.any(posts[:, 2 * top + 1 :])
    assert np.any(posts[:, 2 * top])


@settings(database=None, derandomize=True, deadline=None)
@given(
    params=st.builds(BinomialParams, N=st.integers(1, 4), K=st.integers(1, 9)),
    axes=st.text("qp", min_size=1, max_size=3),
    data=st.data(),
)
def test_chain_probability_is_the_tree_probability(params, axes, data):
    """A uniformly post-selected chain weighs level j's log-probability by
    the 2^{k−j} measurements of that level; breeding every node of the tree
    must give the same probability and the same output state."""
    dim = data.draw(st.integers(max(2, params.top_level + 1), 40), label="dim")
    selected = data.draw(st.lists(st.integers(0, dim - 1), min_size=len(axes), max_size=len(axes)))
    cfg = FockConfig(dim)
    schedule = Schedule.from_string(axes)
    psi = binomial_state(cfg, params)
    try:
        *_, (_, log_probability, state) = chain_prefixes(cfg, schedule, selected, psi)
    except NumericalError:  # a selected outcome underflowed
        assume(False)
    tree_log, tree_state = tree_log_probability(cfg, schedule, selected, psi)
    assert log_probability == pytest.approx(tree_log, rel=1e-12, abs=1e-12)
    assert abs(abs(np.vdot(tree_state, state)) - 1) < 1e-12


@pytest.mark.parametrize("index", [24, 19, 10, 40])
def test_level_one_matches_the_position_space_product(index):
    """After the beamsplitter, two copies of ψ have the joint wavefunction
    ψ((x − y)/√2)·ψ((x + y)/√2), x the measured and y the kept coordinate
    (Weigand & Terhal, PRA 97, 022341 (2018)). A q outcome x leaves the
    kept mode in that product as a function of y. Its Fock coefficients,
    by a trapezoid sum on a fine grid, match the post of ``breed_step`` at
    the outcome's node and the truncation-free reference at the same x."""
    cfg = FockConfig(50)
    psi0 = default_input(cfg)
    x = quadrature_basis(cfg, "q").eigenvalues[index]
    y = np.linspace(-14, 14, 5601)
    wave = lambda z: psi0 @ hermite_phi(cfg.dim - 1, z)
    product = wave((x - y) / math.sqrt(2)) * wave((x + y) / math.sqrt(2))
    coefficients = hermite_phi(cfg.dim - 1, y) @ product * (y[1] - y[0])
    coefficients /= np.linalg.norm(coefficients)
    post = breed_step(psi0, psi0, "q", cfg)[1][index]
    assert np.max(_up_to_sign(post, coefficients)) < 1e-12
    reference = reference_breed(psi0, psi0, "q", x)
    assert not reference[cfg.dim :].any()
    reference = reference[: cfg.dim] / np.linalg.norm(reference)
    assert np.max(_up_to_sign(reference, coefficients)) < 1e-12


@pytest.mark.parametrize("dim", [50, 100])
def test_ladder_chain_matches_the_truncation_free_reference(dim):
    """The pqpqpqpq chain, C at every level, against the reference bred in
    whole sectors at dim's node C, x = −0.156303 at dim 50 and −0.110796 at
    dim 100. At each level 1 − |⟨post|ref⟩| stays below the reference's
    weight above level dim − 1, the part the truncation cuts, plus 1e-10:
    at dim 100 that weight is at most 9.7e-12, so the chain agrees to
    1e-10 at every level; at dim 50 it is 0 through level 3 and up to
    6.7e-6 from level 4, where the joint state reaches sector dim."""
    cfg = FockConfig(dim)
    basis = quadrature_basis(cfg, "q")
    x = basis.eigenvalues[basis.center_index]
    schedule = Schedule.from_string("pqpqpqpq")
    chain = [state for _, _, state in chain_prefixes(cfg, schedule, ["C"] * 8)][1:]
    references = reference_chain(default_input(cfg), schedule, x)
    for post, reference in zip(chain, references, strict=True):
        above = np.linalg.norm(reference[dim:]) ** 2
        assert 1 - abs(np.vdot(post, reference[:dim])) <= above + 1e-10
        assert dim == 50 or above < 1e-11


def test_breed_step_vacuum_invariant(cfg, vacuum):
    probs, posts = breed_step(vacuum, vacuum, "q", cfg)
    kept = probs > PROBABILITY_FLOOR
    assert np.max(np.abs(np.abs(posts[kept] @ vacuum.conj()) - 1)) < 1e-10


def test_chain_zero_level_is_input(cfg, psi0, target):
    result = run_chain(cfg, Schedule(()), [], target=target)
    assert abs(abs(np.vdot(result.state, psi0)) - 1) < 1e-14
    assert result.log_probability == 0.0
    assert result.fidelity == pytest.approx(0.941, abs=2e-3)


def test_chain_selection_length_checked(cfg):
    with pytest.raises(ValueError, match="one selected outcome per iteration"):
        run_chain(cfg, Schedule.alternating(2), [24])


@pytest.mark.parametrize("index", [-1, 99])
def test_chain_selection_index_out_of_range(cfg, index):
    with pytest.raises(ValueError, match="level 1: outcome index"):
        run_chain(cfg, Schedule.from_string("q"), [index])


def test_chain_extreme_selection_stays_finite_in_log_space(cfg):
    # even wildly improbable selections keep finite log-probability
    result = run_chain(cfg, constant_schedule("q", 6), [0] * 6)
    assert result.log_probability < -4000
    assert math.isfinite(result.log_probability)


def test_chain_underflow_names_level(cfg, monkeypatch):
    import qpbreed.protocol as protocol

    real = protocol.breed_step

    def starved(left, right, axis, inner_cfg):
        probs, posts = real(left, right, axis, inner_cfg)
        return np.zeros_like(probs), np.zeros_like(posts)

    monkeypatch.setattr(protocol, "breed_step", starved)
    with pytest.raises(NumericalError, match="level 1"):
        run_chain(cfg, Schedule.alternating(2), [24, 24])


def test_chain_tree_consistency(cfg, target, atlas):
    """The collapsed chain at k=2 must equal the enumeration leaf exactly."""
    result = run_chain(cfg, Schedule.from_string("qp"), [24, 24], target=target)
    probabilities, fidelities, deltas = atlas
    leaf = (24, 24, 24)
    assert result.probability == pytest.approx(probabilities[leaf], rel=1e-10)
    assert result.fidelity == pytest.approx(fidelities[leaf], abs=1e-10)
    assert result.effective_squeezing_q == pytest.approx(deltas[leaf], abs=1e-10)


def test_chain_log_probability_weights(cfg, target):
    """log P = sum over levels of 2^{k-j} ln p_j."""
    psi0 = default_input(cfg)
    first_probs, first_posts = breed_step(psi0, psi0, "q", cfg)
    p1, post1 = first_probs[24], first_posts[24]
    p2 = breed_step(post1, post1, "p", cfg)[0][24]
    result = run_chain(cfg, Schedule.from_string("qp"), [24, 24], target=target)
    assert result.log_probability == pytest.approx(2 * math.log(p1) + math.log(p2), rel=1e-12)


def test_chain_deep_no_underflow(cfg, target):
    result = run_chain(cfg, Schedule.alternating(8, start="p"), [24] * 8, target=target)
    assert math.isfinite(result.log_probability)
    assert result.log_probability < -500  # far below double underflow when exponentiated
    aggregated_log = result.log_probability + sign_aggregation_log(255)
    assert math.exp(aggregated_log) == pytest.approx(6.4e-159, rel=3.0)


def test_leaf_probabilities_sum_to_one(atlas):
    probabilities = atlas[0]
    assert probabilities.sum() == pytest.approx(1.0, abs=1e-8)
    assert probabilities.shape == (50, 50, 50)


def test_leaves_lexicographic_order(first_level, atlas):
    # axes are [q1, q2, p]: summing out (q2, p) leaves the first-level q
    # distribution, summing out the q's leaves a second-level p distribution
    probs = first_level[0]
    probabilities = atlas[0]
    assert np.max(np.abs(probabilities.sum(axis=(1, 2)) - probs)) < 1e-10
    assert np.max(np.abs(probabilities.sum(axis=(0, 2)) - probs)) < 1e-10
    assert np.max(np.abs(probabilities.sum(axis=(0, 1)) - probs)) > 1e-3


def test_exchange_symmetry(atlas):
    probabilities, fidelities, _ = atlas
    for (a, b, c) in [(19, 18, 24), (24, 19, 17), (10, 30, 24)]:
        assert probabilities[a, b, c] == pytest.approx(probabilities[b, a, c], abs=1e-10)
        if not math.isnan(fidelities[a, b, c]):
            assert fidelities[a, b, c] == pytest.approx(fidelities[b, a, c], abs=1e-10)


def test_parity_symmetry(atlas):
    probabilities = atlas[0]
    for (a, b, c) in [(24, 24, 24), (19, 18, 24), (22, 25, 17)]:
        mirror = probabilities[49 - a, 49 - b, 49 - c]
        assert probabilities[a, b, c] == pytest.approx(mirror, abs=1e-12)


def test_symmetry_reduction_matches_direct_enumeration():
    # dim 18 keeps every populated photon-number sector complete (the
    # second-level joint state reaches total photon number 16); see
    # test_fold_matches_the_direct_enumeration_in_cut_sectors for dims below
    cfg = FockConfig(dim=18)
    target = default_target(cfg)
    fast_prob, fast_fid, _ = enumerate_two_iterations(cfg, target=target)
    slow_prob, slow_fid = direct_two_iteration_enumeration(cfg, target)
    np.testing.assert_allclose(fast_prob, slow_prob, rtol=1e-9, atol=1e-13)
    both = ~(np.isnan(fast_fid) | np.isnan(slow_fid))
    np.testing.assert_allclose(fast_fid[both], slow_fid[both], rtol=0, atol=1e-9)


def _up_to_sign(a, b):
    """Largest entry of a − b or of a + b, whichever is smaller, per row."""
    return np.minimum(np.abs(a - b).max(axis=-1), np.abs(a + b).max(axis=-1))


@pytest.mark.parametrize("dim", [5, 8, 9, 17, 50, 51])
def test_first_level_q_mirror(dim):
    # the default input is parity-even, so every post is parity-even, also
    # where the joint input reaches the cut sectors (dims 5 and 8): q and
    # dim − 1 − q herald the same state with the same probability
    cfg = FockConfig(dim)
    psi0 = default_input(cfg)
    probs, posts = breed_step(psi0, psi0, "q", cfg)
    likely = probs > 1e-8
    np.testing.assert_allclose(probs[::-1][likely], probs[likely], rtol=1e-12, atol=0)
    assert np.max(_up_to_sign(posts[::-1], posts)[likely]) < 1e-12


@pytest.mark.parametrize("dim", [12, 50])
def test_second_level_p_mirror(dim):
    # the first-level posts are real, and the conjugate of p eigenvector j
    # is ± p eigenvector dim − 1 − j: p and dim − 1 − p give conjugate
    # posts with the same probability, at every dim
    cfg = FockConfig(dim)
    psi0 = default_input(cfg)
    probs, posts = breed_step(psi0, psi0, "q", cfg)
    for q1 in range(dim):
        cond, second = breed_step(posts[q1], posts, "p", cfg)
        likely = probs[q1] * probs[:, None] * cond > 1e-8
        mirror = second[:, ::-1].conj()
        overlap = np.vecdot(mirror, second)
        phase = overlap / np.where(overlap == 0, 1, np.abs(overlap))
        deviation = np.abs(second - phase[..., None] * mirror).max(axis=-1)
        assert np.all(deviation[likely] < 1e-12)
        np.testing.assert_allclose(cond[:, ::-1][likely], cond[likely], rtol=1e-12, atol=0)


@pytest.mark.parametrize("dim", range(2, 13))
def test_leaf_fold(dim):
    fold, canonical = leaf_fold(dim)
    half = (dim + 1) // 2
    n = half**2 * (half + 1) // 2
    np.testing.assert_array_equal(np.unique(fold), np.arange(n))
    leaves = [(q1, q2, p) for q1 in range(half) for q2 in range(q1, half) for p in range(half)]
    assert [fold[leaf] for leaf in leaves] == list(range(n))
    q1, q2, p = np.indices((dim, dim, dim))
    np.testing.assert_array_equal(canonical, (q1 <= q2) & (q2 < half) & (p < half))
    # the fold is constant on every orbit of exchange and the three
    # single-outcome mirrors, everywhere
    np.testing.assert_array_equal(fold, fold.transpose(1, 0, 2))
    for axis in range(3):
        np.testing.assert_array_equal(fold, np.flip(fold, axis))


def test_leaf_fold_is_built_once_per_dim_and_read_only():
    fold, canonical = leaf_fold(12)
    again = leaf_fold(12)
    assert again[0] is fold and again[1] is canonical
    for array in fold, canonical:
        with pytest.raises(ValueError):
            array[0, 0, 0] = array[0, 0, 0]
    # the kept p outcomes are a prefix, which the enumeration measures as a slice
    assert canonical.any(axis=(0, 1)).tolist() == [True] * 6 + [False] * 6


def test_atlas_is_exchange_and_parity_invariant(atlas):
    # exchange and each single-outcome mirror; global parity is their product
    for leaves in atlas:
        bits = leaves.view(np.uint64)
        np.testing.assert_array_equal(bits, bits.transpose(1, 0, 2))
        for axis in range(3):
            np.testing.assert_array_equal(bits, np.flip(bits, axis))


@pytest.mark.parametrize("dim", [18, 19])
def test_fold_matches_the_half_group_enumeration(dim, monkeypatch):
    """The fold breeds a subset of the pairs that the exchange × parity fold
    bred, in shorter stacks, and scores half of their p outcomes, so the
    values it copies are that fold's values up to the rounding of the stack
    length. The leaves it copies by a q or p mirror, which that fold bred on
    their own, are checked as well by the mirror tests above."""
    import qpbreed.protocol as protocol

    cfg = FockConfig(dim)
    folded = enumerate_two_iterations(cfg)
    monkeypatch.setattr(protocol, "leaf_fold", exchange_parity_leaf_fold)
    reference = enumerate_two_iterations(cfg)
    fold, canonical = leaf_fold(dim)
    likely = reference[0] > 1e-8
    for new, old in zip(folded, reference):
        np.testing.assert_allclose(new, old[canonical].ravel()[fold], rtol=1e-13, atol=0)
        # leaf by leaf, the copies differ from the values that fold bred on
        # their own by rounding only
        np.testing.assert_allclose(new[likely], old[likely], rtol=0, atol=1e-12)


def test_enumeration_is_a_gather_through_the_fold():
    fold, canonical = leaf_fold(18)
    for leaves in enumerate_two_iterations(FockConfig(dim=18)):
        gathered = leaves[canonical].ravel()[fold]
        np.testing.assert_array_equal(gathered.view(np.uint64), leaves.view(np.uint64))


@pytest.mark.parametrize("dim", [10, 13, 16])
def test_fold_matches_the_direct_enumeration_in_cut_sectors(dim):
    """Below dim 4·T + 1 = 17 the second step reaches the cut sectors, and
    the fold is still exact: it equals the enumeration of every first-level
    pair. Nothing warns, the effective squeezing probe included."""
    cfg = FockConfig(dim)
    target = default_target(cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fast_prob, fast_fid, _ = enumerate_two_iterations(cfg, target=target)
    assert not caught
    slow_prob, slow_fid = direct_two_iteration_enumeration(cfg, target)
    np.testing.assert_allclose(fast_prob, slow_prob, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(np.isnan(fast_fid), np.isnan(slow_fid))
    both = ~np.isnan(fast_fid)
    np.testing.assert_allclose(fast_fid[both], slow_fid[both], rtol=0, atol=1e-12)


def test_enumeration_budget_guard(monkeypatch):
    # 127³ = 2,048,383 leaves, just over the budget; the fold refuses it
    # before the target or any state is built
    import qpbreed.protocol as protocol

    def unbuilt(*args, **kwargs):
        raise AssertionError("a state was built for a refused enumeration")

    for name in ("default_target", "default_input", "breed_step"):
        monkeypatch.setattr(protocol, name, unbuilt)
    with pytest.raises(ValueError, match="budget"):
        enumerate_two_iterations(FockConfig(dim=127))


def test_leaf_fold_refuses_a_dim_over_the_budget_before_it_allocates():
    # the fold of 127³ leaves alone would be a 16 MB int64 array
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="2048383 leaves, over the budget of 2000000"):
            leaf_fold(127)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 127**3


@pytest.mark.parametrize("levels", [12, 60])
def test_enumeration_refuses_a_target_of_another_dim(levels):
    # a longer target cut to the corner would be scored without its norm
    # above level 20, and a shorter one could not be scored at all
    target = default_target(FockConfig(levels))
    with pytest.raises(ValueError, match=rf"target has shape \({levels},\), not the \(20,\)"):
        enumerate_two_iterations(FockConfig(20), target=target)


def test_breed_step_refuses_a_state_longer_than_dim():
    # cut to the box, a dim-60 target bred at dim 20 would lose 0.6 % of
    # its probability without a word
    cfg = FockConfig(20)
    long, short = default_target(FockConfig(60)), default_input(cfg)
    for left, right in ((long, short), (short, long), (short, np.stack([long, long]))):
        with pytest.raises(ValueError, match="60 levels, more than dim 20"):
            breed_step(left, right, "q", cfg)


@pytest.mark.parametrize(
    "short",
    [
        np.full(12, 12**-0.5),  # top level 11: numpy's broadcast error without the check
        default_input(FockConfig(12)),  # top level 4: bred as if padded without the check
    ],
)
def test_breed_step_refuses_a_state_shorter_than_dim(short):
    cfg = FockConfig(20)
    full = default_input(cfg)
    for left, right in ((short, short), (short, full), (full, np.stack([short, short]))):
        with pytest.raises(ValueError, match="12 levels, fewer than dim 20"):
            breed_step(left, right, "q", cfg)


@pytest.mark.parametrize("axis, complex_input", [("q", False), ("p", True)])
def test_breed_step_pairs_two_stacks_row_by_row(axis, complex_input):
    # rows of top levels 5, 12 and 19 at dim 20: each pair is bred on the
    # corner of the widest rows, every level here, and must agree with its
    # own step on its own corner; a stack bred with itself pairs each row
    # with itself, under the parity rule of a state bred with itself
    cfg = FockConfig(20)
    rng = np.random.default_rng(34)
    states = rng.normal(size=(2, 3, 20))
    if complex_input:
        states = states + 1j * rng.normal(size=states.shape)
    states[:, np.arange(20) > np.array([5, 12, 19])[:, None]] = 0
    states /= np.linalg.norm(states, axis=-1, keepdims=True)
    lefts, rights = states
    for right in (rights, lefts):
        probs, posts = breed_step(lefts, right, axis, cfg)
        assert probs.shape == (3, 20) and posts.shape == (3, 20, 20)
        for row in range(3):
            alone_probs, alone_posts = breed_step(lefts[row], right[row], axis, cfg)
            assert np.max(np.abs(probs[row] - alone_probs)) < 1e-14
            assert np.max(np.abs(posts[row] - alone_posts)) < 1e-14
    assert not posts[:, :, 1::2].any()


@pytest.mark.parametrize("axis", "qp")
def test_breed_step_of_one_state_against_a_stack_is_unchanged_by_pairing(axis):
    # one state against a stack is the enumeration's path: the joint state
    # left ⊗ row of each row, mixed, projected and normalized as written
    # out here, bit for bit
    cfg = FockConfig(20)
    psi0 = default_input(cfg)
    stack = breed_step(psi0, psi0, "q", cfg)[1][:10]
    probs, posts = breed_step(stack[9], stack, axis, cfg)
    width = 2 * 8 + 1  # first-level posts reach level 8
    joint = stack[9][:width, None] * stack[..., None, :width]
    amplitudes = projection_amplitudes(apply_beamsplitter(cfg, joint), quadrature_basis(cfg, axis))
    written_probs = np.vecdot(amplitudes, amplitudes).real
    assert written_probs.min() > PROBABILITY_FLOOR  # no post is a zero row
    written_posts = np.zeros(amplitudes.shape[:-1] + (20,), amplitudes.dtype)
    written_posts[..., :width] = amplitudes * (1.0 / np.sqrt(written_probs))[..., None]
    assert probs.tobytes() == written_probs.tobytes()
    assert posts.dtype == written_posts.dtype
    assert posts.tobytes() == written_posts.tobytes()


def test_breed_step_refuses_stacks_of_unequal_length():
    cfg = FockConfig(20)
    psi0 = default_input(cfg)
    with pytest.raises(ValueError, match="could not be broadcast"):
        breed_step(np.stack([psi0] * 2), np.stack([psi0] * 3), "q", cfg)


def test_probability_fidelity_curve_endpoints(atlas):
    probabilities, fidelities, _ = atlas
    points = probability_fidelity_curve(probabilities, fidelities, [0.0, 2.0])
    assert points[0][1] == pytest.approx(1.0, abs=1e-8)
    assert points[1][1] == 0.0


def test_effective_squeezing_curve_endpoints(atlas):
    probabilities, _, deltas = atlas
    points = effective_squeezing_curve(probabilities, deltas, [math.inf])
    assert points[0][1] == pytest.approx(1.0, abs=1e-8)


def test_all_q_schedule_squeezes_q(cfg):
    q_op = quadrature(cfg, 0.0)
    q2 = q_op @ q_op

    def q_variance(state):
        mean = float(np.real(state.conj() @ (q_op @ state)))
        return float(np.real(state.conj() @ (q2 @ state))) - mean**2

    state = default_input(cfg)
    variances = [q_variance(state)]
    for _ in range(2):
        state = breed_step(state, state, "q", cfg)[1][24]
        variances.append(q_variance(state))
    # the first step reshapes the peaks (variance can transiently grow);
    # two iterations strictly reduce the q variance below the input's
    assert variances[2] < variances[0]


def test_sweep_flags_unsupported_inputs():
    cfg = FockConfig(dim=20)
    records = sweep_binomial_inputs(cfg, [4], [6, 7], Schedule.alternating(2), 0.4)
    # N=4, K>=6 occupies level 2*3*4 = 24 >= 20
    assert all(not r.supported and math.isnan(r.fidelity) for r in records)


def test_sweep_flags_an_underflowing_level(monkeypatch):
    # no center outcome underflows at the CLI's dims, so a stand-in
    # breed_step zeroes level 2 of the second input, (2, 3), as an
    # underflowed outcome leaves it
    import qpbreed.protocol as protocol

    args = (FockConfig(dim=20), [2], [2, 3, 4], Schedule.alternating(4), 0.4)
    honest = sweep_binomial_inputs(*args)
    assert all(r.supported for r in honest)
    real, calls = protocol.breed_step, []

    def starved(left, right, axis, inner_cfg, outcomes):
        probabilities, posts = real(left, right, axis, inner_cfg, outcomes)
        calls.append(axis)
        if len(calls) == 2:  # level 2, one step for every input
            probabilities[1], posts[1] = 0.0, 0.0
        return probabilities, posts

    monkeypatch.setattr(protocol, "breed_step", starved)
    records = sweep_binomial_inputs(*args)
    levels = [(r.K, r.iteration) for r in records]
    assert levels == [(2, i) for i in range(5)] + [(3, 0), (3, 1), (3, 2)] + [(4, i) for i in range(5)]
    flagged = records.pop(7)
    assert (flagged.N, flagged.K, flagged.iteration, flagged.supported) == (2, 3, 2, False)
    assert math.isnan(flagged.fidelity)
    assert records == [r for r in honest if r.K != 3 or r.iteration < 2]


def test_sweep_breeds_once_for_all_targets(monkeypatch):
    import qpbreed.protocol as protocol

    cfg = FockConfig(dim=20)
    schedule = Schedule.alternating(2)
    alone = [sweep_binomial_inputs(cfg, [2, 3], [2, 3, 4], schedule, d) for d in (0.4, 0.35)]
    steps = []
    monkeypatch.setattr(protocol, "breed_step", lambda *a: steps.append(1) or breed_step(*a))
    both = sweep_binomial_inputs(cfg, [2, 3], [2, 3, 4], schedule, 0.4, 0.35)
    assert [r.target_delta for r in both] == [0.4] * len(alone[0]) + [0.35] * len(alone[1])
    assert both == alone[0] + alone[1]
    assert len(steps) == schedule.iterations  # one step per level for the whole stack


@pytest.mark.parametrize("dim", [20, 50, 51])
@pytest.mark.parametrize("schedule", ["qp", "pqpq"])
def test_sweep_matches_a_chain_walk_of_each_input(dim, schedule):
    # the stacked sweep against each input walked on its own by
    # chain_prefixes, center outcome at every level, over the CLI's grid;
    # at an even dim the next outcome is the center's mirror and heralds
    # the same fidelities, at dim 51 it is the middle outcome
    cfg = FockConfig(dim)
    schedule = Schedule.from_string(schedule)
    target = default_target(cfg)
    center = [quadrature_basis(cfg, "q").center_index] * schedule.iterations
    walked = []
    for n_sym in (2, 3, 4):
        for k_trunc in range(2, 8):
            params = BinomialParams(N=n_sym, K=k_trunc)
            if params.top_level >= dim:
                walked.append((n_sym, k_trunc, 0, False, math.nan))
                continue
            for path, _, state in chain_prefixes(cfg, schedule, center, binomial_state(cfg, params)):
                walked.append((n_sym, k_trunc, len(path), True, fidelity(state, target)))
    records = sweep_binomial_inputs(cfg, [2, 3, 4], range(2, 8), schedule, 0.4)
    assert [(r.N, r.K, r.iteration, r.supported) for r in records] == [w[:4] for w in walked]
    fidelities = np.array([r.fidelity for r in records])
    assert np.allclose(fidelities, [w[4] for w in walked], rtol=0, atol=1e-13, equal_nan=True)


def test_sweep_oscillation_and_argmax(cfg):
    schedule = Schedule.alternating(4, start="p")
    records = sweep_binomial_inputs(cfg, [2, 3], [2, 3, 4], schedule, 0.4)
    by_input = {}
    for r in records:
        if r.supported:
            by_input.setdefault((r.N, r.K), {})[r.iteration] = r.fidelity
    fid23 = by_input[(2, 3)]
    # oscillation: odd iterations dip below the neighbouring even ones
    assert fid23[1] < fid23[0] and fid23[1] < fid23[2]
    assert fid23[3] < fid23[2] and fid23[3] < fid23[4]
    # (2, 3) beats the other swept inputs at the final even iteration
    best = max(by_input, key=lambda key: by_input[key].get(4, -1))
    assert best == (2, 3)

