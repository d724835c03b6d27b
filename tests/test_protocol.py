import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpbreed import (
    FockConfig,
    NumericalError,
    Schedule,
    breed_step,
    default_input,
    default_target,
    effective_squeezing_curve,
    enumerate_two_iterations,
    fidelity,
    probability_fidelity_curve,
    run_chain,
    sign_aggregated,
    sweep_binomial_inputs,
)
from qpbreed.numerics import PROBABILITY_FLOOR
from qpbreed.protocol import measurements_in_tree, sign_aggregation_log

from oracles import constant_schedule, direct_two_iteration_enumeration, quadrature


def test_schedule_constructors():
    assert Schedule.alternating(4).axes == ("q", "p", "q", "p")
    assert Schedule.alternating(3, start="p").axes == ("p", "q", "p")
    assert Schedule.from_string("qppq").iterations == 4
    with pytest.raises(ValueError):
        Schedule(("q", "x"))


def test_measurement_count():
    assert [measurements_in_tree(k) for k in (1, 2, 3, 8)] == [1, 3, 7, 255]
    assert sign_aggregated(1.0, 3) == 8.0
    assert sign_aggregation_log(3) == pytest.approx(3 * math.log(2))


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
@given(dim=st.integers(2, 40), axis=st.sampled_from("qp"), seed=st.integers(0, 2**32 - 1))
def test_breed_step_probabilities_sum_to_one(dim, axis, seed):
    probs, _ = breed_step(*random_states(dim, seed), axis, FockConfig(dim))
    assert abs(probs.sum() - 1) < 1e-12


@settings(database=None, derandomize=True, deadline=None)
@given(dim=st.integers(2, 40), axis=st.sampled_from("qp"), seed=st.integers(0, 2**32 - 1))
def test_breed_step_mirror_symmetric_for_even_inputs(dim, axis, seed):
    # two even inputs make the joint state even under parity on both modes,
    # which maps each outcome onto its mirror image
    probs, _ = breed_step(*random_states(dim, seed, even=True), axis, FockConfig(dim))
    assert np.max(np.abs(probs - probs[::-1])) < 1e-12


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
    # second-level joint state reaches total photon number 16), which is
    # what makes the exchange/parity reduction exact
    cfg = FockConfig(dim=18)
    target = default_target(cfg)
    fast_prob, fast_fid, _ = enumerate_two_iterations(cfg, target=target)
    slow_prob, slow_fid = direct_two_iteration_enumeration(cfg, target)
    np.testing.assert_allclose(fast_prob, slow_prob, rtol=1e-9, atol=1e-13)
    both = ~(np.isnan(fast_fid) | np.isnan(slow_fid))
    np.testing.assert_allclose(fast_fid[both], slow_fid[both], rtol=0, atol=1e-9)


def test_enumeration_budget_guard():
    # 127³ = 2,048,383 leaves, just over the budget; the guard runs before
    # any state is built
    with pytest.raises(ValueError, match="budget"):
        enumerate_two_iterations(FockConfig(dim=127))


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
    assert len(steps) == sum(r.iteration > 0 and r.supported for r in alone[0])


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

