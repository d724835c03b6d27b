"""Acceptance gate: the published reference values, each criterion printing
one PASS/FAIL line (visible with pytest -s; the verbose test status line
carries the same information under capture)."""

import math

import numpy as np
import pytest

from qpbreed import (
    FockConfig,
    Schedule,
    breed_step,
    default_input,
    default_target,
    effective_squeezing,
    effective_squeezing_curve,
    enumerate_two_iterations,
    fidelity,
    label_peaks,
    probability_fidelity_curve,
    quadrature_basis,
    run_chain,
    sgkp_db,
    sign_aggregated,
    squeezed_vacuum,
    sweep_binomial_inputs,
)
from qpbreed.fock import displacement
from qpbreed.homodyne import RESCALE, OutcomeDistribution
from qpbreed.protocol import sign_aggregation_log

from oracles import dense_beamsplitter, displacement_matrix, gauss_hermite_nodes, parity_operator


def report(number, description, checks):
    ok = all(checks)
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


# Reference rows: (q1, q2, p) -> (fidelity, aggregated probability, delta_q)
TABLE_1 = {
    (24, 24, 17): (0.9887, 0.004, 0.3765),
    (24, 24, 24): (0.9834, 0.0134, 0.3522),
    (19, 18, 24): (0.9830, 0.0038, 0.4918),
    (19, 19, 24): (0.9816, 0.0063, 0.5003),
}

TABLE_4 = {
    (18, 18, 16): (0.963, 0.0006, 0.4806),
    (18, 19, 24): (0.983, 0.0038, 0.4918),
    (18, 20, 24): (0.9723, 0.0021, 0.4828),
    (19, 18, 24): (0.983, 0.0038, 0.4918),
    (19, 19, 16): (0.968, 0.0017, 0.5022),
    (19, 19, 17): (0.9721, 0.002, 0.4894),
    (19, 19, 24): (0.9816, 0.0063, 0.5003),
    (19, 20, 24): (0.9659, 0.0036, 0.5133),
    (20, 18, 24): (0.9723, 0.0021, 0.4828),
    (20, 19, 24): (0.9659, 0.0036, 0.5133),
    (20, 20, 16): (0.9661, 0.0011, 0.5061),
    (20, 20, 17): (0.9644, 0.0008, 0.4832),
    (24, 24, 16): (0.9669, 0.0037, 0.4185),
    (24, 24, 17): (0.9887, 0.004, 0.3765),
    (24, 24, 24): (0.9834, 0.0134, 0.3522),
}

# iteration count -> (fidelity, aggregated probability)
TABLE_3 = {
    0: (0.941, 1.0),
    2: (0.9848, 0.0134),
    4: (0.9875, 4.5e-10),
    6: (0.9884, 6.4e-40),
    8: (0.9897, 6.4e-159),
}


def test_criterion_1_two_iteration_headline_rows(atlas):
    probabilities, fidelities, deltas = atlas
    checks = []
    for key, (fid, prob, delta) in TABLE_1.items():
        checks.append(abs(fidelities[key] - fid) <= 0.002)
        checks.append(abs(sign_aggregated(probabilities[key], 3) - prob) <= 0.0005)
        checks.append(abs(deltas[key] - delta) <= 0.005)
    report(1, "headline two-iteration rows (fidelity/probability/squeezing)", checks)


def test_criterion_2_full_high_fidelity_table(atlas):
    probabilities, fidelities, deltas = atlas
    checks = []
    for key, (fid, prob, delta) in TABLE_4.items():
        checks.append(abs(fidelities[key] - fid) <= 0.002)
        checks.append(abs(sign_aggregated(probabilities[key], 3) - prob) <= 0.0005)
        checks.append(abs(deltas[key] - delta) <= 0.005)
    a, b = (18, 19, 24), (19, 18, 24)
    checks.append(abs(probabilities[a] - probabilities[b]) <= 1e-10)
    checks.append(abs(fidelities[a] - fidelities[b]) <= 1e-10)
    report(2, "all 15 high-fidelity rows plus exchange-symmetric pair identity", checks)


def test_criterion_3_deep_chain(cfg, target):
    checks = []
    psi0 = default_input(cfg)
    checks.append(abs(fidelity(psi0, target) - TABLE_3[0][0]) <= 0.002)
    for k in (2, 4, 6, 8):
        fid_ref, prob_ref = TABLE_3[k]
        result = run_chain(
            cfg, Schedule.alternating(k, start="p"), [24] * k, target=target
        )
        checks.append(abs(result.fidelity - fid_ref) <= 0.002)
        log_ours = result.log_probability + sign_aggregation_log(2**k - 1)
        log_ref = math.log(prob_ref)
        checks.append(abs(log_ours - log_ref) <= 0.10 * abs(log_ref))
        checks.append(math.isfinite(result.log_probability))
    report(3, "deep post-selected chain fidelities and log-probabilities", checks)


def test_criterion_4_cumulative_fidelity_curve(atlas):
    probabilities, fidelities, _ = atlas
    point = probability_fidelity_curve(probabilities, fidelities, [0.98])[0][1]
    best = np.max(fidelities[(probabilities > 0) & ~np.isnan(fidelities)])
    checks = [abs(point - 0.0314) <= 0.003, abs(best - 0.9887) <= 0.002]
    report(4, "3.14% cumulative probability at fidelity 0.98; max fidelity 0.9887", checks)


def test_criterion_5_cumulative_squeezing_curve(atlas):
    probabilities, _, deltas = atlas
    p040 = effective_squeezing_curve(probabilities, deltas, [0.40])[0][1]
    p046 = effective_squeezing_curve(probabilities, deltas, [0.46])[0][1]
    checks = [p040 >= 0.074 - 0.01, p046 >= 0.30 - 0.01]
    report(5, "cumulative probability at squeezing bounds 0.40 / 0.46", checks)


def test_criterion_6_spectrum(cfg, basis_q, basis_p):
    rescaled = basis_q.eigenvalues / RESCALE
    checks = [
        abs(rescaled[24] + 0.062) <= 0.001,
        abs(rescaled[25] - 0.062) <= 0.001,
        np.max(np.abs(basis_q.eigenvalues - basis_p.eigenvalues)) <= 1e-10,
    ]
    report(6, "innermost rescaled eigenvalues +/-0.062; identical q/p spectra", checks)


def test_criterion_7_first_iteration(cfg, target, first_level, basis_q):
    probs, posts = first_level
    post_c = posts[24]
    labeled = label_peaks(
        OutcomeDistribution(axis="q", eigenvalues=basis_q.eigenvalues, probabilities=probs)
    )
    peak_prob = float(sum(probs[i] for i in labeled.peak_labels))
    # 22.9% is the C outcome under the mirror-aggregated convention
    c_prob_aggregated = sign_aggregated(float(probs[24]), 1)
    checks = [
        abs(fidelity(post_c, target) - 0.730) <= 0.005,
        abs(peak_prob - 0.5156) <= 0.005,
        abs(c_prob_aggregated - 0.229) <= 0.005,
    ]
    report(7, "first-iteration post-state fidelity and peak probabilities", checks)


def test_criterion_8_input_sweep_property(cfg):
    checks = []
    schedule = Schedule.alternating(4, start="p")
    for delta in (0.4, 0.35):
        records = sweep_binomial_inputs(cfg, [2, 3, 4], [2, 3, 4, 5, 6, 7], schedule, delta)
        by_input = {}
        for r in records:
            if r.supported:
                by_input.setdefault((r.N, r.K), {})[r.iteration] = r.fidelity
        for it in (2, 4):
            best = max(by_input, key=lambda key: by_input[key].get(it, -1.0))
            checks.append(best == (2, 3))
        fid = by_input[(2, 3)]
        checks.append(fid[1] < fid[0] and fid[1] < fid[2])
        checks.append(fid[3] < fid[2] and fid[3] < fid[4])
    report(8, "(N=2, K=3) argmax at even iterations for both targets; oscillation", checks)


def test_criterion_9_property_suite(cfg, basis_q, basis_p, vacuum, first_level, target):
    checks = []
    # beamsplitter unitarity and photon-number block structure, on the dense
    # matrix of the operator the breeding step applies
    small = FockConfig(dim=12)
    bs = dense_beamsplitter(small)
    checks.append(np.max(np.abs(bs @ bs.T - np.eye(small.dim**2))) <= 1e-10)
    totals = (np.arange(small.dim)[:, None] + np.arange(small.dim)[None, :]).ravel()
    checks.append(np.max(np.abs(bs[totals[:, None] != totals[None, :]])) <= 1e-10)
    # outcome distributions sum to 1
    probs, posts = first_level
    checks.append(abs(probs.sum() - 1) <= 1e-10)
    # parity mirror symmetry of the distribution
    checks.append(np.max(np.abs(probs - probs[::-1])) <= 1e-10)
    # delta(vacuum) = 1
    checks.append(abs(effective_squeezing(cfg, vacuum, "q") - 1) <= 1e-4)
    # delta(squeezed_vacuum(d)) = d
    for d in (0.3, 0.4, 0.5, 1.0):
        checks.append(abs(effective_squeezing(cfg, squeezed_vacuum(cfg, d), "p") - d) <= 1e-3)
    # dB conversion
    checks.append(abs(sgkp_db(0.4) - 4.95) <= 0.005)
    # displacement vs analytic series oracle
    beta = 0.8 - 0.4j
    built = displacement(cfg, beta)
    oracle = displacement_matrix(cfg.dim, beta)
    checks.append(np.max(np.abs(built[:30, :30] - oracle[:30, :30])) <= 1e-8)
    # eigenvalues vs Gauss-Hermite node oracle
    checks.append(np.max(np.abs(basis_q.eigenvalues - gauss_hermite_nodes(cfg.dim))) <= 1e-9)
    # chain/tree consistency at k = 2
    chain = run_chain(cfg, Schedule.from_string("qp"), [24, 24], target=target)
    post1 = posts[24]
    second_probs, second_posts = breed_step(post1, post1, "p", cfg)
    tree_prob = probs[24] ** 2 * second_probs[24]
    checks.append(abs(chain.probability - tree_prob) <= 1e-10 * tree_prob)
    checks.append(abs(abs(np.vdot(chain.state, second_posts[24])) - 1) <= 1e-10)
    report(9, "property suite (unitarity, distributions, oracles, consistency)", checks)
