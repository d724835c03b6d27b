import math

import numpy as np
import pytest

from qpbreed import label_peaks, quadrature_basis
from qpbreed.homodyne import RESCALE, OutcomeDistribution, projection_amplitudes
from qpbreed.numerics import DEFAULT_TOLERANCES

from oracles import parity_operator


def test_eigenvalues_symmetric_about_zero(basis_q):
    flipped = -basis_q.eigenvalues[::-1]
    assert np.max(np.abs(basis_q.eigenvalues - flipped)) < 1e-10


def test_q_and_p_share_spectrum(basis_q, basis_p):
    assert np.max(np.abs(basis_q.eigenvalues - basis_p.eigenvalues)) < 1e-10


def test_innermost_rescaled_eigenvalue(basis_q):
    rescaled = basis_q.eigenvalues / RESCALE
    assert abs(rescaled[basis_q.center_index] + 0.062) < 1e-3
    assert abs(rescaled[basis_q.mirror(basis_q.center_index)] - 0.062) < 1e-3


def test_negative_half_index_convention(basis_q):
    assert np.all(basis_q.eigenvalues[:25] < 0)
    assert np.all(basis_q.eigenvalues[25:] > 0)
    assert basis_q.center_index == 24


def test_columns_orthonormal(basis_q, basis_p):
    for basis in (basis_q, basis_p):
        gram = basis.eigenvectors.conj().T @ basis.eigenvectors
        assert np.max(np.abs(gram - np.eye(basis.dim))) < 1e-10


def test_p_basis_diagonalizes_p(cfg, basis_p):
    from qpbreed import quadrature

    p_op = quadrature(cfg, math.pi / 2)
    residual = p_op @ basis_p.eigenvectors - basis_p.eigenvectors * basis_p.eigenvalues[None, :]
    assert np.max(np.abs(residual)) < DEFAULT_TOLERANCES.eig_residual


def test_invalid_axis(cfg):
    with pytest.raises(ValueError):
        quadrature_basis(cfg, "x")


def outcome_probabilities(joint, basis):
    return np.sum(np.abs(projection_amplitudes(joint, basis)) ** 2, axis=-1)


def test_vacuum_distribution_symmetric(cfg, basis_q, vacuum):
    probabilities = outcome_probabilities(np.outer(vacuum, vacuum), basis_q)
    assert abs(probabilities.sum() - 1) < DEFAULT_TOLERANCES.distribution_sum
    assert np.max(np.abs(probabilities - probabilities[::-1])) < 1e-12
    overlaps = np.abs(basis_q.eigenvectors[0, :]) ** 2
    assert np.max(np.abs(probabilities - overlaps)) < 1e-12


def test_distribution_sums_to_one_generic(cfg, basis_q, basis_p):
    rng = np.random.default_rng(11)
    state = rng.normal(size=cfg.dim**2) + 1j * rng.normal(size=cfg.dim**2)
    state = (state / np.linalg.norm(state)).reshape(cfg.dim, cfg.dim)
    for basis in (basis_q, basis_p):
        probabilities = outcome_probabilities(state, basis)
        assert abs(probabilities.sum() - 1) < DEFAULT_TOLERANCES.distribution_sum
        assert np.min(probabilities) >= 0


def test_project_factorized_input(cfg, basis_q, vacuum, psi0):
    amplitude = projection_amplitudes(np.outer(vacuum, psi0), basis_q)[24]
    post = amplitude / np.linalg.norm(amplitude)
    assert abs(np.abs(np.vdot(post, psi0)) - 1) < 1e-12


def test_projection_idempotent_in_distribution(cfg, basis_q, psi0):
    joint = np.outer(basis_q.eigenvectors[:, 24], psi0)
    prob = outcome_probabilities(joint, basis_q)[24]
    assert abs(prob - 1) < 1e-10


def test_mirror_posts_are_parity_images(cfg, basis_q, psi0, first_level):
    par = parity_operator(cfg.dim)
    probs, posts = first_level
    for index in (24, 19, 18):
        post = posts[index]
        mirror_post = posts[basis_q.mirror(index)]
        overlap = abs(np.vdot(mirror_post, par @ post))
        assert abs(overlap - 1) < 1e-10
        assert abs(probs[index] - probs[basis_q.mirror(index)]) < 1e-12


def test_first_iteration_peak_labels(cfg, basis_q, first_level):
    probs, _ = first_level
    dist = label_peaks(
        OutcomeDistribution(axis="q", eigenvalues=basis_q.eigenvalues, probabilities=probs)
    )
    assert dist.peak_labels[24] == "C"
    assert dist.peak_labels[19] == "S1"
    assert dist.peak_labels[18] == "S2"
    assert dist.peak_labels[25] == "mirror-C"
    assert dist.peak_labels[30] == "mirror-S1"
    assert dist.peak_labels[31] == "mirror-S2"
    # the footnote peak outward of S1 stays unlabeled
    assert 20 not in dist.peak_labels
    # rescaled positions quoted for the labeled peaks
    rescaled = dist.rescaled_outcomes
    assert abs(rescaled[19] + 0.689) < 1e-3
    assert abs(rescaled[18] + 0.816) < 1e-3


def test_second_iteration_p_labels(cfg, basis_p, first_level):
    from qpbreed import breed_step

    post_c = first_level[1][24]
    probs, _ = breed_step(post_c, post_c, "p", cfg)
    dist = label_peaks(
        OutcomeDistribution(axis="p", eigenvalues=basis_p.eigenvalues, probabilities=probs)
    )
    assert dist.peak_labels[24] == "C"
    assert dist.peak_labels[17] == "S"
    assert dist.peak_labels[32] == "mirror-S"
    assert abs(dist.rescaled_outcomes[17] + 0.944) < 1e-3


def test_labels_mirror_exactly_on_symmetric_distribution(basis_q, first_level):
    probs, _ = first_level
    dist = label_peaks(
        OutcomeDistribution(axis="q", eigenvalues=basis_q.eigenvalues, probabilities=probs)
    )
    for index, label in dist.peak_labels.items():
        if label.startswith("mirror-"):
            partner = dist.peak_labels.get(basis_q.mirror(index))
            assert partner == label[len("mirror-") :]
