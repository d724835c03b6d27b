import math

import numpy as np
import pytest

from qpbreed import FockConfig, homodyne, label_peaks, quadrature_basis
from qpbreed.cli import main
from qpbreed.homodyne import RESCALE, OutcomeDistribution, projection_amplitudes, select_outcome
from qpbreed.numerics import PROBABILITY_FLOOR, NumericalError, eig_hermitian_tridiagonal
from oracles import DISTRIBUTION_SUM, EIG_RESIDUAL, parity_operator, quadrature


def test_eigenvalues_symmetric_about_zero(basis_q):
    flipped = -basis_q.eigenvalues[::-1]
    assert np.max(np.abs(basis_q.eigenvalues - flipped)) < 1e-10


def test_q_and_p_share_spectrum(basis_q, basis_p):
    assert np.max(np.abs(basis_q.eigenvalues - basis_p.eigenvalues)) < 1e-10


def test_innermost_rescaled_eigenvalue(basis_q):
    rescaled = basis_q.eigenvalues / RESCALE
    assert abs(rescaled[basis_q.center_index] + 0.062) < 1e-3
    assert abs(rescaled[basis_q.dim - 1 - basis_q.center_index] - 0.062) < 1e-3


def test_negative_half_index_convention(basis_q):
    assert np.all(basis_q.eigenvalues[:25] < 0)
    assert np.all(basis_q.eigenvalues[25:] > 0)
    assert basis_q.center_index == 24


def test_columns_orthonormal(basis_q, basis_p):
    for basis in (basis_q, basis_p):
        gram = basis.eigenvectors.conj().T @ basis.eigenvectors
        assert np.max(np.abs(gram - np.eye(basis.dim))) < 1e-10


def test_p_basis_diagonalizes_p(cfg, basis_p):
    p_op = quadrature(cfg, math.pi / 2)
    residual = p_op @ basis_p.eigenvectors - basis_p.eigenvectors * basis_p.eigenvalues[None, :]
    assert np.max(np.abs(residual)) < EIG_RESIDUAL


@pytest.mark.parametrize("dim", [50, 101, 200, 645])
def test_p_basis_is_the_phased_real_q_basis(dim):
    # row n of the p basis is the exact iⁿ, a ±1 or ±i, times row n of the
    # real q basis, bit for bit: numpy's 1j ** n is off past n = 99
    q, p = (quadrature_basis(FockConfig(dim), axis) for axis in "qp")
    assert q.eigenvectors.dtype == np.float64
    phases = np.array([1, 1j, -1, -1j])[np.arange(dim) % 4]
    assert p.eigenvectors.tobytes() == (phases[:, None] * q.eigenvectors).tobytes()


def test_one_eigensolve_per_dim_for_both_axes(monkeypatch, tmp_path):
    # the p basis is the phased q basis, so a dim is diagonalized once
    # whichever axis asks first; a chain needs its own dim and no other:
    # its target and its probes are built without an eigenbasis
    sizes = []

    def counted(offdiag):
        sizes.append(len(offdiag) + 1)
        return eig_hermitian_tridiagonal(offdiag)

    monkeypatch.setattr(homodyne, "eig_hermitian_tridiagonal", counted)
    quadrature_basis.cache_clear()
    for dim, axes in ((17, "pq"), (18, "qp")):
        for axis in axes * 2:
            quadrature_basis(FockConfig(dim), axis)
    assert sizes == [17, 18]
    p, q = (quadrature_basis(FockConfig(17), axis) for axis in "pq")
    assert p.eigenvalues is q.eigenvalues
    sizes.clear()
    args = ["chain", "--schedule", "qpqp", "--dim", "19", "--output-path", str(tmp_path / "c.json")]
    assert main(args) == 0
    assert sizes == [19]


@pytest.mark.parametrize("dim", [2, 3, 12, 13, 101, 130])
def test_projection_is_the_conjugate_basis_product(dim):
    # the one product with the stored basis against the explicit sum over k
    # of the real q eigenvectors, times the exact phases (−i)ᵏ for p, for
    # real and complex inputs, odd dims and rows past n = 100 too
    rng = np.random.default_rng(dim)
    real = rng.normal(size=(3, dim, dim))
    q = quadrature_basis(FockConfig(dim), "q").eigenvectors
    conjugate_phases = {"q": np.ones(dim), "p": np.array([1, -1j, -1, 1j])[np.arange(dim) % 4]}
    for state2 in (real, real[0], real + 1j * rng.normal(size=real.shape)):
        for axis in "qp":
            amplitudes = projection_amplitudes(state2, quadrature_basis(FockConfig(dim), axis))
            assert amplitudes.dtype == (state2.dtype if axis == "q" else np.complex128)
            expected = np.einsum("k,ki,...kl->...il", conjugate_phases[axis], q, state2)
            np.testing.assert_allclose(amplitudes, expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("dim, width", [(50, 17), (50, 50), (51, 20), (51, 51)])
def test_projection_onto_a_slice_is_those_rows_of_the_full_projection(dim, width):
    # bit for bit, signed zeros included, on both axes, for one (w, w)
    # matrix and a stack, real and complex, a corner w < dim and full width
    rng = np.random.default_rng(width)
    real = rng.normal(size=(4, width, width))
    for state2 in (real, real[0], real + 1j * rng.normal(size=real.shape)):
        for axis in "qp":
            basis = quadrature_basis(FockConfig(dim), axis)
            full = projection_amplitudes(state2, basis)
            for outcomes in (slice((dim + 1) // 2), slice(3, dim - 2), slice(1, None, 2)):
                sliced = projection_amplitudes(state2, basis, outcomes)
                assert sliced.shape == full[..., outcomes, :].shape
                assert sliced.tobytes() == full[..., outcomes, :].tobytes()


def test_invalid_axis(cfg):
    with pytest.raises(ValueError):
        quadrature_basis(cfg, "x")


def outcome_probabilities(joint, basis):
    return np.sum(np.abs(projection_amplitudes(joint, basis)) ** 2, axis=-1)


def test_vacuum_distribution_symmetric(cfg, basis_q, vacuum):
    probabilities = outcome_probabilities(np.outer(vacuum, vacuum), basis_q)
    assert abs(probabilities.sum() - 1) < DISTRIBUTION_SUM
    assert np.max(np.abs(probabilities - probabilities[::-1])) < 1e-12
    overlaps = np.abs(basis_q.eigenvectors[0, :]) ** 2
    assert np.max(np.abs(probabilities - overlaps)) < 1e-12


def test_distribution_sums_to_one_generic(cfg, basis_q, basis_p):
    rng = np.random.default_rng(11)
    state = rng.normal(size=cfg.dim**2) + 1j * rng.normal(size=cfg.dim**2)
    state = (state / np.linalg.norm(state)).reshape(cfg.dim, cfg.dim)
    for basis in (basis_q, basis_p):
        probabilities = outcome_probabilities(state, basis)
        assert abs(probabilities.sum() - 1) < DISTRIBUTION_SUM
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
        mirror = basis_q.dim - 1 - index
        overlap = abs(np.vdot(posts[mirror], par @ post))
        assert abs(overlap - 1) < 1e-10
        assert abs(probs[index] - probs[mirror]) < 1e-12


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
            partner = dist.peak_labels.get(basis_q.dim - 1 - index)
            assert partner == label[len("mirror-") :]


def test_select_outcome_by_index_or_label(basis_q, first_level):
    probabilities, _ = first_level
    assert select_outcome(basis_q, probabilities, "C") == 24
    assert select_outcome(basis_q, probabilities, 24) == 24
    assert select_outcome(basis_q, probabilities, "mirror-S1") == 30
    with pytest.raises(ValueError, match="outcome index 50 out of range for dim 50"):
        select_outcome(basis_q, probabilities, "50")
    with pytest.raises(ValueError, match="'S' is not an index"):
        select_outcome(basis_q, probabilities, "S")  # a p-type label
    # a digit that is no decimal, two signs, a space, a signed zero, and the
    # Arabic-Indic digits ٢٤ (24)
    for junk in ("\u00b2", "--1", " 3", "-0", "-00", "\u0662\u0664"):
        with pytest.raises(ValueError, match="is not an index"):
            select_outcome(basis_q, probabilities, junk)


def test_select_outcome_refuses_an_outcome_at_the_floor(basis_q, first_level):
    floored = first_level[0].copy()
    floored[24] = PROBABILITY_FLOOR
    for token in ("C", "24"):
        with pytest.raises(NumericalError, match="selected outcome 24 has probability 1.000e-300"):
            select_outcome(basis_q, floored, token)
    floored[24] = np.nextafter(PROBABILITY_FLOOR, 1.0)
    assert select_outcome(basis_q, floored, "C") == 24
