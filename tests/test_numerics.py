import numpy as np
import pytest
import scipy.linalg

from qpbreed.numerics import eig_hermitian_tridiagonal, expm_skew_hermitian, expm_skew_tridiagonals

from oracles import EIG_RESIDUAL, UNITARITY, gauss_hermite_nodes


def test_tridiagonal_eigs_match_gauss_hermite_oracle():
    n = 50
    offdiag = np.sqrt(np.arange(1, n) / 2.0)
    values, vectors = eig_hermitian_tridiagonal(np.zeros(n), offdiag)
    nodes = gauss_hermite_nodes(n)
    assert np.max(np.abs(values - nodes)) < 1e-9


def test_tridiagonal_eigs_residual_and_orthonormality():
    n = 50
    offdiag = np.sqrt(np.arange(1, n) / 2.0)
    matrix = np.diag(offdiag, 1) + np.diag(offdiag, -1)
    values, vectors = eig_hermitian_tridiagonal(np.zeros(n), offdiag)
    residual = matrix @ vectors - vectors * values[None, :]
    assert np.max(np.abs(residual)) < EIG_RESIDUAL
    gram = vectors.conj().T @ vectors
    assert np.max(np.abs(gram - np.eye(n))) < 1e-10


def test_tridiagonal_eigvector_phases_deterministic():
    offdiag = np.sqrt(np.arange(1, 30) / 2.0)
    _, v1 = eig_hermitian_tridiagonal(np.zeros(30), offdiag)
    _, v2 = eig_hermitian_tridiagonal(np.zeros(30), offdiag)
    assert np.array_equal(v1, v2)
    for j in range(v1.shape[1]):
        k = int(np.argmax(np.abs(v1[:, j])))
        assert v1[k, j].real > 0
        assert v1[k, j].imag == 0


def test_tridiagonal_shape_mismatch():
    with pytest.raises(ValueError):
        eig_hermitian_tridiagonal(np.zeros(5), np.zeros(5))


def test_expm_skew_hermitian_is_unitary():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    g = m - m.conj().T
    u = expm_skew_hermitian(g)
    assert np.max(np.abs(u.conj().T @ u - np.eye(12))) < UNITARITY


def test_expm_skew_hermitian_matches_pade_expm():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    r = rng.normal(size=(12, 12))
    for g in (m - m.conj().T, r - r.T):
        u = expm_skew_hermitian(g)
        assert np.max(np.abs(u - scipy.linalg.expm(g))) < UNITARITY
    assert np.isrealobj(u)  # a real generator gives a real result


def test_expm_rejects_non_skew_input():
    with pytest.raises(ValueError, match="skew-Hermitian"):
        expm_skew_hermitian(np.eye(3))


def test_expm_rejects_non_square():
    with pytest.raises(ValueError):
        expm_skew_hermitian(np.zeros((2, 3)))


def test_expm_skew_tridiagonal_matches_pade_expm():
    # all 40 generators in one call: sizes 1..40, both parities, so the
    # half-size problems of several generators share each stacked eigensolve
    rng = np.random.default_rng(11)
    couplings = []
    for n in range(1, 41):
        half = rng.uniform(0, n, size=(n - 1) // 2)
        couplings.append(np.concatenate([half, rng.uniform(0, n, size=(n - 1) % 2), half[::-1]]))
    exponentials = [np.empty((n, n)) for n in range(1, 41)]
    expm_skew_tridiagonals(couplings, exponentials)
    for coupling, u in zip(couplings, exponentials):
        generator = np.diag(coupling, -1) - np.diag(coupling, 1)
        assert np.max(np.abs(u - scipy.linalg.expm(generator))) < UNITARITY
        assert np.max(np.abs(u.T @ u - np.eye(len(u)))) < UNITARITY


def test_expm_skew_tridiagonal_rejects_non_persymmetric_coupling():
    with pytest.raises(ValueError, match="persymmetric"):
        expm_skew_tridiagonals([[1.0, 2.0]], [np.empty((3, 3))])
    # one bad coupling among good and empty ones is found
    couplings = [[], [3.0], [1.0, 2.0, 1.0], [], [1.0, 2.0, 2.0]]
    with pytest.raises(ValueError, match="persymmetric"):
        expm_skew_tridiagonals(couplings, [np.empty((len(c) + 1,) * 2) for c in couplings])
    with pytest.raises(ValueError, match="vector"):
        expm_skew_tridiagonals([np.ones((2, 2))], [np.empty((3, 3))])
    with pytest.raises(ValueError, match="out"):
        expm_skew_tridiagonals([[1.0, 1.0]], [np.empty((2, 2))])
