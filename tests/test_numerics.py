import numpy as np
import pytest
import scipy.linalg

from qpbreed.numerics import NumericalError, eig_hermitian_tridiagonal, expm_skew_hermitian

from oracles import EIG_RESIDUAL, UNITARITY, gauss_hermite_nodes


def test_tridiagonal_eigs_match_gauss_hermite_oracle():
    n = 50
    offdiag = np.sqrt(np.arange(1, n) / 2.0)
    values, vectors = eig_hermitian_tridiagonal(offdiag)
    nodes = gauss_hermite_nodes(n)
    assert np.max(np.abs(values - nodes)) < 1e-9


def test_tridiagonal_eigs_residual_and_orthonormality():
    n = 50
    offdiag = np.sqrt(np.arange(1, n) / 2.0)
    matrix = np.diag(offdiag, 1) + np.diag(offdiag, -1)
    values, vectors = eig_hermitian_tridiagonal(offdiag)
    residual = matrix @ vectors - vectors * values[None, :]
    assert np.max(np.abs(residual)) < EIG_RESIDUAL
    gram = vectors.conj().T @ vectors
    assert np.max(np.abs(gram - np.eye(n))) < 1e-10


def test_tridiagonal_eigvector_phases_deterministic():
    offdiag = np.sqrt(np.arange(1, 30) / 2.0)
    _, v1 = eig_hermitian_tridiagonal(offdiag)
    _, v2 = eig_hermitian_tridiagonal(offdiag)
    assert np.array_equal(v1, v2)
    for j in range(v1.shape[1]):
        k = int(np.argmax(np.abs(v1[:, j])))
        assert v1[k, j].real > 0
        assert v1[k, j].imag == 0


def test_tridiagonal_eigensolver_failure_is_a_numerical_error(monkeypatch):
    # numpy's LinAlgError is a ValueError, which would read as bad input
    def unconverged(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", unconverged)
    with pytest.raises(NumericalError, match="did not converge: Eigenvalues did not converge"):
        eig_hermitian_tridiagonal(np.sqrt(np.arange(1, 9) / 2.0))


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
