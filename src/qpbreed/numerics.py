"""Dense linear-algebra substrate.

Everything here is a pure function of immutable inputs, so results can be
shared freely. Vectors and matrices are plain numpy arrays, float64 where
the quantity is real (tridiagonal eigenvectors, real orthogonal
exponentials) and complex128 otherwise. Across the package a real state
stays real as long as every operator it meets is real.
"""

from __future__ import annotations

import numpy as np


class NumericalError(RuntimeError):
    """An iterative numerical routine failed to converge."""


#: Largest skew-Hermiticity (or persymmetry) defect of a generator, relative
#: to its largest entry.
SKEW_HERMITIAN_TOL = 1e-12

#: Outcome probabilities at or below this are treated as underflowed.
PROBABILITY_FLOOR = 1e-300


def eig_hermitian_tridiagonal(diag, offdiag):
    """Eigendecomposition of a real symmetric tridiagonal matrix.

    Returns eigenvalues in ascending order and eigenvectors as the columns
    of a real (float64) matrix. The sign of each eigenvector is fixed by
    making its largest-magnitude entry positive, so repeated runs are
    bit-for-bit reproducible.
    """
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    if offdiag.shape[0] != diag.shape[0] - 1:
        raise ValueError("offdiag must be one entry shorter than diag")
    try:
        values, vectors = np.linalg.eigh(np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise NumericalError(f"tridiagonal eigensolver did not converge: {exc}") from exc
    largest = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(len(values))]
    return values, vectors * np.where(largest < 0, -1.0, 1.0)


def expm_skew_hermitian(g: np.ndarray) -> np.ndarray:
    """Unitary exponential of a skew-Hermitian generator; a real generator
    gives a real orthogonal result.

    Rejects inputs whose skew-Hermiticity defect exceeds
    :data:`SKEW_HERMITIAN_TOL` (relative to the largest entry). Nothing in
    the package calls it; the benchmark's traced run still wraps it by name.
    """
    g = np.asarray(g)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("generator must be a square matrix")
    scale = max(1.0, float(np.max(np.abs(g)))) if g.size else 1.0
    defect = float(np.max(np.abs(g + g.conj().T))) if g.size else 0.0
    if defect > SKEW_HERMITIAN_TOL * scale:
        raise ValueError(
            f"generator is not skew-Hermitian (defect {defect:.3e} "
            f"at scale {scale:.3e})"
        )
    values, vectors = np.linalg.eigh(1j * g)  # 1j·g = H Hermitian, exp(g) = V e^{−iλ} V†
    u = (vectors * np.exp(-1j * values)) @ vectors.conj().T
    return u.real if np.isrealobj(g) else u


def expm_skew_tridiagonal(coupling) -> np.ndarray:
    """Real orthogonal exponential of the skew-symmetric tridiagonal
    generator G with G[j + 1, j] = −G[j, j + 1] = coupling[j], for
    persymmetric couplings (equal to their own reverse).

    With D = diag(iʲ), G = −i·D·S·D†, where S = VΛVᵀ is the real symmetric
    tridiagonal matrix with the same couplings. So exp(G)[m, k] is
    ±(V·diag(cos λ + sin λ)·Vᵀ)[m, k], with + where (m − k) mod 4 is 0 or 1.
    S commutes with the reversal of the index, so each of its eigenvectors is
    mirror-symmetric or mirror-antisymmetric, and V comes from real
    eigensolves of half the size: two for odd n, one for even n, where the
    antisymmetric half-size matrix is −P·(the symmetric one)·P with
    P = diag((−1)ʲ), so its eigenpairs are (−λ, P·v).
    """
    coupling = np.asarray(coupling, dtype=float)
    if coupling.ndim != 1:
        raise ValueError("coupling must be a vector")
    scale = max(1.0, float(np.max(np.abs(coupling)))) if coupling.size else 1.0
    defect = float(np.max(np.abs(coupling - coupling[::-1]))) if coupling.size else 0.0
    if defect > SKEW_HERMITIAN_TOL * scale:
        raise ValueError(f"coupling is not persymmetric (defect {defect:.3e} at scale {scale:.3e})")
    n = coupling.size + 1
    half, odd = divmod(n, 2)
    if half == 0:
        return np.ones((1, 1))
    inner, middle = coupling[: half - 1], coupling[half - 1]
    if odd:  # the middle level couples only to the mirror-symmetric combinations
        plus = np.linalg.eigh(_symmetric_tridiagonal(np.append(inner, np.sqrt(2) * middle)))
        minus = np.linalg.eigh(_symmetric_tridiagonal(inner))
    else:
        plus = np.linalg.eigh(_symmetric_tridiagonal(inner, middle))
        signs = (-1.0) ** np.arange(half)
        minus = (-plus[0], signs[:, None] * plus[1])
    rotation = np.zeros((n, n))
    for mirror, (values, vectors) in ((1.0, plus), (-1.0, minus)):
        lifted = np.zeros((n, len(values)))
        lifted[:half] = vectors[:half] / np.sqrt(2)
        lifted[n - half :] = mirror * vectors[half - 1 :: -1] / np.sqrt(2)
        if len(values) > half:
            lifted[half] = vectors[half]
        rotation += (lifted * (np.cos(values) + np.sin(values))) @ lifted.T
    levels = np.arange(n)
    return np.where((levels[:, None] - levels) & 2, -rotation, rotation)  # (m − k) mod 4 is 2 or 3


def _symmetric_tridiagonal(offdiag, corner=0.0):
    """Zero-diagonal symmetric tridiagonal matrix, but for ``corner`` as its
    last diagonal entry. It goes to ``np.linalg.eigh`` directly: a function
    of the matrix needs none of the fixed eigenvector signs of
    :func:`eig_hermitian_tridiagonal`."""
    size = len(offdiag) + 1
    matrix = np.zeros((size, size))
    j = np.arange(size - 1)
    matrix[j, j + 1] = matrix[j + 1, j] = offdiag
    matrix[-1, -1] = corner
    return matrix
