"""Dense linear-algebra substrate: the package's numerical error, its
tolerances, the tridiagonal eigensolve behind the quadrature bases (the q
quadrature in the Fock basis, whose diagonal is zero), and a
skew-Hermitian exponential that nothing in the package calls.

Each routine is a pure function of its inputs, so results can be shared
freely. Vectors and matrices are plain numpy arrays whose dtype carries
the arithmetic: the tridiagonal eigenvectors are float64, and across the
package a real state stays real as long as every operator it meets is
real. The kernels that breed, project and draw states have one path each
for real and complex arrays. A failed eigensolve raises
:class:`NumericalError`, never numpy's LinAlgError, which is a ValueError
and would read as bad input.
"""

from __future__ import annotations

import numpy as np


class NumericalError(RuntimeError):
    """An iterative numerical routine failed to converge."""


#: Largest skew-Hermiticity defect of a generator, relative to its largest
#: entry.
SKEW_HERMITIAN_TOL = 1e-12

#: Outcome probabilities at or below this are treated as underflowed.
PROBABILITY_FLOOR = 1e-300


def eig_hermitian_tridiagonal(offdiag):
    """Eigendecomposition of the (n+1, n+1) real symmetric tridiagonal
    matrix whose diagonal is zero and whose n off-diagonal entries are
    ``offdiag``. Its one caller diagonalizes the q quadrature in the Fock
    basis, whose diagonal is zero.

    Returns eigenvalues in ascending order and eigenvectors as the columns
    of a real (float64) matrix. The sign of each eigenvector is fixed by
    making its largest-magnitude entry positive, so repeated runs are
    bit-for-bit reproducible.
    """
    offdiag = np.asarray(offdiag, dtype=float)
    try:
        values, vectors = np.linalg.eigh(np.diag(offdiag, 1) + np.diag(offdiag, -1))
    except np.linalg.LinAlgError as exc:
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
