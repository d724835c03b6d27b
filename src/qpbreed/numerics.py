"""Dense complex linear-algebra substrate.

Everything here is a pure function of immutable inputs, so results can be
shared freely. Vectors and matrices are plain numpy arrays (complex128
unless stated otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


class NumericalError(RuntimeError):
    """An iterative numerical routine failed to converge."""


@dataclass(frozen=True)
class Tolerances:
    """Central record of the numerical tolerances used across the package."""

    hermitian: float = 1e-12
    skew_hermitian: float = 1e-12
    unitarity: float = 1e-10
    eig_residual: float = 1e-10
    distribution_sum: float = 1e-10
    beamsplitter_routes: float = 1e-9
    qunaught_tail: float = 1e-12
    probability_floor: float = 1e-300


DEFAULT_TOLERANCES = Tolerances()

def eig_hermitian_tridiagonal(diag, offdiag):
    """Eigendecomposition of a real symmetric tridiagonal matrix.

    Returns eigenvalues in ascending order and eigenvectors as the columns
    of a complex matrix. The global phase of each eigenvector is fixed by
    making its largest-magnitude entry real and positive, so repeated runs
    are bit-for-bit reproducible.
    """
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    if offdiag.shape[0] != diag.shape[0] - 1:
        raise ValueError("offdiag must be one entry shorter than diag")
    try:
        values, vectors = scipy.linalg.eigh_tridiagonal(diag, offdiag)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise NumericalError(f"tridiagonal eigensolver did not converge: {exc}") from exc
    for j in range(vectors.shape[1]):
        k = int(np.argmax(np.abs(vectors[:, j])))
        if vectors[k, j] < 0:
            vectors[:, j] = -vectors[:, j]
    return values, vectors.astype(complex)


def expm_skew_hermitian(g: np.ndarray) -> np.ndarray:
    """Unitary exponential of a skew-Hermitian generator; a real generator
    gives a real orthogonal result.

    Rejects inputs whose skew-Hermiticity defect exceeds the configured
    tolerance (relative to the largest entry).
    """
    g = np.asarray(g)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("generator must be a square matrix")
    scale = max(1.0, float(np.max(np.abs(g)))) if g.size else 1.0
    defect = float(np.max(np.abs(g + g.conj().T))) if g.size else 0.0
    if defect > DEFAULT_TOLERANCES.skew_hermitian * scale:
        raise ValueError(
            f"generator is not skew-Hermitian (defect {defect:.3e} "
            f"at scale {scale:.3e})"
        )
    return scipy.linalg.expm(g)
