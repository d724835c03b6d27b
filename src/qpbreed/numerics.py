"""Dense complex linear-algebra substrate.

Everything here is a pure function of immutable inputs, so results can be
shared freely. Vectors and matrices are plain numpy arrays (complex128
unless stated otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NumericalError(RuntimeError):
    """An iterative numerical routine failed to converge."""


@dataclass(frozen=True)
class Tolerances:
    """Central record of the numerical tolerances used across the package."""

    skew_hermitian: float = 1e-12
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
        values, vectors = np.linalg.eigh(np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise NumericalError(f"tridiagonal eigensolver did not converge: {exc}") from exc
    largest = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(len(values))]
    return values, (vectors * np.where(largest < 0, -1.0, 1.0)).astype(complex)


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
    values, vectors = np.linalg.eigh(1j * g)  # 1j·g = H Hermitian, exp(g) = V e^{−iλ} V†
    u = (vectors * np.exp(-1j * values)) @ vectors.conj().T
    return u.real if np.isrealobj(g) else u
