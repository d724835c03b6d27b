"""Projective quadrature (homodyne) measurements on the truncated space.

A quadrature observable restricted to dim Fock levels has a discrete
spectrum; measuring it projects onto one of its dim eigenvectors, built
here once per dim and axis (:func:`quadrature_basis`). The measured mode is
always mode 1, the row index of a (dim, dim) two-mode state.
Post-selection keeps one outcome, named by an index or a peak label:
:func:`select_outcome`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fock import FockConfig, _i_powers
from .numerics import PROBABILITY_FLOOR, NumericalError, eig_hermitian_tridiagonal

RESCALE = math.sqrt(2 * math.pi)


@dataclass(frozen=True)
class QuadratureBasis:
    """Eigenvalues (ascending) and eigenvectors of one quadrature axis."""

    axis: str
    dim: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def center_index(self) -> int:
        """Index of the innermost negative eigenvalue (24 at dim 50)."""
        return self.dim // 2 - 1


@lru_cache(maxsize=None)
def quadrature_basis(cfg: FockConfig, axis: str) -> QuadratureBasis:
    """Diagonalize the q or p quadrature on the truncated Fock space.

    q is real symmetric tridiagonal in the Fock basis, so its eigenvectors
    are real (float64). It is the Jacobi matrix of the Hermite polynomials,
    so its eigenvalues are the dim Gauss–Hermite nodes and its eigenvectors
    the φ_n, n < dim, sampled at each node and normalized (Golub & Welsch,
    Math. Comp. 23, 221 (1969)). p shares its spectrum, and under the
    Fock-diagonal phase map |n⟩ → iⁿ|n⟩ it is p = F q F†: row n of the
    complex p eigenvectors is iⁿ (:func:`~qpbreed.fock._i_powers`, exact by
    construction) times row n of the q eigenvectors, so each entry is ±v or
    ±iv, bit for bit. The p basis is built from the cached q basis, and a
    dim makes one eigensolve for both axes; they share the eigenvalue array.
    """
    if axis not in ("q", "p"):
        raise ValueError(f"axis must be 'q' or 'p', got {axis!r}")
    if axis == "p":
        q = quadrature_basis(cfg, "q")
        vectors = _i_powers(np.arange(cfg.dim))[:, None] * q.eigenvectors
        vectors.setflags(write=False)
        return QuadratureBasis(axis=axis, dim=cfg.dim, eigenvalues=q.eigenvalues, eigenvectors=vectors)
    offdiag = np.sqrt(np.arange(1, cfg.dim) / 2.0)
    values, vectors = eig_hermitian_tridiagonal(offdiag)
    vectors.setflags(write=False)
    values.setflags(write=False)
    return QuadratureBasis(axis=axis, dim=cfg.dim, eigenvalues=values, eigenvectors=vectors)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Per-eigenvalue probabilities of one homodyne measurement."""

    axis: str
    eigenvalues: np.ndarray
    probabilities: np.ndarray
    peak_labels: dict[int, str] = field(default_factory=dict)

    @property
    def rescaled_outcomes(self) -> np.ndarray:
        return self.eigenvalues / RESCALE


def projection_amplitudes(
    state2: np.ndarray, basis: QuadratureBasis, outcomes: slice = slice(None)
) -> np.ndarray:
    """Unnormalized mode-2 amplitudes for the mode-1 outcomes ``outcomes``,
    a slice of the dim outcomes (all of them by default), of a two-mode
    state's (w, w) coefficient matrix M, or of a (..., w, w) stack, w ≤ dim:
    the state on its first w levels of each mode, zero above. Row i is
    (⟨v_j| ⊗ I)|state2⟩ on the first w levels of mode 2, for the i-th
    outcome j of the slice; its squared norm is that outcome's probability.
    Only the first w rows of the eigenvectors meet M, so w is read from its
    shape. A slice of two or more outcomes gives, bit for bit, the same
    rows as the full call; numpy forms a one-outcome product as a vector
    product, which may round differently in the last bit.

    Both axes take the one product V†M with the stored eigenvectors V, cut
    to the first w rows and the sliced columns: the q ones are real, and
    the p ones are the q ones times the exact phases iᵏ
    (:func:`quadrature_basis`), whose entries ±v and ±iv
    meet M with no rounding of their own. M's dtype carries the
    arithmetic: a real M gives real q amplitudes and complex p ones, and a
    complex M gives complex amplitudes on both axes.
    """
    return basis.eigenvectors[: state2.shape[-1], outcomes].conj().T @ state2


def label_peaks(dist: OutcomeDistribution) -> OutcomeDistribution:
    """Attach the C/S1/S2/S peak labels used for post-selection.

    C is always the innermost negative outcome. On a q-type distribution the
    most probable non-central local maximum of the negative half is S1 and
    its outward neighbour is S2; on a p-type distribution the local maximum
    closest to one grid spacing (rescaled outcome −1) is S. Then, in one
    step, the mirror index dim − 1 − i of each labelled index i gets the
    label "mirror-" and i's label; the labelled indices all lie below dim/2,
    so no mirror label replaces another label.
    """
    p = dist.probabilities
    dim = len(p)
    half = dim // 2
    center = half - 1
    labels = {center: "C"}
    # the local maxima of the negative half, the center excepted
    peaks = [i for i in range(1, half) if p[i] > p[i - 1] and p[i] >= p[i + 1] and i != center]
    if peaks:
        if dist.axis == "q":
            s1 = max(peaks, key=lambda i: p[i])
            labels[s1] = "S1"
            labels[s1 - 1] = "S2"  # s1 ≥ 1, so S2 exists
        else:
            rescaled = dist.rescaled_outcomes
            s = min(peaks, key=lambda i: abs(rescaled[i] + 1.0))
            labels[s] = "S"
    labels |= {dim - 1 - i: "mirror-" + label for i, label in labels.items()}
    return dataclasses.replace(dist, peak_labels=labels)


def select_outcome(basis: QuadratureBasis, probabilities: np.ndarray, token) -> int:
    """Eigenvalue index that a post-selection token selects among the
    outcome ``probabilities`` of a measurement in ``basis``: an index in
    [0, dim), given as an integer or as text of unsigned ASCII digits (a
    sign or another script's digits make no index), or a peak label
    (C/S1/S2/S or a mirror-label) of their distribution. Raises
    NumericalError when the selected outcome's probability is at or below
    the underflow floor."""
    dim = len(probabilities)
    text = str(token)
    if isinstance(token, int) or (text.isascii() and text.isdecimal()):
        index = int(text)
        if not 0 <= index < dim:
            raise ValueError(f"outcome index {index} out of range for dim {dim}")
    else:
        dist = label_peaks(OutcomeDistribution(basis.axis, basis.eigenvalues, probabilities))
        by_label = {label: index for index, label in dist.peak_labels.items()}
        if text not in by_label:
            raise ValueError(
                f"post-selection token {text!r} is not an index and no peak "
                f"carries that label here (available: {sorted(by_label)})"
            )
        index = by_label[text]
    probability = float(probabilities[index])
    if probability <= PROBABILITY_FLOOR:
        raise NumericalError(
            f"selected outcome {index} has probability {probability:.3e}, "
            f"at or below the underflow floor"
        )
    return index
