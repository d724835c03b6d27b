"""Projective quadrature (homodyne) measurements on the truncated space.

A quadrature observable restricted to dim Fock levels has a discrete
spectrum; measuring it projects onto one of its dim eigenvectors. The
measured mode is always mode 1, the row index of a (dim, dim) two-mode state.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .fock import QuadratureBasis, quadrature_basis  # quadrature_basis: re-exported

RESCALE = math.sqrt(2 * math.pi)

#: Labels recognised by the post-selection machinery. C is the innermost
#: negative outcome; S1/S2 sit on the side peak of a position-type
#: distribution; S is the side peak one grid spacing out in a momentum-type
#: distribution.
PEAK_LABELS = ("C", "S1", "S2", "S")


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


def projection_amplitudes(state2: np.ndarray, basis: QuadratureBasis) -> np.ndarray:
    """Unnormalized mode-2 amplitudes for every mode-1 outcome of a
    two-mode state's (dim, dim) coefficient matrix, or of a (..., dim, dim)
    stack. Row i is (⟨v_i| ⊗ I)|state2⟩; its squared norm is the outcome
    probability."""
    return basis.eigenvectors.conj().T @ state2


def _negative_local_maxima(probabilities: np.ndarray, half: int) -> list[int]:
    peaks = []
    for i in range(1, half):
        if probabilities[i] > probabilities[i - 1] and probabilities[i] >= probabilities[i + 1]:
            peaks.append(i)
    return peaks


def label_peaks(dist: OutcomeDistribution) -> OutcomeDistribution:
    """Attach the C/S1/S2/S peak labels used for post-selection.

    C is always the innermost negative outcome. On a q-type distribution the
    most probable non-central local maximum of the negative half is S1 and
    its outward neighbour is S2; on a p-type distribution the local maximum
    closest to one grid spacing (rescaled outcome −1) is S. Mirror labels are
    attached to the reflected indices.
    """
    dim = len(dist.probabilities)
    half = dim // 2
    center = half - 1
    labels = {center: "C", dim - 1 - center: "mirror-C"}
    peaks = [i for i in _negative_local_maxima(dist.probabilities, half) if i != center]
    if peaks:
        if dist.axis == "q":
            s1 = max(peaks, key=lambda i: dist.probabilities[i])
            labels[s1] = "S1"
            labels[dim - 1 - s1] = "mirror-S1"
            if s1 - 1 >= 0:
                labels[s1 - 1] = "S2"
                labels[dim - s1] = "mirror-S2"
        else:
            rescaled = dist.eigenvalues / RESCALE
            s = min(peaks, key=lambda i: abs(rescaled[i] + 1.0))
            labels[s] = "S"
            labels[dim - 1 - s] = "mirror-S"
    return dataclasses.replace(dist, peak_labels=labels)


def resolve_outcome(dist: OutcomeDistribution, token) -> int:
    """Eigenvalue index selected by a post-selection token: an index in
    [0, dim), or a peak label (C/S1/S2/S or a mirror-label) of ``dist``."""
    dim = len(dist.probabilities)
    text = str(token)
    if text.lstrip("-").isdigit():
        index = int(text)
        if not 0 <= index < dim:
            raise ValueError(f"outcome index {index} out of range for dim {dim}")
        return index
    by_label = {label: index for index, label in label_peaks(dist).peak_labels.items()}
    if text not in by_label:
        raise ValueError(
            f"post-selection token {text!r} is not an index and no peak "
            f"carries that label here (available: {sorted(by_label)})"
        )
    return by_label[text]
