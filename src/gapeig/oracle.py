"""Brute-force ground truth: dense eigendecomposition of the assembled matrix.

Small instances are validated end to end against this module; it is built
and tested before the min-max solver so every solver result can be
regenerated independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockop import BlockOperator
from .errors import EigFailure

CLUSTER_RTOL = 1e-8


@dataclass(frozen=True)
class Spectrum:
    """All eigenvalues of the assembled matrix, ascending."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def dense_spectrum(op: BlockOperator) -> Spectrum:
    """Every eigenvalue of the assembled (n_plus+n_minus)^2 matrix, ascending."""
    try:
        values = np.linalg.eigvalsh(op.assembled())
    except np.linalg.LinAlgError as exc:
        raise EigFailure(f"dense eigensolve failed: {exc}") from exc
    return Spectrum(values=values)


def cluster_eigenvalues(values: np.ndarray) -> list[tuple[float, int]]:
    """Group an ascending value list into (representative, multiplicity) clusters.

    Neighbors closer than CLUSTER_RTOL*max(1, |value|) merge inclusively; the
    representative is the cluster mean.
    """
    out: list[tuple[float, int]] = []
    i = 0
    values = np.asarray(values, dtype=float)
    while i < len(values):
        j = i + 1
        while j < len(values) and values[j] - values[j - 1] <= CLUSTER_RTOL * max(1.0, abs(values[j])):
            j += 1
        out.append((float(values[i:j].mean()), j - i))
        i = j
    return out


def gap_eigs_bruteforce(op: BlockOperator, lo: float, hi: float) -> list[tuple[float, int]]:
    """Eigenvalues of the assembled matrix strictly inside (lo, hi), with multiplicities."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got ({lo}, {hi})")
    values = dense_spectrum(op).values
    inside = values[(values > lo) & (values < hi)]
    return cluster_eigenvalues(inside)
