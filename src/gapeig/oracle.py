"""Brute-force ground truth: dense eigendecomposition of the assembled matrix.

Small instances are validated end to end against this module; it is built
and tested before the min-max solver so every solver result can be
regenerated independently. A spectrum is an ascending array from LAPACK's
dsyevd, computed in the assembled matrix's own memory: one dim x dim matrix.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .blockop import BlockOperator
from .errors import EigFailure

CLUSTER_RTOL = 1e-8


def dense_spectrum(op: BlockOperator) -> np.ndarray:
    """Every eigenvalue of the assembled (n_plus+n_minus)^2 matrix, ascending.

    dsyevd, numpy's eigvalsh routine, overwrites the assembled matrix: it is C-ordered
    and exactly symmetric, so its transpose is the same matrix in the Fortran order
    LAPACK takes without a copy. Its blocks were checked finite on construction.
    """
    try:
        return scipy.linalg.eigvalsh(op.assembled().T, overwrite_a=True, check_finite=False,
                                     driver="evd")
    except np.linalg.LinAlgError as exc:
        raise EigFailure(f"dense eigensolve failed: {exc}") from exc


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
    values = dense_spectrum(op)
    inside = values[(values > lo) & (values < hi)]
    return cluster_eigenvalues(inside)
