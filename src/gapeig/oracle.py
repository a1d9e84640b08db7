"""Brute-force ground truth: a full eigensolve of the assembled matrix.

Small instances are validated end to end against this module; it is built
and tested before the min-max solver so every solver result can be
regenerated independently. A spectrum is every eigenvalue of A, ascending,
with no Schur complement. One structure rule picks the LAPACK routine: an
operator that is banded once its lower rows are interleaved with the upper
columns goes to the band solver dsbevd, with A's band written by
blockop.upper_band (which writes k_e's band too) from the blocks' nonzeros
(blockop.nonzeros); every other operator to dsyevd in the assembled
matrix's own memory, one dim x dim matrix.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy import sparse

from .blockop import BlockOperator, nonzeros, upper_band
from .errors import EigFailure
from .schur import BAND_RATIO

CLUSTER_RTOL = 1e-8


def _band(op: BlockOperator) -> np.ndarray | None:
    """A's upper band storage in the interleaved order, or None when A is not banded.

    Each lower row goes right after the upper column where its row of c starts
    (a row of c that is empty goes last), one stable sort. A is banded when
    dim >= BAND_RATIO * (w + 1) for the half-bandwidth w of that order. The blocks
    are read through blockop.nonzeros, in O(nnz) for a sparse one, c first, as it
    counts twice; a nonzero count above dim * (2w + 1) at the widest w allowed
    rules that out before anything is built.
    """
    n, dim = op.n_plus, op.dim
    budget = dim * (2 * (dim // BAND_RATIO - 1) + 1)
    blocks = []
    for m, copies in ((op.c, 2), (op.p, 1), (op.amm, 1)):  # c sits in both triangles
        nz = nonzeros(m, budget // copies)
        if nz is None:
            return None
        budget -= copies * nz.nnz
        blocks.append(nz.tocoo())  # row by row, each row's columns ascending
    c, p, amm = blocks
    rows, cols = c.coords
    start = np.full(op.n_minus, float(n))
    filled, first = np.unique(rows, return_index=True)
    start[filled] = cols[first] + 0.5
    at = np.empty(dim, dtype=np.intp)
    at[np.argsort(np.concatenate([np.arange(n), start]), kind="stable")] = np.arange(dim)
    # A's nonzeros, positions in that order: p's, c's in both triangles, amm's
    (p_rows, p_cols), (m_rows, m_cols) = p.coords, amm.coords
    i = at[np.concatenate([p_rows, rows + n, cols, m_rows + n])]
    j = at[np.concatenate([p_cols, cols, rows + n, m_cols + n])]
    values = np.concatenate([p.data, c.data, c.data, amm.data])
    w = int(np.abs(i - j).max(initial=0))
    if dim < BAND_RATIO * (w + 1):
        return None
    return upper_band(sparse.csr_array((values, (i, j)), shape=(dim, dim)), w)


def dense_spectrum(op: BlockOperator) -> np.ndarray:
    """Every eigenvalue of the assembled (n_plus+n_minus)^2 matrix, ascending.

    A banded operator (_band) goes to dsbevd on its band. Every other one goes to
    dsyevd, numpy's eigvalsh routine, which overwrites the assembled matrix: it is
    C-ordered and exactly symmetric, so its transpose is the same matrix in the
    Fortran order LAPACK takes without a copy. Its blocks were checked finite on
    construction.
    """
    try:
        band = _band(op)
        if band is not None:
            return scipy.linalg.eig_banded(band, eigvals_only=True, check_finite=False)
        return scipy.linalg.eigvalsh(op.assembled().T, overwrite_a=True, check_finite=False,
                                     driver="evd")
    except np.linalg.LinAlgError as exc:
        raise EigFailure(f"dense eigensolve failed: {exc}") from exc


def cluster_band(value: float) -> float:
    """CLUSTER_RTOL*max(1, |value|): eigenvalues this close to value are one cluster."""
    return CLUSTER_RTOL * max(1.0, abs(value))


def cluster_eigenvalues(values: np.ndarray) -> list[tuple[float, int]]:
    """Group an ascending value list into (representative, multiplicity) clusters.

    Neighbors within cluster_band of the upper one merge; the representative is
    the cluster mean.
    """
    out: list[tuple[float, int]] = []
    i = 0
    values = np.asarray(values, dtype=float)
    while i < len(values):
        j = i + 1
        while j < len(values) and values[j] - values[j - 1] <= cluster_band(values[j]):
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
