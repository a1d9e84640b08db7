"""Brute-force ground truth: an eigensolve of the assembled matrix.

Small instances are validated end to end against this module; it is built
and tested before the min-max solver so every solver result can be
regenerated independently. A spectrum is the eigenvalues of A in an open
window, every one by default, ascending, with no Schur complement. One
structure rule picks the LAPACK routine: an operator that is banded once its
lower rows are interleaved with the upper columns is solved on its band, which
blockop.band writes in k_e's layout from the blocks' nonzeros; every other operator
goes to dsyevd in the assembled matrix's own memory, one dim x dim matrix. On the
band, dsbevx solves a finite window that holds few eigenvalues, counted by
Sylvester's law of inertia on an LDL^T of A - sigma*I read from the band
(blockop.inertia, the count the banded solver reads k_e's levels by too), and
dsbevd every other window. Only blockop and errors are imported: no solver code.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from scipy import sparse

from .blockop import BAND_RATIO, BlockOperator, band, cluster_band, inertia, nonzeros
from .errors import EigFailure

# dsbevx solves a window holding at most dim // WINDOW_RATIO eigenvalues. It costs the
# band reduction plus about 0.4-0.9 ms per eigenvalue at dim 1200-2400, dsbevd the
# whole spectrum at once: they break even near dim / 25 eigenvalues (Dirac bands, 2 cores).
WINDOW_RATIO = 32


def _band(op: BlockOperator) -> np.ndarray | None:
    """A's general band in the interleaved order, or None when A is not banded.

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
    return band(sparse.csr_array((values, (i, j)), shape=(dim, dim)), w)


def _few_inside(band: np.ndarray, lo: float, hi: float) -> bool:
    """Whether the finite window [lo, hi) holds at most dim // WINDOW_RATIO eigenvalues
    of A by blockop.inertia; False when either count is unknown. The answer only picks
    the band driver, so a wrong one costs time, never a value."""
    if not -math.inf < lo < hi < math.inf:
        return False
    below_lo, below_hi = inertia(band, lo), inertia(band, hi)
    if below_lo is None or below_hi is None:
        return False
    return below_hi[0] - below_lo[0] <= band.shape[1] // WINDOW_RATIO


def dense_spectrum(op: BlockOperator, lo: float = -math.inf,
                   hi: float = math.inf) -> np.ndarray:
    """The eigenvalues of the assembled (n_plus+n_minus)^2 matrix in the open window
    (lo, hi), ascending; every one by default.

    A banded operator (_band) goes to dsbevx on the window when _few_inside says it holds
    few eigenvalues, and to dsbevd on the whole band otherwise. Every other one goes to
    dsyevd, numpy's eigvalsh routine, for every eigenvalue, which overwrites the
    assembled matrix: it is C-ordered and exactly symmetric, so its transpose is the
    same matrix in the Fortran order LAPACK takes without a copy. Its blocks were
    checked finite on construction. The window is applied last, which also drops a
    value equal to hi that dsbevx, solving (lo, hi], returns.
    """
    try:
        band = _band(op)
        if band is None:
            values = scipy.linalg.eigvalsh(op.assembled().T, overwrite_a=True,
                                           check_finite=False, driver="evd")
        else:  # eig_banded reads the band's upper rows
            window = dict(select="v", select_range=(lo, hi)) if _few_inside(band, lo, hi) else {}
            values = scipy.linalg.eig_banded(band[:band.shape[0] // 2 + 1], eigvals_only=True,
                                             check_finite=False, **window)
    except np.linalg.LinAlgError as exc:
        raise EigFailure(f"dense eigensolve failed: {exc}") from exc
    return values[(values > lo) & (values < hi)]


def cluster_eigenvalues(values: np.ndarray) -> list[tuple[float, int]]:
    """Group an ascending value list into (representative, multiplicity) clusters.

    Neighbors within blockop.cluster_band of the upper one merge; the representative is
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
    return cluster_eigenvalues(dense_spectrum(op, lo, hi))
