"""Block-operator data model: the 2x2 block split, the gap endpoints, and validation.

A block operator is the symmetric matrix

    A = [[p, c.T],
         [c, amm]]

with p acting on the upper coordinate block (dimension n_plus), amm on the
lower block (dimension n_minus), and c coupling upper into lower. The lower
block is stored as amm = -b, so b = -amm is positive definite shifted by any
energy above lambda0 = max eig(amm). Everything downstream (Schur systems,
min-max levels, verification residuals) consumes this type.

A block is stored as given: a dense array, or, when passed as scipy.sparse,
a canonical read-only CSR array (no explicit zeros, sorted indices), checked
in O(nnz) under the same rules as a dense one. Only this module knows the
storage: other modules read a block's nonzeros through nonzeros(), the block
as a dense array through dense(), its norm through block_norm() and the whole
matrix through BlockOperator.assembled(). Arithmetic with a dense array
(m - e*I, m @ x) gives the same dense result for either storage.

A band matrix has one layout, LAPACK's general band, written by band() and read
back to sparse by band_matrix() alone: schur keeps k_e in it, the oracle A, and both
go banded by one BAND_RATIO. cluster_band() is the one rule for equal eigenvalues.

Every BLAS and LAPACK call of the package runs on scipy's OpenBLAS: dense
products go through mul(), sums of squares through sum_squares(), which
calls no BLAS, and the eigensolves and solves are scipy's (see mul).

Facts that depend only on an operator (amm's eigenbasis and lambda0, the
bound on its spectrum, the Schur matrix's storage, the gap certificate) are
computed once and kept in the operator's memo, each by the module that
computes it; nothing that depends on an energy is kept there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy import sparse

from .errors import BadSplit, EigFailure, GapeigError, NonFinite, NonSymmetric

SYMMETRY_RTOL = 1e-13
INPUT_SYMMETRY_RTOL = 1e-12
CLUSTER_RTOL = 1e-8
# A matrix of half-bandwidth w is solved on its band once its size is at least
# BAND_RATIO * (w + 1), k_e and the oracle's A alike. The crossover, measured on k_e as
# one level per energy (dsbevx against a dense subset eigh) on 2 cores with OpenBLAS:
# the banded path is 2-3x slower at n_plus = 64 (its sparse products cost about 0.6 ms
# whatever the size) and faster from 128 on, 15x at n_plus = 128 and 29x at 1024 with
# w = 2; at n_plus = 256..1024 it stays ahead up to w of about n_plus/8. 32 is safe at
# every size and width measured.
BAND_RATIO = 32
_KINDS = {True: (int, np.integer), False: (int, float, np.integer, np.floating)}  # check_number


def check_number(value, what: str, error: type[Exception], low=-math.inf, high=math.inf, *,
                 integer: bool = False, above: bool = False, below: bool = False,
                 finite: bool = True):
    """value if it is a finite number in [low, high], above and below excluding low and high;
    else error naming what. A bool is no number, a float no integer (numpy integers pass),
    and NaN, inf or an int beyond float range not finite. finite=False lets NaN and inf
    through, for a caller that reports them itself; an int beyond float range stays out."""
    if type(value) is not (int if integer else float) and (  # k and e pass here per solve
            isinstance(value, bool) or not isinstance(value, _KINDS[integer])):
        raise error(f"{what} must be {'an integer' if integer else 'real'}, got {value!r}")
    try:
        ok = math.isfinite(value) or not finite
    except OverflowError:  # an int beyond float range
        ok = False
    if not ok:
        raise error(f"{what} must be finite, got "
                    f"{'an integer beyond float range' if isinstance(value, int) else value}")
    if (value <= low if above else value < low) or (value >= high if below else value > high):
        domain = (f"lie in {'[('[above]}{low}, {high}{'])'[below]}" if high < math.inf
                  else "be positive" if above and low == 0
                  else f"be {'above' if above else 'at least'} {low}")
        raise error(f"{what} must {domain}, got {value}")
    return value


def _values(m) -> np.ndarray:
    """The stored entries of m: a sparse block's nonzeros, a dense block itself."""
    return m.data if sparse.issparse(m) else m


def _canonical(m: sparse.csr_array) -> sparse.csr_array:
    """m in place with duplicates summed, indices sorted and explicit zeros removed."""
    m.sum_duplicates()
    m.eliminate_zeros()
    return m


def _check_finite(m, what: str) -> float:
    """Largest entry magnitude of m, rejecting NaN and inf, which slip past every comparison."""
    values = _values(m)
    top = max(values.max(initial=0.0), -values.min(initial=0.0))  # a NaN entry makes both NaN
    if not np.isfinite(top):
        raise NonFinite(f"block {what} has non-finite entries (NaN or inf)")
    return top


def as_real(m, what: str, error: type[GapeigError]):
    """m as a float array, or as a canonical float CSR copy when m is scipy.sparse; complex
    m raises error, as a float cast would drop its imaginary part, and so does an object
    array holding a complex entry."""
    dense = not sparse.issparse(m)
    m = np.asarray(m) if dense else m
    if np.iscomplexobj(m):
        raise error(f"{what} must be real, got complex entries")
    try:
        return np.asarray(m, dtype=float) if dense else _canonical(
            sparse.csr_array(m, dtype=float, copy=True))
    except TypeError as exc:  # float() of a complex object
        raise error(f"{what} must be real: {exc}") from exc


def _check_symmetric(m, rtol: float, what: str):
    """Return the symmetrized copy of the square m, rejecting asymmetry beyond rtol*||m||.

    The copy is 0.5*m + 0.5*m.T, which rounds as (m + m.T)/2 but cannot overflow.
    ||m - m.T|| is read as 2*||m - copy||, and both norms are of entries scaled exactly
    by a power of two to a largest entry in [0.5, 1), so neither overflows nor vanishes;
    their squares are summed by sum_squares.
    A sparse m is symmetrized as CSR and its norms are of its stored values, in O(nnz);
    a dense m.T is read 64 rows at a time, so no second n x n array is made.
    """
    exp = math.frexp(_check_finite(m, what))[1]
    if sparse.issparse(m):
        sym = _canonical((0.5 * m + 0.5 * m.T).tocsr())
        defect = sum_squares(np.ldexp((m - sym).data, 1 - exp))
        scale = sum_squares(np.ldexp(m.data, -exp))
    else:
        rows = [slice(j, j + 64) for j in range(0, len(m), 64)]
        sym = np.multiply(m, 0.5)
        for r in rows:
            sym[:, r] += 0.5 * m[r].T
        defect = sum(sum_squares(np.ldexp(m[r] - sym[r], 1 - exp)) for r in rows)
        scale = sum(sum_squares(np.ldexp(m[r], -exp)) for r in rows)
    defect, scale = math.sqrt(defect), math.sqrt(scale)
    if defect > rtol * scale:
        raise NonSymmetric(f"{what} relative asymmetry {defect / scale:.3e} exceeds {rtol:g}")
    return sym


def _check_cap(n_plus: int, n_minus: int) -> None:
    """Reject a split with a block larger than BlockOperator.SIZE_CAP."""
    if max(n_plus, n_minus) > BlockOperator.SIZE_CAP:
        raise BadSplit(f"block size exceeds cap {BlockOperator.SIZE_CAP}")


@dataclass(frozen=True, eq=False)
class BlockOperator:
    """Immutable 2x2 block realization of a symmetric operator with a gap.

    Each block is a dense array or, when passed as scipy.sparse, a canonical
    CSR array (see the module docstring). Construction rejects complex blocks
    and checks the shapes and SIZE_CAP before any arithmetic on the blocks;
    then it rejects non-finite entries, symmetrizes p and amm (inputs within
    1e-13 relative asymmetry are accepted, anything worse is rejected) and
    freezes all three blocks, a sparse block's data, indices and indptr
    alike, so instances are safe to share read-only across threads.

    The private memo is the one place for facts derived from the operator:
    amm's eigenbasis (d, Q) and the spectrum bound (this module), the Schur
    matrix's storage with the rotated coupling Q.T c and eigh's residual f
    (schur) and the gap certificate (minmax); nothing in it depends on an
    energy. The lower block costs at most two n_minus^2 matrices, Q and f,
    and one n_minus x n_plus Q.T c, whatever the number of energies evaluated.
    Each is computed on first use by remember(); two threads that first use
    an operator at once may both compute a fact, with the same result.
    """

    p: np.ndarray | sparse.csr_array
    c: np.ndarray | sparse.csr_array
    amm: np.ndarray | sparse.csr_array
    n_plus: int = field(init=False)
    n_minus: int = field(init=False)
    _memo: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    SIZE_CAP = 5000  # per block; guards accidental dense O(N^3) blowups

    def __post_init__(self) -> None:
        p, c, amm = (as_real(m, what, NonSymmetric)
                     for what, m in (("p", self.p), ("c", self.c), ("amm", self.amm)))
        # shapes and the cap before any O(n^2) arithmetic on a block
        for what, m in (("p", p), ("amm", amm)):
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise NonSymmetric(f"{what} must be square, got shape {m.shape}")
        n_plus, n_minus = p.shape[0], amm.shape[0]
        if n_plus < 1 or n_minus < 1:
            raise BadSplit("both blocks must be at least 1x1")
        if c.shape != (n_minus, n_plus):
            raise BadSplit(f"coupling block must be {n_minus}x{n_plus}, got {c.shape}")
        _check_cap(n_plus, n_minus)
        p = _check_symmetric(p, SYMMETRY_RTOL, "p")
        amm = _check_symmetric(amm, SYMMETRY_RTOL, "amm")
        _check_finite(c, "c")
        for m in (p, c, amm):
            for arr in (m.data, m.indices, m.indptr) if sparse.issparse(m) else (m,):
                arr.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "amm", amm)
        object.__setattr__(self, "n_plus", n_plus)
        object.__setattr__(self, "n_minus", n_minus)

    @property
    def dim(self) -> int:
        return self.n_plus + self.n_minus

    def remember(self, key: str, compute):
        """The fact stored under key, computed by compute() on first use."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute()
            return value

    def assembled(self) -> np.ndarray:
        """Dense (n_plus+n_minus)^2 matrix [[p, c.T], [c, amm]], a new C-ordered array;
        exactly symmetric, as p and amm are stored symmetrized. A sparse block is
        scattered into it, with no dense temporary."""
        n = self.n_plus
        full = np.zeros((self.dim, self.dim))
        upper, lower = slice(None, n), slice(n, None)
        for rows, cols, m in ((upper, upper, self.p), (lower, upper, self.c),
                              (upper, lower, self.c.T), (lower, lower, self.amm)):
            if sparse.issparse(m):
                m = m.tocoo()
                full[rows, cols][m.coords] = m.data
            else:
                full[rows, cols] = m
        return full


@dataclass(frozen=True)
class GapData:
    """Gap endpoints and their validity certificate.

    diagnostic carries the failure reason when the lambda1 root search could
    not certify a gap (lambda1 is NaN then).
    """

    lambda0: float
    lambda1: float
    diagnostic: str = ""

    @property
    def valid(self) -> bool:
        """lambda0 sits strictly below lambda1 with a 1e-12 relative margin."""
        margin = 1e-12 * max(1.0, abs(self.lambda1))
        return bool(self.lambda0 < self.lambda1 - margin)


def assemble_block(full: np.ndarray, n_plus: int) -> BlockOperator:
    """Split a dense symmetric matrix into a BlockOperator at row/column n_plus.

    The leading n_plus x n_plus principal block becomes p, the trailing block
    amm, and the lower-left rectangle c. A block over BlockOperator.SIZE_CAP
    is rejected before any arithmetic on the matrix. Non-finite entries are
    rejected with the block they sit in, input asymmetry beyond 1e-12
    relative likewise; within tolerance the matrix is symmetrized first.
    """
    full = as_real(full, "input matrix", NonSymmetric)
    if full.ndim != 2 or full.shape[0] != full.shape[1] or full.shape[0] < 2:
        raise NonSymmetric(f"need a square matrix of size >= 2, got shape {full.shape}")
    check_number(n_plus, "n_plus", BadSplit, 1, len(full) - 1, integer=True)
    _check_cap(n_plus, len(full) - n_plus)
    upper, lower = slice(None, n_plus), slice(n_plus, None)
    for what, rows, cols in (("p", upper, upper), ("c", lower, upper),
                             ("c.T", upper, lower), ("amm", lower, lower)):
        _check_finite(full[rows, cols], what)
    full = _check_symmetric(full, INPUT_SYMMETRY_RTOL, "input matrix")
    return BlockOperator(
        p=full[:n_plus, :n_plus],
        c=full[n_plus:, :n_plus],
        amm=full[n_plus:, n_plus:],
    )


def nonzeros(m, limit: int | None = None) -> sparse.csr_array | None:
    """Block m's nonzeros as a canonical CSR array, or None when there are more than limit.

    A block stored sparse is returned itself, read-only; a dense one is counted first
    and copied only within the limit.
    """
    if sparse.issparse(m):
        return m if limit is None or m.nnz <= limit else None
    if limit is not None and np.count_nonzero(m) > limit:
        return None
    return sparse.csr_array(m)


def band(m: sparse.csr_array, w: int) -> np.ndarray:
    """The symmetric m's (2w + 1, n) general band, band[w + i - j, j] = m[i, j], from m's
    upper triangle, so exactly symmetric: solve_banded((w, w), ...)'s layout and dia storage
    with offsets w..-w, whose first w + 1 rows are the upper storage eig_banded reads."""
    out = np.zeros((2 * w + 1, m.shape[0]))
    for t in range(w + 1):
        diagonal = m.diagonal(t)
        out[w - t, t:] = diagonal
        out[w + t, :diagonal.size] = diagonal
    return out


def band_matrix(band: np.ndarray, fmt: str) -> sparse.csr_array | sparse.csc_array:
    """The matrix whose general band (see the function band) is band, as CSR or CSC
    (fmt "csr" or "csc"), by one conversion from dia storage, which drops explicit zeros."""
    w, n = band.shape[0] // 2, band.shape[1]
    return sparse.dia_array((band, np.arange(w, -w - 1, -1)), shape=(n, n)).asformat(fmt)


def cluster_band(value: float) -> float:
    """CLUSTER_RTOL*max(1, |value|): eigenvalues this close to value are one cluster."""
    return CLUSTER_RTOL * max(1.0, abs(value))


def dense(m) -> np.ndarray:
    """Block m as a dense array: a dense block itself, read-only; a sparse one densified."""
    return m.toarray() if sparse.issparse(m) else m


def sum_squares(x: np.ndarray) -> float:
    """The sum of the squares of a 1-D or 2-D array's entries, by einsum, which calls no BLAS:
    numpy's norm is a BLAS dot, which OpenBLAS splits by thread above 10000 entries, so its
    last bits would depend on the BLAS thread count, and it wakes numpy's thread pool."""
    subscripts = "ij"[:x.ndim]
    return float(np.einsum(f"{subscripts},{subscripts}->", x, x))


def block_norm(m) -> float:
    """The Frobenius norm of block m, from sum_squares; a sparse block's is that of its
    stored nonzeros. A sum past float range is taken again on the entries scaled by 2**-s,
    s from math.frexp of the largest, so the norm is inf only when it lies past float
    range itself; in range nothing is scaled."""
    values = _values(m)
    total = sum_squares(values)
    if not math.isinf(total):
        return math.sqrt(total)
    s = math.frexp(np.abs(values).max())[1]
    try:
        return math.ldexp(math.sqrt(sum_squares(np.ldexp(values, -s))), s)
    except OverflowError:
        return math.inf


def mul(a, b: np.ndarray) -> np.ndarray:
    """a @ b, C-ordered, on scipy's BLAS (a sparse a uses its own @), as (b.T a.T).T: BLAS
    reads a C-ordered array as its transpose, so no contiguous operand is copied.

    Every matrix-matrix and matrix-vector product of the package goes through here:
    numpy (scipy_openblas64 0.3.31) and scipy (scipy_openblas32 0.3.30) each bring an
    OpenBLAS with its own thread pool, and numpy's workers, still spinning after a
    product, would share the cores with scipy's. Only 1-D dots x @ x stay on numpy; at
    most SIZE_CAP long, they run on one thread: OpenBLAS splits a dot above 10000 entries.
    """
    if sparse.issparse(a):
        return a @ b
    (at, ta), (bt, tb) = ((m, 1) if m.flags.f_contiguous and not m.flags.c_contiguous
                          else (m.T, 0) for m in (a, b))
    if b.ndim == 1:
        return sla.blas.dgemv(1.0, at, b, trans=1 - ta)
    return sla.blas.dgemm(1.0, bt, at, trans_a=tb, trans_b=ta).T


def lower_eigen(op: BlockOperator) -> tuple[np.ndarray, np.ndarray | None]:
    """amm = Q diag(d) Q.T as (d, Q), once per operator: one eigh (LAPACK's dsyevd, on
    scipy's OpenBLAS like every product; see mul), d ascending and Q C-ordered.

    A diagonal amm is its own eigenbasis, (its diagonal, None), with no eigensolve.
    """

    def compute():
        # diagonal when all of amm's nonzeros, at most n_minus, sit on its diagonal
        amm = nonzeros(op.amm, op.n_minus)
        if amm is not None:
            diag = amm.diagonal()
            if amm.nnz == np.count_nonzero(diag):
                return diag, None
        try:
            d, q = sla.eigh(dense(op.amm), driver="evd", check_finite=False)
            return d, np.ascontiguousarray(q)
        except np.linalg.LinAlgError as exc:
            raise EigFailure(f"eigensolve on amm failed: {exc}") from exc

    return op.remember("lower_eigen", compute)


def lambda0(op: BlockOperator) -> float:
    """Largest eigenvalue of the lower block amm, the left gap endpoint: the top d of lower_eigen."""
    return float(lower_eigen(op)[0].max())


def spectrum_bound(op: BlockOperator) -> float:
    """dim * max|a_ij|, once per operator, in O(nnz): no eigenvalue of A lies beyond it in
    magnitude, as none exceeds A's largest absolute row sum. inf past float range."""
    return op.remember("spectrum_bound", lambda: op.dim * float(max(
        _check_finite(m, what) for what, m in (("p", op.p), ("c", op.c), ("amm", op.amm)))))
