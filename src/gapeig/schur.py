"""The Schur matrix at a fixed energy e above the gap's left endpoint.

For e > lambda0 the lower block b + e*I is positive definite, so the upper
block carries the energy-dependent quadratic form

    q_e(x, x) = x.T (p - e) x + (c x).T (b + e)^{-1} (c x),

realized as the matrix k_e = p - e*I + c.T l_e with l_e = (b+e)^{-1} c.
The solver reads only the eigenvalues kappa_k(e) of the standard problem
k_e x = kappa x. The min-max levels of the paper are the eigenvalues of the
pencil (k_e, I + l_e.T l_e), whose Gram matrix is positive definite, so by
Sylvester's law of inertia kappa_k(e) has their sign, and k_e has as many
negative eigenvalues as A has in (lambda0, e).

SchurSystem is k_e at one energy and the only way the package evaluates
anything there. Its constructor rejects a NaN or infinite e (NonFinite), then enforces
the one edge rule e > gap_edge(lambda0) = lambda0 + GAP_EDGE_MARGIN*max(1, |lambda0|),
the rule minmax brackets from too; everything else is computed on first use.
The lower block enters only through its resolvent, so k_e is formed in
amm's eigenbasis amm = Q diag(d) Q.T (blockop.lower_eigen; Q is None for a
diagonal amm): there b + e*I is the diagonal e - d, the coupling is Q.T c,
and k_e and forms are unchanged. Every lower solve of a rotated block
takes one refinement step against eigh's residual f = Q.T (amm Q - Q diag(d)),
which 1/(e - d) amplifies next to lambda0. solve_lower is that solve for a
right-hand side in the operator's own basis (l_e is solve_lower(c), and verify's
inverse formula reads it); lift and the residual's lower half go back to that
basis by Q as well. What k_e needs is kept once per operator in the
operator's memo, and one structure rule picks the backend there: an
unrotated operator whose k_e has half-bandwidth w, the widest of p's and
of c.T c's nonzero patterns, with n_plus >= BAND_RATIO * (w + 1) takes the
banded path; every other operator the dense one. The rule also picks the one
storage of p, c and c.T that every product reads, k_e, lift, form and
residual alike: CSR from blockop.nonzeros on the banded path (a model
operator's own stored p and c, no copy), blockop.dense arrays on the dense
one. value(k) is one level; levels(m) is the m lowest from one eigensolve,
the row gap_spectrum's bracketing ladder keeps per probe energy;
values_in(lo, hi) is every level in (lo, hi], the count minmax takes
multiplicities from. All three go through one selection, _select.

- Banded: k_e is a sparse product with the diagonal (b + e)^{-1}, kept as
  an upper band array. Its eigenvalues come from LAPACK's banded dsbevx
  (scipy.linalg.eig_banded), a level's vector from banded inverse iteration
  on k_e - sigma*I with sigma a few ulps off it. The dense k_e that verify
  reads is built from the same band.
- Dense: k_e is a dense product and goes to a dense subset eigh. Every dense product
  at an energy runs on scipy's BLAS (_mul), the library that runs every eigensolve:
  numpy (scipy_openblas64 0.3.31) and scipy (scipy_openblas32 0.3.30) each bring an
  OpenBLAS with its own thread pool, and numpy's workers, still spinning after a
  product, would share the cores with scipy's eigh. Q.T c and f are formed there too.

Solver failures surface as GapeigError subclasses, never as LinAlgError.
A SchurSystem belongs to its caller.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla
from scipy import sparse

from .blockop import (BlockOperator, as_real, check_number, dense, lambda0, lower_eigen,
                      nonzeros)
from .errors import BadSplit, EigFailure, KOutOfRange, NonFinite, NotPositiveDefinite

GAP_EDGE_MARGIN = 1e-10
BAND_RATIO = 32  # banded once n_plus >= BAND_RATIO * (w + 1); see _half_bandwidth
INVERSE_STEPS = 3
SHIFT_ULPS = 4


def _half_bandwidth(p: sparse.csr_array, c: sparse.csr_array) -> int:
    """k_e's half-bandwidth w: the widest of p's and of c.T c's nonzero patterns.

    The crossover behind BAND_RATIO, measured as one level per energy (dsbevx
    against a dense subset eigh) on 2 cores with OpenBLAS: the banded path is
    2-3x slower at n_plus = 64 (its sparse products cost about 0.6 ms whatever
    the size) and faster from 128 on, 15x at n_plus = 128 and 29x at 1024
    with w = 2; at n_plus = 256..1024 it stays ahead up to w of about
    n_plus/8. 32 is safe for both.
    """
    rows, cols = p.nonzero()
    w = int(np.abs(rows - cols).max(initial=0))
    # columns i < j of c meet in c.T c exactly when one row of c holds both,
    # so the widest row of c is c.T c's half-bandwidth
    filled = np.diff(c.indptr) > 0
    if filled.any():
        first = c.indices[c.indptr[:-1][filled]]
        last = c.indices[c.indptr[1:][filled] - 1]
        w = max(w, int((last - first).max()))
    return w


def _upper_band(m: sparse.csr_array, w: int) -> np.ndarray:
    """Upper band storage, band[w + i - j, j] = m[i, j] for i <= j."""
    return np.array([np.pad(m.diagonal(t), (t, 0)) for t in range(w, -1, -1)])


def _symmetric(band: np.ndarray) -> sparse.csr_array:
    """The symmetric matrix whose upper band storage is band."""
    w, n = band.shape[0] - 1, band.shape[1]
    upper = sparse.dia_array((band, np.arange(w, -1, -1)), shape=(n, n))
    return (upper + sparse.triu(upper, 1).T).tocsr()


def _full_band(band: np.ndarray) -> np.ndarray:
    """The (w, w) general band form solve_banded reads, from upper band storage."""
    w = band.shape[0] - 1
    full = np.zeros((2 * w + 1, band.shape[1]))
    full[:w + 1] = band
    for t in range(1, w + 1):
        full[w + t, :-t] = band[w - t, t:]
    return full


def _mul(a, b: np.ndarray) -> np.ndarray:
    """a @ b, C-ordered, on scipy's BLAS (a sparse a uses its own @), as (b.T a.T).T: BLAS
    reads a C-ordered array as its transpose, so no contiguous operand is copied."""
    if sparse.issparse(a):
        return a @ b
    (at, ta), (bt, tb) = ((m, 1) if m.flags.f_contiguous and not m.flags.c_contiguous
                          else (m.T, 0) for m in (a, b))
    if b.ndim == 1:
        return sla.blas.dgemv(1.0, at, b, trans=1 - ta)
    return sla.blas.dgemm(1.0, bt, at, trans_a=tb, trans_b=ta).T


def gap_edge(lam0: float) -> float:
    """The edge lambda0 + GAP_EDGE_MARGIN*max(1, |lambda0|): k_e is formed only above it."""
    return lam0 + GAP_EDGE_MARGIN * max(1.0, abs(lam0))


class _Lower:
    """The facts of one operator that every evaluation of k_e reads, in amm's eigenbasis."""

    def __init__(self, op: BlockOperator) -> None:
        self.lambda0 = lambda0(op)
        self.d, self.q = lower_eigen(op)
        # the storage every product reads: p and c as CSR if banded (w set), else dense
        self.w = None
        if self.q is None:
            p, c = nonzeros(op.p), nonzeros(op.c)
            w = _half_bandwidth(p, c)
            if op.n_plus >= BAND_RATIO * (w + 1):
                self.p, self.c, self.ct, self.w = p, c, c.T.tocsr(), w
        if self.w is None:
            c = dense(op.c) if self.q is None else _mul(self.q.T, dense(op.c))
            self.p, self.c, self.ct = dense(op.p), c, c.T
        if self.q is not None:  # eigh's residual in its own basis, Q.T (amm Q - Q diag(d))
            self.f = _mul(self.q.T, _mul(op.amm, self.q) - self.q * self.d)


class SchurSystem:
    """The Schur matrix k_e, lift l_e and lower solve solve_lower of one operator at energy e."""

    def __init__(self, op: BlockOperator, e: float) -> None:
        check_number(e, "energy", NonFinite)
        lower = op.remember("schur", lambda: _Lower(op))
        edge = gap_edge(lower.lambda0)
        if not e > edge:
            raise NotPositiveDefinite(
                f"energy {e} is not above lambda0 + {GAP_EDGE_MARGIN:g}*max(1, |lambda0|) = {edge}"
            )
        self.op, self.e, self._lower = op, float(e), lower
        self._l = self._k = self._band = None

    def _shifted_diag(self) -> np.ndarray:
        # positive: the edge rule gives e > lambda0 = max(d), and e - d > 0 rounds to > 0
        return self.e - self._lower.d

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """(b + e*I)^{-1} rhs in amm's eigenbasis, where b + e*I is diag(e - d) - f;
        a rotated block takes one refinement step against eigh's residual f."""
        d = self._shifted_diag()
        d = d if rhs.ndim == 1 else d[:, None]
        y = rhs / d
        if self._lower.q is not None:  # y + (f y)/d, in place: two rhs-sized arrays at most
            z = _mul(self._lower.f, y)
            z /= d
            y += z
        return y

    def solve_lower(self, rhs: np.ndarray) -> np.ndarray:
        """(b + e*I)^{-1} rhs for a dense rhs in the operator's own basis, refined as _solve is."""
        q = self._lower.q
        return self._solve(rhs) if q is None else _mul(q, self._solve(_mul(q.T, rhs)))

    @property
    def l_e(self) -> np.ndarray:
        """(b + e*I)^{-1} c in the operator's own basis, as a dense matrix."""
        if self._l is None:
            self._l = self.solve_lower(dense(self.op.c))
        return self._l

    def _banded(self) -> np.ndarray:
        """k_e in upper band storage; banded path only."""
        if self._band is None:
            lower = self._lower
            lift = lower.c.copy()  # l_e: each row of c divided by its entry of b + e*I
            lift.data /= np.repeat(self._shifted_diag(), np.diff(lower.c.indptr))
            eye = sparse.eye_array(self.op.n_plus, format="csr")
            self._band = _upper_band(lower.p - self.e * eye + lower.ct @ lift, lower.w)
        return self._band

    @property
    def k_e(self) -> np.ndarray:
        """p - e*I + c.T l_e as a dense symmetric matrix; built from the band if banded."""
        if self._k is None:
            lower = self._lower
            if lower.w is not None:
                self._k = _symmetric(self._banded()).toarray()
            else:
                # no identity is held across statements: at n=1200 each is 11.5 MB
                k = lower.p - self.e * np.eye(self.op.n_plus) + _mul(lower.ct, self._solve(lower.c))
                self._k = (k + k.T) / 2.0
        return self._k

    def _select(self, select: str, lo: float, hi: float, vectors: bool = False):
        """Eigenvalues of k_e, ascending: those of 0-based index lo..hi (select "i") or
        in the half-open interval (lo, hi] (select "v"). vectors, dense path only, adds
        the unit eigenvectors. One LAPACK call: dsbevx on the band, else a subset eigh."""
        try:
            if self._lower.w is not None:
                return sla.eig_banded(self._banded(), select=select, select_range=(lo, hi),
                                      eigvals_only=True, check_finite=False)
            subset = "subset_by_index" if select == "i" else "subset_by_value"
            return sla.eigh(self.k_e, eigvals_only=not vectors, check_finite=False,
                            **{subset: [lo, hi]})
        except np.linalg.LinAlgError as exc:
            raise EigFailure(f"pencil eigensolve at e={self.e} failed: {exc}") from exc

    def value(self, k: int) -> float:
        """k-th smallest eigenvalue kappa_k(e) of k_e, 1-based."""
        check_number(k, "k", KOutOfRange, 1, self.op.n_plus, integer=True)
        return float(self._select("i", k - 1, k - 1)[0])

    def levels(self, m: int) -> np.ndarray:
        """The m smallest eigenvalues kappa_1(e) <= ... <= kappa_m(e) of k_e, in one eigensolve."""
        check_number(m, "m", KOutOfRange, 1, self.op.n_plus, integer=True)
        return self._select("i", 0, m - 1)

    def values_in(self, lo: float, hi: float) -> np.ndarray:
        """Eigenvalues of k_e in the half-open interval (lo, hi], ascending."""
        return self._select("v", lo, hi)

    def vector(self, k: int) -> tuple[float, np.ndarray]:
        """kappa_k(e) together with its unit eigenvector of k_e."""
        check_number(k, "k", KOutOfRange, 1, self.op.n_plus, integer=True)
        if self._lower.w is None:
            vals, vecs = self._select("i", k - 1, k - 1, vectors=True)
            return float(vals[0]), vecs[:, 0]
        kappa = self.value(k)
        # a shift a few ulps off kappa keeps the LU clear of an exactly zero pivot;
        # the fixed start keeps the vector, and so every report, deterministic
        w, shifted = self._lower.w, _full_band(self._banded())
        shifted[w] -= kappa + SHIFT_ULPS * np.spacing(abs(kappa))  # row w is the diagonal
        x = np.random.default_rng(0).standard_normal(self.op.n_plus)
        for _ in range(INVERSE_STEPS):
            try:
                x = sla.solve_banded((w, w), shifted, x, check_finite=False)
            except np.linalg.LinAlgError as exc:
                raise EigFailure(f"inverse iteration at e={self.e} failed: {exc}") from exc
            x /= np.linalg.norm(x)
        return kappa, x

    def _vector(self, x) -> np.ndarray:
        """x as a finite float vector of the upper block, checked the same on both paths."""
        x = as_real(x, "vector", BadSplit)
        if x.shape != (self.op.n_plus,):
            raise BadSplit(f"vector must have shape ({self.op.n_plus},), got {x.shape}")
        if not np.isfinite(x).all():
            raise NonFinite("vector has non-finite entries (NaN or inf)")
        return x

    def lift(self, x: np.ndarray) -> np.ndarray:
        """l_e x = (b + e*I)^{-1} c x of an upper-block vector, in the operator's own basis."""
        y = self._solve(_mul(self._lower.c, self._vector(x)))
        return y if self._lower.q is None else _mul(self._lower.q, y)

    def form(self, x: np.ndarray) -> tuple[float, float]:
        """q_e(x, x) and its exact energy derivative -(||x||^2 + ||l_e x||^2)."""
        x = self._vector(x)
        cx = _mul(self._lower.c, x)
        y = self._solve(cx)
        q = float(x @ _mul(self._lower.p, x) - self.e * (x @ x) + cx @ y)
        return q, -float(x @ x + y @ y)

    def residual(self, x: np.ndarray) -> float:
        """||A z - e z|| / ||z|| for z = (x, l_e x); A is applied blockwise, never assembled,
        and a rotated lower half is taken back to the operator's own basis first."""
        lower, e = self._lower, self.e
        x = self._vector(x)
        cx = _mul(lower.c, x)
        y = self._solve(cx)
        upper = _mul(lower.p, x) + _mul(lower.ct, y) - e * x
        if lower.q is None:
            down = cx - self._shifted_diag() * y  # c x + (amm - e) y, with amm - e = -(b + e)
        else:
            y = _mul(lower.q, y)
            down = _mul(self.op.c, x) + _mul(self.op.amm, y) - e * y
        return math.sqrt(float(upper @ upper + down @ down) / float(x @ x + y @ y))


def build_schur(op: BlockOperator, e: float) -> SchurSystem:
    """The Schur system at energy e > gap_edge(lambda0)."""
    return SchurSystem(op, e)


def q_e_form(op: BlockOperator, e: float, x: np.ndarray) -> float:
    """The Schur quadratic form q_e(x, x)."""
    return build_schur(op, e).form(x)[0]


def q_value_and_slope(op: BlockOperator, e: float, x: np.ndarray) -> tuple[float, float]:
    """q_e(x, x) together with its exact energy derivative -(||x||^2 + ||l_e x||^2)."""
    return build_schur(op, e).form(x)


def mu_k(op: BlockOperator, lam: float, k: int) -> float:
    """k-th smallest eigenvalue kappa_k of k_lam, 1-based."""
    return build_schur(op, lam).value(k)


def mu_k_with_vector(op: BlockOperator, lam: float, k: int) -> tuple[float, np.ndarray]:
    """kappa_k together with its unit eigenvector of k_lam."""
    return build_schur(op, lam).vector(k)


def pencil_values_in_band(op: BlockOperator, lam: float, band: float) -> np.ndarray:
    """Eigenvalues of k_lam in the half-open band (-band, band], ascending.

    The solver no longer calls this; it stays because perfbench/tracing.py wraps
    it by name, until ROADMAP item 1 moves the benchmark to in-package counters.
    """
    return build_schur(op, lam).values_in(-band, band)


def apply_l(op: BlockOperator, e: float, x: np.ndarray) -> np.ndarray:
    """The lifting l_e x = (b + e*I)^{-1} c x of an upper-block vector."""
    return build_schur(op, e).lift(x)
