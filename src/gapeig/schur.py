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
the rule minmax brackets from too, and keeps the diagonal e - d of the lower solve.
Its other per-energy state, l_e, k_e and the banded path's band, is three
functools.cached_property attributes, each computed on first use and then kept.
The lower block enters only through its resolvent, so k_e is formed in
amm's eigenbasis amm = Q diag(d) Q.T (blockop.lower_eigen; Q is None for a
diagonal amm): there b + e*I is the diagonal e - d, the coupling is Q.T c,
and k_e and forms are unchanged. Every lower solve of a rotated block
takes one refinement step against eigh's residual f = Q.T (amm Q - Q diag(d)),
which 1/(e - d) amplifies next to lambda0. solve_lower is that solve for a
right-hand side in the operator's own basis (l_e is solve_lower(c), and verify's
inverse formula reads it, with solve_k, k_e's own solve); lift and the
residual's lower half go back to that basis by Q as well. What k_e needs is
kept once per operator in the operator's memo, and one structure rule picks
the backend there: an unrotated operator whose k_e has half-bandwidth w, the
widest of p's and of c.T c's nonzero patterns, with n_plus >= BAND_RATIO * (w + 1)
takes the banded path; every other operator the dense one. The rule also picks
the one storage of p, c and c.T that every product reads, k_e, l_e, lift, form
and residual alike: CSR from blockop.nonzeros on the banded path (a model
operator's own stored p and c, no copy), blockop.dense arrays on the dense
one. value(k) is one level; levels(m) is the m lowest from one eigensolve,
the row gap_spectrum's bracketing ladder keeps per probe energy;
values_in(lo, hi) is every level in (lo, hi], the count minmax takes
multiplicities from; lowest(m) is the lowest eigenvalue of another symmetric
matrix in k_e's storage and band, verify's sandwich sides. All four go through
one selection, _select.

- Banded: k_e is a sparse product with the diagonal (b + e)^{-1}, formed once
  as a general band (blockop.band). Its eigenvalues come from LAPACK's dsbevx
  (scipy.linalg.eig_banded) on the band's upper rows, a level's vector from banded
  inverse iteration on a copy shifted to k_e - sigma*I, sigma a few ulps off it and
  at least eps**2 * max|band| off it, so a kappa of exactly 0 keeps a normal shift.
  Nothing dense is built: l_e is the CSR lift the band is formed from, k_e the
  band's CSR matrix (blockop.band_matrix), solve_k an LU solve on the band itself.
- Dense: k_e is a dense product and goes to a dense subset eigh. Every dense product
  runs on scipy's BLAS (blockop.mul), Q.T c and f included, and solve_k is LAPACK's
  dgesv from scipy, so no call of this module wakes numpy's BLAS thread pool.

Solver failures surface as GapeigError subclasses, never as LinAlgError.
A SchurSystem belongs to its caller.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
import scipy.linalg as sla
from scipy import sparse

from .blockop import (BAND_RATIO, BlockOperator, as_real, band, band_matrix, check_number, dense,
                      lambda0, lower_eigen, mul, nonzeros)
from .errors import (BadSplit, EigFailure, KOutOfRange, NonFinite, NotPositiveDefinite,
                     SingularSchur, ZeroVector)

GAP_EDGE_MARGIN = 1e-10
INVERSE_STEPS = 3
SHIFT_ULPS = 4


def _half_bandwidth(p: sparse.csr_array, c: sparse.csr_array) -> int:
    """k_e's half-bandwidth w: the widest of p's and of c.T c's nonzero patterns."""
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


def _squares(u: np.ndarray, v: np.ndarray) -> tuple[float, int]:
    """(total, s) with total * 4**s = u @ u + v @ v: the vectors are scaled by 2**-s first,
    s from math.frexp of their largest entry, so no square overflows."""
    s = math.frexp(max(np.abs(u).max(initial=0.0), np.abs(v).max(initial=0.0)))[1]
    u, v = np.ldexp(u, -s), np.ldexp(v, -s)
    return float(u @ u + v @ v), s


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
            c = dense(op.c) if self.q is None else mul(self.q.T, dense(op.c))
            self.p, self.c, self.ct = dense(op.p), c, c.T
        if self.q is not None:  # eigh's residual in its own basis, Q.T (amm Q - Q diag(d))
            self.f = mul(self.q.T, mul(op.amm, self.q) - self.q * self.d)


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
        # e - d, the diagonal of b + e*I in amm's eigenbasis: positive, as the edge rule
        # gives e > lambda0 = max(d), and e - d > 0 rounds to > 0
        self._shift = self.e - lower.d

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """(b + e*I)^{-1} rhs in amm's eigenbasis, where b + e*I is diag(e - d) - f;
        a rotated block takes one refinement step against eigh's residual f."""
        d = self._shift if rhs.ndim == 1 else self._shift[:, None]
        y = rhs / d
        if self._lower.q is not None:  # y + (f y)/d, in place: two rhs-sized arrays at most
            z = mul(self._lower.f, y)
            z /= d
            y += z
        return y

    def solve_lower(self, rhs: np.ndarray) -> np.ndarray:
        """(b + e*I)^{-1} rhs for a dense rhs in the operator's own basis, refined as _solve is."""
        q = self._lower.q
        return self._solve(rhs) if q is None else mul(q, self._solve(mul(q.T, rhs)))

    @property
    def banded(self) -> bool:
        """Whether the structure rule put this operator on the banded path."""
        return self._lower.w is not None

    def _lift(self) -> sparse.csr_array:
        """l_e on the banded path: each row of c divided by its entry of b + e*I."""
        lift = self._lower.c.copy()
        lift.data /= np.repeat(self._shift, np.diff(lift.indptr))
        return lift

    @cached_property
    def l_e(self) -> np.ndarray | sparse.csr_array:
        """(b + e*I)^{-1} c in the operator's own basis: CSR if banded, else dense."""
        if self.banded:
            return self._lift()
        # _Lower.c already holds Q.T c: only the way back rotates
        q, lift = self._lower.q, self._solve(self._lower.c)
        return lift if q is None else mul(q, lift)

    @cached_property
    def _band(self) -> np.ndarray:
        """k_e's general band (blockop.band); banded path only."""
        lower = self._lower
        eye = sparse.eye_array(self.op.n_plus, format="csr")
        return band(lower.p - self.e * eye + lower.ct @ self._lift(), lower.w)

    @cached_property
    def k_e(self) -> np.ndarray | sparse.csr_array:
        """p - e*I + c.T l_e, exactly symmetric: CSR made from the band if banded, else dense."""
        lower = self._lower
        if self.banded:  # from the band, as c.T @ lift is not bit-symmetric
            return band_matrix(self._band, "csr")
        # no identity is held across statements: at n=1200 each is 11.5 MB
        k = lower.p - self.e * np.eye(self.op.n_plus) + mul(lower.ct, self._solve(lower.c))
        k *= 0.5  # (k + k.T) / 2 to the bit, with no overflow past half of float range
        return k + k.T

    def solve_k(self, rhs: np.ndarray) -> np.ndarray:
        """k_e^{-1} rhs for dense (n_plus, m) columns rhs, by LU with partial pivoting.
        Banded: on the band (dgbsv, dgtsv for w = 1); a column that is exactly zero has
        the solution zero and is not solved. Dense: scipy's dgesv, without the condition
        estimate (and its warning) of scipy.linalg.solve. A singular k_e raises
        SingularSchur."""
        try:
            if not self.banded:
                x, info = sla.lapack.dgesv(self.k_e, rhs)[2:]
                if info > 0:
                    raise SingularSchur(f"k_e singular at e={self.e}: "
                                        f"pivot {info} of its LU is exactly zero")
                return x
            w, x, live = self._lower.w, np.zeros(rhs.shape), rhs.any(axis=0)
            x[:, live] = sla.solve_banded((w, w), self._band, rhs[:, live],
                                          check_finite=False)
            return x
        except np.linalg.LinAlgError as exc:
            raise SingularSchur(f"k_e singular at e={self.e}: {exc}") from exc

    def _select(self, select: str, lo: float, hi: float, vectors: bool = False, m=None):
        """Eigenvalues of k_e, or of the symmetric m given in k_e's storage, ascending: those
        of 0-based index lo..hi (select "i") or in the half-open interval (lo, hi] (select
        "v"). vectors, dense path only, adds the unit eigenvectors. One LAPACK call: dsbevx
        on the upper rows of the band (m's band of k_e's width w), else a subset eigh."""
        try:
            if self.banded:
                w = self._lower.w
                upper = (self._band if m is None else band(m, w))[:w + 1]
                return sla.eig_banded(upper, select=select, select_range=(lo, hi),
                                      eigvals_only=True, check_finite=False)
            subset = "subset_by_index" if select == "i" else "subset_by_value"
            return sla.eigh(self.k_e if m is None else m, eigvals_only=not vectors,
                            check_finite=False, **{subset: [lo, hi]})
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

    def lowest(self, m) -> float:
        """The lowest eigenvalue of a symmetric matrix m in k_e's storage, CSR whose band
        is no wider than k_e's or dense, by value(1)'s eigensolve."""
        return float(self._select("i", 0, 0, m=m)[0])

    def vector(self, k: int) -> tuple[float, np.ndarray]:
        """kappa_k(e) together with its unit eigenvector of k_e."""
        check_number(k, "k", KOutOfRange, 1, self.op.n_plus, integer=True)
        if not self.banded:
            vals, vecs = self._select("i", k - 1, k - 1, vectors=True)
            return float(vals[0]), vecs[:, 0]
        kappa = self.value(k)
        # a shift a few ulps off kappa, and no less than eps**2 * max|band| (at kappa = 0 the
        # ulps are subnormal), keeps the LU clear of a zero pivot; the fixed start keeps the
        # vector, and so every report, deterministic
        w, shifted = self._lower.w, self._band.copy()
        floor = np.finfo(float).eps ** 2 * np.abs(shifted).max()
        shifted[w] -= kappa + max(SHIFT_ULPS * np.spacing(abs(kappa)), floor)  # row w: diagonal
        x = np.random.default_rng(0).standard_normal(self.op.n_plus)
        for _ in range(INVERSE_STEPS):
            try:
                x = sla.solve_banded((w, w), shifted, x, check_finite=False)
            except np.linalg.LinAlgError as exc:
                raise EigFailure(f"inverse iteration at e={self.e} failed: {exc}") from exc
            x /= math.sqrt(x @ x)
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
        y = self._solve(mul(self._lower.c, self._vector(x)))
        return y if self._lower.q is None else mul(self._lower.q, y)

    def form(self, x: np.ndarray) -> tuple[float, float]:
        """q_e(x, x) and its exact energy derivative -(||x||^2 + ||l_e x||^2)."""
        x = self._vector(x)
        cx = mul(self._lower.c, x)
        y = self._solve(cx)
        q = float(x @ mul(self._lower.p, x) - self.e * (x @ x) + cx @ y)
        return q, -float(x @ x + y @ y)

    def residual(self, x: np.ndarray) -> float:
        """||A z - e z|| / ||z|| for z = (x, l_e x); A is applied blockwise, never assembled,
        and a rotated lower half is taken back to the operator's own basis first. The
        numerator's and the denominator's vectors are each scaled by a power of two before
        their squares are summed, so neither overflows; in range the scaling is exact.
        A zero x raises ZeroVector."""
        lower, e = self._lower, self.e
        x = self._vector(x)
        if not x.any():
            raise ZeroVector("residual needs a nonzero vector")
        cx = mul(lower.c, x)
        y = self._solve(cx)
        upper = mul(lower.p, x) + mul(lower.ct, y) - e * x
        if lower.q is None:
            down = cx - self._shift * y  # c x + (amm - e) y, with amm - e = -(b + e)
        else:
            y = mul(lower.q, y)
            down = mul(self.op.c, x) + mul(self.op.amm, y) - e * y
        (top, s), (bottom, t) = _squares(upper, down), _squares(x, y)
        return math.ldexp(math.sqrt(top / bottom), s - t)


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
