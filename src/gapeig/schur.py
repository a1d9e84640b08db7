"""The Schur pencil at a fixed energy e above the gap's left endpoint.

For e > lambda0 the lower block b + e*I is positive definite, so the upper
block carries the energy-dependent quadratic form

    q_e(x, x) = x.T (p - e) x + (c x).T (b + e)^{-1} (c x),

realized as the matrix k_e = p - e*I + c.T l_e with l_e = (b+e)^{-1} c, and
weighted by the Gram matrix m_e = I + l_e.T l_e of the e-inner product.
The min-max levels mu_k are the eigenvalues of the symmetric-definite
pencil (k_e, m_e); m_e >= I keeps the pencil reduction well conditioned.

SchurSystem is that pencil at one energy and the only way the package
evaluates anything there. Its constructor enforces the one edge rule
e > lambda0 + GAP_EDGE_MARGIN; everything else is computed on first use.
The lower block enters only through its resolvent, so the pencil works in
amm's eigenbasis amm = Q diag(d) Q.T (blockop.lower_eigen; Q is None for a
diagonal amm): there b + e*I is the diagonal e - d, the coupling is Q.T c,
and k_e, m_e and forms are unchanged. Every lower solve of a rotated block
takes one refinement step against eigh's residual f = Q.T (amm Q - Q diag(d)),
which 1/(e - d) amplifies next to lambda0. solve_lower is that solve for a
right-hand side in the operator's own basis (l_e is solve_lower(c), and verify's
inverse formula reads it); lift and the residual's lower half go back to that
basis by Q as well. What the pencil needs is kept once per operator in the
operator's memo, and one structure rule picks the backend there: an
unrotated operator whose pencil has half-bandwidth w, the widest of p's and
of c.T c's nonzero patterns, with n_plus >= BAND_RATIO * (w + 1) takes the
banded path; every other operator the dense one. The rule also picks the one
storage of p, c and c.T that every product reads, pencil, lift, form and
residual alike. value(k) is one level; levels(m) is the m lowest from one
eigensolve, the row gap_spectrum's bracketing ladder keeps per probe energy.

- Banded: k_e and m_e are sparse products with the diagonal (b + e)^{-1},
  kept as upper band arrays. Levels and band counts come from LAPACK's
  banded generalized solver dsbgvx (gapeig._banded), a level's vector from
  banded inverse iteration on k_e - sigma*m_e with sigma a few ulps off it.
  The dense k_e and m_e that verify reads are built from the same bands.
- Dense: k_e and m_e are dense products and go to a dense generalized eigh.

Solver failures surface as GapeigError subclasses, never as LinAlgError.
A SchurSystem belongs to its caller.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla
from scipy import sparse

from ._banded import pencil_eigvals
from .blockop import BlockOperator, lambda0, lower_eigen
from .errors import EigFailure, KOutOfRange, NotPositiveDefinite

GAP_EDGE_MARGIN = 1e-10
BAND_RATIO = 32  # banded once n_plus >= BAND_RATIO * (w + 1); see _half_bandwidth
INVERSE_STEPS = 3
SHIFT_ULPS = 4


def _half_bandwidth(p: sparse.csr_matrix, c: sparse.csr_matrix) -> int:
    """The pencil's half-bandwidth w: the widest of p's and of c.T c's nonzero patterns.

    The crossover behind BAND_RATIO, measured as one pencil level per energy
    on 2 cores with OpenBLAS: for w <= 2 the banded path is 3-5x slower at
    n_plus = 64 (its sparse products cost about 1 ms whatever the size) and
    2-4x faster from 128 on, 28x at n_plus = 1024 with w = 2; at n_plus =
    256..1024 it stays ahead up to w of about n_plus/20. 32 is safe for both.
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


def _upper_band(m: sparse.spmatrix, w: int) -> np.ndarray:
    """Upper band storage, band[w + i - j, j] = m[i, j] for i <= j."""
    return np.array([np.pad(m.diagonal(t), (t, 0)) for t in range(w, -1, -1)])


def _symmetric(band: np.ndarray) -> sparse.csr_matrix:
    """The symmetric matrix whose upper band storage is band."""
    w, n = band.shape[0] - 1, band.shape[1]
    upper = sparse.dia_matrix((band, np.arange(w, -1, -1)), shape=(n, n))
    return (upper + sparse.triu(upper, 1).T).tocsr()


def _full_band(band: np.ndarray) -> np.ndarray:
    """The (w, w) general band form solve_banded reads, from upper band storage."""
    w = band.shape[0] - 1
    full = np.zeros((2 * w + 1, band.shape[1]))
    full[:w + 1] = band
    for t in range(1, w + 1):
        full[w + t, :-t] = band[w - t, t:]
    return full


class _Lower:
    """The facts of one operator that every pencil evaluation reads, in amm's eigenbasis."""

    def __init__(self, op: BlockOperator) -> None:
        self.lambda0 = lambda0(op)
        self.d, self.q = lower_eigen(op)
        # the storage every product reads: CSR copies if banded (w set), else dense
        c = op.c if self.q is None else self.q.T @ op.c
        self.p, self.c, self.ct, self.w = op.p, c, c.T, None
        if self.q is None:
            p, c = sparse.csr_matrix(op.p), sparse.csr_matrix(op.c)
            w = _half_bandwidth(p, c)
            if op.n_plus >= BAND_RATIO * (w + 1):
                self.p, self.c, self.ct, self.w = p, c, c.T.tocsr(), w
        else:  # eigh's residual in its own basis, Q.T (amm Q - Q diag(d))
            self.f = self.q.T @ (op.amm @ self.q - self.q * self.d)


class SchurSystem:
    """The pencil (k_e, m_e), lift l_e and lower solve solve_lower of one operator at energy e."""

    def __init__(self, op: BlockOperator, e: float) -> None:
        lower = op.remember("schur", lambda: _Lower(op))
        edge = lower.lambda0 + GAP_EDGE_MARGIN
        if not e > edge:
            raise NotPositiveDefinite(
                f"energy {e} is not above lambda0 + {GAP_EDGE_MARGIN:g} = {edge}"
            )
        self.op, self.e, self._lower = op, float(e), lower
        self._l = self._km = self._bands = None

    def _shifted_diag(self) -> np.ndarray:
        # positive: the edge rule gives e > lambda0 = max(d), and e - d > 0 rounds to > 0
        return self.e - self._lower.d

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """(b + e*I)^{-1} rhs in amm's eigenbasis, where b + e*I is diag(e - d) - f;
        a rotated block takes one refinement step against eigh's residual f."""
        d = self._shifted_diag()
        d = d if rhs.ndim == 1 else d[:, None]
        y = rhs / d
        return y if self._lower.q is None else y + (self._lower.f @ y) / d

    def solve_lower(self, rhs: np.ndarray) -> np.ndarray:
        """(b + e*I)^{-1} rhs for a dense rhs in the operator's own basis, refined as _solve is."""
        q = self._lower.q
        return self._solve(rhs) if q is None else q @ self._solve(q.T @ rhs)

    @property
    def l_e(self) -> np.ndarray:
        """(b + e*I)^{-1} c in the operator's own basis, as a dense matrix."""
        if self._l is None:
            self._l = self.solve_lower(self.op.c)
        return self._l

    def _banded(self) -> tuple[np.ndarray, np.ndarray]:
        """k_e and m_e in upper band storage; banded path only."""
        if self._bands is None:
            lower = self._lower
            lift = lower.c.copy()  # l_e: each row of c divided by its entry of b + e*I
            lift.data /= np.repeat(self._shifted_diag(), np.diff(lower.c.indptr))
            eye = sparse.identity(self.op.n_plus, format="csr")
            self._bands = (_upper_band(lower.p - self.e * eye + lower.ct @ lift, lower.w),
                           _upper_band(eye + lift.T @ lift, lower.w))
        return self._bands

    def _pencil(self) -> tuple[np.ndarray, np.ndarray]:
        if self._km is None:
            lower = self._lower
            if lower.w is not None:
                self._km = tuple(_symmetric(b).toarray() for b in self._banded())
            else:
                # no identity is held across statements: at n=1200 each is 11.5 MB
                n, e = self.op.n_plus, self.e
                lift = self._solve(lower.c)  # l_e in amm's eigenbasis
                k = lower.p - e * np.eye(n) + lower.ct @ lift
                m = np.eye(n) + lift.T @ lift
                self._km = ((k + k.T) / 2.0, (m + m.T) / 2.0)
        return self._km

    @property
    def k_e(self) -> np.ndarray:
        return self._pencil()[0]

    @property
    def m_e(self) -> np.ndarray:
        return self._pencil()[1]

    def _check_k(self, k: int) -> None:
        if not 1 <= k <= self.op.n_plus:
            raise KOutOfRange(f"k must lie in 1..{self.op.n_plus}, got {k}")

    def _eigh(self, **subset) -> tuple[np.ndarray, np.ndarray] | np.ndarray:
        """The dense path's subset eigh of the pencil."""
        try:
            return sla.eigh(*self._pencil(), check_finite=False, **subset)
        except np.linalg.LinAlgError as exc:
            raise EigFailure(f"pencil eigensolve at e={self.e} failed: {exc}") from exc

    def _between(self, first: int, last: int) -> np.ndarray:
        """mu_first(e) <= ... <= mu_last(e), 1-based and inclusive, from one eigensolve."""
        if self._lower.w is not None:
            return pencil_eigvals(*self._banded(), index=(first, last))
        return self._eigh(subset_by_index=[first - 1, last - 1], eigvals_only=True)

    def value(self, k: int) -> float:
        """k-th smallest pencil eigenvalue mu_k(e), 1-based."""
        self._check_k(k)
        return float(self._between(k, k)[0])

    def levels(self, m: int) -> np.ndarray:
        """The m smallest pencil eigenvalues mu_1(e) <= ... <= mu_m(e), from one eigensolve."""
        self._check_k(m)
        return self._between(1, m)

    def vector(self, k: int) -> tuple[float, np.ndarray]:
        """mu_k(e) together with its pencil eigenvector, normalized to x.T m_e x = 1."""
        self._check_k(k)
        if self._lower.w is None:
            vals, vecs = self._eigh(subset_by_index=[k - 1, k - 1])
            return float(vals[0]), vecs[:, 0]
        mu = self.value(k)
        kb, mb = self._banded()
        w, m_e = self._lower.w, _symmetric(mb)
        # a shift a few ulps off mu keeps the LU clear of an exactly zero pivot;
        # the fixed start keeps the vector, and so every report, deterministic
        shifted = _full_band(kb - (mu + SHIFT_ULPS * np.spacing(abs(mu))) * mb)
        x = np.random.default_rng(0).standard_normal(self.op.n_plus)
        for _ in range(INVERSE_STEPS):
            try:
                x = sla.solve_banded((w, w), shifted, m_e @ x, check_finite=False)
            except np.linalg.LinAlgError as exc:
                raise EigFailure(f"inverse iteration at e={self.e} failed: {exc}") from exc
            x /= np.linalg.norm(x)
        return mu, x / np.sqrt(x @ (m_e @ x))

    def values_in_band(self, band: float) -> np.ndarray:
        """Pencil eigenvalues mu in the half-open band (-band, band], ascending."""
        if self._lower.w is not None:
            return pencil_eigvals(*self._banded(), interval=(-band, band))
        return self._eigh(subset_by_value=[-band, band], eigvals_only=True)

    def lift(self, x: np.ndarray) -> np.ndarray:
        """l_e x = (b + e*I)^{-1} c x of an upper-block vector, in the operator's own basis."""
        y = self._solve(self._lower.c @ np.asarray(x, dtype=float))
        return y if self._lower.q is None else self._lower.q @ y

    def form(self, x: np.ndarray) -> tuple[float, float]:
        """q_e(x, x) and its exact energy derivative -(||x||^2 + ||l_e x||^2)."""
        x = np.asarray(x, dtype=float)
        cx = self._lower.c @ x
        y = self._solve(cx)
        q = float(x @ (self._lower.p @ x) - self.e * (x @ x) + cx @ y)
        return q, -float(x @ x + y @ y)

    def residual(self, x: np.ndarray) -> float:
        """||A z - e z|| / ||z|| for z = (x, l_e x); A is applied blockwise, never assembled,
        and a rotated lower half is taken back to the operator's own basis first."""
        lower, e = self._lower, self.e
        x = np.asarray(x, dtype=float)
        cx = lower.c @ x
        y = self._solve(cx)
        upper = lower.p @ x + lower.ct @ y - e * x
        if lower.q is None:
            down = cx - self._shifted_diag() * y  # c x + (amm - e) y, with amm - e = -(b + e)
        else:
            y = lower.q @ y
            down = self.op.c @ x + self.op.amm @ y - e * y
        return math.sqrt(float(upper @ upper + down @ down) / float(x @ x + y @ y))


def build_schur(op: BlockOperator, e: float) -> SchurSystem:
    """The Schur pencil at energy e > lambda0 + 1e-10."""
    return SchurSystem(op, e)


def q_e_form(op: BlockOperator, e: float, x: np.ndarray) -> float:
    """The Schur quadratic form q_e(x, x)."""
    return build_schur(op, e).form(x)[0]


def q_value_and_slope(op: BlockOperator, e: float, x: np.ndarray) -> tuple[float, float]:
    """q_e(x, x) together with its exact energy derivative -(||x||^2 + ||l_e x||^2)."""
    return build_schur(op, e).form(x)


def mu_k(op: BlockOperator, lam: float, k: int) -> float:
    """k-th smallest eigenvalue of the pencil (k_lam, m_lam), 1-based."""
    return build_schur(op, lam).value(k)


def mu_k_with_vector(op: BlockOperator, lam: float, k: int) -> tuple[float, np.ndarray]:
    """mu_k together with its pencil eigenvector."""
    return build_schur(op, lam).vector(k)


def pencil_values_in_band(op: BlockOperator, lam: float, band: float) -> np.ndarray:
    """Pencil eigenvalues mu in the half-open band (-band, band] at energy lam, ascending."""
    return build_schur(op, lam).values_in_band(band)


def apply_l(op: BlockOperator, e: float, x: np.ndarray) -> np.ndarray:
    """The lifting l_e x = (b + e*I)^{-1} c x of an upper-block vector."""
    return build_schur(op, e).lift(x)
