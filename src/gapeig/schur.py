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
e > lambda0 + GAP_EDGE_MARGIN; k_e, m_e and l_e are computed on first use.
What the pencil needs of the lower block is kept once per operator in the
operator's memo, next to lambda0: a zero block makes the pencil rational in
c.T c, a diagonal one solves by division, a dense one by a Cholesky factor
kept per energy, since root solves revisit the same probe energies for every
level. A SchurSystem belongs to its caller.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .blockop import BlockOperator, lambda0, lower_diagonal
from .errors import KOutOfRange, NotPositiveDefinite

GAP_EDGE_MARGIN = 1e-10


class _Lower:
    """The lower-block facts of one operator that every pencil evaluation reads."""

    def __init__(self, op: BlockOperator) -> None:
        self.lambda0 = lambda0(op)
        diag = lower_diagonal(op)
        self.b_diag = None if diag is None else -diag
        # gram of the coupling; with a vanishing lower block the whole Schur
        # system is a rational function of this single matrix
        self.ctc = op.c.T @ op.c if diag is not None and not diag.any() else None
        self.cho: dict[float, tuple] = {}


class SchurSystem:
    """The pencil (k_e, m_e) and the lift l_e of one operator at one energy e."""

    def __init__(self, op: BlockOperator, e: float) -> None:
        lower = op.remember("schur", lambda: _Lower(op))
        edge = lower.lambda0 + GAP_EDGE_MARGIN
        if not e > edge:
            raise NotPositiveDefinite(
                f"energy {e} is not above lambda0 + {GAP_EDGE_MARGIN:g} = {edge}"
            )
        self.op, self.e, self._lower = op, float(e), lower
        self._l = self._km = None

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """(b + e*I)^{-1} rhs, where b = -amm."""
        lower, e = self._lower, self.e
        if lower.b_diag is not None:
            d = lower.b_diag + e
            if d.min() <= 0.0:
                raise NotPositiveDefinite(f"b + {e}*I has a nonpositive diagonal entry")
            return rhs / d if rhs.ndim == 1 else rhs / d[:, None]
        factor = lower.cho.get(e)
        if factor is None:
            try:
                factor = sla.cho_factor(-self.op.amm + e * np.eye(self.op.n_minus),
                                        check_finite=False)
            except sla.LinAlgError as exc:
                raise NotPositiveDefinite(f"b + {e}*I is not positive definite") from exc
            lower.cho[e] = factor
        return sla.cho_solve(factor, rhs, check_finite=False)

    @property
    def l_e(self) -> np.ndarray:
        if self._l is None:
            self._l = self._solve(self.op.c)
        return self._l

    def _pencil(self) -> tuple[np.ndarray, np.ndarray]:
        if self._km is None:
            # no identity is held across statements: at n=1200 each is 11.5 MB
            op, e, ctc = self.op, self.e, self._lower.ctc
            if ctc is not None:
                k = op.p - e * np.eye(op.n_plus) + ctc / e
                self._km = (k, np.eye(op.n_plus) + ctc / e**2)
            else:
                # l_e is kept only when a caller asked for it
                l_e = self._l if self._l is not None else self._solve(op.c)
                k = op.p - e * np.eye(op.n_plus) + op.c.T @ l_e
                m = np.eye(op.n_plus) + l_e.T @ l_e
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

    def value(self, k: int) -> float:
        """k-th smallest pencil eigenvalue mu_k(e), 1-based."""
        self._check_k(k)
        vals = sla.eigh(*self._pencil(), subset_by_index=[k - 1, k - 1],
                        eigvals_only=True, check_finite=False)
        return float(vals[0])

    def vector(self, k: int) -> tuple[float, np.ndarray]:
        """mu_k(e) together with its pencil eigenvector."""
        self._check_k(k)
        vals, vecs = sla.eigh(*self._pencil(), subset_by_index=[k - 1, k - 1],
                              check_finite=False)
        return float(vals[0]), vecs[:, 0]

    def values_in_band(self, band: float) -> np.ndarray:
        """Pencil eigenvalues mu with |mu| <= band, ascending."""
        return sla.eigh(*self._pencil(), subset_by_value=[-band, band],
                        eigvals_only=True, check_finite=False)

    def lift(self, x: np.ndarray) -> np.ndarray:
        """l_e x = (b + e*I)^{-1} c x of an upper-block vector."""
        return self._solve(self.op.c @ np.asarray(x, dtype=float))

    def form(self, x: np.ndarray) -> tuple[float, float]:
        """q_e(x, x) and its exact energy derivative -(||x||^2 + ||l_e x||^2)."""
        op, e = self.op, self.e
        x = np.asarray(x, dtype=float)
        cx = op.c @ x
        w = self._solve(cx)
        q = float(x @ (op.p @ x) - e * (x @ x) + cx @ w)
        return q, -float(x @ x + w @ w)


def build_schur(op: BlockOperator, e: float) -> SchurSystem:
    """The Schur pencil at energy e > lambda0 + 1e-10."""
    return SchurSystem(op, e)


def phi_form(op: BlockOperator, e: float, x: np.ndarray, y: np.ndarray) -> float:
    """The coupled quadratic form (x+y).T A (x+y) - e*||x+y||^2; defined for every real e."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    value = x @ (op.p @ x) + 2.0 * (y @ (op.c @ x)) + y @ (op.amm @ y)
    return float(value - e * (x @ x + y @ y))


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
    """Pencil eigenvalues mu with |mu| <= band at energy lam, ascending."""
    return build_schur(op, lam).values_in_band(band)


def apply_l(op: BlockOperator, e: float, x: np.ndarray) -> np.ndarray:
    """The lifting l_e x = (b + e*I)^{-1} c x of an upper-block vector."""
    return build_schur(op, e).lift(x)
