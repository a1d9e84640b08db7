"""Nonlinear root solves that turn the Schur pencil into gap eigenvalues.

Both solvers find the one sign change above lambda0 of a function that is
positive next to lambda0 and negative past its root, with one loop, _root:
check the sign at the left edge, bracket by doubling steps from
lambda0 + 1, refine by Newton steps kept inside the verified bracket.

energy_of_vector finds, for a fixed upper-block vector x, the energy E with
q_E(x, x) = 0; the energy derivative of q is exactly -(||x||^2 + ||l_E x||^2).
lambda_k finds the k-th gap eigenvalue as the sign change of lam -> mu_k(lam):
an inertia count makes the level positive below the eigenvalue and negative
above it. Coming off lambda0 the level rises from zero, so bracketing goes by
sign, never by value. Its Newton step is the Rayleigh quotient of the
assembled operator at the lifted pencil vector z = x + l_lam x, which equals
lam + mu_k(lam) exactly (z.T (A - lam) z = x.T K x = mu_k x.T M x and
z.T z = x.T M x): the level crosses zero with slope -1, since dK/dlam = -M.
The quotient carries eps*||A|| rounding where mu carries eps*||K||, so roots
come out near machine precision even when ||K|| is large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .blockop import BlockOperator, GapData
from .errors import BracketFailure, KOutOfRange, ZeroVector
from .oracle import CLUSTER_RTOL
from .schur import (
    SchurSystem,
    apply_l,
    build_schur,
    cached_lambda0,
    mu_k,
    mu_k_with_vector,
    phi_form,
    q_value_and_slope,
)

LEFT_EDGE_REL = 1e-8
DEFAULT_LAMBDA_MAX_OFFSET = 1e12
MAX_ROOT_ITERATIONS = 120

_LEFT_EDGE_MSG = (
    "sign already nonpositive at the left edge next to lambda0: "
    "the root would sit at or below lambda0, so no gap level exists here"
)
_CEILING_MSG = (
    "no sign change below lambda_max = {:.6g}: the value stays positive, "
    "so the requested level lies beyond the searched range; reported, not guessed"
)


@dataclass(frozen=True)
class MinMaxResult:
    """One gap eigenvalue with its root-solve provenance.

    residual is ||A z - lambda_k z|| / ||z|| at the lifted pencil vector z;
    iterations counts the evaluations after the left edge (0 for a level
    filled in from an earlier root); mu_k > 0 >= mu_k at the bracket's ends.
    """

    k: int
    lambda_k: float
    multiplicity: int
    residual: float
    iterations: int
    bracket: tuple[float, float]
    status: str = "ok"
    at_ceiling: bool = False


def _root(probe, step, lam0: float, lam_max: float | None,
          converged) -> tuple[float, int, tuple[float, float]]:
    """The sign change above lam0 of a function probed as (value, Newton candidate).

    probe serves the left edge and the bracketing, step the refinement; at
    least one step runs. Once converged(lam, value) holds after a step, or
    the bracket has shrunk to rounding, that step's candidate is returned,
    clamped into the bracket. Returns the root, the evaluations after the
    left edge and the bracket (value > 0 at its left end, <= 0 at its right).
    """
    if lam_max is None:
        lam_max = lam0 + DEFAULT_LAMBDA_MAX_OFFSET
    lo = lam0 + max(LEFT_EDGE_REL, LEFT_EDGE_REL * abs(lam0))
    value, cand = probe(lo)
    if value <= 0.0:
        raise BracketFailure(_LEFT_EDGE_MSG)
    evals, width = 0, 1.0
    while True:
        hi = lam0 + width
        if hi > lam_max:
            raise BracketFailure(_CEILING_MSG.format(lam_max))
        if hi > lo:
            hi_value, hi_cand = probe(hi)
            evals += 1
            if hi_value <= 0.0:
                break
            lo, value, cand = hi, hi_value, hi_cand
        width *= 2.0
    if abs(hi_value) < value:  # start from the end with the smaller |value|
        cand = hi_cand

    for _ in range(MAX_ROOT_ITERATIONS):
        lam = cand if lo < cand < hi else 0.5 * (lo + hi)
        value, cand = step(lam)
        evals += 1
        lo, hi = (lam, hi) if value > 0.0 else (lo, lam)
        if converged(lam, value) or hi - lo <= 4.0 * np.finfo(float).eps * max(1.0, abs(hi)):
            break
    return min(max(cand, lo), hi), evals, (lo, hi)


def energy_of_vector(op: BlockOperator, x: np.ndarray, lam_max: float | None = None) -> float:
    """The unique E > lambda0 with q_E(x, x) = 0."""
    x = np.asarray(x, dtype=float)
    norm2 = float(x @ x)
    if norm2 == 0.0:
        raise ZeroVector("energy_of_vector needs a nonzero vector")

    def newton(e: float) -> tuple[float, float]:
        q, slope = q_value_and_slope(op, e, x)
        return q, e - q / slope

    return _root(newton, newton, cached_lambda0(op), lam_max,
                 lambda e, q: abs(q) <= 1e-12 * norm2 * max(1.0, abs(e)))[0]


def _residual(system: SchurSystem, k: int) -> tuple[float, float]:
    """mu_k at the system's energy e and ||A z - e z|| / ||z|| for z = (x, l_e x).

    x is the k-th pencil vector; A z is formed blockwise, A is never assembled.
    """
    mu, x = system.vector(k)
    y = system.lift(x)
    op, e = system.op, system.e
    upper = op.p @ x + op.c.T @ y - e * x
    lower = op.c @ x + op.amm @ y - e * y
    return mu, math.sqrt(float(upper @ upper + lower @ lower) / float(x @ x + y @ y))


def lambda_k(op: BlockOperator, k: int, tol: float = 1e-10,
             lam_max: float | None = None) -> MinMaxResult:
    """The k-th gap eigenvalue: root of lam -> mu_k(op, lam, k) above lambda0."""
    if not 1 <= k <= op.n_plus:
        raise KOutOfRange(f"k must lie in 1..{op.n_plus}, got {k}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")

    def level(lam: float) -> tuple[float, float]:
        mu = mu_k(op, lam, k)
        return mu, lam + mu

    def rayleigh(lam: float) -> tuple[float, float]:
        mu, x = mu_k_with_vector(op, lam, k)
        y = apply_l(op, lam, x)
        return mu, phi_form(op, 0.0, x, y) / float(x @ x + y @ y)

    lam, evals, bracket = _root(level, rayleigh, cached_lambda0(op), lam_max,
                                lambda lam, mu: abs(mu) <= tol)
    system = build_schur(op, lam)
    return MinMaxResult(k=k, lambda_k=lam, multiplicity=_multiplicity_at(system),
                        residual=_residual(system, k)[1], iterations=evals, bracket=bracket)


def _multiplicity_at(system: SchurSystem) -> int:
    """Count pencil levels within the cluster tolerance of a root.

    Near a root every level moves with slope -1 in lam, so levels within
    1e-8*max(1, |lam|) of zero correspond to eigenvalues within the value
    clustering tolerance of lam.
    """
    band = CLUSTER_RTOL * max(1.0, abs(system.e))
    return max(1, len(system.values_in_band(band)))


def _siblings(op: BlockOperator, res: MinMaxResult, k_max: int,
              tol: float) -> list[MinMaxResult]:
    """Levels after res.k that the same root already solves: |mu_j| <= tol there."""
    siblings: list[MinMaxResult] = []
    system = build_schur(op, res.lambda_k)
    for j in range(res.k + 1, k_max + 1):
        mu_j, residual = _residual(system, j)
        if abs(mu_j) > tol:
            break
        siblings.append(replace(res, k=j, residual=residual, iterations=0))
    return siblings


def gap_spectrum(op: BlockOperator, k_max: int, tol: float = 1e-10,
                 lam_max: float | None = None) -> list[MinMaxResult]:
    """Gap eigenvalues lambda_1 <= ... <= lambda_{k_max} with multiplicities.

    Levels that a previous root already covers (their pencil value at that
    root is below tol) are filled in without a fresh solve. Bracket failures
    are reported per entry with status "bracket_failure" and NaN values.
    Entries matching the largest computed level within the cluster tolerance
    carry at_ceiling=True, since the certified sweep cannot see beyond it.
    """
    if not 1 <= k_max <= op.n_plus:
        raise KOutOfRange(f"k_max must lie in 1..{op.n_plus}, got {k_max}")
    results: dict[int, MinMaxResult] = {}
    k = 1
    while k <= k_max:
        try:
            res = lambda_k(op, k, tol, lam_max)
        except BracketFailure as exc:
            results[k] = MinMaxResult(
                k=k, lambda_k=math.nan, multiplicity=0, residual=math.nan,
                iterations=0, bracket=(math.nan, math.nan),
                status=f"bracket_failure: {exc}",
            )
            k += 1
            continue
        results[k] = res
        siblings = _siblings(op, res, k_max, tol)
        results.update((sib.k, sib) for sib in siblings)
        k += 1 + len(siblings)

    ordered = [results[i] for i in range(1, k_max + 1)]
    solved = [r.lambda_k for r in ordered if r.status == "ok"]
    if solved:
        ceiling = max(solved)
        band = CLUSTER_RTOL * max(1.0, abs(ceiling))
        ordered = [
            r if r.status != "ok" else
            replace(r, at_ceiling=bool(abs(r.lambda_k - ceiling) <= band))
            for r in ordered
        ]
    return ordered


def lambda1_certificate(op: BlockOperator) -> GapData:
    """Gap endpoints (lambda0, lambda1) and whether they certify a gap."""
    lam0 = cached_lambda0(op)
    try:
        lam1 = lambda_k(op, 1, 1e-10).lambda_k
    except BracketFailure as exc:
        return GapData(lambda0=lam0, lambda1=math.nan, diagnostic=str(exc))
    return GapData(lambda0=lam0, lambda1=lam1)
