"""Nonlinear root solves that turn the Schur pencil into gap eigenvalues.

Two solvers live here. energy_of_vector finds, for a fixed upper-block
vector x, the unique energy E above lambda0 with q_E(x, x) = 0; the energy
derivative of q is exactly -(||x||^2 + ||l_E x||^2), so Newton steps with an
exact slope, safeguarded by bisection inside a verified sign-change bracket.
lambda_k finds the k-th gap eigenvalue as the unique sign change of
lam -> mu_k(lam): an inertia count makes the level positive below the
eigenvalue and negative above it, and it crosses with slope exactly -1
(the pencil satisfies dK/dlam = -M). The level is monotone only past the
root; coming off lambda0 it rises from zero, so bracketing goes by sign,
never by value. Roots are bracketed by doubling steps, refined by
safeguarded secant, and finally polished by one Rayleigh quotient of the
assembled operator at the lifted eigenvector x + l_lam x. The polish is what
delivers eigenvalues to near machine precision even when ||K|| is large:
mu evaluations carry eps*||K|| noise, the block Rayleigh quotient only
eps*||A||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .blockop import BlockOperator, GapData
from .errors import BracketFailure, KOutOfRange, ZeroVector
from .oracle import CLUSTER_RTOL
from .schur import (
    GAP_EDGE_MARGIN,
    SchurSystem,
    build_schur,
    cached_lambda0,
    mu_k,
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
    """One gap eigenvalue with its root-solve provenance."""

    k: int
    lambda_k: float
    multiplicity: int
    residual: float
    iterations: int
    bracket: tuple[float, float]
    status: str = "ok"
    at_ceiling: bool = False


def _left_edge(lam0: float) -> float:
    return lam0 + max(LEFT_EDGE_REL, LEFT_EDGE_REL * abs(lam0))


def energy_of_vector(op: BlockOperator, x: np.ndarray, lam_max: float | None = None) -> float:
    """The unique E > lambda0 with q_E(x, x) = 0."""
    x = np.asarray(x, dtype=float)
    norm2 = float(x @ x)
    if norm2 == 0.0:
        raise ZeroVector("energy_of_vector needs a nonzero vector")
    lam0 = cached_lambda0(op)
    if lam_max is None:
        lam_max = lam0 + DEFAULT_LAMBDA_MAX_OFFSET

    lo = _left_edge(lam0)
    q_lo, slope_lo = q_value_and_slope(op, lo, x)
    if q_lo <= 0.0:
        raise BracketFailure(_LEFT_EDGE_MSG)
    # double the step until the form turns negative
    step = 1.0
    while True:
        probe = lam0 + step
        if probe > lam_max:
            raise BracketFailure(_CEILING_MSG.format(lam_max))
        q_probe, slope_probe = q_value_and_slope(op, probe, x)
        if q_probe < 0.0:
            hi = probe
            break
        lo, q_lo, slope_lo = probe, q_probe, slope_probe
        step *= 2.0

    # Newton from the positive side; q is convex and decreasing in E, so the
    # iterates approach the root monotonically and the bisection safeguard
    # only fires on roundoff stalls
    e, q_e, slope = lo, q_lo, slope_lo
    for _ in range(MAX_ROOT_ITERATIONS):
        if abs(q_e) <= 1e-12 * norm2 * max(1.0, abs(e)):
            return e
        candidate = e - q_e / slope
        if not lo < candidate < hi:
            candidate = 0.5 * (lo + hi)
        q_c, slope_c = q_value_and_slope(op, candidate, x)
        if q_c > 0.0:
            lo = candidate
        else:
            hi = candidate
        e, q_e, slope = candidate, q_c, slope_c
        if hi - lo <= 4.0 * np.finfo(float).eps * max(1.0, abs(hi)):
            return e
    return e


def _bracket_root(op: BlockOperator, k: int, lo: float, mu_lo: float, lam0: float,
                  lam_max: float) -> tuple[float, float, float, float, int]:
    """Double the step from lambda0 + 1 until mu_k changes sign."""
    evals = 0
    step = 1.0
    while True:
        probe = lam0 + step
        if probe > lam_max:
            raise BracketFailure(_CEILING_MSG.format(lam_max))
        if probe > lo:
            mu_probe = mu_k(op, probe, k)
            evals += 1
            if mu_probe < 0.0:
                return lo, mu_lo, probe, mu_probe, evals
            lo, mu_lo = probe, mu_probe
        step *= 2.0


def _refine_root(op: BlockOperator, k: int, lo: float, mu_lo: float, hi: float,
                 mu_hi: float, tol: float) -> tuple[float, float, int, float, float]:
    """Safeguarded secant iteration on a verified sign-change bracket."""
    a, fa, b, fb = lo, mu_lo, hi, mu_hi
    lam, mu = (a, fa) if abs(fa) <= abs(fb) else (b, fb)
    prev_lam, prev_mu = (b, fb) if lam == a else (a, fa)
    iterations = 0
    for _ in range(MAX_ROOT_ITERATIONS):
        if abs(mu) <= tol:
            break
        width = b - a
        if width <= 4.0 * np.finfo(float).eps * max(1.0, abs(b)):
            break
        denom = mu - prev_mu
        if denom != 0.0:
            candidate = lam - mu * (lam - prev_lam) / denom
        else:
            candidate = 0.5 * (a + b)
        if not a < candidate < b:
            candidate = 0.5 * (a + b)
        mu_c = mu_k(op, candidate, k)
        iterations += 1
        if mu_c > 0.0:
            a, fa = candidate, mu_c
        else:
            b, fb = candidate, mu_c
        prev_lam, prev_mu = lam, mu
        lam, mu = candidate, mu_c
    return lam, mu, iterations, a, b


def _polish_root(op: BlockOperator, lam: float, k: int) -> float:
    """Rayleigh quotient of the assembled operator at the lifted pencil vector.

    With x the pencil eigenvector at lam and z = x + l_lam x, the quotient
    equals lam + mu_k(lam) exactly, and its floating-point error scales with
    ||A|| instead of ||K_lam||. A quotient at or below the pencil's edge rule
    is not a valid energy; lam is kept then.
    """
    system = build_schur(op, lam)
    _, x = system.vector(k)
    y = system.lift(x)
    rho = phi_form(op, 0.0, x, y) / float(x @ x + y @ y)
    return rho if rho > cached_lambda0(op) + GAP_EDGE_MARGIN else lam


def lambda_k(op: BlockOperator, k: int, tol: float = 1e-10,
             lam_max: float | None = None) -> MinMaxResult:
    """The k-th gap eigenvalue: root of lam -> mu_k(op, lam, k) above lambda0."""
    if not 1 <= k <= op.n_plus:
        raise KOutOfRange(f"k must lie in 1..{op.n_plus}, got {k}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    lam0 = cached_lambda0(op)
    if lam_max is None:
        lam_max = lam0 + DEFAULT_LAMBDA_MAX_OFFSET

    lo = _left_edge(lam0)
    mu_lo = mu_k(op, lo, k)
    if mu_lo <= 0.0:
        raise BracketFailure(_LEFT_EDGE_MSG)
    lo, mu_lo, hi, mu_hi, n_bracket = _bracket_root(op, k, lo, mu_lo, lam0, lam_max)
    lam, _, n_refine, a, b = _refine_root(op, k, lo, mu_lo, hi, mu_hi, tol)
    lam = _polish_root(op, lam, k)
    system = build_schur(op, lam)
    return MinMaxResult(
        k=k,
        lambda_k=lam,
        multiplicity=_multiplicity_at(system),
        residual=abs(system.value(k)),
        iterations=n_bracket + n_refine + 1,
        bracket=(a, b),
    )


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
        mu_j = system.value(j)
        if abs(mu_j) > tol:
            break
        siblings.append(replace(res, k=j, residual=abs(mu_j), iterations=0))
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
