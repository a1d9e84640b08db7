"""Nonlinear root solves that turn the Schur matrix into gap eigenvalues.

Both solvers find the one sign change above lambda0 of a function that is
positive next to lambda0 and negative past its root, with one loop, _root:
check the sign at the left edge, the first float above schur.gap_edge (the
Schur system's own edge rule), bracket by doubling steps from lambda0 + 1 up
to a ceiling from blockop.spectrum_bound, refine by Newton steps kept inside
the verified bracket. Both refine with one step, _newton: the E-Newton step
e - q/q' on q_e(x, x), whose energy derivative is exactly q' = -||z||^2 for
the lifted z = (x, l_e x).

energy_of_vector finds, for a fixed upper-block vector x, the energy E(x)
with q_E(x, x) = 0, the energy functional of the min-max principle.
lambda_k finds the k-th gap eigenvalue as the sign change of
lam -> kappa_k(lam), the k-th eigenvalue of k_lam. k_lam falls strictly in
lam, with derivative -(I + l.T l), and by Sylvester's law of inertia it has
as many negative eigenvalues as A has in (lambda0, lam) once it is positive
at the left edge, so the level is positive below the eigenvalue and negative
above it. It steps by _newton at the k-th eigenvector x of k_lam; E is
stationary at the root's vector, so the step stays quadratic (the safeguarded
iteration of Voss and Werner for nonlinear eigenproblems with a min-max
characterization). The candidate is A's Rayleigh quotient at z, with
eps*||A|| rounding where kappa carries eps*||K||, since the terms of
q/||z||^2 are bounded by ||p - lam|| and ||b + lam|| (c x = (b + lam) l_lam x):
roots come out near machine precision even when ||K|| is large. A root's
multiplicity is an inertia count, the eigenvalues of A within the cluster
band of it, _count(lam + band) - _count(lam - band), each SchurSystem.count:
on a banded k_e of half-bandwidth w >= 2 the negative pivots of its LDL^T, the
factor the Newton steps' vectors come from too; elsewhere an eigensolve.

gap_spectrum solves each level 1..k_max as its own root, and every level's
_root probes the same left edge and doubling energies. It keeps one
bracketing ladder per call, a cached function from probe energy to the k_max
lowest values kappa there from one eigensolve (SchurSystem.levels), and each
lambda_k reads its kappa_k from it; the Newton steps still solve for their
own level and vector. A standalone lambda_k probes through mu_k.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .blockop import (CLUSTER_RTOL, BlockOperator, GapData, as_real, check_number, cluster_band,
                      lambda0, spectrum_bound)
from .errors import BadSplit, BracketFailure, GapeigError, KOutOfRange, ZeroVector
from .schur import (GAP_EDGE_MARGIN, SchurSystem, build_schur, gap_edge, mu_k, mu_k_with_vector,
                    q_value_and_slope)

MAX_ROOT_ITERATIONS = 120

_LEFT_EDGE_MSG = (
    "sign already nonpositive at the left edge, the first energy above lambda0 + "
    f"{GAP_EDGE_MARGIN:g}*max(1, |lambda0|): the level lies at or below that edge, "
    "or below lambda0"
)
_CEILING_MSG = (
    "no sign change up to {:.6g}: the value stays positive up to the bound "
    "dim*max|a_ij| on lambda_max or the end of float range; reported, not guessed"
)
_NO_LEVEL_MSG = (
    "no_level_in_band: the inertia count finds no eigenvalue of A within "
    f"{CLUSTER_RTOL:g}*max(1, |lambda|) of the root"
)


@dataclass(frozen=True)
class MinMaxResult:
    """One gap eigenvalue with its root-solve provenance.

    residual, ||A z - lambda_k z|| / ||z|| at the lifted eigenvector z of k_lambda,
    is the error bound; multiplicity counts A's eigenvalues within the cluster band
    of lambda_k; iterations counts the evaluations after the left edge, probes
    read from gap_spectrum's shared ladder included; bracket only certifies the
    sign, kappa_k > 0 >= kappa_k at its ends: its right end is often the last
    doubling probe. status is "ok" unless the multiplicity is 0; a gap_spectrum row
    whose solve raised holds the error there instead, with NaN values.
    """

    k: int
    lambda_k: float
    multiplicity: int
    residual: float
    iterations: int
    bracket: tuple[float, float]
    status: str = "ok"


def _root(probe, step, lam0: float, top: float,
          converged) -> tuple[float, int, tuple[float, float]]:
    """The sign change above lam0 of a function probed as (value, Newton candidate).

    probe serves the left edge and the bracketing, step the refinement; at
    least one step runs. The root lies at or below top, a bound on A's spectrum,
    so the first doubling probe past it is lam0 + 1 or under lam0 + 2 (top - lam0):
    the doubling stops past width 2 (top - lam0) + 1, or at a probe beyond float
    range, with a BracketFailure. Once converged(lam, value) holds after a step, or
    the bracket has shrunk to rounding, that step's candidate is returned,
    clamped into the bracket. Returns the root, the evaluations after the
    left edge and the bracket (value > 0 at its left end, <= 0 at its right).
    """
    cap = 2.0 * (top - lam0) + 1.0
    lo = math.nextafter(gap_edge(lam0), math.inf)
    value, cand = probe(lo)
    if value <= 0.0:
        raise BracketFailure(_LEFT_EDGE_MSG)
    evals, width = 0, 1.0
    while True:
        hi = lam0 + width
        if width > cap or not math.isfinite(hi):
            raise BracketFailure(_CEILING_MSG.format(lo))
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


def _newton(op: BlockOperator, e: float, x: np.ndarray) -> tuple[float, float]:
    """q_e(x, x) and the Newton candidate e - q/q' for its root in e: the E-Newton step."""
    q, slope = q_value_and_slope(op, e, x)
    return q, e - q / slope


def energy_of_vector(op: BlockOperator, x: np.ndarray) -> float:
    """The unique E > lambda0 with q_E(x, x) = 0."""
    x = as_real(x, "vector", BadSplit)
    norm2 = float(x @ x)
    if norm2 == 0.0:
        raise ZeroVector("energy_of_vector needs a nonzero vector")

    newton = partial(_newton, op, x=x)
    return _root(newton, newton, lambda0(op), spectrum_bound(op),
                 lambda e, q: abs(q) <= 1e-12 * norm2 * max(1.0, abs(e)))[0]


def _count(op: BlockOperator, e: float, lam0: float) -> int:
    """The nonpositive eigenvalues of k_e, 0 at or below the edge: by Sylvester's law A's
    eigenvalues at or below e past its n_minus lowest, those in (lambda0, e] if k_e > 0 there."""
    if e <= gap_edge(lam0):
        return 0
    return build_schur(op, e).count()


def lambda_k(op: BlockOperator, k: int, tol: float = 1e-10, *,
             levels: Callable[[float], np.ndarray] | None = None) -> MinMaxResult:
    """The k-th gap eigenvalue: root of lam -> kappa_k(lam) = mu_k(op, lam, k) above lambda0.

    levels, if given, is called with each bracketing probe energy and returns at
    least k lowest eigenvalues of k_e there (gap_spectrum's ladder); without it
    every probe is mu_k.
    """
    check_number(k, "k", KOutOfRange, 1, op.n_plus, integer=True)
    check_number(tol, "tol", ValueError, 0, above=True)

    def level(lam: float) -> tuple[float, float]:
        kappa = mu_k(op, lam, k) if levels is None else float(levels(lam)[k - 1])
        return kappa, lam + kappa

    def step(lam: float) -> tuple[float, float]:
        kappa, x = mu_k_with_vector(op, lam, k)
        return kappa, _newton(op, lam, x)[1]

    lam0 = lambda0(op)
    lam, evals, bracket = _root(level, step, lam0, spectrum_bound(op),
                                lambda lam, kappa: abs(kappa) <= tol)
    system = build_schur(op, lam)
    # near a root kappa_j moves as -(lambda_j - lam)||z_j||^2, so a band on kappa is no
    # band on energies: the eigenvalues within blockop's cluster band of lam are counted
    band = cluster_band(lam)
    multiplicity = _count(op, lam + band, lam0) - _count(op, lam - band, lam0)
    return MinMaxResult(k=k, lambda_k=lam, multiplicity=multiplicity,
                        residual=system.residual(system.vector(k)[1]), iterations=evals,
                        bracket=bracket, status="ok" if multiplicity else _NO_LEVEL_MSG)


def _status(exc: GapeigError) -> str:
    """A failed solve's status: the error's name in snake case and its message, such as
    "bracket_failure: ..." or "eig_failure: ..."."""
    return f"{re.sub(r'(?<!^)(?=[A-Z])', '_', type(exc).__name__).lower()}: {exc}"


def gap_spectrum(op: BlockOperator, k_max: int, tol: float = 1e-10) -> list[MinMaxResult]:
    """Gap eigenvalues lambda_1, ..., lambda_{k_max} with multiplicities, one row per k.

    Rows come in k order. Each level is its own root, so the rows of a multiple
    level may differ in the last bits, and their order may invert there: row k + 1
    can read a few ulp below row k. A row's status is "ok", "no_level_in_band: ..."
    (a root with multiplicity 0, its value kept) or, when solving the level raised a
    GapeigError, the error's name in snake case and its message, such as
    "bracket_failure: ..." or "eig_failure: ..." (NaN values): a failure stays in its
    row. The levels share one bracketing ladder, so each probe energy is eigensolved
    once.
    """
    check_number(k_max, "k_max", KOutOfRange, 1, op.n_plus, integer=True)
    # probe energy -> the k_max lowest eigenvalues of k_e there, one eigensolve per energy
    ladder = cache(lambda lam: SchurSystem(op, lam).levels(k_max))
    ordered: list[MinMaxResult] = []
    for k in range(1, k_max + 1):
        try:
            ordered.append(lambda_k(op, k, tol, levels=ladder))
        except GapeigError as exc:
            ordered.append(MinMaxResult(
                k=k, lambda_k=math.nan, multiplicity=0, residual=math.nan,
                iterations=0, bracket=(math.nan, math.nan), status=_status(exc),
            ))
    return ordered


def lambda1_certificate(op: BlockOperator) -> GapData:
    """Gap endpoints (lambda0, lambda1) and whether they certify a gap; solved once per operator.
    A GapeigError while solving them leaves lambda1 NaN (lambda0 too if it raised there),
    with the error's failure status as the diagnostic."""

    def certify() -> GapData:
        lam0 = math.nan
        try:
            lam0 = lambda0(op)
            return GapData(lambda0=lam0, lambda1=lambda_k(op, 1, 1e-10).lambda_k)
        except GapeigError as exc:
            return GapData(lambda0=lam0, lambda1=math.nan, diagnostic=_status(exc))

    return op.remember("lambda1_certificate", certify)
