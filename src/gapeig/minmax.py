"""Nonlinear root solves that turn the Schur matrix into gap eigenvalues.

Both solvers find the one sign change above lambda0 of a function that is
positive next to lambda0 and negative past its root, with one loop, _root:
check the sign at the left edge, bracket by doubling steps from
lambda0 + 1, refine by Newton steps kept inside the verified bracket. Both
refine with one step, _newton: the E-Newton step e - q/q' on q_e(x, x), whose
energy derivative is exactly q' = -||z||^2 for the lifted z = (x, l_e x).

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
band of it, _count(lam + band) - _count(lam - band).

gap_spectrum solves its levels one by one, and every level's _root probes
the same left edge and doubling energies. It keeps one bracketing ladder per
call, probe energy -> the k_max lowest values kappa there from one
eigensolve (SchurSystem.levels), and each lambda_k reads its kappa_k from it;
the Newton steps still solve for their own level and vector. A standalone
lambda_k probes through mu_k.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .blockop import BlockOperator, GapData, lambda0
from .errors import BracketFailure, KOutOfRange, ZeroVector
from .oracle import CLUSTER_RTOL
from .schur import (GAP_EDGE_MARGIN, SchurSystem, build_schur, mu_k, mu_k_with_vector,
                    q_value_and_slope)

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

    residual, ||A z - lambda_k z|| / ||z|| at the lifted eigenvector z of k_lambda,
    is the error bound; multiplicity counts A's eigenvalues within the cluster band
    of lambda_k; iterations counts the evaluations after the left edge, probes
    read from gap_spectrum's shared ladder included (0 for a level filled in
    from an earlier root); bracket only certifies the sign,
    kappa_k > 0 >= kappa_k at its ends: its right end is often the last doubling probe.
    """

    k: int
    lambda_k: float
    multiplicity: int
    residual: float
    iterations: int
    bracket: tuple[float, float]
    status: str = "ok"


def _root(probe, step, lam0: float, converged) -> tuple[float, int, tuple[float, float]]:
    """The sign change above lam0 of a function probed as (value, Newton candidate).

    probe serves the left edge and the bracketing, step the refinement; at
    least one step runs. Once converged(lam, value) holds after a step, or
    the bracket has shrunk to rounding, that step's candidate is returned,
    clamped into the bracket. Returns the root, the evaluations after the
    left edge and the bracket (value > 0 at its left end, <= 0 at its right).
    """
    ceiling = lam0 + DEFAULT_LAMBDA_MAX_OFFSET
    lo = lam0 + max(LEFT_EDGE_REL, LEFT_EDGE_REL * abs(lam0))
    value, cand = probe(lo)
    if value <= 0.0:
        raise BracketFailure(_LEFT_EDGE_MSG)
    evals, width = 0, 1.0
    while True:
        hi = lam0 + width
        if hi > ceiling:
            raise BracketFailure(_CEILING_MSG.format(ceiling))
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
    x = np.asarray(x, dtype=float)
    norm2 = float(x @ x)
    if norm2 == 0.0:
        raise ZeroVector("energy_of_vector needs a nonzero vector")

    newton = partial(_newton, op, x=x)
    return _root(newton, newton, lambda0(op),
                 lambda e, q: abs(q) <= 1e-12 * norm2 * max(1.0, abs(e)))[0]


def _count(op: BlockOperator, e: float, lam0: float) -> int:
    """The nonpositive eigenvalues of k_e, 0 at or below the edge: by Sylvester's law A's
    eigenvalues at or below e past its n_minus lowest, those in (lambda0, e] if k_e > 0 there."""
    if e <= lam0 + GAP_EDGE_MARGIN:
        return 0
    return len(build_schur(op, e).values_in(-math.inf, 0.0))


class _Ladder(dict):
    """Probe energy -> the m lowest eigenvalues of k_e there, one eigensolve on first read."""

    def __init__(self, op: BlockOperator, m: int) -> None:
        super().__init__()
        self.op, self.m = op, m

    def __missing__(self, lam: float) -> np.ndarray:
        row = self[lam] = SchurSystem(self.op, lam).levels(self.m)
        return row


def lambda_k(op: BlockOperator, k: int, tol: float = 1e-10, *,
             levels: Mapping[float, np.ndarray] | None = None) -> MinMaxResult:
    """The k-th gap eigenvalue: root of lam -> kappa_k(lam) = mu_k(op, lam, k) above lambda0.

    levels, if given, maps each bracketing probe energy to at least k lowest
    eigenvalues of k_e there (gap_spectrum's ladder); without it every probe is mu_k.
    """
    if not 1 <= k <= op.n_plus:
        raise KOutOfRange(f"k must lie in 1..{op.n_plus}, got {k}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol}")

    def level(lam: float) -> tuple[float, float]:
        kappa = mu_k(op, lam, k) if levels is None else float(levels[lam][k - 1])
        return kappa, lam + kappa

    def step(lam: float) -> tuple[float, float]:
        kappa, x = mu_k_with_vector(op, lam, k)
        return kappa, _newton(op, lam, x)[1]

    lam0 = lambda0(op)
    lam, evals, bracket = _root(level, step, lam0, lambda lam, kappa: abs(kappa) <= tol)
    system = build_schur(op, lam)
    # near a root kappa_j moves as -(lambda_j - lam)||z_j||^2, so a band on kappa is no
    # band on energies: the eigenvalues within CLUSTER_RTOL*max(1, |lam|) of lam are counted
    band = CLUSTER_RTOL * max(1.0, abs(lam))
    multiplicity = _count(op, lam + band, lam0) - _count(op, lam - band, lam0)
    return MinMaxResult(k=k, lambda_k=lam, multiplicity=max(1, multiplicity),
                        residual=system.residual(system.vector(k)[1]), iterations=evals,
                        bracket=bracket)


def gap_spectrum(op: BlockOperator, k_max: int, tol: float = 1e-10) -> list[MinMaxResult]:
    """Gap eigenvalues lambda_1 <= ... <= lambda_{k_max} with multiplicities.

    A root of multiplicity m also carries the next m-1 levels; those within tol
    at the root are filled in without a fresh solve (iterations 0). Bracket failures
    are reported per entry with status "bracket_failure" and NaN values. The
    levels share one bracketing ladder, so each probe energy is eigensolved once.
    """
    if not 1 <= k_max <= op.n_plus:
        raise KOutOfRange(f"k_max must lie in 1..{op.n_plus}, got {k_max}")
    ladder = _Ladder(op, k_max)
    ordered: list[MinMaxResult] = []
    while len(ordered) < k_max:
        k = len(ordered) + 1
        try:
            res = lambda_k(op, k, tol, levels=ladder)
        except BracketFailure as exc:
            ordered.append(MinMaxResult(
                k=k, lambda_k=math.nan, multiplicity=0, residual=math.nan,
                iterations=0, bracket=(math.nan, math.nan),
                status=f"bracket_failure: {exc}",
            ))
            continue
        ordered.append(res)
        # levels k+1 .. k+m-1 of a root of multiplicity m, up to the first |kappa_j| > tol;
        # the guard stops the fill at the cluster's end when the band also holds a level below k
        last = min(k_max, k + res.multiplicity - 1)
        if last > k:
            system = build_schur(op, res.lambda_k)
            for j in range(k + 1, last + 1):
                kappa_j, x = system.vector(j)
                if abs(kappa_j) > tol:
                    break
                ordered.append(replace(res, k=j, residual=system.residual(x), iterations=0))
    return ordered


def lambda1_certificate(op: BlockOperator) -> GapData:
    """Gap endpoints (lambda0, lambda1) and whether they certify a gap; solved once per operator."""

    def certify() -> GapData:
        lam0 = lambda0(op)
        try:
            lam1 = lambda_k(op, 1, 1e-10).lambda_k
        except BracketFailure as exc:
            return GapData(lambda0=lam0, lambda1=math.nan, diagnostic=str(exc))
        return GapData(lambda0=lam0, lambda1=lam1)

    return op.remember("lambda1_certificate", certify)
