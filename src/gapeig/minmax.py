"""Nonlinear root solves that turn the Schur pencil into gap eigenvalues.

Both solvers find the one sign change above lambda0 of a function that is
positive next to lambda0 and negative past its root, with one loop, _root:
check the sign at the left edge, bracket by doubling steps from
lambda0 + 1, refine by Newton steps kept inside the verified bracket. Both
refine with one step, _newton: the E-Newton step e - q/q' on q_e(x, x), whose
energy derivative is exactly q' = -||z||^2 for the lifted z = (x, l_e x).

energy_of_vector finds, for a fixed upper-block vector x, the energy E(x)
with q_E(x, x) = 0, the energy functional of the min-max principle.
lambda_k finds the k-th gap eigenvalue as the sign change of lam -> mu_k(lam):
an inertia count makes the level positive below the eigenvalue and negative
above it. Coming off lambda0 the level rises from zero, so bracketing goes by
sign, never by value. It steps by _newton at the k-th pencil vector x: the
candidate lam + q/||z||^2 equals lam + mu_k(lam) exactly (q = mu_k x.T M x,
||z||^2 = x.T M x), so the level crosses zero with slope -1. It carries
eps*||A|| rounding where mu carries eps*||K||, since the terms of q/||z||^2
are bounded by ||p - lam|| and ||b + lam|| (c x = (b + lam) l_lam x): roots
come out near machine precision even when ||K|| is large.

gap_spectrum solves its levels one by one, and every level's _root probes
the same left edge and doubling energies. It keeps one bracketing ladder per
call, probe energy -> the k_max lowest pencil values there from one
eigensolve (SchurSystem.levels), and each lambda_k reads its mu_k from it;
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
from .schur import SchurSystem, build_schur, mu_k, mu_k_with_vector, q_value_and_slope

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

    residual, ||A z - lambda_k z|| / ||z|| at the lifted pencil vector z, is the
    error bound; iterations counts the evaluations after the left edge, probes
    read from gap_spectrum's shared ladder included (0 for a level filled in
    from an earlier root); bracket only certifies the sign,
    mu_k > 0 >= mu_k at its ends: its right end is often the last doubling probe.
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


class _Ladder(dict):
    """Probe energy -> the m lowest pencil values there, each row one eigensolve on first read."""

    def __init__(self, op: BlockOperator, m: int) -> None:
        super().__init__()
        self.op, self.m = op, m

    def __missing__(self, lam: float) -> np.ndarray:
        row = self[lam] = SchurSystem(self.op, lam).levels(self.m)
        return row


def lambda_k(op: BlockOperator, k: int, tol: float = 1e-10, *,
             levels: Mapping[float, np.ndarray] | None = None) -> MinMaxResult:
    """The k-th gap eigenvalue: root of lam -> mu_k(op, lam, k) above lambda0.

    levels, if given, maps each bracketing probe energy to at least k lowest
    pencil values there (gap_spectrum's ladder); without it every probe is mu_k.
    """
    if not 1 <= k <= op.n_plus:
        raise KOutOfRange(f"k must lie in 1..{op.n_plus}, got {k}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")

    def level(lam: float) -> tuple[float, float]:
        mu = mu_k(op, lam, k) if levels is None else float(levels[lam][k - 1])
        return mu, lam + mu

    def step(lam: float) -> tuple[float, float]:
        mu, x = mu_k_with_vector(op, lam, k)
        return mu, _newton(op, lam, x)[1]

    lam, evals, bracket = _root(level, step, lambda0(op),
                                lambda lam, mu: abs(mu) <= tol)
    system = build_schur(op, lam)
    # near a root every level moves with slope -1 in lam, so levels within
    # CLUSTER_RTOL*max(1, |lam|) of zero are eigenvalues within the value clustering tolerance
    band = CLUSTER_RTOL * max(1.0, abs(lam))
    return MinMaxResult(k=k, lambda_k=lam, multiplicity=max(1, len(system.values_in_band(band))),
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
        # levels k+1 .. k+m-1 of a root of multiplicity m, up to the first |mu_j| > tol;
        # the guard stops the fill at the cluster's end when the band also holds a level below k
        last = min(k_max, k + res.multiplicity - 1)
        if last > k:
            system = build_schur(op, res.lambda_k)
            for j in range(k + 1, last + 1):
                mu_j, x = system.vector(j)
                if abs(mu_j) > tol:
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
