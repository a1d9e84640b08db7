"""Machine checks of the structural identities behind the gap construction.

Each check assembles both sides of an identity at matrix scale and returns a
relative residual (or a margin, for the gap bound). The identities hold
algebraically, so residuals sit at roundoff; anything above the stated
tolerances means a wiring bug, not a math failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .blockop import BlockOperator
from .errors import NoGap, SingularSchur
from .minmax import lambda1_certificate
from .schur import build_schur, cached_lambda0

SINGULAR_RTOL = 1e-12


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one named check: its residual or margin, and the verdict."""

    check: str
    value: float
    passed: bool
    params: dict = field(default_factory=dict)


def decomposition_residual(op: BlockOperator, e: float) -> float:
    """Residual of the congruence A - e*I = U.T diag(k_e, -(b+e)) U, U = [[I,0],[-l_e,I]]."""
    system = build_schur(op, e)
    full = op.assembled()
    shifted = full - e * np.eye(op.dim)
    u = np.block([
        [np.eye(op.n_plus), np.zeros((op.n_plus, op.n_minus))],
        [-system.l_e, np.eye(op.n_minus)],
    ])
    middle = np.block([
        [system.k_e, np.zeros((op.n_plus, op.n_minus))],
        [np.zeros((op.n_minus, op.n_plus)), op.amm - e * np.eye(op.n_minus)],
    ])
    resid = np.linalg.norm(shifted - u.T @ middle @ u)
    return float(resid / max(1.0, np.linalg.norm(shifted)))


def krein_gap_check(op: BlockOperator, n_samples: int = 200,
                    seed: int = 0) -> VerificationReport:
    """Distance of the gap midpoint to the spectrum versus the half-gap bound.

    The smallest singular value of A - mid*I must reach at least
    (lambda1 - lambda0)/2; random quotients ||(A - mid) z||/||z|| can only
    sit above that singular value.
    """
    cert = lambda1_certificate(op)
    if not cert.valid:
        raise NoGap(cert.diagnostic or
                    f"no certified gap: lambda0={cert.lambda0}, lambda1={cert.lambda1}")
    mid = 0.5 * (cert.lambda0 + cert.lambda1)
    half_gap = 0.5 * (cert.lambda1 - cert.lambda0)
    shifted = op.assembled() - mid * np.eye(op.dim)
    smallest = float(sla.svdvals(shifted)[-1])
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((op.dim, max(1, n_samples)))
    quotients = np.linalg.norm(shifted @ z, axis=0) / np.linalg.norm(z, axis=0)
    margin = smallest - half_gap
    tol = 1e-10 * max(1.0, abs(cert.lambda1))
    return VerificationReport(
        check="krein_gap",
        value=margin,
        passed=bool(margin >= -tol),
        params={
            "mid": mid,
            "lambda0": cert.lambda0,
            "lambda1": cert.lambda1,
            "half_gap": half_gap,
            "smallest_singular_value": smallest,
            "sampled_min_quotient": float(quotients.min()),
            "n_samples": int(n_samples),
        },
    )


def extension_consistency(op: BlockOperator, e: float) -> float:
    """Relative distance between the reassembled extension R_e + e*I and A.

    R_e maps (x, y) to (k_e x + l_e.T (b+e)(y - l_e x), -(b+e)(y - l_e x));
    assembling it on the standard basis and adding e*I must reproduce A.
    """
    system = build_schur(op, e)
    bpe = -op.amm + e * np.eye(op.n_minus)
    bpe_le = bpe @ system.l_e
    r_e = np.block([
        [system.k_e - system.l_e.T @ bpe_le, system.l_e.T @ bpe],
        [bpe_le, -bpe],
    ])
    full = op.assembled()
    resid = np.linalg.norm(r_e + e * np.eye(op.dim) - full)
    return float(resid / max(1.0, np.linalg.norm(full)))


def inverse_formula_check(op: BlockOperator, e: float) -> float:
    """Residual ||R_e^{-1}(A - e*I) - I||_F of the three-factor inverse formula.

    Valid only strictly inside the gap, where k_e is invertible; at or
    beyond lambda1 the Schur matrix is singular and SingularSchur is raised.
    """
    system = build_schur(op, e)
    mu1 = system.value(1)
    if mu1 <= SINGULAR_RTOL * max(1.0, abs(e)):
        raise SingularSchur(
            f"k_e singular or indefinite at e={e}: smallest pencil value {mu1:.3e}"
        )
    kinv = sla.inv(system.k_e, check_finite=False)
    kinv = (kinv + kinv.T) / 2.0
    bpe_inv = sla.inv(-op.amm + e * np.eye(op.n_minus), check_finite=False)
    kinv_lt = kinv @ system.l_e.T
    r_inv = np.block([
        [kinv, kinv_lt],
        [kinv_lt.T, system.l_e @ kinv_lt - bpe_inv],
    ])
    shifted = op.assembled() - e * np.eye(op.dim)
    return float(np.linalg.norm(r_inv @ shifted - np.eye(op.dim)))


def sandwich_report(op: BlockOperator, seed: int,
                    n_samples: int = 50) -> list[VerificationReport]:
    """Sampled two-sided energy-monotonicity and norm-chain inequalities."""
    rng = np.random.default_rng(seed)
    lam0 = cached_lambda0(op)
    worst_sandwich = -math.inf
    worst_chain = -math.inf
    for _ in range(n_samples):
        x = rng.standard_normal(op.n_plus)
        e_lo, e_hi = np.sort(lam0 + 10.0 ** rng.uniform(-2.0, 2.0, 2))
        if e_hi - e_lo < 1e-12:
            e_hi = e_lo + 1e-6
        q_lo, slope_lo = build_schur(op, e_lo).form(x)
        q_hi, slope_hi = build_schur(op, e_hi).form(x)
        norm_lo_sq, norm_hi_sq = -slope_lo, -slope_hi
        scale = max(1.0, abs(q_lo), abs(q_hi))
        gap = e_hi - e_lo
        lower = q_hi + gap * norm_hi_sq - q_lo
        upper = q_lo - (q_hi + gap * norm_lo_sq)
        worst_sandwich = max(worst_sandwich, lower / scale, upper / scale)

        norm = math.sqrt(float(x @ x))
        norm_hi = math.sqrt(norm_hi_sq)
        norm_lo = math.sqrt(norm_lo_sq)
        bound = (e_hi - lam0) / (e_lo - lam0) * norm_hi
        nscale = max(1.0, norm_lo)
        worst_chain = max(
            worst_chain,
            (norm - norm_hi) / nscale,
            (norm_hi - norm_lo) / nscale,
            (norm_lo - bound) / nscale,
        )
    return [
        VerificationReport("sandwich", worst_sandwich, worst_sandwich <= 1e-10,
                           {"n_samples": n_samples, "seed": seed}),
        VerificationReport("norm_chain", worst_chain, worst_chain <= 1e-10,
                           {"n_samples": n_samples, "seed": seed}),
    ]


def e_samples(op: BlockOperator, lambda1: float | None = None) -> list[float]:
    """Energies for identity checks: five log-spaced offsets into (lambda0, lambda0+1e3],
    plus the gap midpoint when lambda1 is known."""
    lam0 = cached_lambda0(op)
    points = [lam0 + offset for offset in np.logspace(-3.0, 3.0, 5)]
    if lambda1 is not None and np.isfinite(lambda1) and lambda1 > lam0:
        points.append(0.5 * (lam0 + lambda1))
    return points


def gap_fractions(lam0: float, lam1: float,
                  fracs: tuple[float, ...] = (1e-3, 1e-2, 1e-1, 0.5, 0.9)) -> list[float]:
    """Energies strictly inside (lambda0, lambda1) at the given gap fractions."""
    return [lam0 + f * (lam1 - lam0) for f in fracs]
