"""Machine checks of the structural identities behind the gap construction.

Each check compares both sides of an identity and returns a relative residual
(or a margin, for the gap bound); operator_reports lists one operator's rows with
their pass bounds. The two congruence rows at an energy share one computation from
the blocks of one Schur system, and nothing is kept; the inverse formula works on
the assembled matrix. The gap bound reads the oracle's spectrum (a band solve for a
banded operator). The identities hold algebraically, so residuals sit at roundoff;
anything above the stated tolerances means a wiring bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .blockop import BlockOperator, lambda0
from .errors import NoGap, SingularSchur
from .minmax import lambda1_certificate
from .oracle import dense_spectrum
from .schur import build_schur, gap_edge

SINGULAR_RTOL = 1e-12


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one named check: its residual or margin, and the verdict."""

    check: str
    value: float
    passed: bool
    params: dict = field(default_factory=dict)


def _relative(resid: float, scale: float) -> float:
    """resid / scale, where resid <= scale by the triangle inequality: 0 when both are."""
    return float(resid / scale) if resid else 0.0


def _congruence(op: BlockOperator, e: float) -> tuple[float, float]:
    """The residual of A - e*I = R_e from the blocks: the decomposition row's relative
    residual and the extension row's ||A - e*I - R_e|| / max(1, ||A||).

    R_e = U.T diag(k_e, -(b+e)) U with U = [[I, 0], [-l_e, I]]. Its lower-right block
    -(b+e) is amm - e*I to the last bit, so only the upper-left and the two coupling
    blocks of the difference can be nonzero. The relative residual is the larger of
    those blocks' normwise backward errors: each block's residual over the sum of the
    norms of the terms it compares.
    """
    system, norm, root2 = build_schur(op, e), np.linalg.norm, math.sqrt(2.0)
    bpe = e * np.eye(op.n_minus) - op.amm  # the shift first: e*l_e - amm@l_e cancels near lambda0
    bpe_le = bpe @ system.l_e
    p_e = op.p - e * np.eye(op.n_plus)
    lifted = system.l_e.T @ bpe_le
    upper = norm(p_e - (system.k_e - lifted))
    coupling = norm(op.c - bpe_le)
    relative = max(_relative(upper, norm(p_e) + norm(system.k_e) + norm(lifted)),
                   _relative(coupling, norm(op.c) + norm(bpe_le)))
    full_norm = math.hypot(norm(op.p), root2 * norm(op.c), norm(op.amm))
    return relative, math.hypot(upper, root2 * coupling) / max(1.0, full_norm)


def decomposition_residual(op: BlockOperator, e: float) -> float:
    """Relative residual of the congruence A - e*I = R_e, block by block.

    The larger of ||p - e - k_e + l_e.T (e - amm) l_e|| over
    ||p - e|| + ||k_e|| + ||l_e.T (e - amm) l_e|| and ||c - (e - amm) l_e|| over
    ||c|| + ||(e - amm) l_e||: a relative error at every energy, where a norm of
    A - e*I would be dominated by e*I far above lambda0.
    """
    return _congruence(op, e)[0]


def krein_gap_check(op: BlockOperator) -> VerificationReport:
    """Distance of the gap midpoint to the spectrum versus the half-gap bound.

    The smallest singular value of A - mid*I, min |eig(A) - mid| over the oracle's
    spectrum of the symmetric A, must reach at least (lambda1 - lambda0)/2.
    """
    cert = lambda1_certificate(op)
    if not cert.valid:
        raise NoGap(cert.diagnostic or
                    f"no certified gap: lambda0={cert.lambda0}, lambda1={cert.lambda1}")
    mid = 0.5 * (cert.lambda0 + cert.lambda1)
    half_gap = 0.5 * (cert.lambda1 - cert.lambda0)
    smallest = float(np.abs(dense_spectrum(op) - mid).min())
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
        },
    )


def extension_consistency(op: BlockOperator, e: float) -> float:
    """Distance between the reassembled extension R_e + e*I and A over max(1, ||A||)."""
    return _congruence(op, e)[1]


def inverse_formula_check(op: BlockOperator, e: float) -> float:
    """Residual ||R_e^{-1}(A - e*I) - I||_F of the three-factor inverse formula.

    Valid only strictly inside the gap, where k_e is invertible; at or
    beyond lambda1 the Schur matrix is singular and SingularSchur is raised.
    """
    system = build_schur(op, e)
    kappa1 = system.value(1)
    if kappa1 <= SINGULAR_RTOL * max(1.0, abs(e)):
        raise SingularSchur(
            f"k_e singular or indefinite at e={e}: smallest eigenvalue {kappa1:.3e}"
        )
    # R_e^{-1} = U^{-1} diag(k_e^{-1}, -(b+e)^{-1}) U^{-T} is applied to A - e*I one
    # factor at a time, by solves that overwrite its block rows; no inverse is formed.
    # the guard gives k_e >= kappa1 * I > 0, so a general solve needs no
    # definiteness check of its own
    n, diag = op.n_plus, np.arange(op.dim)
    rows = op.assembled()
    rows[diag, diag] -= e
    upper, lower = rows[:n], rows[n:]
    upper += system.l_e.T @ lower  # U^{-T}
    try:
        upper[:] = np.linalg.solve(system.k_e, upper)
    except np.linalg.LinAlgError as exc:
        raise SingularSchur(f"k_e singular at e={e}: {exc}") from exc
    lower[:] = system.l_e @ upper - system.solve_lower(lower)  # -(b+e)^{-1}, then U^{-1}
    rows[diag, diag] -= 1.0
    return float(np.linalg.norm(rows))


def sandwich_report(op: BlockOperator, seed: int) -> list[VerificationReport]:
    """Two-sided energy-monotonicity and norm-chain inequalities over 50 samples.

    The energies sit at lambda0 + max(1, |lambda0|) * 10^U(-2, 2), above
    gap_edge(lambda0), which grows with the same scale.
    """
    n_samples = 50
    rng = np.random.default_rng(seed)
    lam0 = lambda0(op)
    s = max(1.0, abs(lam0))
    worst_sandwich = -math.inf
    worst_chain = -math.inf
    for _ in range(n_samples):
        x = rng.standard_normal(op.n_plus)
        e_lo, e_hi = np.sort(lam0 + s * 10.0 ** rng.uniform(-2.0, 2.0, 2))
        q_lo, slope_lo = build_schur(op, e_lo).form(x)
        q_hi, slope_hi = build_schur(op, e_hi).form(x)
        norm_lo_sq, norm_hi_sq = -slope_lo, -slope_hi
        q_scale = max(1.0, abs(q_lo), abs(q_hi))
        gap = e_hi - e_lo
        lower = q_hi + gap * norm_hi_sq - q_lo
        upper = q_lo - (q_hi + gap * norm_lo_sq)
        worst_sandwich = max(worst_sandwich, lower / q_scale, upper / q_scale)

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
    return [VerificationReport(check, float(worst), bool(worst <= 1e-10),
                               {"n_samples": n_samples, "seed": seed})
            for check, worst in (("sandwich", worst_sandwich), ("norm_chain", worst_chain))]


def e_samples(op: BlockOperator, lambda1: float | None = None) -> list[float]:
    """Energies for identity checks: lambda0 plus five log-spaced offsets 10^-3 .. 10^3
    times max(1, |lambda0|), plus the gap midpoint when lambda1 is known, each kept only
    above gap_edge(lambda0), where the Schur system is formed."""
    lam0 = lambda0(op)
    points = [lam0 + max(1.0, abs(lam0)) * offset for offset in np.logspace(-3.0, 3.0, 5)]
    if lambda1 is not None and np.isfinite(lambda1) and lambda1 > lam0:
        points.append(0.5 * (lam0 + lambda1))
    return [e for e in points if e > gap_edge(lam0)]


def gap_fractions(lam0: float, lam1: float) -> list[float]:
    """Energies at five fractions of the gap (lambda0, lambda1), kept above gap_edge(lambda0)."""
    points = [lam0 + f * (lam1 - lam0) for f in (1e-3, 1e-2, 1e-1, 0.5, 0.9)]
    return [e for e in points if e > gap_edge(lam0)]


def operator_reports(op: BlockOperator, model: str, seed: int) -> list[VerificationReport]:
    """Every identity row of one operator, with its pass bound: the gap certificate
    (alone without a certified gap), the two congruence rows at each e_samples energy,
    the inverse formula at each gap fraction, the Krein bound, and the sampled sandwich
    and norm-chain rows, which carry no model."""
    def at(e: float, check: str, value: float, bound: float) -> VerificationReport:
        return VerificationReport(check, value, value <= bound, {"model": model, "e": e})

    cert = lambda1_certificate(op)
    reports = [VerificationReport(
        "gap_certificate", cert.lambda1 - cert.lambda0, cert.valid,
        {"model": model, "lambda0": cert.lambda0, "lambda1": cert.lambda1,
         "diagnostic": cert.diagnostic},
    )]
    if not cert.valid:
        return reports
    for e in e_samples(op, cert.lambda1):
        relative, extension = _congruence(op, e)
        reports.append(at(e, "decomposition", relative, 1e-11))
        reports.append(at(e, "extension_consistency", extension, 1e-11))
    for e in gap_fractions(cert.lambda0, cert.lambda1):
        reports.append(at(e, "inverse_formula", inverse_formula_check(op, e), 1e-10))
    krein = krein_gap_check(op)
    reports.append(replace(krein, params={**krein.params, "model": model}))
    return reports + sandwich_report(op, seed)
