"""Machine checks of the structural identities behind the gap construction.

Each check compares both sides of an identity and returns a relative residual
(or a margin, for the gap bound); operator_reports lists one operator's rows with
their pass bounds. The two congruence rows at an energy share one computation from
the blocks of one Schur system, and nothing is kept. Every term is in the storage
of the system's products, which _blocks alone chooses: CSR on the banded path, where
the congruence costs O(nnz) and neither check holds a dim x dim matrix; dense on the
dense path. The inverse formula has one loop for both: it stacks A - e*I from the
blocks and reads it COLUMN_BLOCK columns at a time when banded, all dim columns in
one block when dense. The gap bound reads the oracle's eigenvalues around the gap (a
window solve for a banded operator), the sandwich and norm chain lowest eigenvalues; no
check draws a random number. The identities hold algebraically, so residuals sit at
roundoff; anything above the stated tolerances means a wiring bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

from .blockop import BlockOperator, block_norm, dense, lambda0, mul, nonzeros, sum_squares
from .errors import NoGap, SingularSchur
from .minmax import lambda1_certificate
from .oracle import dense_spectrum
from .schur import SchurSystem, build_schur, gap_edge

SINGULAR_RTOL = 1e-12
COLUMN_BLOCK = 64  # columns of A - e*I per block of the banded inverse formula


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


def _blocks(system: SchurSystem):
    """The operator's p, c and amm, the identity's constructor, the stacking of a 2x2 block
    list and the column width the inverse formula reads at a time, in the storage of the
    system's products: CSR blocks stacked to CSC and COLUMN_BLOCK columns on the banded
    path, so every term costs O(nnz); on the dense path the blocks as stored, np.eye, whose
    mixed arithmetic gives dense results, np.block and all dim columns at once."""
    op = system.op
    if system.banded:
        return (*(nonzeros(m) for m in (op.p, op.c, op.amm)),
                lambda n: sparse.eye_array(n, format="csr"),
                lambda rows: sparse.block_array(rows, format="csc"), COLUMN_BLOCK)
    return (op.p, op.c, op.amm, np.eye,
            lambda rows: np.block([[dense(m) for m in row] for row in rows]), op.dim)


def _congruence(op: BlockOperator, e: float) -> tuple[float, float]:
    """The residual of A - e*I = R_e from the blocks: the decomposition row's relative
    residual and the extension row's ||A - e*I - R_e|| / max(1, ||A||).

    R_e = U.T diag(k_e, -(b+e)) U with U = [[I, 0], [-l_e, I]]. Its lower-right block
    -(b+e) is amm - e*I to the last bit, so only the upper-left and the two coupling
    blocks of the difference can be nonzero. The relative residual is the larger of
    those blocks' normwise backward errors: each block's residual over the sum of the
    norms of the terms it compares. Every term is in the storage of the system's
    products (_blocks), a dense product is blockop.mul's and every norm is
    blockop.block_norm's, of the stored entries.
    """
    system, root2 = build_schur(op, e), math.sqrt(2.0)
    p, c, amm, eye, *_ = _blocks(system)
    l_e, k_e = system.l_e, system.k_e
    # the shift first: e*l_e - amm@l_e cancels near lambda0
    bpe_le = mul(e * eye(op.n_minus) - amm, l_e)
    p_e = p - e * eye(op.n_plus)
    lifted = mul(l_e.T, bpe_le)
    upper = block_norm(p_e - (k_e - lifted))
    coupling = block_norm(c - bpe_le)
    relative = max(_relative(upper, block_norm(p_e) + block_norm(k_e) + block_norm(lifted)),
                   _relative(coupling, block_norm(c) + block_norm(bpe_le)))
    full_norm = math.hypot(block_norm(op.p), root2 * block_norm(op.c), block_norm(op.amm))
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

    The smallest singular value of A - mid*I, min |eig(A) - mid| over the symmetric A's
    eigenvalues, must reach at least (lambda1 - lambda0)/2 less the pass bound tol. The
    oracle solves the shell mid -+ (half_gap + tol) (a window solve on a banded A): every
    eigenvalue outside it is farther from mid than every one inside, so the minimum is
    exact. An empty shell, where the row passes, reads the whole spectrum.
    """
    cert = lambda1_certificate(op)
    if not cert.valid:
        raise NoGap(cert.diagnostic or
                    f"no certified gap: lambda0={cert.lambda0}, lambda1={cert.lambda1}")
    mid = 0.5 * (cert.lambda0 + cert.lambda1)
    half_gap = 0.5 * (cert.lambda1 - cert.lambda0)
    tol = 1e-10 * max(1.0, abs(cert.lambda1))
    values = dense_spectrum(op, mid - half_gap - tol, mid + half_gap + tol)
    if not values.size:
        values = dense_spectrum(op)
    smallest = float(np.abs(values - mid).min())
    margin = smallest - half_gap
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


def _apply_inverse(system: SchurSystem, upper: np.ndarray, lower: np.ndarray) -> None:
    """R_e^{-1} = U^{-1} diag(k_e^{-1}, -(b+e)^{-1}) U^{-T}, applied in place to the upper
    and lower block rows of some columns, one factor at a time by solves; no inverse
    is formed."""
    l_e = system.l_e
    upper += mul(l_e.T, lower)  # U^{-T}
    upper[:] = system.solve_k(upper)
    lower[:] = mul(l_e, upper) - system.solve_lower(lower)  # -(b+e)^{-1}, then U^{-1}


def inverse_formula_check(op: BlockOperator, e: float) -> float:
    """Residual ||R_e^{-1}(A - e*I) - I||_F of the three-factor inverse formula.

    Valid only strictly inside the gap, where k_e is invertible; at or
    beyond lambda1 the Schur matrix is singular and SingularSchur is raised.
    A - e*I is stacked from _blocks in the system's storage and read width columns
    at a time: COLUMN_BLOCK columns of CSC on the banded path, in O(dim * COLUMN_BLOCK)
    memory, and all of them in one dense block otherwise, so k_e is solved once. The
    squares of each block are summed by blockop.sum_squares, which calls no BLAS.
    """
    system = build_schur(op, e)
    kappa1 = system.value(1)
    if kappa1 <= SINGULAR_RTOL * max(1.0, abs(e)):
        raise SingularSchur(
            f"k_e singular or indefinite at e={e}: smallest eigenvalue {kappa1:.3e}"
        )
    # the guard gives k_e >= kappa1 * I > 0, so solve_k meets an invertible k_e
    n = op.n_plus
    p, c, amm, eye, stack, width = _blocks(system)
    shifted = stack([[p - e * eye(n), c.T], [c, amm - e * eye(op.n_minus)]])
    total = 0.0
    for first in range(0, op.dim, width):
        cols = dense(shifted[:, first:first + width])
        _apply_inverse(system, cols[:n], cols[n:])
        diag = np.arange(cols.shape[1])
        cols[first + diag, diag] -= 1.0
        total += sum_squares(cols)
    return math.sqrt(total)


def sandwich_report(op: BlockOperator, model: str,
                    energies: list[float]) -> list[VerificationReport]:
    """The sandwich and norm-chain rows: the Schur form's energy monotonicity as matrix
    inequalities at each neighbouring pair e_lo < e_hi of the sorted energies.

    With g = e_hi - e_lo, G_e = I + l_e.T l_e (||z||^2 = x.T G_e x) and rho = (e_hi -
    lambda0)/(e_lo - lambda0), the form's bounds hold for every x as k_lo - k_hi - g G_hi,
    k_hi - k_lo + g G_lo (sandwich), G_lo - G_hi and rho^2 G_hi - G_lo (norm chain) >= 0,
    since k_lo - k_hi = g (I + l_lo.T l_hi); ||x|| <= ||z_hi|| holds as G_hi - I is a Gram
    matrix. A row's value is the worst -lowest eigenvalue of a side, formed from the
    systems' own k_e and l_e, over its scale max(1, ||k_lo||_F, ||k_hi||_F) or
    max(1, ||G_lo||_F): the sampled rows' scales for a unit x. As g G_hi <= k_lo - k_hi,
    g G_lo <= rho (k_lo - k_hi) and G_lo <= rho^2 G_hi, no term exceeds 2 rho^2 <= 2000
    scales between neighbouring e_samples, so rounding stays near 1e-13 of the scale.
    """
    lam0, last = lambda0(op), None
    worst = {"sandwich": (-math.inf, {}), "norm_chain": (-math.inf, {})}
    for e_hi in sorted(energies):
        system = build_schur(op, e_hi)
        k_hi, l_hi = system.k_e, system.l_e
        g_hi = _blocks(system)[3](op.n_plus) + mul(l_hi.T, l_hi)
        if last is not None:
            e_lo, k_lo, g_lo = last
            gap, rho = e_hi - e_lo, (e_hi - lam0) / (e_lo - lam0)
            k_scale = max(1.0, block_norm(k_lo), block_norm(k_hi))
            g_scale = max(1.0, block_norm(g_lo))
            for check, side, scale in (("sandwich", k_lo - k_hi - gap * g_hi, k_scale),
                                       ("sandwich", k_hi - k_lo + gap * g_lo, k_scale),
                                       ("norm_chain", g_lo - g_hi, g_scale),
                                       ("norm_chain", rho * rho * g_hi - g_lo, g_scale)):
                value = -system.lowest(side) / scale
                if not (math.isnan(worst[check][0]) or value <= worst[check][0]):  # NaN stays
                    worst[check] = value, {"model": model, "e_lo": e_lo, "e_hi": e_hi}
        last = e_hi, k_hi, g_hi
    return [VerificationReport(check, value, bool(value <= 1e-10), params)
            for check, (value, params) in worst.items()]


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


def operator_reports(op: BlockOperator, model: str) -> list[VerificationReport]:
    """Every identity row of one operator, with its pass bound: the gap certificate
    (alone without a certified gap), the two congruence rows at each e_samples energy,
    the inverse formula at each gap fraction, the Krein bound, and the sandwich and
    norm-chain rows over the e_samples energies."""
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
    energies = e_samples(op, cert.lambda1)
    for e in energies:
        relative, extension = _congruence(op, e)
        reports.append(at(e, "decomposition", relative, 1e-11))
        reports.append(at(e, "extension_consistency", extension, 1e-11))
    for e in gap_fractions(cert.lambda0, cert.lambda1):
        reports.append(at(e, "inverse_formula", inverse_formula_check(op, e), 1e-10))
    krein = krein_gap_check(op)
    reports.append(replace(krein, params={**krein.params, "model": model}))
    return reports + sandwich_report(op, model, energies)
