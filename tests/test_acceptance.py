"""Acceptance criteria, one test per criterion, one printed verdict line each.

Every test prints "[PASS] criterion N: ..." or "[FAIL] criterion N: ..."
before asserting, so the verdict table survives in the pytest output even
under capture. Criterion 10 carries two clauses; the stability clause holds,
while the spurious-drift clause demands a dense-spectrum value drifting
inside the window (-0.5, 0.5), which holds only the stable nu=0.9 ground
state. The discretization does have spurious levels (kappa=+1 repeats the
kappa=-1 ground energy), but none falls in that window. The clause is
asserted as stated and the test fails honestly rather than weakening the
check.
"""

import math
import time

import numpy as np

from gapeig import (
    ApsSpec,
    DiracSpec,
    SingularSchur,
    aps_sigma_min,
    build_aps_cylinder,
    build_dirac_coulomb,
    decomposition_residual,
    dense_spectrum,
    extension_consistency,
    gap_eigs_bruteforce,
    gap_spectrum,
    hardy_check,
    inverse_formula_check,
    krein_gap_check,
    lambda0,
    lambda1_certificate,
    lambda_k,
)
from gapeig.schur import q_e_form, q_value_and_slope
from gapeig.verify import e_samples, gap_fractions, sandwich_report

GROUND_STATE = math.sqrt(3.0) / 2.0


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


def test_criterion_01_oracle_equivalence(campaign_ops, capsys):
    start = time.perf_counter()
    worst = 0.0
    mult_mismatches = 0
    for op in campaign_ops:
        results = gap_spectrum(op, 5, tol=1e-10)
        assert all(r.status == "ok" for r in results)
        hi = results[-1].lambda_k
        clusters = gap_eigs_bruteforce(op, lambda0(op), hi + 1e-8 * max(1.0, abs(hi)))
        flat = [v for v, m in clusters for _ in range(m)]
        assert len(flat) >= 5
        for res, want in zip(results, flat[:5]):
            worst = max(worst, abs(res.lambda_k - want) / abs(want))
        for res in results:
            nearest = min(clusters, key=lambda c: abs(c[0] - res.lambda_k))
            if nearest[1] != res.multiplicity:
                mult_mismatches += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and mult_mismatches == 0 and elapsed <= 30.0
    detail = (f"100 ops x k_max=5 vs dense oracle, max rel dev {worst:.2e} "
              f"(<= 1e-8), {mult_mismatches} multiplicity mismatches, "
              f"{elapsed:.1f}s (<= 30s)")
    assert _verdict(capsys, 1, ok, detail)


def test_criterion_02_canonical(canonical, capsys):
    start = time.perf_counter()
    lam1 = lambda_k(canonical, 1).lambda_k
    val_err = abs(lam1 - math.sqrt(2.0))
    margin = krein_gap_check(canonical).value
    try:
        inverse_formula_check(canonical, math.sqrt(2.0))
        singular_raised = False
    except SingularSchur:
        singular_raised = True
    elapsed = time.perf_counter() - start
    ok = val_err <= 1e-12 and abs(margin) <= 1e-10 and singular_raised
    detail = (f"lambda1 err {val_err:.2e} (<= 1e-12), Krein margin {margin:.2e} "
              f"(|.| <= 1e-10), SingularSchur at sqrt(2): {singular_raised}, "
              f"{elapsed:.2f}s")
    assert _verdict(capsys, 2, ok, detail)


def test_criterion_03_sandwich_and_norm_chain(campaign_ops, capsys):
    # the monotone bounds as matrix inequalities, at every pair of neighbouring
    # e_samples energies, so they hold for every vector at once
    start = time.perf_counter()
    worst_sandwich = -math.inf
    worst_chain = -math.inf
    pairs = 0
    for op in campaign_ops[:20]:
        energies = e_samples(op, lambda1_certificate(op).lambda1)
        sandwich, chain = sandwich_report(op, "campaign", energies)
        worst_sandwich = max(worst_sandwich, sandwich.value)
        worst_chain = max(worst_chain, chain.value)
        pairs += len(energies) - 1
    elapsed = time.perf_counter() - start
    ok = worst_sandwich <= 1e-10 and worst_chain <= 1e-10 and elapsed <= 10.0
    detail = (f"{pairs} energy pairs on 20 ops, worst sandwich violation "
              f"{worst_sandwich:.2e}, worst norm-chain violation {worst_chain:.2e} "
              f"(both <= 1e-10), {elapsed:.1f}s (<= 10s)")
    assert _verdict(capsys, 3, ok, detail)


def test_criterion_04_identity_residuals(campaign_ops, capsys):
    start = time.perf_counter()
    worst_decomp = 0.0
    worst_ext = 0.0
    worst_inv = 0.0
    for op in campaign_ops:
        cert = lambda1_certificate(op)
        for e in e_samples(op):
            worst_decomp = max(worst_decomp, decomposition_residual(op, e))
            worst_ext = max(worst_ext, extension_consistency(op, e))
        for e in gap_fractions(cert.lambda0, cert.lambda1):
            worst_inv = max(worst_inv, inverse_formula_check(op, e))
    elapsed = time.perf_counter() - start
    ok = (worst_decomp <= 1e-10 and worst_ext <= 1e-10 and worst_inv <= 1e-10
          and elapsed <= 60.0)
    detail = (f"100 ops x 5 energies: decomposition {worst_decomp:.2e}, "
              f"extension {worst_ext:.2e}, inverse {worst_inv:.2e} "
              f"(all <= 1e-10), {elapsed:.1f}s (<= 60s)")
    assert _verdict(capsys, 4, ok, detail)


def test_criterion_05_krein_bound(campaign_ops, capsys):
    start = time.perf_counter()
    worst = math.inf
    for op in campaign_ops:
        report = krein_gap_check(op)
        worst = min(worst, report.value)
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-10
    detail = (f"100 certified-gap ops, worst margin sigma_min - half_gap = "
              f"{worst:.2e} (>= -1e-10), {elapsed:.1f}s")
    assert _verdict(capsys, 5, ok, detail)


def test_criterion_06_dirac_coulomb(capsys):
    start = time.perf_counter()
    quad = DiracSpec(nu=0.5, kappa=-1, n=1200, r_max=30.0, grading="quadratic")
    op_quad = build_dirac_coulomb(quad)
    lam_quad = lambda_k(op_quad, 1).lambda_k
    value_err = abs(lam_quad - 0.8660254)
    lam0_dev = abs(lambda0(op_quad) - (-1.0 - 0.5 / 30.0))

    errors = []
    for n in (300, 600, 1200):
        spec = DiracSpec(nu=0.5, kappa=-1, n=n, r_max=30.0)
        errors.append(abs(lambda_k(build_dirac_coulomb(spec), 1).lambda_k - GROUND_STATE))
    trend_ok = errors[0] > errors[1] > errors[2]

    certs_ok = True
    lam1_at_one = math.nan
    for nu in (0.0, 0.5, 0.9, 1.0):
        cert = lambda1_certificate(build_dirac_coulomb(
            DiracSpec(nu=nu, kappa=-1, n=1200, r_max=30.0)))
        certs_ok = certs_ok and cert.valid
        if nu == 1.0:
            lam1_at_one = cert.lambda1
    edge_ok = lam1_at_one >= -1e-3
    elapsed = time.perf_counter() - start
    ok = (value_err <= 1e-2 and lam0_dev <= 1e-15 and trend_ok and certs_ok
          and edge_ok and elapsed <= 300.0)
    detail = (f"lambda1 err {value_err:.2e} (<= 1e-2), lambda0 dev {lam0_dev:.1e} "
              f"(exact), errors {errors[0]:.2e} > {errors[1]:.2e} > {errors[2]:.2e} "
              f"({'strictly decreasing' if trend_ok else 'NOT decreasing'}), "
              f"certificates valid for nu in {{0, 0.5, 0.9, 1}}: {certs_ok}, "
              f"lambda1(nu=1) = {lam1_at_one:.3e} (>= -1e-3), {elapsed:.1f}s (<= 300s)")
    assert _verdict(capsys, 6, ok, detail)


def test_criterion_07_hardy_surrogate(capsys):
    start = time.perf_counter()
    report = hardy_check(1.0, 1500, 30.0)
    elapsed = time.perf_counter() - start
    ok = report.value >= -1e-3 and elapsed <= 120.0
    detail = (f"smallest eigenvalue of k_0 at nu=1, n=1500: "
              f"{report.value:.3e} (>= -1e-3), {elapsed:.1f}s (<= 120s)")
    assert _verdict(capsys, 7, ok, detail)


def test_criterion_08_aps_cylinder(capsys):
    start = time.perf_counter()
    sigma = aps_sigma_min(2000, 1.0)
    lam_zero = lambda_k(build_aps_cylinder(ApsSpec(modes=(0.0,), length_l=1.0, n=2000)), 1).lambda_k
    closed_err = abs(lam_zero - sigma)
    pi_err = abs(lam_zero - math.pi)
    lam_three = lambda_k(build_aps_cylinder(ApsSpec(modes=(3.0,), length_l=1.0, n=2000)), 1).lambda_k
    mode_err = abs(lam_three - math.hypot(3.0, sigma))
    elapsed = time.perf_counter() - start
    ok = (closed_err <= 1e-10 and pi_err <= 1e-3 and mode_err <= 1e-9
          and elapsed <= 60.0)
    detail = (f"modes=[0]: |lambda1 - closed form| {closed_err:.2e} (<= 1e-10), "
              f"|lambda1 - pi| {pi_err:.2e} (<= 1e-3); modes=[3]: dev {mode_err:.2e} "
              f"(<= 1e-9), {elapsed:.1f}s (<= 60s)")
    assert _verdict(capsys, 8, ok, detail)


def test_criterion_09_newton_slope(campaign_ops, capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    step = 1e-5
    worst = 0.0
    for op in campaign_ops[:10]:
        lam0 = lambda0(op)
        for _ in range(20):
            e = lam0 + 10.0 ** rng.uniform(-0.5, 2.0)
            x = rng.standard_normal(op.n_plus)
            _, slope = q_value_and_slope(op, e, x)
            fd = (q_e_form(op, e + step, x) - q_e_form(op, e - step, x)) / (2.0 * step)
            worst = max(worst, abs(fd - slope) / abs(slope))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6
    detail = (f"200 samples, central difference step 1e-5, worst relative "
              f"slope error {worst:.2e} (<= 1e-6), {elapsed:.1f}s")
    assert _verdict(capsys, 9, ok, detail)


def test_criterion_10_stability_vs_pollution(capsys):
    start = time.perf_counter()
    lam1 = {}
    window = {}
    for n in (600, 1200):
        op = build_dirac_coulomb(DiracSpec(nu=0.9, kappa=-1, n=n, r_max=30.0))
        lam1[n] = lambda_k(op, 1).lambda_k
        values = dense_spectrum(op)
        window[n] = values[(values > -0.5) & (values < 0.5)]
    drift = abs(lam1[1200] - lam1[600])
    stable_ok = drift <= 5e-3

    if len(window[600]) and len(window[1200]):
        dists = np.abs(window[1200][:, None] - window[600][None, :])
        spurious_drift = float(max(dists.min(axis=0).max(), dists.min(axis=1).max()))
    else:
        spurious_drift = math.nan
    spurious_ok = math.isfinite(spurious_drift) and spurious_drift >= 0.05
    elapsed = time.perf_counter() - start
    ok = stable_ok and spurious_ok and elapsed <= 300.0
    detail = (f"lambda1 drift 600->1200 = {drift:.2e} (<= 5e-3: {stable_ok}); "
              f"largest window-value drift = {spurious_drift:.2e}, needed >= 0.05: "
              f"{spurious_ok} [window holds {len(window[600])}/{len(window[1200])} "
              f"genuine levels at n=600/1200; no spurious state forms, so this "
              f"clause is unattainable here], {elapsed:.1f}s (<= 300s)")
    assert _verdict(capsys, 10, ok, detail)
