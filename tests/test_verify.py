import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

from gapeig import (
    BlockOperator,
    DiracSpec,
    NoGap,
    RandomSpec,
    SingularSchur,
    assemble_block,
    build_dirac_coulomb,
    build_schur,
    decomposition_residual,
    extension_consistency,
    inverse_formula_check,
    krein_gap_check,
    lambda0,
    lambda1_certificate,
    random_gapped,
)
from gapeig import schur, verify
from gapeig.verify import _congruence, e_samples, gap_fractions, sandwich_report
from test_minmax import _near_edge
from test_schur import STRUCTURES

SQRT2 = 2.0 ** 0.5


def _no_gap_op():
    full = np.array([[-5.0, 0.0], [0.0, -1.0]])
    return assemble_block(full, 1)


def test_decomposition_canonical(canonical):
    assert decomposition_residual(canonical, 0.0) <= 1e-13


def test_decomposition_random():
    op = random_gapped(RandomSpec(n_plus=10, n_minus=10, gap_target=1.0, seed=3))
    assert decomposition_residual(op, lambda0(op) + 0.5) <= 1e-12


def test_decomposition_decoupled_exact(decoupled23):
    assert decomposition_residual(decoupled23, 0.5) == 0.0


def test_decomposition_across_energies(campaign_ops):
    for op in campaign_ops[:5]:
        cert = lambda1_certificate(op)
        for e in e_samples(op, cert.lambda1):
            assert decomposition_residual(op, e) <= 1e-11


def _dense_congruence(op, e):
    """U.T diag(k_e, amm - e*I) U with U = [[I, 0], [-l_e, I]], as dense products."""
    system = build_schur(op, e)
    u = np.block([
        [np.eye(op.n_plus), np.zeros((op.n_plus, op.n_minus))],
        [-system.l_e, np.eye(op.n_minus)],
    ])
    middle = np.block([
        [system.k_e, np.zeros((op.n_plus, op.n_minus))],
        [np.zeros((op.n_minus, op.n_plus)), op.amm - e * np.eye(op.n_minus)],
    ])
    return u.T @ middle @ u


@pytest.mark.parametrize("name", sorted(STRUCTURES))
@pytest.mark.parametrize("offset", [0.3, 40.0])
def test_extension_is_the_congruence(name, offset):
    # the block norms against the dense residual of the same congruence
    op = STRUCTURES[name]()
    e = lambda0(op) + offset
    full = op.assembled()
    shifted = full - e * np.eye(op.dim)
    full_scale = max(1.0, np.linalg.norm(full))
    reference = np.linalg.norm(shifted - _dense_congruence(op, e)) / full_scale
    tol = 1e-13 * max(1.0, np.linalg.norm(shifted)) / full_scale
    assert abs(_congruence(op, e)[1] - reference) <= tol


def _scaled_down():
    # ||A|| = 0.45, so the extension row divides by 1
    op = STRUCTURES["random-dense"]()
    return assemble_block(op.assembled() / 20.0, op.n_plus)


NORMED = {**STRUCTURES, "random-dense/20": _scaled_down}


@pytest.mark.parametrize("name", sorted(NORMED))
@pytest.mark.parametrize("offset", [0.3, 40.0])
def test_extension_is_over_the_norm_of_a(monkeypatch, name, offset):
    # a relative 1e-8 error in l_e lifts the residual far above roundoff, so the
    # quotient pins its denominator max(1, ||A||): a block or the sqrt2 dropped from
    # ||A||, or the 1 dropped from the max, moves it by more than 1e-6
    op = NORMED[name]()
    e = lambda0(op) + offset
    exact = schur.SchurSystem.l_e
    monkeypatch.setattr(schur.SchurSystem, "l_e",
                        property(lambda self: exact.fget(self) * (1.0 + 1e-8)))
    full = op.assembled()
    shifted = full - e * np.eye(op.dim)
    reference = np.linalg.norm(shifted - _dense_congruence(op, e))
    assert _congruence(op, e)[1] == pytest.approx(
        reference / max(1.0, np.linalg.norm(full)), rel=1e-6)


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_both_normalizations_match_their_formulas(name):
    # the dense formulas round in another order: the decomposition row, a ratio of
    # block norms, within 1e-13; the extension row after 1e-13*max(1, ||A - e*I||)
    # on its residual, as above
    op = STRUCTURES[name]()
    n, norm = op.n_plus, np.linalg.norm
    full = op.assembled()
    full_scale = max(1.0, norm(full))
    for e in e_samples(op):
        system = build_schur(op, e)
        shifted = full - e * np.eye(op.dim)
        reference = _dense_congruence(op, e)
        bpe_le = (e * np.eye(op.n_minus) - op.amm) @ system.l_e
        upper = norm((shifted - reference)[:n, :n]) / (
            norm(op.p - e * np.eye(n)) + norm(system.k_e) + norm(system.l_e.T @ bpe_le))
        coupling = norm((shifted - reference)[n:, :n]) / (norm(op.c) + norm(bpe_le))
        extension = norm(reference + e * np.eye(op.dim) - full) / full_scale
        assert abs(decomposition_residual(op, e) - max(upper, coupling)) <= 1e-13
        scale = max(1.0, norm(shifted))
        assert abs(extension_consistency(op, e) - extension) <= 1e-13 * scale / full_scale


def test_congruence_rows_assemble_nothing(monkeypatch):
    # what the rows keep is checked by test_schur's memo test
    op = random_gapped(RandomSpec(n_plus=8, n_minus=6, gap_target=1.0, seed=5))

    def refuse(self):
        raise AssertionError("a congruence row assembled A")

    monkeypatch.setattr(BlockOperator, "assembled", refuse)
    for e in e_samples(op):
        decomposition_residual(op, e), extension_consistency(op, e)


def test_congruence_rows_on_the_default_dirac_channel():
    # e*l_e - amm @ l_e cancels next to lambda0 (5.2e-11 at lambda0 + 1e-3);
    # with the shift formed first every energy meets the row bound
    op = build_dirac_coulomb(DiracSpec(nu=0.5, kappa=-1, r_max=30.0, n=600,
                                       grading="uniform"))
    for e in e_samples(op, lambda1_certificate(op).lambda1):
        assert decomposition_residual(op, e) <= 1e-11
        assert extension_consistency(op, e) <= 1e-11


@pytest.mark.parametrize("name,backend", [("random-dense", "q"),
                                          ("banded-dirac-uniform-", "w")])
def test_congruence_rows_see_a_perturbed_lift(monkeypatch, name, backend):
    # a relative 1e-8 error in l_e must read at least ten times the 1e-11 row
    # bound at every energy, on the rotated dense path (q set) and on the banded
    # one (w set) alike. The decomposition row reads a relative error, 5.0e-9 here
    # at every energy; over max(1, ||A - e*I||) it read 4.2e-12 at lambda0 + 1e3.
    # The extension row's least is 1.8e-9, on random-dense.
    op = STRUCTURES[name]()
    energies = e_samples(op, lambda1_certificate(op).lambda1)
    assert getattr(build_schur(op, energies[0])._lower, backend) is not None
    exact = schur.SchurSystem.l_e
    monkeypatch.setattr(schur.SchurSystem, "l_e",
                        property(lambda self: exact.fget(self) * (1.0 + 1e-8)))
    for e in energies:
        assert decomposition_residual(op, e) > 1e-9
        assert extension_consistency(op, e) > 1e-10


def test_krein_smallest_singular_value_matches_svd(canonical, campaign_ops):
    for op in [canonical, *campaign_ops[:10]]:
        report = krein_gap_check(op)
        full = op.assembled()
        reference = sla.svdvals(full - report.params["mid"] * np.eye(op.dim))[-1]
        tol = 1e-12 * max(1.0, np.linalg.norm(full, 2))
        assert abs(report.params["smallest_singular_value"] - reference) <= tol


def test_krein_canonical(canonical):
    report = krein_gap_check(canonical)
    assert report.check == "krein_gap"
    assert report.passed
    assert abs(report.value) <= 1e-10
    assert report.params["half_gap"] == pytest.approx((SQRT2 + 1.0) / 2.0, abs=1e-12)


def test_krein_equality_case():
    op = assemble_block(np.diag([2.0, -1.0]), 1)
    report = krein_gap_check(op)
    assert report.passed
    assert report.params["smallest_singular_value"] == pytest.approx(1.5, abs=1e-13)
    assert report.params["half_gap"] == pytest.approx(1.5, abs=1e-13)


def test_krein_reads_a_band_spectrum_without_assembling():
    # the banded operator's spectrum is a band solve, so the row never holds the
    # dim x dim matrix: its peak stays under a tenth of one
    op = build_dirac_coulomb(DiracSpec(nu=0.5, kappa=-1, r_max=30.0, n=600))
    lambda1_certificate(op)
    tracemalloc.start()
    try:
        krein_gap_check(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * op.dim**2 * 8


def test_krein_random(campaign_ops):
    for op in campaign_ops[:5]:
        report = krein_gap_check(op)
        lam1 = report.params["lambda1"]
        assert report.passed
        assert report.value >= -1e-10 * max(1.0, abs(lam1))


def test_krein_reports_only_the_exact_distance(canonical):
    report = krein_gap_check(canonical)
    assert sorted(report.params) == sorted(
        ["mid", "lambda0", "lambda1", "half_gap", "smallest_singular_value"])


def test_operator_reports_are_the_public_checks(campaign_ops):
    # each row's value is its public check's, bit for bit, in the rows' order
    op = campaign_ops[0]
    cert = lambda1_certificate(op)
    energies, fractions = e_samples(op, cert.lambda1), gap_fractions(cert.lambda0, cert.lambda1)
    reports = verify.operator_reports(op, "m", seed=4)
    assert [rep.check for rep in reports] == (
        ["gap_certificate"] + ["decomposition", "extension_consistency"] * len(energies)
        + ["inverse_formula"] * len(fractions) + ["krein_gap", "sandwich", "norm_chain"])
    rows = iter(reports[1:])
    for e in energies:
        assert next(rows).value == decomposition_residual(op, e)
        assert next(rows).value == extension_consistency(op, e)
    for e in fractions:
        assert next(rows).value == inverse_formula_check(op, e)
    krein = krein_gap_check(op)
    assert next(rows) == replace(krein, params={**krein.params, "model": "m"})
    assert list(rows) == sandwich_report(op, seed=4)


def test_operator_reports_stop_at_a_failed_certificate():
    (report,) = verify.operator_reports(_no_gap_op(), "m", seed=0)
    assert report.check == "gap_certificate" and not report.passed


def test_krein_requires_gap():
    with pytest.raises(NoGap):
        krein_gap_check(_no_gap_op())


def test_extension_canonical(canonical):
    assert extension_consistency(canonical, 0.0) <= 1e-13


def test_extension_random():
    op = random_gapped(RandomSpec(n_plus=8, n_minus=8, gap_target=1.0, seed=3))
    assert extension_consistency(op, lambda0(op) + 0.25) <= 1e-12


def test_extension_decoupled_exact(decoupled23):
    assert extension_consistency(decoupled23, 0.5) == 0.0


def test_extension_across_energies(campaign_ops):
    for op in campaign_ops[:5]:
        cert = lambda1_certificate(op)
        for e in e_samples(op, cert.lambda1):
            assert extension_consistency(op, e) <= 1e-11


def test_identities_read_l_e_in_the_operators_own_basis(campaign_ops):
    # every campaign amm is dense, so the pencil runs in its eigenbasis and l_e
    # must come back by Q for R_e to reassemble A; at lambda0 + 1e-3 rounding is
    # amplified by 1/(e - lambda0), so that energy gets verify's own 1e-11
    for op in campaign_ops:
        assert build_schur(op, lambda0(op) + 1.0)._lower.q is not None
        first, *rest = e_samples(op)
        assert decomposition_residual(op, first) <= 1e-11
        assert extension_consistency(op, first) <= 1e-11
        for e in rest:
            assert decomposition_residual(op, e) <= 1e-12
            assert extension_consistency(op, e) <= 1e-12


def test_inverse_canonical(canonical):
    assert inverse_formula_check(canonical, 0.0) <= 1e-12


def test_inverse_singular_at_eigenvalue(canonical):
    with pytest.raises(SingularSchur):
        inverse_formula_check(canonical, SQRT2)
    with pytest.raises(SingularSchur):
        inverse_formula_check(canonical, 2.0)


def test_a_failed_schur_solve_is_singular_schur(canonical, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(verify.np.linalg, "solve", fail)
    with pytest.raises(SingularSchur, match="Singular matrix"):
        inverse_formula_check(canonical, 0.0)


def test_inverse_inside_gap(campaign_ops):
    for op in campaign_ops[:5]:
        cert = lambda1_certificate(op)
        for e in gap_fractions(cert.lambda0, cert.lambda1):
            assert inverse_formula_check(op, e) <= 1e-10


def test_inverse_formula_on_the_default_dirac_channel():
    # explicit inverses of k_e and b + e*I read 6.5e-9 and 9.0e-10 at the two
    # fractions next to lambda0; applied by solves, every fraction meets the bound
    op = build_dirac_coulomb(DiracSpec(nu=0.5, kappa=-1, r_max=30.0, n=600,
                                       grading="uniform"))
    cert = lambda1_certificate(op)
    for e in gap_fractions(cert.lambda0, cert.lambda1):
        assert inverse_formula_check(op, e) <= 1e-10


@pytest.mark.parametrize("name,backend", [("random-dense", "q"),
                                          ("banded-dirac-uniform-", "w")])
def test_inverse_formula_sees_a_perturbed_lift(monkeypatch, name, backend):
    # a relative 1e-6 error in l_e must read far above the 1e-10 bound, on the
    # rotated dense path (q set) and on the banded one (w set) alike
    op = STRUCTURES[name]()
    cert = lambda1_certificate(op)
    energies = gap_fractions(cert.lambda0, cert.lambda1)
    assert getattr(build_schur(op, energies[0])._lower, backend) is not None
    exact = schur.SchurSystem.l_e
    monkeypatch.setattr(schur.SchurSystem, "l_e",
                        property(lambda self: exact.fget(self) * (1.0 + 1e-6)))
    for e in energies:
        assert inverse_formula_check(op, e) > 1e-7


def test_e_samples_layout(canonical):
    cert = lambda1_certificate(canonical)
    points = e_samples(canonical, cert.lambda1)
    assert len(points) == 6
    lam0 = cert.lambda0
    offsets = [p - lam0 for p in points[:5]]
    assert offsets == pytest.approx(list(np.logspace(-3.0, 3.0, 5)), rel=1e-12)
    assert points[-1] == pytest.approx(0.5 * (lam0 + cert.lambda1), abs=1e-12)
    assert len(e_samples(canonical)) == 5


def test_gap_fractions_layout():
    points = gap_fractions(-1.0, 1.0)
    assert points == pytest.approx([-0.998, -0.98, -0.8, 0.0, 0.8])
    assert all(-1.0 < p < 1.0 for p in points)


@pytest.mark.parametrize("gap_target", [1e8, 1e9])
def test_sample_energies_stay_above_a_scaled_edge(monkeypatch, gap_target):
    # gap_edge grows with |lambda0|, and so do the offsets of e_samples (1e-3 and up)
    # and of the sandwich (10^U(-2, 2)): past 1e7 fixed offsets would fall below it
    op = random_gapped(RandomSpec(n_plus=8, n_minus=8, gap_target=gap_target, seed=0))
    edge = schur.gap_edge(lambda0(op))
    energies, build = [], verify.build_schur

    def record(op, e):
        energies.append(e)
        return build(op, e)

    monkeypatch.setattr(verify, "build_schur", record)
    reports = verify.operator_reports(op, "m", seed=0)
    assert reports[0].passed and reports[-1].check == "norm_chain"
    assert len(energies) > 100 and min(energies) > edge
    assert min(e_samples(op)) > edge


def test_verify_passes_next_to_the_edge():
    # a gap of 5e-9 above lambda0 = -1 is certified; its fractions 1e-3 and 1e-2
    # fall at or below lambda0 + 1e-10 and are left out
    op = _near_edge(-1.0, 5e-9)
    assert gap_fractions(-1.0, -1.0 + 5e-9) == pytest.approx(
        [-1.0 + 5e-10, -1.0 + 2.5e-9, -1.0 + 4.5e-9], rel=0.0, abs=1e-15)
    reports = verify.operator_reports(op, "m", seed=0)
    assert len(reports) > 1 and all(r.passed for r in reports)
