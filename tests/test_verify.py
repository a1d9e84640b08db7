import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

from gapeig import (
    ApsSpec,
    BlockOperator,
    DiracSpec,
    NoGap,
    RandomSpec,
    SingularSchur,
    assemble_block,
    build_aps_cylinder,
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
from gapeig import blockop, schur, verify
from gapeig.verify import _congruence, e_samples, gap_fractions, sandwich_report
from conftest import dense
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
        [-blockop.dense(system.l_e), np.eye(op.n_minus)],
    ])
    middle = np.block([
        [blockop.dense(system.k_e), np.zeros((op.n_plus, op.n_minus))],
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
                        property(lambda self: exact.func(self) * (1.0 + 1e-8)))
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
        p, c, amm = dense(op.p), dense(op.c), dense(op.amm)
        k_e, l_e = blockop.dense(system.k_e), blockop.dense(system.l_e)
        bpe_le = (e * np.eye(op.n_minus) - amm) @ l_e
        upper = norm((shifted - reference)[:n, :n]) / (
            norm(p - e * np.eye(n)) + norm(k_e) + norm(l_e.T @ bpe_le))
        coupling = norm((shifted - reference)[n:, :n]) / (norm(c) + norm(bpe_le))
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
                        property(lambda self: exact.func(self) * (1.0 + 1e-8)))
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
    # dim x dim matrix: its peak stays under a tenth of one. A first call fills the
    # certificate memo and loads SuperLU's module for the window count (0.9 MB of
    # objects, once per process).
    op = build_dirac_coulomb(DiracSpec(nu=0.5, kappa=-1, r_max=30.0, n=600))
    krein_gap_check(op)
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
    reports = verify.operator_reports(op, "m")
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
    assert list(rows) == sandwich_report(op, "m", energies)


def test_operator_reports_stop_at_a_failed_certificate():
    (report,) = verify.operator_reports(_no_gap_op(), "m")
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
    # dgetrf reports a zero pivot by its info, not by an exception
    def fail(a, *args, **kwargs):
        return a, np.arange(1, len(a) + 1), 2

    monkeypatch.setattr(schur.sla.lapack, "dgetrf", fail)
    with pytest.raises(SingularSchur, match="pivot 2 of its LU is exactly zero"):
        inverse_formula_check(canonical, 0.0)


def test_an_exactly_singular_dense_schur_matrix_is_singular_schur():
    # k_1 = diag(1, 2) - 1 + 0 = diag(0, 1): its LU meets an exactly zero pivot
    op = BlockOperator(p=np.diag([1.0, 2.0]), c=np.zeros((1, 2)), amm=np.array([[-1.0]]))
    system = build_schur(op, 1.0)
    assert not system.banded and np.array_equal(system.k_e, np.diag([0.0, 1.0]))
    with pytest.raises(SingularSchur, match="k_e singular at e=1.0"):
        system.solve_k(np.ones((2, 1)))


def test_a_failed_banded_schur_solve_is_singular_schur(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    op = STRUCTURES["banded-aps"]()
    cert = lambda1_certificate(op)
    e = gap_fractions(cert.lambda0, cert.lambda1)[3]
    monkeypatch.setattr(schur.sla, "solve_banded", fail)
    with pytest.raises(SingularSchur, match="singular matrix"):
        inverse_formula_check(op, e)


@pytest.mark.parametrize("n_plus,n_minus", ((100, 900), (300, 300)))
def test_dense_inverse_formula_holds_column_blocks_not_a_matrix(n_plus, n_minus):
    # the bound counts the floats each phase holds at once, B = COLUMN_BLOCK:
    # - forming k_e: three n_plus^2 (p - e, c.T l_e and their sum), or two beside the
    #   lower solve's two n_plus x n_minus: under 3 n_plus^2 + 2 n_plus n_minus;
    # - forming l_e, then the LU: k_e with l_e's two solves, then k_e, l_e and the LU,
    #   beside one column block: under the same plus dim B;
    # - the loop: k_e, its LU and l_e (2 n_plus^2 + n_plus n_minus), the dim x B column
    #   block and the solves' block rows, one upper and four lower: under 5 dim B more
    op = random_gapped(RandomSpec(n_plus=n_plus, n_minus=n_minus, gap_target=1.0, seed=0))
    cert = lambda1_certificate(op)
    e = 0.5 * (cert.lambda0 + cert.lambda1)
    inverse_formula_check(op, e)  # fills the operator's memo: Q, f and Q.T c
    tracemalloc.start()
    try:
        inverse_formula_check(op, e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    floats = 3 * n_plus**2 + 2 * n_plus * n_minus + 5 * op.dim * verify.COLUMN_BLOCK
    assert peak < 8 * floats


def test_a_banded_inverse_formula_block_holds_three_solve_arrays(monkeypatch):
    # past what the loop holds, the block and the system, one block's solves add at most
    # three n_plus x B arrays: solve_k's right-hand side, its zero result and the live
    # columns' one Fortran-ordered copy, which dgbsv overwrites (then the upper result
    # and the lower phase's two); the half B more covers their boolean masks. scipy's own
    # Fortran copy of the live columns made it four
    op = build_dirac_coulomb(DiracSpec(nu=0.5, kappa=-1, r_max=30.0, n=1200))
    cert = lambda1_certificate(op)
    e = 0.5 * (cert.lambda0 + cert.lambda1)
    inverse_formula_check(op, e)
    added = []

    def probed(*args, _original=verify._apply_inverse):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = _original(*args)
        added.append(tracemalloc.get_traced_memory()[1] - held)
        return out

    monkeypatch.setattr(verify, "_apply_inverse", probed)
    tracemalloc.start()
    try:
        inverse_formula_check(op, e)
    finally:
        tracemalloc.stop()
    assert len(added) == 2 * math.ceil(op.n_plus / verify.COLUMN_BLOCK)  # both halves
    assert max(added) < 8 * 3.5 * op.n_plus * verify.COLUMN_BLOCK


def test_banded_reports_hold_less_than_one_assembled_matrix():
    # the inverse formula reads A - e*I from CSR a block of columns at a time and the
    # congruence rows multiply CSR blocks, so no dim x dim matrix is ever held
    op = build_dirac_coulomb(DiracSpec(nu=0.5, kappa=-1, r_max=30.0, n=1200))
    tracemalloc.start()
    try:
        verify.operator_reports(op, "m")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < op.dim**2 * 8


@pytest.mark.parametrize("build", (
    lambda: build_dirac_coulomb(DiracSpec(nu=0.5, kappa=-1, r_max=30.0, n=600)),
    lambda: build_aps_cylinder(ApsSpec(modes=(0.0, 3.0, -3.0), length_l=1.0, n=400)),
), ids=("dirac-600", "aps-400"))
def test_banded_reports_assemble_nothing_and_solve_nothing_dense(monkeypatch, build):
    def refuse(*args, **kwargs):
        raise AssertionError("dense work on a banded operator")

    op = build()
    monkeypatch.setattr(BlockOperator, "assembled", refuse)
    monkeypatch.setattr(schur.sla.lapack, "dgetrf", refuse)
    monkeypatch.setattr(schur.sla.lapack, "dgetrs", refuse)
    monkeypatch.setattr(schur.sla, "eigh", refuse)  # the sandwich sides stay banded too
    reports = verify.operator_reports(op, "m")
    assert [r.check for r in reports].count("inverse_formula") == 5
    assert reports[-1].check == "norm_chain"


def test_inverse_formula_reads_column_blocks_and_assembles_nothing(monkeypatch):
    # one loop and one width for both storages: the upper columns of A - e*I and then the
    # lower ones, COLUMN_BLOCK at a time; a dense k_e is factored once (one dgetrf) and
    # each block is one dgetrs on that LU
    def refuse(self):
        raise AssertionError("the inverse formula assembled A")

    def counted(name):
        call = getattr(sla.lapack, name)
        return lambda *args, **kwargs: calls.append(name) or call(*args, **kwargs)

    widths, calls, solve_k = [], [], schur.SchurSystem.solve_k
    monkeypatch.setattr(BlockOperator, "assembled", refuse)
    monkeypatch.setattr(schur.SchurSystem, "solve_k",
                        lambda self, rhs: widths.append(rhs.shape[1]) or solve_k(self, rhs))
    for name in ("dgetrf", "dgetrs"):
        monkeypatch.setattr(schur.sla.lapack, name, counted(name))
    assert verify.COLUMN_BLOCK == blockop.COLUMN_BLOCK == 64
    for op, expected, lapack in (
            (random_gapped(RandomSpec(n_plus=70, n_minus=60, gap_target=1.0, seed=2)),
             [64, 6, 60], ["dgetrf"] + ["dgetrs"] * 3),  # ceil(70/64) + ceil(60/64) blocks
            (build_dirac_coulomb(DiracSpec(nu=0.5, kappa=-1, r_max=30.0, n=100)),
             [64, 36, 64, 36], [])):  # banded: solves on the band, no dense LU
        cert = lambda1_certificate(op)
        e = gap_fractions(cert.lambda0, cert.lambda1)[3]
        assert build_schur(op, e).banded == (not lapack)
        widths.clear()
        calls.clear()
        assert inverse_formula_check(op, e) <= 1e-10
        assert widths == expected
        assert calls == lapack


@pytest.mark.xfail(strict=True, reason=(
    "the extension row divides an absolute residual by max(1, ||A||), while the lifted "
    "term l_e.T (e - amm) l_e grows as 1/(e - lambda0): 1.6e-11 at lambda0 + 1e-3"))
def test_aps_extension_next_to_lambda0_meets_its_bound():
    op = build_aps_cylinder(ApsSpec(modes=(0.0, 3.0, -3.0), length_l=1.0, n=400))
    assert extension_consistency(op, lambda0(op) + 1e-3) <= 1e-11


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
                        property(lambda self: exact.func(self) * (1.0 + 1e-6)))
    for e in energies:
        assert inverse_formula_check(op, e) > 1e-7


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_sandwich_and_norm_chain_hold_on_every_structure(name):
    op = STRUCTURES[name]()
    energies = e_samples(op, lambda1_certificate(op).lambda1)
    sandwich, chain = sandwich_report(op, "m", energies)
    assert sandwich.passed and chain.passed
    for row in (sandwich, chain):
        assert row.params["model"] == "m"
        assert row.params["e_lo"] < row.params["e_hi"]
        assert [row.params["e_lo"], row.params["e_hi"]] in [
            sorted(energies)[i:i + 2] for i in range(len(energies) - 1)]


@pytest.mark.parametrize("name", ["random-dense", "banded-dirac-uniform-"])
def test_sandwich_sees_a_lift_read_at_a_wrong_energy(monkeypatch, name):
    # every side is formed from l_e: a lift read at lambda0 + 1.5 (e - lambda0) instead of
    # at e fails the row on the rotated dense path and on the banded one alike; a form
    # q_e(x, x) never reads l_e, so sampled vectors could not see this
    op = STRUCTURES[name]()
    energies, lam0 = e_samples(op, lambda1_certificate(op).lambda1), lambda0(op)
    exact = schur.SchurSystem.l_e
    monkeypatch.setattr(schur.SchurSystem, "l_e", property(lambda self: exact.func(
        schur.SchurSystem(self.op, lam0 + 1.5 * (self.e - lam0)))))
    sandwich = sandwich_report(op, "m", energies)[0]
    assert not sandwich.passed and sandwich.value > 1e-6


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
    # gap_edge grows with |lambda0|, and so do the offsets of e_samples (1e-3 and up),
    # which the sandwich reads too: past 1e7 fixed offsets would fall below it
    op = random_gapped(RandomSpec(n_plus=8, n_minus=8, gap_target=gap_target, seed=0))
    edge = schur.gap_edge(lambda0(op))
    energies, build = [], verify.build_schur

    def record(op, e):
        energies.append(e)
        return build(op, e)

    monkeypatch.setattr(verify, "build_schur", record)
    reports = verify.operator_reports(op, "m")
    assert reports[0].passed and reports[-1].check == "norm_chain"
    assert set(e_samples(op, reports[0].params["lambda1"])) <= set(energies)
    assert min(energies) > edge
    assert min(e_samples(op)) > edge


def test_verify_passes_next_to_the_edge():
    # a gap of 5e-9 above lambda0 = -1 is certified; its fractions 1e-3 and 1e-2
    # fall at or below lambda0 + 1e-10 and are left out
    op = _near_edge(-1.0, 5e-9)
    assert gap_fractions(-1.0, -1.0 + 5e-9) == pytest.approx(
        [-1.0 + 5e-10, -1.0 + 2.5e-9, -1.0 + 4.5e-9], rel=0.0, abs=1e-15)
    reports = verify.operator_reports(op, "m")
    assert len(reports) > 1 and all(r.passed for r in reports)
