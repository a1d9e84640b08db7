import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from scipy import sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from gapeig import (
    ApsSpec,
    BadSplit,
    DiracSpec,
    RandomSpec,
    SpecInvalid,
    analytic_dirac_energy,
    aps_sigma_min,
    build_aps_cylinder,
    build_dirac_coulomb,
    dense_spectrum,
    gap_spectrum,
    hardy_check,
    lambda0,
    lambda1_certificate,
    lambda_k,
    random_gapped,
)
from conftest import dense
from gapeig import schur
from gapeig.models import GAP_TARGET_MAX, aps_levels, forward_difference, radial_grid


class TestDiracSpec:
    def test_validation(self):
        with pytest.raises(SpecInvalid):
            DiracSpec(nu=-0.1, kappa=-1, n=64, r_max=20.0)
        with pytest.raises(SpecInvalid):
            DiracSpec(nu=1.5, kappa=-1, n=64, r_max=20.0)
        with pytest.raises(SpecInvalid):
            DiracSpec(nu=0.5, kappa=0, n=64, r_max=20.0)
        with pytest.raises(SpecInvalid):
            DiracSpec(nu=0.5, kappa=-1, n=8, r_max=20.0)
        with pytest.raises(SpecInvalid):
            DiracSpec(nu=0.5, kappa=-1, n=64, r_max=0.0)
        with pytest.raises(SpecInvalid):
            DiracSpec(nu=0.5, kappa=-1, n=64, r_max=20.0, grading="cubic")

    def test_a_size_must_be_an_integer(self):
        # n=300.5 built a 301-point grid
        for n in (300.5, 300.0, True):
            with pytest.raises(SpecInvalid, match="n must be an integer"):
                DiracSpec(nu=0.5, kappa=-1, n=n, r_max=20.0)
        assert DiracSpec(nu=0.5, kappa=-1, n=np.int64(64), r_max=20.0).n == 64

    def test_grading_defaults(self):
        assert DiracSpec(nu=0.5, kappa=-1, n=64, r_max=20.0).grading == "uniform"
        assert DiracSpec(nu=0.7, kappa=-1, n=64, r_max=20.0).grading == "uniform"
        assert DiracSpec(nu=0.9, kappa=-1, n=64, r_max=20.0).grading == "quadratic"
        explicit = DiracSpec(nu=0.9, kappa=-1, n=64, r_max=20.0, grading="uniform")
        assert explicit.grading == "uniform"


class TestDiracGrid:
    def test_blocks_are_csr(self):
        for op in (build_dirac_coulomb(DiracSpec(nu=0.5, kappa=-1, n=32, r_max=10.0)),
                   build_aps_cylinder(ApsSpec(modes=(0.0, 3.0), length_l=1.0, n=8))):
            for m in (op.p, op.c, op.amm):
                assert isinstance(m, sparse.csr_array)
        assert isinstance(forward_difference(8, 1.0), sparse.csr_array)

    def test_last_node_exact(self):
        for grading in ("uniform", "quadratic"):
            spec = DiracSpec(nu=0.5, kappa=-1, n=50, r_max=17.0, grading=grading)
            r = radial_grid(spec)
            assert r[-1] == 17.0
            assert r[0] > 0.0
            assert np.all(np.diff(r) > 0.0)

    @pytest.mark.parametrize("grading,g", [("uniform", 1), ("quadratic", 2)])
    def test_ghost_node_is_the_gradings_next_node(self, grading, g):
        # the outer weight reads r_{n+1} = r_max ((n+1)/n)^g, the grid's own rule at n+1
        n, r_max = 40, 17.0
        spec = DiracSpec(nu=0.5, kappa=-1, n=n, r_max=r_max, grading=grading)
        ext = np.concatenate(([0.0], radial_grid(spec), [r_max * ((n + 1) / n) ** g]))
        w = (ext[2:] - ext[:-2]) / 2.0
        off = dense(build_dirac_coulomb(spec).c).diagonal(1)
        assert np.array_equal(off, 1.0 / (2.0 * np.sqrt(w[:-1] * w[1:])))

    def test_lambda0_exact(self):
        spec = DiracSpec(nu=0.9, kappa=1, n=48, r_max=25.0)
        op = build_dirac_coulomb(spec)
        assert lambda0(op) == pytest.approx(-1.0 - 0.9 / 25.0, abs=1e-14)

    def test_coupling_structure(self):
        spec = DiracSpec(nu=0.5, kappa=-2, n=32, r_max=10.0)
        op = build_dirac_coulomb(spec)
        r = radial_grid(spec)
        d = dense(op.c) + 2.0 * np.diag(1.0 / r)
        assert np.linalg.norm(d + d.T) <= 1e-12 * np.linalg.norm(d)
        assert np.count_nonzero(dense(op.p) - np.diag(np.diagonal(dense(op.p)))) == 0

    @pytest.mark.parametrize("grading", ["uniform", "quadratic"])
    @pytest.mark.parametrize("kappa", [1, 2])
    def test_spectrum_is_even_in_kappa(self, kappa, grading):
        # diag(S, -S) with S = diag((-1)^i) flips the sign of the nearest-neighbour
        # difference and keeps kappa/r, so it maps the kappa channel onto -kappa
        plus, minus = (
            dense_spectrum(build_dirac_coulomb(
                DiracSpec(nu=0.5, kappa=sign * kappa, n=100, r_max=30.0, grading=grading)))
            for sign in (1, -1)
        )
        assert np.max(np.abs(plus - minus)) <= 1e-12 * np.max(np.abs(plus))


class TestDiracEnergies:
    def test_ground_state_quadratic_grid(self):
        spec = DiracSpec(nu=0.5, kappa=-1, n=96, r_max=30.0, grading="quadratic")
        lam1 = lambda_k(build_dirac_coulomb(spec), 1).lambda_k
        assert abs(lam1 - math.sqrt(3.0) / 2.0) <= 1e-10

    def test_ground_state_uniform_grid(self):
        spec = DiracSpec(nu=0.5, kappa=-1, n=200, r_max=30.0)
        lam1 = lambda_k(build_dirac_coulomb(spec), 1).lambda_k
        assert abs(lam1 - math.sqrt(3.0) / 2.0) <= 1e-3

    def test_free_channel_continuum_edge(self):
        spec = DiracSpec(nu=0.0, kappa=-1, n=300, r_max=30.0)
        lam1 = lambda_k(build_dirac_coulomb(spec), 1).lambda_k
        assert 1.0 - 1e-9 <= lam1 <= 1.1

    def test_certificate(self):
        spec = DiracSpec(nu=0.5, kappa=-1, n=64, r_max=20.0)
        cert = lambda1_certificate(build_dirac_coulomb(spec))
        assert cert.valid
        assert cert.lambda0 < 0.0 < cert.lambda1


class TestAnalyticOracle:
    def test_ground_state(self):
        assert analytic_dirac_energy(0.5, -1, 0) == pytest.approx(
            math.sqrt(3.0) / 2.0, abs=1e-15)

    def test_free_limit(self):
        assert analytic_dirac_energy(0.0, -1, 1) == 1.0

    def test_first_excited(self):
        assert analytic_dirac_energy(0.5, -1, 1) == pytest.approx(
            0.96592582628906829, abs=1e-15)

    def test_validation(self):
        with pytest.raises(SpecInvalid):
            analytic_dirac_energy(0.5, 0, 1)
        with pytest.raises(SpecInvalid):
            analytic_dirac_energy(1.0, -1, 0)
        with pytest.raises(SpecInvalid):
            analytic_dirac_energy(0.5, -1, -1)
        with pytest.raises(SpecInvalid):
            analytic_dirac_energy(0.5, 1, 0)
        assert analytic_dirac_energy(0.5, 1, 1) == pytest.approx(
            0.96592582628906829, abs=1e-15)


class TestApsCylinder:
    def test_complex_modes_are_rejected(self):
        # a float cast read the mode 1 + 2j as 1
        with pytest.raises(SpecInvalid, match="modes must be real"):
            ApsSpec(modes=(0.0, 1.0 + 2.0j), length_l=1.0, n=8)

    def test_validation(self):
        with pytest.raises(SpecInvalid):
            ApsSpec(modes=(), length_l=math.pi, n=32)
        with pytest.raises(SpecInvalid):
            ApsSpec(modes=(0.0,), length_l=0.0, n=32)
        with pytest.raises(SpecInvalid):
            ApsSpec(modes=(0.0,), length_l=math.pi, n=4)

    def test_a_size_must_be_an_integer(self):
        for n in (8.5, 8.0, True):
            with pytest.raises(SpecInvalid, match="n must be an integer"):
                ApsSpec(modes=(0.0,), length_l=1.0, n=n)
        assert ApsSpec(modes=(0.0,), length_l=1.0, n=np.int32(8)).n == 8

    def test_sigma_min_closed_form(self):
        for n, length in ((12, math.pi), (33, 2.0)):
            smallest = sla.svdvals(dense(forward_difference(n, length)))[-1]
            assert smallest == pytest.approx(aps_sigma_min(n, length), rel=1e-12)

    @pytest.mark.parametrize("spec", [ApsSpec((0.0, 1.0), math.pi, 16),
                                      ApsSpec((0.0, 3.0, -3.0), 1.0, 50)], ids=str)
    def test_closed_form_levels_are_the_dense_spectrum_above_zero(self, spec):
        # A = [[0, c.T], [c, 0]]: its eigenvalues above lambda0 = 0 are c's singular values
        levels = aps_levels(spec)
        op = build_aps_cylinder(spec)
        top = dense_spectrum(op)[-len(levels):]
        assert levels.shape == (len(spec.modes) * spec.n,)
        assert np.abs(top - levels).max() <= op.dim * np.finfo(float).eps * levels[-1]
        assert aps_sigma_min(spec.n, spec.length_l) == levels[0]

    def test_levels_past_the_square_range_are_finite(self):
        # mode^2 overflows once |mode| passes about 1.3e154; the scaled terms do not
        levels = aps_levels(ApsSpec(modes=(1e200, -1e200, 0.0), length_l=1.0, n=8))
        assert np.all(np.isfinite(levels))
        assert np.all(levels[8:] == 1e200)

    def test_zero_mode_reaches_sigma_min(self):
        spec = ApsSpec(modes=(0.0,), length_l=math.pi, n=32)
        op = build_aps_cylinder(spec)
        assert lambda0(op) == 0.0
        lam1 = lambda_k(op, 1).lambda_k
        assert lam1 == pytest.approx(aps_sigma_min(32, math.pi), abs=1e-10)

    def test_higher_mode_shifts_in_quadrature(self):
        spec = ApsSpec(modes=(3.0,), length_l=math.pi, n=32)
        lam1 = lambda_k(build_aps_cylinder(spec), 1).lambda_k
        expected = math.hypot(3.0, aps_sigma_min(32, math.pi))
        assert lam1 == pytest.approx(expected, abs=1e-10)

    def test_extra_modes_keep_lambda1(self):
        lone = lambda_k(build_aps_cylinder(ApsSpec(modes=(0.0,), length_l=math.pi, n=24)), 1)
        jointly = lambda_k(build_aps_cylinder(ApsSpec(modes=(0.0, 2.0), length_l=math.pi, n=24)), 1)
        assert jointly.lambda_k == pytest.approx(lone.lambda_k, abs=1e-10)

    def test_sorted_union_of_mode_levels(self):
        n, length = 16, math.pi
        spec = ApsSpec(modes=(0.0, 1.0), length_l=length, n=n)
        op = build_aps_cylinder(spec)
        sigmas = [2.0 * (n + 1) / length * math.sin(j * math.pi / (2 * (n + 1)))
                  for j in range(1, n + 1)]
        expected = sorted([s for s in sigmas] + [math.hypot(1.0, s) for s in sigmas])
        results = gap_spectrum(op, 6)
        for res, want in zip(results, expected[:6]):
            assert res.lambda_k == pytest.approx(want, abs=1e-9)


class TestHardy:
    def test_values_decline_with_coupling(self):
        reports = [hardy_check(nu, 1500, 30.0) for nu in (0.0, 0.5, 1.0)]
        assert all(r.passed for r in reports)
        values = [r.value for r in reports]
        assert values[0] >= 0.99
        assert values[1] >= 0.5
        assert values[2] >= 0.0
        assert values[0] > values[1] > values[2]

    def test_report_shape(self):
        report = hardy_check(0.9, 600, 30.0)
        assert report.check == "hardy"
        assert report.params["grading"] == "quadratic"
        assert report.passed


class TestRandomGapped:
    def test_certificate_holds(self):
        op = random_gapped(RandomSpec(n_plus=9, n_minus=7, gap_target=1.0, seed=42))
        cert = lambda1_certificate(op)
        assert cert.valid
        assert cert.lambda1 - cert.lambda0 >= 0.5

    @settings(max_examples=100, deadline=None)
    @given(n_plus=st.integers(1, 40), n_minus=st.integers(1, 40),
           gap_target=st.floats(0.01, 100.0), seed=st.integers(0, 2**32 - 1))
    def test_gapped_by_construction(self, n_plus, n_minus, gap_target, seed):
        # K_e >= p - e > 0 on (lambda0, min eig p), so lambda1 >= min eig p >= 0.3*scale
        op = random_gapped(RandomSpec(n_plus=n_plus, n_minus=n_minus,
                                      gap_target=gap_target, seed=seed))
        scale = max(1.0, gap_target)
        # the eigensolve of the rotated amm rounds at eps*||amm||
        assert lambda0(op) <= -gap_target + 1e-12 * scale
        cert = lambda1_certificate(op)
        assert cert.valid
        assert cert.lambda1 >= 0.3 * scale * (1.0 - 1e-12)

    def test_draw_runs_no_solver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("random_gapped built a Schur system")

        monkeypatch.setattr(schur.SchurSystem, "__init__", refuse)
        op = random_gapped(RandomSpec(n_plus=9, n_minus=7, gap_target=1.0, seed=42))
        assert op.dim == 16

    def test_deterministic(self):
        a = random_gapped(RandomSpec(n_plus=6, n_minus=5, gap_target=2.0, seed=11))
        b = random_gapped(RandomSpec(n_plus=6, n_minus=5, gap_target=2.0, seed=11))
        assert np.array_equal(a.p, b.p)
        assert np.array_equal(a.c, b.c)
        assert np.array_equal(a.amm, b.amm)

    def test_negative_seed_is_invalid(self):
        with pytest.raises(SpecInvalid, match="seed must be at least 0"):
            RandomSpec(4, 4, seed=-1)

    def test_distinct_seeds_differ(self):
        a = random_gapped(RandomSpec(n_plus=6, n_minus=5, seed=1))
        b = random_gapped(RandomSpec(n_plus=6, n_minus=5, seed=2))
        assert not np.array_equal(a.c, b.c)

    def test_the_largest_gap_target_draws_without_a_warning(self):
        # warnings are errors here, so an overflow to inf in any product fails the test;
        # one float past the bound is no spec (1e308 passed, then numpy's uniform overflowed)
        op = random_gapped(RandomSpec(4, 4, gap_target=GAP_TARGET_MAX, seed=5))
        assert all(np.isfinite(block).all() for block in (op.p, op.c, op.amm))
        assert GAP_TARGET_MAX == sys.float_info.max / 6
        with pytest.raises(SpecInvalid, match=r"^gap_target must lie in \(0, "):
            RandomSpec(4, 4, gap_target=np.nextafter(GAP_TARGET_MAX, math.inf))

    def test_gap_scales_with_target(self):
        op = random_gapped(RandomSpec(n_plus=6, n_minus=5, gap_target=4.0, seed=3))
        assert lambda0(op) <= -4.0 + 1e-12

    def test_validation(self):
        with pytest.raises(SpecInvalid):
            RandomSpec(n_plus=0, n_minus=5)
        with pytest.raises(SpecInvalid):
            RandomSpec(n_plus=5, n_minus=5, gap_target=0.0)

    def test_a_size_must_be_an_integer(self):
        # n_plus=8.5 failed in the generator with a bare TypeError
        for dims in ((8.5, 5), (5, 2.0), (True, 5)):
            with pytest.raises(SpecInvalid, match="must be an integer"):
                RandomSpec(*dims)
        op = random_gapped(RandomSpec(n_plus=np.int64(6), n_minus=np.int32(5)))
        assert (op.n_plus, op.n_minus) == (6, 5)


@pytest.mark.parametrize("build", [
    lambda: build_dirac_coulomb(DiracSpec(nu=0.5, kappa=-1, n=5001, r_max=30.0)),
    lambda: build_aps_cylinder(ApsSpec(modes=(0.0,), length_l=1.0, n=2500)),
    lambda: random_gapped(RandomSpec(n_plus=5001, n_minus=1)),
], ids=["dirac", "aps", "random"])
def test_an_over_cap_model_is_rejected_before_any_block_is_built(build):
    # the builders made their dense blocks before BlockOperator refused them:
    # 573 MiB for Dirac n=5001; APS n=2500 has a 5001-row lower block
    tracemalloc.start()
    try:
        with pytest.raises(BadSplit, match="cap 5000"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("build", [
    lambda: build_dirac_coulomb(DiracSpec(nu=0.9, kappa=-1, n=5000, r_max=30.0)),
    lambda: build_aps_cylinder(ApsSpec(modes=(0.0,), length_l=1.0, n=2499)),
], ids=["dirac", "aps"])
def test_a_model_at_the_cap_is_built_and_solved_in_o_n_memory(build):
    # the dense blocks of Dirac n=5000 took 959 MiB to build; as CSR the build and
    # the banded solve of the first level each peak near 1 MiB
    tracemalloc.start()
    try:
        rows = gap_spectrum(build(), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows[0].status == "ok"
    assert peak < 4 * 2**20


def test_the_aps_cap_counts_each_modes_lower_block():
    # each mode adds n upper and 2n + 1 lower coordinates
    ApsSpec(modes=(0.0,), length_l=1.0, n=2499)
    ApsSpec(modes=(0.0, 3.0), length_l=1.0, n=1249)
    with pytest.raises(BadSplit, match="cap 5000"):
        ApsSpec(modes=(0.0, 3.0), length_l=1.0, n=1250)
