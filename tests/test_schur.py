import contextlib
import io
import math
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
from scipy import sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import gapeig.schur as schur
from gapeig import blockop, cli
from conftest import dense
from gapeig import (
    ApsSpec,
    BadSplit,
    BlockOperator,
    DiracSpec,
    EigFailure,
    KOutOfRange,
    NonFinite,
    NotPositiveDefinite,
    RandomSpec,
    SchurSystem,
    ZeroVector,
    build_aps_cylinder,
    build_dirac_coulomb,
    build_schur,
    decomposition_residual,
    dense_spectrum,
    energy_of_vector,
    extension_consistency,
    gap_eigs_bruteforce,
    gap_spectrum,
    lambda0,
    lambda1_certificate,
    mu_k,
    q_e_form,
    random_gapped,
)
from gapeig.minmax import _newton
from gapeig.verify import e_samples, sandwich_report
from gapeig.schur import (
    GAP_EDGE_MARGIN,
    apply_l,
    gap_edge,
    mu_k_with_vector,
    pencil_values_in_band,
    q_value_and_slope,
)

SQRT2 = math.sqrt(2.0)


def _coupled_form(op, e, x, y):
    """(x+y).T A (x+y) - e ||x+y||^2 with A applied blockwise; defined for every real e."""
    value = x @ (op.p @ x) + 2.0 * (y @ (op.c @ x)) + y @ (op.amm @ y)
    return float(value - e * (x @ x + y @ y))


def test_resolvent_residual(campaign_ops):
    # the lift solves (b + e*I) y = c x; on these dense blocks by a division in amm's
    # eigenbasis with one refinement step, rotated back
    rng = np.random.default_rng(3)
    for op in campaign_ops[:5]:
        b = -op.amm
        e = lambda0(op) + 0.5
        x = rng.standard_normal(op.n_plus)
        v = op.c @ x
        y = build_schur(op, e).lift(x)
        assert np.linalg.norm((b + e * np.eye(op.n_minus)) @ y - v) <= 1e-10 * np.linalg.norm(v)


def test_build_schur_canonical_scalars(canonical):
    s = build_schur(canonical, 1.0)
    assert s.l_e == pytest.approx(np.array([[0.5]]), abs=1e-15)
    assert s.k_e == pytest.approx(np.array([[0.5]]), abs=1e-15)
    assert s.value(1) == pytest.approx(0.5, abs=1e-15)


def test_build_schur_singular_at_eigenvalue(canonical):
    s = build_schur(canonical, SQRT2)
    assert abs(s.k_e[0, 0]) <= 1e-12


def test_build_schur_decoupled(decoupled23):
    s = build_schur(decoupled23, 0.5)
    assert np.array_equal(s.l_e, np.zeros((1, 2)))
    assert s.k_e == pytest.approx(np.diag([1.5, 2.5]))


def test_build_schur_requires_margin(canonical):
    with pytest.raises(NotPositiveDefinite):
        build_schur(canonical, -1.0 + 1e-11)


def _sparse_coupling_op():
    """Diagonal amm and p tridiagonal; each row of c holds at most two entries
    within three adjacent columns, and every fifth row is empty."""
    rng = np.random.default_rng(17)
    n_plus, n_minus = 160, 200
    c = np.zeros((n_minus, n_plus))
    for row in range(n_minus):
        if row % 5:
            first = int(rng.integers(0, n_plus - 2))
            c[row, first + rng.choice(3, size=2, replace=False)] = rng.standard_normal(2)
    off = rng.standard_normal(n_plus - 1)
    p = np.diag(rng.uniform(0.5, 3.0, n_plus)) + np.diag(off, 1) + np.diag(off, -1)
    return BlockOperator(p=p, c=c, amm=np.diag(-1.0 - rng.uniform(0.0, 2.0, n_minus)))


def _dirac(n, kappa, grading):
    return build_dirac_coulomb(DiracSpec(nu=0.5, kappa=kappa, n=n, r_max=30.0,
                                         grading=grading))


# one operator per pencil backend: the dense path with a zero, a diagonal and
# a dense lower block (rotated to its eigenbasis); the banded path with
# diagonal lower blocks (APS's is zero) and narrow pencil bands
DENSE = {
    "aps-zero": lambda: build_aps_cylinder(ApsSpec(modes=(0.0, 2.0), length_l=1.0, n=8)),
    "dirac-diagonal": lambda: build_dirac_coulomb(DiracSpec(nu=0.5, kappa=-1, n=20,
                                                            r_max=10.0)),
    "random-dense": lambda: random_gapped(RandomSpec(n_plus=6, n_minus=9, seed=3)),
}
BANDED = {
    "banded-dirac-uniform-": lambda: _dirac(200, -1, "uniform"),
    "banded-dirac-uniform+": lambda: _dirac(200, 1, "uniform"),
    "banded-dirac-quadratic-": lambda: _dirac(200, -1, "quadratic"),
    "banded-dirac-quadratic+": lambda: _dirac(200, 1, "quadratic"),
    "banded-aps": lambda: build_aps_cylinder(ApsSpec(modes=(0.0, 3.0, -3.0),
                                                     length_l=1.0, n=60)),
    "banded-sparse-coupling": _sparse_coupling_op,
}
STRUCTURES = {**DENSE, **BANDED}


@pytest.fixture(params=sorted(STRUCTURES))
def structured_op(request):
    return STRUCTURES[request.param]()


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_structure_rule_picks_the_backend(name):
    op = STRUCTURES[name]()
    system = build_schur(op, lambda0(op) + 0.7)
    assert (system._lower.w is not None) == (name in BANDED)


def _band_between(values, count, tol):
    """A band holding at least the count smallest |values|, farther than tol from all."""
    mags = np.sort(np.abs(values))
    gaps = np.flatnonzero(np.diff(mags) > 4.0 * tol)
    gaps = gaps[gaps >= count - 1]
    return 0.5 * (mags[gaps[0]] + mags[gaps[0] + 1]) if len(gaps) else 2.0 * mags[-1]


@pytest.mark.parametrize("name", sorted(n for n in STRUCTURES if "dirac" in n or "aps" in n))
def test_a_model_and_its_dense_twin_give_identical_results(name):
    # a model operator stores CSR blocks; the same blocks stored dense take the same path
    op = STRUCTURES[name]()
    twin = BlockOperator(p=dense(op.p), c=dense(op.c), amm=dense(op.amm))
    assert gap_spectrum(op, 3) == gap_spectrum(twin, 3)
    assert np.array_equal(dense_spectrum(op), dense_spectrum(twin))


def test_sparse_storage_of_a_rotated_operator_agrees_with_dense():
    # a sparse amm that is not diagonal takes the rotated path; its products run on
    # scipy.sparse, so the levels agree to rounding, and the assembled spectrum exactly
    op = random_gapped(RandomSpec(n_plus=30, n_minus=40, gap_target=1.0, seed=11))
    twin = BlockOperator(p=sparse.csr_array(op.p), c=sparse.csr_array(op.c),
                         amm=sparse.csr_array(op.amm))
    ours, theirs = gap_spectrum(op, 5), gap_spectrum(twin, 5)
    assert [r.status for r in ours + theirs] == ["ok"] * 10
    for a, b in zip(ours, theirs):
        assert abs(a.lambda_k - b.lambda_k) <= 1e-13 * abs(a.lambda_k)
        assert a.multiplicity == b.multiplicity
    assert np.array_equal(dense_spectrum(op), dense_spectrum(twin))
    e = lambda0(op) + 0.7
    assert _rel(build_schur(twin, e).l_e, build_schur(op, e).l_e) <= 1e-13


@pytest.mark.parametrize("name", sorted(BANDED))
@pytest.mark.parametrize("offset", (1e-3, 0.7, 40.0))
def test_banded_pencil_matches_dense_eigh(name, offset):
    op = BANDED[name]()
    s = build_schur(op, lambda0(op) + offset)
    k_e = blockop.dense(s.k_e)
    ref = np.linalg.eigvalsh(k_e)
    scale = 1e-12 * np.linalg.norm(k_e, 2)
    for k in range(1, 6):
        assert abs(s.value(k) - ref[k - 1]) <= scale
        kappa, x = s.vector(k)
        assert kappa == s.value(k)
        assert np.linalg.norm(x) == pytest.approx(1.0, rel=1e-15)
        assert np.linalg.norm(k_e @ x - kappa * x) <= scale
    band = _band_between(ref, 5, scale)
    got = s.values_in(-band, band)
    want = ref[np.abs(ref) <= band]
    assert len(got) == len(want) >= 5
    assert np.abs(got - want).max() <= scale


@pytest.mark.parametrize("name", sorted(n for n in BANDED if n != "banded-aps"))
def test_a_vector_next_to_a_root_comes_from_the_factor(monkeypatch, name):
    # 1e-6 from each of the first three roots the inverse iteration at 0 certifies the level
    # k that crosses 0 there with no fallback: the residual is at the rounding floor, and
    # the value within it (and eigh's own rounding) of eigh's, with the same sign. The
    # sparse-coupling fixture's p reaches below lambda0, so there k is one past the root's
    # index, and asking it for the root's index must fall back
    op = BANDED[name]()
    fallbacks = _counted_fallbacks(monkeypatch)
    lam0 = lambda0(op)
    roots = [value for value, _ in gap_eigs_bruteforce(op, lam0 + 1e-8, math.inf)][:3]
    for j, root in enumerate(roots, start=1):
        k = build_schur(op, root - 1e-6).count() + 1
        assert k == j + (name == "banded-sparse-coupling")
        for e in (root - 1e-6, root + 1e-6):
            s = build_schur(op, e)
            k_e = blockop.dense(s.k_e)
            want = np.linalg.eigvalsh(k_e)[k - 1]
            kappa, x = s.vector(k)
            r = np.linalg.norm(k_e @ x - kappa * x)
            floor = 25 * np.finfo(float).eps * np.abs(s._band).max()
            assert r <= floor
            assert abs(kappa - want) <= r + floor and np.sign(kappa) == np.sign(want)
            assert np.linalg.norm(x) == pytest.approx(1.0, rel=1e-15)
    assert +fallbacks == Counter()
    if name == "banded-sparse-coupling":
        s = build_schur(op, roots[2] + 1e-6)
        assert s.vector(3)[0] == s.value(3) and fallbacks["vector"] == 1


@pytest.mark.parametrize("name, w", [("banded-dirac-uniform-", 2), ("banded-aps", 1),
                                     *((name, None) for name in sorted(DENSE))])
def test_the_band_is_formed_once_per_energy(monkeypatch, name, w):
    # every read of k_e takes the one k_e as it stands. Banded: one band and no lower
    # solve of c; solve_k and vector leave the band unchanged, and k_e is its CSR matrix
    # by one conversion; with w >= 2 the band is factored once at 0, for counts and
    # vectors alike, and a vector's certificate adds at most one factor of k_e - sigma*I.
    # Dense: one lower solve of c, no band and no factor
    bands, lifts, shifts = [], [], []

    def counted_band(m, width, _original=schur.band):
        bands.append(width)
        return _original(m, width)

    def counted_solve(self, rhs, _original=SchurSystem._solve):
        lifts.append(rhs is self._lower.c)
        return _original(self, rhs)

    def counted_inertia(band, sigma, _original=schur.inertia):
        shifts.append(sigma)
        return _original(band, sigma)

    monkeypatch.setattr(schur, "band", counted_band)
    monkeypatch.setattr(SchurSystem, "_solve", counted_solve)
    monkeypatch.setattr(schur, "inertia", counted_inertia)
    op = STRUCTURES[name]()
    system = build_schur(op, lambda0(op) + 0.7)
    system.value(1)
    formed = system._band.copy() if system.banded else None
    system.levels(3)
    system.values_in(-1.0, 1.0)
    assert system.count() == system.count() == len(system.values_in(-math.inf, 0.0))
    system.vector(2)
    system.vector(1)
    system.solve_k(np.eye(op.n_plus)[:, :4])
    k_e = system.k_e
    assert system.banded == (w is not None)
    if w is None:
        assert bands == [] and lifts == [True] and shifts == []
        assert np.array_equal(k_e, k_e.T)
        return
    assert bands == [w] and True not in lifts
    assert shifts.count(0.0) == (w >= 2) and len(shifts) <= (w >= 2) * 3
    assert np.array_equal(system._band, formed)
    expected = blockop.band_matrix(system._band, "csr")
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(k_e, part), getattr(expected, part))
    assert np.array_equal(k_e.toarray(), k_e.toarray().T)


def _counted_fallbacks(patch) -> Counter:
    """From here on, the evaluations of a banded k_e of w >= 2 that leave its factor for
    dsbevx, by kind: a count by values_in, a vector by _shifted_vector."""
    fallbacks = Counter()
    for name, kind in (("values_in", "count"), ("_shifted_vector", "vector")):
        def counted(self, *args, _original=getattr(SchurSystem, name), _kind=kind):
            fallbacks[_kind] += self.banded and self._lower.w >= 2
            return _original(self, *args)

        patch.setattr(SchurSystem, name, counted)
    return fallbacks


# ROADMAP item 23's operators, whose k_e has half-bandwidth 2
SLICED = {
    "nu0.5-uniform-1200": DiracSpec(nu=0.5, kappa=-1, n=1200, r_max=30.0),
    "nu0.9-quadratic-1200": DiracSpec(nu=0.9, kappa=-1, n=1200, r_max=30.0,
                                      grading="quadratic"),
    "nu0.99-uniform-2000": DiracSpec(nu=0.99, kappa=-1, n=2000, r_max=30.0),
}


@pytest.mark.parametrize("name", sorted(SLICED))
def test_the_ldl_count_is_the_dsbevx_count(name):
    # 60 energies across the gap below 1 and 1e-9 on either side of each of the first 5
    # roots: the negative pivots of k_e's LDL^T are dsbevx's count of kappa <= 0
    op = build_dirac_coulomb(SLICED[name])
    lam0 = lambda0(op)
    roots = [value for value, _ in gap_eigs_bruteforce(op, lam0 + 1e-8, 1.0)][:5]
    assert len(roots) == 5
    for e in [*np.linspace(lam0, 1.0, 62)[1:-1], *(r + d for r in roots for d in (-1e-9, 1e-9))]:
        system = build_schur(op, e)
        assert system._lower.w == 2
        negatives, _ = blockop.inertia(system._band, 0.0)
        assert negatives == system.count() == len(system.values_in(-math.inf, 0.0))


@pytest.fixture(scope="module")
def golden_dirac_probes():
    """(operator, energy) of every k_e the golden Dirac runs (spectrum_dirac,
    verify_dirac600, pollution) form on the LDL^T path, and the fallbacks they take."""
    from test_golden import generate

    probes = {}

    def recorded(self, op, e, _original=SchurSystem.__init__):
        _original(self, op, e)
        if self.banded and self._lower.w >= 2:
            probes[id(op), self.e] = op, self.e

    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(io.StringIO()):
        patch.setattr(SchurSystem, "__init__", recorded)
        fallbacks = _counted_fallbacks(patch)
        cli.run(cli.config_from_dict(generate.CONFIGS["dirac"]))
        cli.verify_all(cli.config_from_dict(generate.CONFIGS["dirac600"]))
        cli.main(["pollution"])
    return list(probes.values()), +fallbacks


def test_the_ldl_count_is_the_dsbevx_count_at_every_golden_probe(golden_dirac_probes):
    # the counts may differ only by levels within both methods' backward errors of 0, under
    # n_plus eps ||k_e|| with ||k_e|| <= (2w + 1) max|band|: two probes hold one, the roots
    # of spectrum_dirac's level 2 at n = 600 (kappa_2 = 6.2e-13) and of pollution's level
    # 1 at n = 600 (kappa_1 = 1.7e-13), where dsbevx reads kappa > 0 and the LDL^T kappa < 0
    probes, _ = golden_dirac_probes
    assert len(probes) == 90
    split = 0
    for op, e in probes:
        system = build_schur(op, e)
        assert system._ldl is not None
        rounding = op.n_plus * 5 * np.finfo(float).eps * np.abs(system._band).max()
        below = len(system.values_in(-math.inf, 0.0))
        assert abs(system.count() - below) <= len(system.values_in(-rounding, rounding))
        split += system.count() != below
    assert split == 2


def test_the_golden_dirac_runs_take_a_stated_number_of_fallbacks(golden_dirac_probes):
    # every fallback is a first Newton step, whose inverse iteration at 0 converges too
    # slowly to certify its level: levels 2 and 3 of spectrum_dirac on each grid, where
    # kappa_2 and kappa_3 sit close together, and pollution's level 1 on each grid, where
    # the near pair kappa_2, kappa_3 lies closer to 0 than kappa_1
    assert golden_dirac_probes[1] == Counter(vector=8)  # and no count


def test_a_banded_solve_calls_dsbevx_only_for_ladder_probes_and_fallbacks(monkeypatch):
    calls, probes = [], []

    def counted(*args, _original=sla.eig_banded, **kwargs):
        calls.append(kwargs["select"])
        return _original(*args, **kwargs)

    def ladder(self, m, _original=SchurSystem.levels):
        probes.append(self.e)
        return _original(self, m)

    monkeypatch.setattr(schur.sla, "eig_banded", counted)
    monkeypatch.setattr(SchurSystem, "levels", ladder)
    fallbacks = _counted_fallbacks(monkeypatch)
    op = build_dirac_coulomb(DiracSpec(nu=0.5, kappa=-1, n=1200, r_max=30.0))
    (row,) = gap_spectrum(op, 1)
    assert row.status == "ok" and row.multiplicity == 1
    assert len(probes) == 3 and +fallbacks == Counter()
    assert len(calls) == len(probes) + fallbacks.total()


def _diagonal_op(n):
    """p = diag(1..n) as CSR and no coupling: A's levels above lambda0 = -1 are 1..n,
    each a root where kappa is exactly 0."""
    return BlockOperator(p=sparse.csr_array(sparse.diags(np.arange(1.0, n + 1))),
                         c=sparse.csr_array((1, n)), amm=np.array([[-1.0]]))


@pytest.mark.parametrize("n", (64, 400))
def test_a_banded_vector_at_kappa_zero_is_finite(n):
    # at kappa = 0 a shift of a few ulps alone is subnormal, and the banded inverse
    # iteration overflows; its floor relative to the band keeps every row the dense path's
    op = _diagonal_op(n)
    assert build_schur(op, 0.5).banded and not build_schur(_diagonal_op(16), 0.5).banded
    rows = [(r.lambda_k, r.multiplicity, r.status) for r in gap_spectrum(op, 3)]
    assert rows == [(r.lambda_k, r.multiplicity, r.status)
                    for r in gap_spectrum(_diagonal_op(16), 3)]
    assert rows == [(1.0, 1, "ok"), (2.0, 1, "ok"), (3.0, 1, "ok")]


def test_banded_vectors_of_a_degenerate_pair_stay_in_its_eigenspace():
    # modes +3 and -3 give every level of that mode twice, exactly
    op = BANDED["banded-aps"]()
    s = build_schur(op, 0.7)
    assert s.value(3) - s.value(2) <= 1e-14 * abs(s.value(2))
    (_, x2), (_, x3) = s.vector(2), s.vector(3)
    ref_vals, ref_vecs = sla.eigh(blockop.dense(s.k_e), subset_by_index=[1, 2])
    assert ref_vals[1] - ref_vals[0] <= 1e-12 * abs(ref_vals[0])
    # each vector lies in the dense pair's eigenspace
    for x in (x2, x3):
        inside = ref_vecs @ (ref_vecs.T @ x)
        assert np.linalg.norm(x - inside) <= 1e-10 * np.linalg.norm(x)


def test_banded_gap_spectrum_needs_no_dense_eigh(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigh on a banded operator")

    monkeypatch.setattr(schur.sla, "eigh", refuse)
    dirac = gap_spectrum(build_dirac_coulomb(DiracSpec(nu=0.5, kappa=-1, n=1200,
                                                       r_max=30.0)), 2)
    assert dirac[0].lambda_k == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-8)
    aps = gap_spectrum(build_aps_cylinder(ApsSpec(modes=(0.0, 3.0, -3.0), length_l=1.0,
                                                  n=400)), 5)
    assert [r.multiplicity for r in aps] == [1, 2, 2, 1, 2]
    assert all(r.status == "ok" for r in dirac + aps)


def _rel(a, b):
    return np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b))


@pytest.mark.parametrize("offset", (1e-3, 0.7, 40.0))
def test_pencil_matches_dense_reference(structured_op, offset):
    op = structured_op
    e = lambda0(op) + offset
    p, c, amm = dense(op.p), dense(op.c), dense(op.amm)
    l_ref = np.linalg.solve(-amm + e * np.eye(op.n_minus), c)
    k_ref = p - e * np.eye(op.n_plus) + c.T @ l_ref
    s = build_schur(op, e)
    assert _rel(blockop.dense(s.k_e), k_ref) <= 1e-12
    assert np.array_equal(blockop.dense(s.k_e), blockop.dense(s.k_e).T)
    assert _rel(blockop.dense(s.l_e), l_ref) <= 1e-12


def test_methods_equal_the_module_functions(structured_op):
    op = structured_op
    e = lambda0(op) + 0.7
    s = build_schur(op, e)
    x = np.random.default_rng(5).standard_normal(op.n_plus)
    for k in (1, 2, op.n_plus):
        assert s.value(k) == mu_k(op, e, k)
        value, vec = s.vector(k)
        ref_value, ref_vec = mu_k_with_vector(op, e, k)
        assert value == ref_value
        assert np.array_equal(vec, ref_vec)
    band = abs(s.value(2)) + 1.0
    assert np.array_equal(s.values_in(-band, band), pencil_values_in_band(op, e, band))
    assert len(s.values_in(-band, band)) >= 2
    assert np.array_equal(s.lift(x), apply_l(op, e, x))
    assert s.form(x) == q_value_and_slope(op, e, x)


def test_solves_keep_no_lift_matrix(structured_op):
    op = structured_op
    s = build_schur(op, lambda0(op) + 0.7)
    x = np.ones(op.n_plus)
    s.vector(1)
    s.values_in(-1.0, 1.0)
    s.lift(x)
    s.form(x)
    assert "l_e" not in vars(s)


def test_newton_candidate_is_the_rayleigh_quotient(structured_op):
    # phi_0(x, l x) = q_e(x, x) + e ||z||^2, so e - q/q' is A's quotient at z
    op = structured_op
    rng = np.random.default_rng(41)
    for offset in (1e-3, 0.7, 40.0):
        e = lambda0(op) + offset
        for x in (build_schur(op, e).vector(1)[1], rng.standard_normal(op.n_plus)):
            y = apply_l(op, e, x)
            quotient = _coupled_form(op, 0.0, x, y) / float(x @ x + y @ y)
            assert _newton(op, e, x)[1] == pytest.approx(quotient, rel=1e-14)


def test_residual_matches_the_assembled_operator(structured_op):
    op = structured_op
    full = op.assembled()
    rng = np.random.default_rng(43)
    for offset in (1e-3, 0.7, 40.0):
        e = lambda0(op) + offset
        s = build_schur(op, e)
        for x in (s.vector(1)[1], rng.standard_normal(op.n_plus)):
            z = np.concatenate([x, s.lift(x)])
            ref = np.linalg.norm(full @ z - e * z) / np.linalg.norm(z)
            assert s.residual(x) == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("name", ["banded-dirac-uniform-", "random-dense"])
def test_the_residual_of_a_zero_vector_is_zero_vector(name):
    op = STRUCTURES[name]()
    s = build_schur(op, lambda0(op) + 0.7)
    assert s.banded == (name in BANDED)
    with pytest.raises(ZeroVector):
        s.residual(np.zeros(op.n_plus))


def test_the_residual_does_not_overflow_at_a_large_scale():
    # at gap_target 1e200 the squares of A z - e z pass float range; summed after an exact
    # power-of-two scaling they do not, so each row stays ok (and warns of no overflow)
    op = random_gapped(RandomSpec(n_plus=8, n_minus=8, gap_target=1e200, seed=0))
    spectrum = dense_spectrum(op)
    exact = spectrum[spectrum > lambda0(op)][:3]
    rows = gap_spectrum(op, 3)
    assert [r.status for r in rows] == ["ok"] * 3
    for row, level in zip(rows, exact):
        assert row.lambda_k == pytest.approx(level, rel=2e-15)
        assert 0.0 < row.residual <= 1e-14 * row.lambda_k


@pytest.mark.parametrize("build", (
    lambda: _dirac(600, -1, "uniform"),
    lambda: build_aps_cylinder(ApsSpec(modes=(0.0, 3.0, -3.0), length_l=1.0, n=100)),
), ids=("dirac-600", "aps-100"))
def test_root_loop_reads_no_block_outside_the_pencil(build):
    # once the pencil's storage exists, the operator's own blocks are never read
    op = build()
    first = gap_spectrum(op, 3)
    assert build_schur(op, 1.0)._lower.w is not None
    for name in ("p", "c", "amm"):
        object.__setattr__(op, name, np.full_like(getattr(op, name), np.nan))
    assert gap_spectrum(op, 3) == first


def test_the_memo_does_not_grow_with_the_energies_seen():
    op = DENSE["random-dense"]()
    gap_spectrum(op, 5)
    keys = set(op._memo)
    lower = build_schur(op, lambda0(op) + 1.0)._lower
    held = dict(vars(lower))
    x = np.ones(op.n_plus)
    for offset in np.geomspace(1e-3, 1e3, 25):
        s = build_schur(op, lambda0(op) + offset)
        s.value(1), s.vector(2), s.l_e, s.lift(x), s.form(x), s.residual(x)
        decomposition_residual(op, s.e), extension_consistency(op, s.e)
    sandwich_report(op, "m", e_samples(op))
    assert set(op._memo) == keys
    assert vars(lower).keys() == held.keys()
    assert all(vars(lower)[name] is value for name, value in held.items())


def _record_eigh_shapes(monkeypatch):
    """Every eigh records the shape of its matrix."""
    shapes = []

    def counted(a, *args, _original=schur.sla.eigh, **kwargs):
        shapes.append(np.shape(a))
        return _original(a, *args, **kwargs)

    monkeypatch.setattr(schur.sla, "eigh", counted)
    return shapes


def test_a_repeated_spectrum_eigensolves_no_lower_block(monkeypatch):
    # amm's eigenbasis is computed once per operator, whatever the energies
    op = DENSE["random-dense"]()
    first = gap_spectrum(op, 5)
    square = (op.n_minus, op.n_minus)
    assert op.n_minus != op.n_plus
    shapes = _record_eigh_shapes(monkeypatch)
    assert gap_spectrum(op, 5) == first
    sandwich_report(op, "m", e_samples(op))
    assert shapes and square not in shapes
    # a fresh operator with the same blocks does take the one eigh
    lambda0(BlockOperator(p=op.p, c=op.c, amm=op.amm))
    assert shapes.count(square) == 1


def test_a_dense_lower_block_and_its_rotated_twin_agree():
    op = random_gapped(RandomSpec(n_plus=30, n_minus=40, gap_target=1.0, seed=11))
    d, q = np.linalg.eigh(op.amm)
    twin = BlockOperator(p=op.p, c=q.T @ op.c, amm=np.diag(d))
    ours, theirs = gap_spectrum(op, 5), gap_spectrum(twin, 5)
    assert [r.status for r in ours + theirs] == ["ok"] * 10
    for a, b in zip(ours, theirs):
        assert abs(a.lambda_k - b.lambda_k) <= 1e-14 * abs(b.lambda_k)
        assert a.multiplicity == b.multiplicity
    x = np.random.default_rng(2).standard_normal(op.n_plus)
    for offset in (1e-3, 0.7, 40.0):
        e = lambda0(op) + offset
        lift = build_schur(op, e).lift(x)
        want = np.linalg.solve(e * np.eye(op.n_minus) - op.amm, op.c @ x)
        assert np.linalg.norm(lift - want) <= 1e-13 * np.linalg.norm(want)
        # the twin's amm is diag(d) exactly, so it misses eigh's residual, which
        # 1/(e - lambda0) amplifies next to lambda0 and the refinement removes
        if offset > 0.1:
            twins = q @ build_schur(twin, e).lift(x)
            assert np.linalg.norm(lift - twins) <= 1e-13 * np.linalg.norm(want)


def test_the_residual_sees_a_wrong_eigenbasis():
    # residual applies amm to the lower half in the operator's own basis, so
    # an eigenbasis off by 1e-6 shows in the reported residual as it does in
    # the assembled A z - e z
    base = random_gapped(RandomSpec(n_plus=30, n_minus=40, gap_target=1.0, seed=11))
    d, q = np.linalg.eigh(base.amm)
    noise = 1e-6 * np.random.default_rng(5).standard_normal(q.shape)
    for basis, low, high in ((q, 0.0, 1e-13), (q + noise, 1e-8, 1e-4)):
        op = BlockOperator(p=base.p, c=base.c, amm=base.amm)
        op.remember("lower_eigen", lambda: (d, basis))
        level = gap_spectrum(op, 1)[0]
        s = build_schur(op, level.lambda_k)
        x = s.vector(1)[1]
        z = np.concatenate([x, s.lift(x)])
        want = np.linalg.norm((op.assembled() - level.lambda_k * np.eye(op.dim)) @ z)
        assert s.residual(x) == pytest.approx(want / np.linalg.norm(z), rel=1e-6)
        assert low <= level.residual <= high


def _assert_edge_rule(op, energies):
    """Every entry point refuses each energy, and takes the first float above the edge."""
    x = np.ones(op.n_plus)
    entry_points = (
        lambda e: SchurSystem(op, e),
        lambda e: build_schur(op, e),
        lambda e: mu_k(op, e, 1),
        lambda e: mu_k_with_vector(op, e, 1),
        lambda e: pencil_values_in_band(op, e, 1.0),
        lambda e: apply_l(op, e, x),
        lambda e: q_e_form(op, e, x),
        lambda e: q_value_and_slope(op, e, x),
    )
    lam0 = lambda0(op)
    for e in energies:
        assert lam0 < e <= gap_edge(lam0)
        for call in entry_points:
            with pytest.raises(NotPositiveDefinite):
                call(e)
    assert math.isfinite(mu_k(op, math.nextafter(gap_edge(lam0), math.inf), 1))


def test_edge_rule_on_every_entry_point(structured_op):
    lam0 = lambda0(structured_op)
    _assert_edge_rule(structured_op, (lam0 + 1e-12, lam0 + 5e-11, lam0 + GAP_EDGE_MARGIN))


@pytest.mark.parametrize("build,scale", [
    (lambda: random_gapped(RandomSpec(n_plus=6, n_minus=9, seed=3)), 1e3),
    (lambda: _dirac(200, -1, "uniform"), 7.0),
], ids=["dense", "banded"])
def test_edge_rule_scales_with_lambda0(build, scale):
    # with |lambda0| > 1 the edge lies GAP_EDGE_MARGIN*|lambda0| above lambda0
    op = build()
    op = BlockOperator(p=scale * op.p, c=scale * op.c, amm=scale * op.amm)
    lam0 = lambda0(op)
    assert abs(lam0) > 2.0
    _assert_edge_rule(op, (lam0 + GAP_EDGE_MARGIN, lam0 + 2.0 * GAP_EDGE_MARGIN,
                           gap_edge(lam0)))


@pytest.mark.parametrize("build", [
    lambda: random_gapped(RandomSpec(n_plus=6, n_minus=9, seed=3)),
    lambda: _dirac(300, -1, "uniform"),
], ids=["dense", "banded"])
def test_a_vector_that_does_not_fit_is_rejected_on_both_paths(build):
    # the dense path's BLAS and the banded path's scipy.sparse would each raise
    # their own error, or none for a NaN, and a float cast dropped an imaginary
    # part; the vector is checked where it enters
    op = build()
    e = lambda0(op) + 0.7
    system = build_schur(op, e)
    entry_points = (system.lift, system.form, system.residual,
                    lambda x: apply_l(op, e, x), lambda x: q_e_form(op, e, x),
                    lambda x: q_value_and_slope(op, e, x))
    n = op.n_plus
    for x, error in ((np.ones(n + 1), BadSplit), (np.ones(n - 1), BadSplit),
                     (np.ones((n, 1)), BadSplit), (np.full(n, np.nan), NonFinite),
                     (np.r_[np.inf, np.ones(n - 1)], NonFinite), (np.ones(n) + 1j, BadSplit)):
        for call in entry_points:
            with pytest.raises(error):
                call(x)
    with pytest.raises(NonFinite):
        energy_of_vector(op, [np.nan] * n)
    with pytest.raises(BadSplit, match="complex"):
        energy_of_vector(op, [1.0 + 1.0j] + [0.0] * (n - 1))


@pytest.mark.parametrize("k", [1.5, 1.0, True])
def test_a_level_index_must_be_an_integer(decoupled23, k):
    # 1 <= k <= n_plus held for 1.5, which read level 1
    system = build_schur(decoupled23, 0.5)
    for call in (system.value, system.levels, system.vector, lambda k: mu_k(decoupled23, 0.5, k)):
        with pytest.raises(KOutOfRange, match="integer"):
            call(k)
    assert system.value(np.int64(2)) == system.value(2)


def test_schur_matrix_matches_form(campaign_ops):
    rng = np.random.default_rng(11)
    for op in campaign_ops[:6]:
        e = lambda0(op) + 0.7
        s = build_schur(op, e)
        x = rng.standard_normal(op.n_plus)
        lhs = x @ (s.k_e @ x)
        rhs = q_e_form(op, e, x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-11)


def test_q_form_canonical(canonical):
    assert q_e_form(canonical, 0.0, np.array([1.0])) == pytest.approx(2.0, abs=1e-15)
    assert abs(q_e_form(canonical, SQRT2, np.array([1.0]))) <= 1e-12
    assert q_e_form(canonical, 0.0, np.zeros(1)) == 0.0


def test_mu_canonical_at_zero(canonical):
    # k_0 = p + c.T (b + 0)^{-1} c = 1 + 1
    assert mu_k(canonical, 0.0, 1) == pytest.approx(2.0, abs=1e-12)


def test_mu_decoupled_second_level(decoupled23):
    assert mu_k(decoupled23, 2.5, 2) == pytest.approx(0.5, abs=1e-12)


def test_mu_root_at_eigenvalue(canonical):
    assert abs(mu_k(canonical, SQRT2, 1)) <= 1e-10


def test_mu_k_out_of_range(canonical):
    with pytest.raises(KOutOfRange):
        mu_k(canonical, 0.0, 0)
    with pytest.raises(KOutOfRange):
        mu_k(canonical, 0.0, 2)


def test_mu_needs_energy_above_lambda0(canonical):
    with pytest.raises(NotPositiveDefinite):
        mu_k(canonical, -1.0, 1)
    with pytest.raises(NotPositiveDefinite):
        mu_k(canonical, -2.0, 1)


def _sample_energies(rng, lam0):
    lo, hi = np.sort(lam0 + 10.0 ** rng.uniform(-2.0, 2.0, 2))
    if hi - lo < 1e-9:
        hi = lo + 1e-3
    return lo, hi


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_sandwich_inequality(seed):
    rng = np.random.default_rng(seed)
    op = random_gapped(RandomSpec(n_plus=int(rng.integers(2, 12)),
                                  n_minus=int(rng.integers(2, 12)),
                                  gap_target=1.0, seed=seed))
    lam0 = lambda0(op)
    e_lo, e_hi = _sample_energies(rng, lam0)
    x = rng.standard_normal(op.n_plus)
    q_lo, slope_lo = q_value_and_slope(op, e_lo, x)
    q_hi, slope_hi = q_value_and_slope(op, e_hi, x)
    gap = e_hi - e_lo
    scale = max(1.0, abs(q_lo), abs(q_hi))
    # two-sided monotonicity bound with the e-norms as moduli
    assert q_hi + gap * (-slope_hi) <= q_lo + 1e-10 * scale
    assert q_lo <= q_hi + gap * (-slope_lo) + 1e-10 * scale


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_norm_chain(seed):
    rng = np.random.default_rng(seed)
    op = random_gapped(RandomSpec(n_plus=int(rng.integers(2, 12)),
                                  n_minus=int(rng.integers(2, 12)),
                                  gap_target=1.0, seed=seed))
    lam0 = lambda0(op)
    e_lo, e_hi = _sample_energies(rng, lam0)
    x = rng.standard_normal(op.n_plus)
    norm = math.sqrt(float(x @ x))
    _, slope_lo = q_value_and_slope(op, e_lo, x)
    _, slope_hi = q_value_and_slope(op, e_hi, x)
    norm_lo = math.sqrt(-slope_lo)
    norm_hi = math.sqrt(-slope_hi)
    slack = 1e-10 * max(1.0, norm_lo)
    assert norm <= norm_hi + slack
    assert norm_hi <= norm_lo + slack
    assert norm_lo <= (e_hi - lam0) / (e_lo - lam0) * norm_hi + slack


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_resolvent_identity_for_lifting(seed):
    rng = np.random.default_rng(seed)
    op = random_gapped(RandomSpec(n_plus=int(rng.integers(2, 10)),
                                  n_minus=int(rng.integers(2, 10)),
                                  gap_target=1.0, seed=seed))
    lam0 = lambda0(op)
    e_lo, e_hi = _sample_energies(rng, lam0)
    x = rng.standard_normal(op.n_plus)
    left = apply_l(op, e_lo, x) - apply_l(op, e_hi, x)
    shifted_lo = -op.amm + e_lo * np.eye(op.n_minus)
    right = (e_hi - e_lo) * np.linalg.solve(shifted_lo, apply_l(op, e_hi, x))
    assert np.linalg.norm(left - right) <= 1e-10 * max(1.0, np.linalg.norm(left))


def test_maximizer_property(campaign_ops):
    rng = np.random.default_rng(23)
    for op in campaign_ops[:6]:
        e = lambda0(op) + 0.8
        x = rng.standard_normal(op.n_plus)
        y_max = apply_l(op, e, x)
        best = _coupled_form(op, e, x, y_max)
        assert best == pytest.approx(q_e_form(op, e, x), rel=1e-12, abs=1e-12)
        for _ in range(5):
            y = y_max + rng.standard_normal(op.n_minus)
            assert _coupled_form(op, e, x, y) < best


def test_energy_derivative_matches_finite_difference(campaign_ops):
    rng = np.random.default_rng(31)
    step = 1e-5
    for op in campaign_ops[:6]:
        lam0 = lambda0(op)
        for _ in range(5):
            e = lam0 + 10.0 ** rng.uniform(-0.5, 2.0)
            x = rng.standard_normal(op.n_plus)
            _, slope = q_value_and_slope(op, e, x)
            fd = (q_e_form(op, e + step, x) - q_e_form(op, e - step, x)) / (2.0 * step)
            assert abs(fd - slope) <= 1e-6 * abs(slope)


def test_mu_decreasing_beyond_root(campaign_ops):
    # d k_e / de = -(I + l_e.T l_e) < 0, so kappa_1 falls strictly at every energy,
    # from the left edge through the root and beyond
    from gapeig import lambda_k

    for op in campaign_ops[:5]:
        lam0, lam1 = lambda0(op), lambda_k(op, 1).lambda_k
        grid = np.concatenate([lam0 + np.array([1e-6, 1e-3]),
                               lam1 + np.array([0.0, 0.3, 1.0, 3.0, 10.0])])
        values = [mu_k(op, lam, 1) for lam in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_mu_slope_at_root(campaign_ops):
    # a simple level's slope is x.T (d k_e / de) x = -(1 + ||l_e x||^2) at its unit
    # vector x (Hellmann-Feynman), the energy slope of the form there
    from gapeig import lambda_k

    h = 1e-6
    for op in campaign_ops[:5]:
        lam1 = lambda_k(op, 1).lambda_k
        slope = (mu_k(op, lam1 + h, 1) - mu_k(op, lam1 - h, 1)) / (2.0 * h)
        s = build_schur(op, lam1)
        assert slope == pytest.approx(s.form(s.vector(1)[1])[1], rel=1e-6)
        assert slope < -1.0


def test_mu_rises_from_zero_at_left_edge(campaign_ops):
    # the min-max level mu_1 of the pencil (k_e, I + l_e.T l_e) rises from zero next
    # to lambda0, where the Gram matrix blows up, so bracketing goes by sign; kappa_1
    # has its sign and stays at least min eig(p) - e, since c.T (b + e)^{-1} c >= 0
    for op in campaign_ops[:5]:
        s = build_schur(op, lambda0(op) + 1e-6)
        gram = np.eye(op.n_plus) + s.l_e.T @ s.l_e
        mu = sla.eigh(s.k_e, gram, eigvals_only=True, subset_by_index=[0, 0])[0]
        assert 0.0 < mu < 1e-4
        assert 0.0 < np.linalg.eigvalsh(op.p)[0] - s.e <= mu_k(op, s.e, 1)


def test_sign_characterization(campaign_ops):
    for op in campaign_ops[:5]:
        lam0 = lambda0(op)
        gap_values = dense_spectrum(op)
        lam1 = gap_values[gap_values > lam0 + 1e-9][0]
        delta = 1e-4 * max(1.0, abs(lam1))
        assert mu_k(op, lam1 - delta, 1) > 0.0
        assert mu_k(op, lam1 + delta, 1) < 0.0


def _raise_singular(*args, **kwargs):
    raise np.linalg.LinAlgError("singular matrix")


def test_banded_failures_are_gapeig_errors(monkeypatch):
    op = BANDED["banded-aps"]()
    monkeypatch.setattr(schur.sla, "solve_banded", _raise_singular)
    with pytest.raises(EigFailure, match="inverse iteration"):
        build_schur(op, 0.7).vector(1)
    monkeypatch.setattr(schur.sla, "eig_banded", _raise_singular)
    for solve in (lambda s: s.value(1), lambda s: s.levels(2), lambda s: s.values_in(-1.0, 1.0)):
        with pytest.raises(EigFailure, match="pencil eigensolve"):
            solve(build_schur(op, 0.7))


@pytest.mark.parametrize("failure", ("exactly singular", "off the diagonal"))
def test_a_failed_ldl_takes_the_counted_fallback(monkeypatch, failure):
    # SuperLU raising RuntimeError, or pivoting off the diagonal, leaves the energy without
    # a factor: counts and vectors fall back to dsbevx, and the rows match the factor's to
    # rounding; a failing fallback is an eig_failure row
    import scipy.sparse.linalg as spla

    def broken(a, _original=spla.splu, **kwargs):
        if failure == "exactly singular":
            raise RuntimeError("Factor is exactly singular")
        lu = _original(a, **kwargs)
        return SimpleNamespace(perm_r=lu.perm_r[::-1], perm_c=lu.perm_c, U=lu.U)

    op = _dirac(200, -1, "uniform")
    fallbacks = _counted_fallbacks(monkeypatch)
    want = gap_spectrum(op, 2)
    assert fallbacks["count"] == 0
    monkeypatch.setattr(spla, "splu", broken)
    got = gap_spectrum(op, 2)
    assert fallbacks["count"] == 4  # two per level
    for row, expected in zip(got, want):
        assert (row.status, row.multiplicity) == (expected.status, expected.multiplicity) == ("ok", 1)
        assert abs(row.lambda_k - expected.lambda_k) <= 1e-14
    monkeypatch.setattr(schur.sla, "solve_banded", _raise_singular)
    assert gap_spectrum(op, 1)[0].status.startswith("eig_failure: inverse iteration at e=")


@pytest.mark.parametrize("offset", (1e-3, 0.7))
def test_levels_are_the_lowest_pencil_values(structured_op, offset):
    s = build_schur(structured_op, lambda0(structured_op) + offset)
    m = min(5, structured_op.n_plus)
    levels = s.levels(m)
    values = [s.value(k) for k in range(1, m + 1)]
    assert np.abs(levels - values).max() <= 1e-13 * max(1.0, np.abs(values).max())
    assert s.levels(1)[0] == s.value(1)  # one level is the same LAPACK call
    with pytest.raises(KOutOfRange):
        s.levels(structured_op.n_plus + 1)


def _energies_beside_the_first_levels(op, count=3):
    """An energy below and one above each of the first count gap levels (clusters),
    a quarter of the way to the nearest neighbouring level or to lambda0."""
    lam0 = lambda0(op)
    floor = lam0 + 1e-8 * max(1.0, abs(lam0))  # APS's kernel sits at lambda0 = 0 to rounding
    values = [value for value, _ in gap_eigs_bruteforce(op, floor, math.inf)][:count + 1]
    edges = [lam0, *values]
    energies = []
    for j, value in enumerate(values[:count], start=1):
        below = 0.25 * (value - edges[j - 1])
        above = 0.25 * (edges[j + 1] - value) if j + 1 < len(edges) else below
        energies += [value - below, value + above]
    return energies


def test_inertia_count_matches_the_dense_spectrum(structured_op):
    # A - e*I = U.T diag(k_e, -(b+e)) U, so A has n_minus + neg(k_e) eigenvalues below e
    # (Sylvester); where k_e > 0 at the edge, neg(k_e) is A's count in (lambda0, e). The
    # sparse-coupling fixture's p reaches below lambda0, so there it is one more.
    op = structured_op
    lam0, spectrum = lambda0(op), dense_spectrum(op)
    floor = lam0 + 1e-8 * max(1.0, abs(lam0))
    gapped = lambda1_certificate(op).valid
    energies = _energies_beside_the_first_levels(op)
    assert len(energies) == 6
    for e in energies:
        count = len(build_schur(op, e).values_in(-math.inf, 0.0))
        assert count == int(np.sum(spectrum < e)) - op.n_minus
        if gapped:
            assert count == int(np.sum((spectrum > floor) & (spectrum < e)))


def test_levels_have_the_signs_of_the_pencil_levels(structured_op):
    # the min-max levels mu_k are those of the pencil (k_e, I + l_e.T l_e), whose Gram
    # matrix is positive definite, so kappa_k has mu_k's sign (Sylvester)
    op = structured_op
    for e in _energies_beside_the_first_levels(op):
        s = build_schur(op, e)
        k_e, l_e = blockop.dense(s.k_e), blockop.dense(s.l_e)
        mu = sla.eigh(k_e, np.eye(op.n_plus) + l_e.T @ l_e, eigvals_only=True)
        kappa = s.levels(op.n_plus)
        assert np.array_equal(np.sign(kappa), np.sign(mu))


def _layouts(shape, rng):
    """An array of `shape` stored C-ordered, as a transposed view and as a strided slice."""
    yield rng.standard_normal(shape)
    yield rng.standard_normal(shape[::-1]).T
    yield rng.standard_normal((shape[0] * 2,) + shape[1:])[::2]


@pytest.mark.parametrize("k", (1, 7))
def test_mul_is_matmul_on_every_layout(k):
    # scipy's dgemm and dgemv against numpy's @: each is within n eps |a| |b| of the exact
    # product entrywise, for the inner dimension n, so they differ by at most twice that
    rng = np.random.default_rng(5)
    for a in _layouts((9, 13), rng):
        for b in [*_layouts((13, k), rng), *_layouts((13,), rng)]:
            got, want = blockop.mul(a, b), a @ b
            assert got.shape == want.shape and got.flags.c_contiguous
            bound = 2 * a.shape[1] * np.finfo(float).eps * (np.abs(a) @ np.abs(b))
            assert np.all(np.abs(got - want) <= bound)


def test_a_dense_formation_copies_no_operand():
    # (200, 800), random-campaign's tall shape. Past the memo, forming k_e holds the
    # refined solve's two n_minus x n_plus arrays, y = c/(e - d) and f y, and a few
    # n_plus^2 ones (0.25 of a unit here); a copy of c or y adds a unit, one of f four
    op = random_gapped(RandomSpec(n_plus=200, n_minus=800, gap_target=1.0, seed=1_000_000))
    build_schur(op, lambda0(op) + 0.5).k_e
    s = build_schur(op, lambda0(op) + 0.7)
    tracemalloc.start()
    try:
        s.k_e
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.4 * op.n_minus * op.n_plus * 8


def test_a_rotated_lower_block_keeps_q_f_and_the_rotated_coupling_only():
    # the memo budget README states: besides amm's eigenbasis (d, Q), the lower block
    # keeps f and Q.T c, C-ordered; ct is a view of c and p the operator's own array
    op = random_gapped(RandomSpec(n_plus=20, n_minus=30, gap_target=1.0, seed=4))
    lower = build_schur(op, lambda0(op) + 0.5)._lower
    arrays = {name: m for name, m in vars(lower).items() if isinstance(m, np.ndarray)}
    assert set(arrays) == {"d", "q", "f", "c", "ct", "p"}
    d, q = op._memo["lower_eigen"]
    assert lower.d is d and lower.q is q and lower.p is op.p
    assert np.shares_memory(lower.ct, lower.c) and lower.ct.shape == lower.c.shape[::-1]
    assert all(arrays[name].flags.c_contiguous for name in ("q", "f", "c"))


@pytest.mark.parametrize("seed", range(6))
def test_a_dense_lift_reads_the_stored_rotated_coupling(seed):
    # l_e solves against _Lower.c, which already holds Q.T c; rotating c again gave the
    # same bytes at one more n_minus^2 n_plus product
    op = random_gapped(RandomSpec(n_plus=5 + 3 * seed, n_minus=3 + 4 * seed, seed=seed))
    system = build_schur(op, lambda0(op) + 0.3)
    assert not system.banded and system._lower.q is not None
    assert np.array_equal(system.l_e, system.solve_lower(np.asarray(op.c)))
