import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import gapeig.schur as schur
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
from gapeig.verify import sandwich_report
from gapeig.schur import (
    GAP_EDGE_MARGIN,
    _mul,
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


@pytest.mark.parametrize("name", sorted(BANDED))
@pytest.mark.parametrize("offset", (1e-3, 0.7, 40.0))
def test_banded_pencil_matches_dense_eigh(name, offset):
    op = BANDED[name]()
    s = build_schur(op, lambda0(op) + offset)
    k_e = s.k_e
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


def test_banded_vectors_of_a_degenerate_pair_stay_in_its_eigenspace():
    # modes +3 and -3 give every level of that mode twice, exactly
    op = BANDED["banded-aps"]()
    s = build_schur(op, 0.7)
    assert s.value(3) - s.value(2) <= 1e-14 * abs(s.value(2))
    (_, x2), (_, x3) = s.vector(2), s.vector(3)
    ref_vals, ref_vecs = sla.eigh(s.k_e, subset_by_index=[1, 2])
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
    l_ref = np.linalg.solve(-op.amm + e * np.eye(op.n_minus), op.c)
    k_ref = op.p - e * np.eye(op.n_plus) + op.c.T @ l_ref
    s = build_schur(op, e)
    assert _rel(s.k_e, k_ref) <= 1e-12
    assert np.array_equal(s.k_e, s.k_e.T)
    assert _rel(s.l_e, l_ref) <= 1e-12


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
    assert s._l is None


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
    sandwich_report(op, seed=0)
    assert set(op._memo) == keys
    assert vars(lower).keys() == held.keys()
    assert all(vars(lower)[name] is value for name, value in held.items())


def _record_eigh_shapes(monkeypatch):
    """Every eigh, numpy's and scipy's, records the shape of its matrix."""
    shapes = []
    for owner in (np.linalg, schur.sla):
        def counted(a, *args, _original=owner.eigh, **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(owner, "eigh", counted)
    return shapes


def test_a_repeated_spectrum_eigensolves_no_lower_block(monkeypatch):
    # amm's eigenbasis is computed once per operator, whatever the energies
    op = DENSE["random-dense"]()
    first = gap_spectrum(op, 5)
    square = (op.n_minus, op.n_minus)
    assert op.n_minus != op.n_plus
    shapes = _record_eigh_shapes(monkeypatch)
    assert gap_spectrum(op, 5) == first
    sandwich_report(op, seed=0)
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


def test_banded_failures_are_gapeig_errors(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    op = BANDED["banded-aps"]()
    monkeypatch.setattr(schur.sla, "solve_banded", singular)
    with pytest.raises(EigFailure, match="inverse iteration"):
        build_schur(op, 0.7).vector(1)
    monkeypatch.setattr(schur.sla, "eig_banded", singular)
    for solve in (lambda s: s.value(1), lambda s: s.levels(2), lambda s: s.values_in(-1.0, 1.0)):
        with pytest.raises(EigFailure, match="pencil eigensolve"):
            solve(build_schur(op, 0.7))


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
        mu = sla.eigh(s.k_e, np.eye(op.n_plus) + s.l_e.T @ s.l_e, eigvals_only=True)
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
            got, want = _mul(a, b), a @ b
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
