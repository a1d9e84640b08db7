import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapeig import (
    ApsSpec,
    DiracSpec,
    KOutOfRange,
    NotPositiveDefinite,
    RandomSpec,
    SchurSystem,
    build_aps_cylinder,
    build_dirac_coulomb,
    build_schur,
    dense_spectrum,
    lambda0,
    mu_k,
    phi_form,
    q_e_form,
    random_gapped,
    resolvent_apply,
)
from gapeig.schur import (
    GAP_EDGE_MARGIN,
    apply_l,
    mu_k_with_vector,
    pencil_values_in_band,
    q_value_and_slope,
)

SQRT2 = math.sqrt(2.0)


def test_resolvent_scalar():
    assert resolvent_apply(np.array([[1.0]]), 1.0, np.array([2.0])) == pytest.approx([1.0])


def test_resolvent_diagonal():
    out = resolvent_apply(np.diag([2.0, 3.0]), 0.0, np.array([2.0, 3.0]))
    assert out == pytest.approx([1.0, 1.0])


def test_resolvent_not_positive_definite():
    with pytest.raises(NotPositiveDefinite):
        resolvent_apply(np.array([[1.0]]), -1.0, np.array([1.0]))


def test_resolvent_residual(campaign_ops):
    rng = np.random.default_rng(3)
    for op in campaign_ops[:5]:
        b = -op.amm
        e = lambda0(op) + 0.5
        v = rng.standard_normal(op.n_minus)
        y = resolvent_apply(b, e, v)
        assert np.linalg.norm((b + e * np.eye(op.n_minus)) @ y - v) <= 1e-10 * np.linalg.norm(v)


def test_build_schur_canonical_scalars(canonical):
    s = build_schur(canonical, 1.0)
    assert s.l_e == pytest.approx(np.array([[0.5]]), abs=1e-15)
    assert s.k_e == pytest.approx(np.array([[0.5]]), abs=1e-15)
    assert s.m_e == pytest.approx(np.array([[1.25]]), abs=1e-15)


def test_build_schur_singular_at_eigenvalue(canonical):
    s = build_schur(canonical, SQRT2)
    assert abs(s.k_e[0, 0]) <= 1e-12


def test_build_schur_decoupled(decoupled23):
    s = build_schur(decoupled23, 0.5)
    assert np.array_equal(s.l_e, np.zeros((1, 2)))
    assert s.k_e == pytest.approx(np.diag([1.5, 2.5]))
    assert np.array_equal(s.m_e, np.eye(2))


def test_build_schur_requires_margin(canonical):
    with pytest.raises(NotPositiveDefinite):
        build_schur(canonical, -1.0 + 1e-11)


# one operator per lower-block structure: zero (the rational c.T c path),
# diagonal, and dense (Cholesky)
STRUCTURES = {
    "aps-zero": lambda: build_aps_cylinder(ApsSpec(modes=(0.0, 2.0), length_l=1.0, n=8)),
    "dirac-diagonal": lambda: build_dirac_coulomb(DiracSpec(nu=0.5, kappa=-1, n=20,
                                                            r_max=10.0)),
    "random-dense": lambda: random_gapped(RandomSpec(n_plus=6, n_minus=9, seed=3)),
}


@pytest.fixture(params=sorted(STRUCTURES))
def structured_op(request):
    return STRUCTURES[request.param]()


def _rel(a, b):
    return np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b))


@pytest.mark.parametrize("offset", (1e-3, 0.7, 40.0))
def test_pencil_matches_dense_reference(structured_op, offset):
    op = structured_op
    e = lambda0(op) + offset
    l_ref = np.linalg.solve(-op.amm + e * np.eye(op.n_minus), op.c)
    k_ref = op.p - e * np.eye(op.n_plus) + op.c.T @ l_ref
    m_ref = np.eye(op.n_plus) + l_ref.T @ l_ref
    s = build_schur(op, e)
    assert _rel(s.k_e, k_ref) <= 1e-12
    assert _rel(s.m_e, m_ref) <= 1e-12
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
    assert np.array_equal(s.values_in_band(band), pencil_values_in_band(op, e, band))
    assert len(s.values_in_band(band)) >= 2
    assert np.array_equal(s.lift(x), apply_l(op, e, x))
    assert s.form(x) == q_value_and_slope(op, e, x)


def test_solves_keep_no_lift_matrix(structured_op):
    op = structured_op
    s = build_schur(op, lambda0(op) + 0.7)
    x = np.ones(op.n_plus)
    s.vector(1)
    s.values_in_band(1.0)
    s.lift(x)
    s.form(x)
    assert s._l is None


def test_edge_rule_on_every_entry_point(structured_op):
    op = structured_op
    lam0 = lambda0(op)
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
    for e in (lam0 + 1e-12, lam0 + 5e-11, lam0 + GAP_EDGE_MARGIN):
        assert lam0 < e
        for call in entry_points:
            with pytest.raises(NotPositiveDefinite):
                call(e)


def test_gram_matrix_dominates_identity(campaign_ops):
    for op in campaign_ops[:6]:
        lam0 = lambda0(op)
        for offset in (1e-2, 1.0, 50.0):
            s = build_schur(op, lam0 + offset)
            assert np.linalg.eigvalsh(s.m_e)[0] >= 1.0 - 1e-12
            defect = np.linalg.norm(s.k_e - s.k_e.T)
            assert defect <= 1e-12 * max(1.0, np.linalg.norm(s.k_e))


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


def test_phi_form_canonical(canonical):
    x, y = np.array([1.0]), np.array([0.0])
    assert phi_form(canonical, 0.0, x, y) == pytest.approx(1.0)
    y_max = apply_l(canonical, 0.0, x)
    assert phi_form(canonical, 0.0, x, y_max) == pytest.approx(2.0, abs=1e-15)
    assert phi_form(canonical, 0.0, np.array([0.0]), np.array([1.0])) == pytest.approx(-1.0)


def test_phi_defined_below_lambda0(canonical):
    value = phi_form(canonical, -5.0, np.array([1.0]), np.array([1.0]))
    assert value == pytest.approx(1.0 + 2.0 - 1.0 + 5.0 * 2.0)


def test_mu_canonical_at_zero(canonical):
    assert mu_k(canonical, 0.0, 1) == pytest.approx(1.0, abs=1e-12)


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
    right = (e_hi - e_lo) * resolvent_apply(-op.amm, e_lo, apply_l(op, e_hi, x))
    assert np.linalg.norm(left - right) <= 1e-10 * max(1.0, np.linalg.norm(left))


def test_maximizer_property(campaign_ops):
    rng = np.random.default_rng(23)
    for op in campaign_ops[:6]:
        e = lambda0(op) + 0.8
        x = rng.standard_normal(op.n_plus)
        y_max = apply_l(op, e, x)
        best = phi_form(op, e, x, y_max)
        assert best == pytest.approx(q_e_form(op, e, x), rel=1e-12, abs=1e-12)
        for _ in range(5):
            y = y_max + rng.standard_normal(op.n_minus)
            assert phi_form(op, e, x, y) < best


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
    # mu_1 is monotone only once it turns negative; near lambda0 it rises
    # from zero, so only the sign structure is global
    from gapeig import lambda_k

    for op in campaign_ops[:5]:
        lam1 = lambda_k(op, 1).lambda_k
        grid = lam1 + np.array([0.0, 0.3, 1.0, 3.0, 10.0])
        values = [mu_k(op, lam, 1) for lam in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_mu_slope_at_root(campaign_ops):
    from gapeig import lambda_k

    h = 1e-6
    for op in campaign_ops[:5]:
        lam1 = lambda_k(op, 1).lambda_k
        slope = (mu_k(op, lam1 + h, 1) - mu_k(op, lam1 - h, 1)) / (2.0 * h)
        assert slope == pytest.approx(-1.0, abs=1e-4)


def test_mu_rises_from_zero_at_left_edge(campaign_ops):
    op = campaign_ops[0]
    lam0 = lambda0(op)
    assert 0.0 < mu_k(op, lam0 + 1e-6, 1) < 1e-4


def test_sign_characterization(campaign_ops):
    for op in campaign_ops[:5]:
        lam0 = lambda0(op)
        gap_values = dense_spectrum(op).values
        lam1 = gap_values[gap_values > lam0 + 1e-9][0]
        delta = 1e-4 * max(1.0, abs(lam1))
        assert mu_k(op, lam1 - delta, 1) > 0.0
        assert mu_k(op, lam1 + delta, 1) < 0.0
