import math
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import gapeig.minmax as minmax
import gapeig.schur as schur
from gapeig import (
    ApsSpec,
    BlockOperator,
    BracketFailure,
    DiracSpec,
    KOutOfRange,
    RandomSpec,
    ZeroVector,
    assemble_block,
    build_aps_cylinder,
    build_dirac_coulomb,
    build_schur,
    dense_spectrum,
    energy_of_vector,
    gap_eigs_bruteforce,
    gap_spectrum,
    lambda0,
    lambda1_certificate,
    lambda_k,
    mu_k,
    random_gapped,
)
from gapeig.minmax import _root
from gapeig.oracle import CLUSTER_RTOL
from gapeig.schur import apply_l, gap_edge, mu_k_with_vector

SQRT2 = math.sqrt(2.0)


def _block_op(p, c, amm):
    p = np.atleast_2d(np.asarray(p, dtype=float))
    amm = np.atleast_2d(np.asarray(amm, dtype=float))
    c = np.asarray(c, dtype=float)
    full = np.block([[p, c.T], [c, amm]])
    return assemble_block(full, p.shape[0])


def test_energy_decoupled(decoupled23):
    assert energy_of_vector(decoupled23, np.array([1.0, 0.0])) == pytest.approx(2.0, abs=1e-12)
    assert energy_of_vector(decoupled23, np.array([0.0, 1.0])) == pytest.approx(3.0, abs=1e-12)


def test_energy_canonical(canonical):
    assert energy_of_vector(canonical, np.array([1.0])) == pytest.approx(SQRT2, abs=1e-12)


def test_energy_scale_invariant(canonical):
    a = energy_of_vector(canonical, np.array([1.0]))
    b = energy_of_vector(canonical, np.array([-7.5]))
    assert a == pytest.approx(b, abs=1e-12)


def test_energy_zero_vector(canonical):
    with pytest.raises(ZeroVector):
        energy_of_vector(canonical, np.zeros(1))


def test_energy_stationarity(campaign_ops):
    rng = np.random.default_rng(5)
    for op in campaign_ops[:8]:
        x = rng.standard_normal(op.n_plus)
        e = energy_of_vector(op, x)
        w = apply_l(op, e, x)
        lhs = float(x @ (op.p @ x) + (op.c @ x) @ w)
        rhs = e * float(x @ x)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_energy_bounds_first_level(campaign_ops):
    op = campaign_ops[0]
    lam1 = lambda_k(op, 1).lambda_k
    rng = np.random.default_rng(99)
    values = [energy_of_vector(op, rng.standard_normal(op.n_plus)) for _ in range(1000)]
    assert min(values) >= lam1 - 1e-8


def test_energy_attained_at_minimizer(campaign_ops):
    for op in campaign_ops[:5]:
        lam1 = lambda_k(op, 1).lambda_k
        _, x = mu_k_with_vector(op, lam1, 1)
        assert energy_of_vector(op, x) == pytest.approx(lam1, abs=1e-9)


def test_lambda_k_canonical(canonical):
    res = lambda_k(canonical, 1)
    assert res.lambda_k == pytest.approx(SQRT2, abs=1e-12)
    assert res.k == 1
    assert res.multiplicity == 1
    assert res.status == "ok"


def test_lambda_k_decoupled(decoupled23):
    assert lambda_k(decoupled23, 1).lambda_k == pytest.approx(2.0, abs=1e-12)
    assert lambda_k(decoupled23, 2).lambda_k == pytest.approx(3.0, abs=1e-12)


def test_lambda_k_matches_bruteforce():
    op = random_gapped(RandomSpec(n_plus=8, n_minus=8, gap_target=1.0, seed=7))
    lam0 = lambda0(op)
    results = gap_spectrum(op, 4)
    hi = results[-1].lambda_k
    clusters = gap_eigs_bruteforce(op, lam0, hi + 1e-7 * max(1.0, abs(hi)))
    flat = [value for value, mult in clusters for _ in range(mult)]
    assert len(flat) >= len(results)
    for res, expected in zip(results, flat):
        assert res.lambda_k == pytest.approx(expected, abs=1e-9)


def test_residual_contract(campaign_ops):
    for op in campaign_ops[:10]:
        res = lambda_k(op, 1)
        assert res.residual <= 1e-10 * max(1.0, abs(res.lambda_k))


def _dirac300():
    return build_dirac_coulomb(DiracSpec(nu=0.5, kappa=-1, n=300, r_max=30.0, grading="uniform"))


def _aps60():
    return build_aps_cylinder(ApsSpec(modes=(0.0, 3.0, -3.0), length_l=1.0, n=60))


def _duplicated(seed):
    """Two identical copies of a random operator side by side: every level exactly double."""
    op = random_gapped(RandomSpec(n_plus=6, n_minus=4, seed=seed))
    return BlockOperator(p=scipy.linalg.block_diag(op.p, op.p),
                         c=scipy.linalg.block_diag(op.c, op.c),
                         amm=scipy.linalg.block_diag(op.amm, op.amm))


def _assert_certified(op, res):
    # the root lies inside its bracket exactly, with no slack
    a, b = res.bracket
    assert a <= res.lambda_k <= b
    assert mu_k(op, a, res.k) > 0.0
    assert mu_k(op, b, res.k) <= 0.0


def test_bracket_is_certified(campaign_ops):
    aps = build_aps_cylinder(ApsSpec(modes=(0.0, 3.0, -3.0), length_l=1.0, n=100))
    cases = [(_dirac300(), 1)] + [(aps, k) for k in (1, 2, 3)]
    cases += [(op, 1) for op in campaign_ops[:10]]
    for op, k in cases:
        _assert_certified(op, lambda_k(op, k))
    # every row of a gap spectrum is its own root, the rows of a multiple level included
    spectra = [(_block_op(np.diag([2.0, 2.0 + delta]), np.zeros((1, 2)), [[-1.0]]), 2, tol)
               for delta, tol in ((5e-11, 1e-10), (5e-9, 1e-6))]
    spectra += [(_aps60(), 5, 1e-10)] + [(_duplicated(s), 5, 1e-10) for s in range(5)]
    for op, k_max, tol in spectra:
        values = dense_spectrum(op)
        inside = values[values > lambda0(op) + 1e-9]
        for res in gap_spectrum(op, k_max, tol):
            assert res.status == "ok"
            _assert_certified(op, res)
            expected = inside[res.k - 1]
            assert abs(res.lambda_k - expected) <= 1e-12 * max(1.0, abs(res.lambda_k))


def test_root_survives_newton_candidates_outside_bracket():
    # a steep saturating level: Newton from the bracket ends overshoots far out
    root, steps = 3.3, []

    def newton(lam):
        value = math.atan(10.0 * (root - lam))
        cand = lam + value * (1.0 + 100.0 * (root - lam) ** 2) / 10.0
        steps.append(cand)
        return value, cand

    lam, evals, (a, b) = _root(newton, newton, 0.0, lambda lam, v: abs(v) <= 1e-14)
    assert lam == pytest.approx(root, abs=1e-14)
    assert a <= lam <= b and (a, b) != (2.0, 4.0)
    assert any(not 2.0 < cand < 4.0 for cand in steps)
    assert evals == len(steps) - 1


def test_pencil_evaluations_per_root_dirac300(monkeypatch):
    # The Newton loop brackets and refines this root in fewer than 7 pencil
    # evaluations, probes included; the residual's eigensolve and the two
    # multiplicity counts are outside these counters.
    calls = []

    def counted(name):
        original = getattr(minmax, name)

        def evaluate(*args):
            calls.append(name)
            return original(*args)
        return evaluate

    for name in ("mu_k", "mu_k_with_vector"):
        monkeypatch.setattr(minmax, name, counted(name))
    res = lambda_k(_dirac300(), 1)
    assert 0 < len(calls) < 7
    assert calls.count("mu_k_with_vector") >= 1
    assert res.iterations == len(calls) - 1


def _residual(system, k):
    """SchurSystem.residual of the system's k-th pencil vector."""
    return system.residual(system.vector(k)[1])


def _dense_residual(op, e, k):
    system = build_schur(op, e)
    _, x = system.vector(k)
    v = np.concatenate([x, system.lift(x)])
    v /= np.linalg.norm(v)
    return float(np.linalg.norm(op.assembled() @ v - e * v))


def test_residual_is_assembled_operator_residual(campaign_ops):
    for op in campaign_ops[:6]:
        res = lambda_k(op, 1)
        # off the root the residual is O(1), so the blockwise product is checked in full
        e = res.lambda_k + 0.25
        assert _residual(build_schur(op, e), 1) == pytest.approx(
            _dense_residual(op, e, 1), rel=1e-10)
        scale = np.linalg.norm(op.assembled(), 2)
        assert res.residual == pytest.approx(_dense_residual(op, res.lambda_k, 1),
                                             abs=1e-14 * scale)


def test_double_level_rows_use_their_own_vectors():
    # two coupled copies of [[2, 1], [1, -1]]: a double level at (1 + sqrt(13))/2
    op = _block_op(np.diag([2.0, 2.0]), np.eye(2), -np.eye(2))
    results = gap_spectrum(op, 2)
    assert [r.iterations > 0 for r in results] == [True, True]
    assert results[1].lambda_k == pytest.approx((1.0 + math.sqrt(13.0)) / 2.0, abs=1e-14)
    system = build_schur(op, results[0].lambda_k)
    for r in results:
        assert r.residual == _residual(system, r.k)
        assert r.residual == pytest.approx(_dense_residual(op, r.lambda_k, r.k), abs=1e-14)
        assert r.residual <= 1e-14


def test_root_certificate_sign_flip(campaign_ops):
    tol = 1e-10
    for op in campaign_ops[:5]:
        lam = lambda_k(op, 1, tol=tol).lambda_k
        assert mu_k(op, lam - 10.0 * tol, 1) > 0.0
        assert mu_k(op, lam + 10.0 * tol, 1) < 0.0


def test_gap_spectrum_multiplicity():
    op = _block_op(np.diag([2.0, 2.0]), np.zeros((1, 2)), [[-1.0]])
    results = gap_spectrum(op, 2)
    assert [r.multiplicity for r in results] == [2, 2]
    assert results[0].lambda_k == pytest.approx(2.0, abs=1e-12)
    assert results[1].lambda_k == results[0].lambda_k
    assert results[1].iterations > 0


def test_multiplicity_counts_energies_not_levels():
    # two copies of [[p, 6], [6, -1]] with root 1 and ||z||^2 = 10 there, the second
    # 5e-9 higher: inside the cluster band 1e-8 in energy, while its level kappa_2
    # at the first root is ten times that, 5e-8; the inertia count sees both
    op = _block_op(np.diag([-17.0, -17.0 + 5e-8]), 6.0 * np.eye(2), -np.eye(2))
    results = gap_spectrum(op, 2)
    assert [r.multiplicity for r in results] == [2, 2]
    assert results[0].lambda_k == pytest.approx(1.0, abs=1e-14)
    assert results[1].lambda_k == pytest.approx(1.0 + 5e-9, abs=1e-14)
    assert results[1].iterations > 0
    levels = build_schur(op, results[0].lambda_k).values_in(-CLUSTER_RTOL, CLUSTER_RTOL)
    assert len(levels) == 1


def test_split_level_is_solved_from_its_own_root():
    # 1e-7 apart is 50 times the cluster band at 2, yet within tol = 1e-6
    op = _block_op(np.diag([2.0, 2.0 + 1e-7]), np.zeros((1, 2)), [[-1.0]])
    results = gap_spectrum(op, 2, tol=1e-6)
    assert [r.multiplicity for r in results] == [1, 1]
    assert results[0].lambda_k == pytest.approx(2.0, abs=1e-14)
    assert results[1].lambda_k == pytest.approx(2.0 + 1e-7, abs=1e-14)
    assert results[1].iterations > 0


def test_simple_levels_build_one_pencil_per_root(monkeypatch, decoupled23, campaign_ops):
    # three Schur systems per root: its own for the residual, then the inertia counts
    # at lambda_k + band and lambda_k - band for the multiplicity
    calls = []
    original = minmax.build_schur

    def counted(op, e):
        calls.append(e)
        return original(op, e)

    monkeypatch.setattr(minmax, "build_schur", counted)
    for op, k_max in ((decoupled23, 2), (campaign_ops[0], 3)):
        calls.clear()
        results = gap_spectrum(op, k_max)
        assert [r.multiplicity for r in results] == [1] * k_max
        bands = [CLUSTER_RTOL * max(1.0, abs(r.lambda_k)) for r in results]
        assert calls == [e for r, band in zip(results, bands)
                         for e in (r.lambda_k, r.lambda_k + band, r.lambda_k - band)]


@st.composite
def _clustered_operators(draw):
    # repeated or 1e-7-split diagonal entries of p, weakly coupled to a negative lower block
    n_plus = draw(st.integers(2, 4))
    n_minus = draw(st.integers(1, 3))
    base = draw(st.lists(st.sampled_from([1.5, 2.0, 3.0]), min_size=n_plus, max_size=n_plus))
    split = draw(st.lists(st.sampled_from([0.0, 1e-7]), min_size=n_plus, max_size=n_plus))
    coupling = draw(st.sampled_from([0.0, 1e-6, 1e-4, 1e-2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    c = coupling * rng.uniform(-1.0, 1.0, (n_minus, n_plus))
    amm = -np.diag(1.0 + rng.uniform(0.0, 1.0, n_minus))
    return _block_op(np.diag(np.add(base, split)), c, amm)


@settings(max_examples=60, deadline=None)
@given(op=_clustered_operators(), tol=st.sampled_from([1e-10, 1e-6]))
def test_rows_never_contradict_their_multiplicities(op, tol):
    results = gap_spectrum(op, op.n_plus, tol=tol)
    for r in results:
        sharing = sum(s.lambda_k == r.lambda_k for s in results)
        assert r.multiplicity >= sharing
    for r in results:  # every row is a solved root
        assert r.iterations > 0


def test_gap_spectrum_single(canonical):
    results = gap_spectrum(canonical, 1)
    assert len(results) == 1


def test_gap_spectrum_ceiling_flag(decoupled23):
    results = gap_spectrum(decoupled23, 2)
    assert [r.lambda_k for r in results] == pytest.approx([2.0, 3.0], abs=1e-12)


def test_concurrent_first_use_matches_serial(campaign_ops):
    # the per-operator memo has no lock: threads that fill it at once must
    # still see the serial results (dense lower block, so its eigenbasis too)
    src = campaign_ops[3]
    serial = gap_spectrum(BlockOperator(p=src.p, c=src.c, amm=src.amm), 3)
    op = BlockOperator(p=src.p, c=src.c, amm=src.amm)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(gap_spectrum, op, 3) for _ in range(8)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(r == serial for r in results)


def _beyond_ceiling():
    # levels at 2e12 and 3e12 lie above the constant ceiling lambda0 + 1e12
    return _block_op(np.diag([2e12, 3e12]), np.zeros((1, 2)), [[-1.0]])


def _count_eigensolves(monkeypatch) -> Counter:
    """Eigensolves of k_e per energy: every one, dense or banded, goes through _select."""
    solves, select = Counter(), schur.SchurSystem._select

    def counted(self, *args, **kwargs):
        solves[self.e] += 1
        return select(self, *args, **kwargs)

    monkeypatch.setattr(schur.SchurSystem, "_select", counted)
    return solves


def _ladder_solves(op, solves: Counter) -> list[int]:
    """Eigensolves at each bracketing energy _root probed: the left edge, then lambda0 + 2^j."""
    lam0 = lambda0(op)
    ladder = [math.nextafter(gap_edge(lam0), math.inf)] + [lam0 + 2.0 ** j for j in range(41)]
    return [solves[e] for e in ladder if solves[e]]


def test_gap_spectrum_solves_each_ladder_energy_once(monkeypatch, campaign_ops):
    for op, roots in ((campaign_ops[0], 5), (_aps60(), 5)):
        solves = _count_eigensolves(monkeypatch)
        results = gap_spectrum(op, 5)
        assert sum(r.iterations > 0 for r in results) == roots
        ladder = _ladder_solves(op, solves)
        assert len(ladder) >= 2 and set(ladder) == {1}


def test_gap_spectrum_partial_results(monkeypatch):
    op = _beyond_ceiling()
    solves = _count_eigensolves(monkeypatch)
    results = gap_spectrum(op, 2)
    assert len(results) == 2
    for res in results:
        assert res.status.startswith("bracket_failure")
        assert math.isnan(res.lambda_k)
        assert res.multiplicity == 0
    # the left edge and lambda0 + 1 .. lambda0 + 2^39, below the ceiling, each solved once
    assert _ladder_solves(op, solves) == [1] * 41
    assert sum(solves.values()) == 41


def test_ladder_levels_match_standalone_roots(campaign_ops):
    for op in campaign_ops[:10] + [_aps60()] + [_duplicated(s) for s in range(5)]:
        for r in gap_spectrum(op, 5):
            alone = lambda_k(op, r.k)
            assert abs(r.lambda_k - alone.lambda_k) <= 1e-14 * max(1.0, abs(alone.lambda_k))
            assert (r.multiplicity, r.iterations) == (alone.multiplicity, alone.iterations)
        # one level is the same LAPACK call either way
        assert gap_spectrum(op, 1)[0] == lambda_k(op, 1)


def test_lambda_max_failure_message():
    with pytest.raises(BracketFailure, match="lambda_max"):
        lambda_k(_beyond_ceiling(), 1)


def test_no_gap_left_edge():
    op = _block_op([[-5.0]], [[0.0]], [[-1.0]])
    with pytest.raises(BracketFailure, match="left edge"):
        lambda_k(op, 1)


def _near_edge(lam0, offset, coupling=0.0):
    """A level at lam0 + offset beside amm's top eigenvalue lam0, and one at 2."""
    c = [[0.0, coupling], [coupling, 0.0]]
    return _block_op(np.diag([lam0 + offset, 2.0]), c, np.diag([lam0, lam0 - 2.0]))


@pytest.mark.parametrize("lam0,offset,coupling", [
    (-1.0, 5e-9, 0.0), (-1.0, 2e-10, 0.0), (-1.0, 5e-9, 1e-12), (-5.0, 1.5e-8, 0.0),
])
def test_a_level_just_above_the_edge_is_solved(lam0, offset, coupling):
    # the left probe is the first float above the Schur system's own edge, so a level
    # between that edge and lambda0 + 1e-8*max(1, |lambda0|) is bracketed, not lost
    op = _near_edge(lam0, offset, coupling)
    rows = gap_spectrum(op, 2)
    assert [(r.status, r.multiplicity) for r in rows] == [("ok", 1), ("ok", 1)]
    assert rows[0].lambda_k == pytest.approx(lam0 + offset, rel=1e-12, abs=0.0)
    assert rows[1].lambda_k == pytest.approx(2.0, rel=1e-12, abs=0.0)
    assert lambda1_certificate(op).valid is True


def test_a_level_at_or_below_the_edge_is_a_left_edge_failure():
    op = _near_edge(-1.0, 5e-11)
    row = gap_spectrum(op, 1)[0]
    assert row.status.startswith("bracket_failure: sign already nonpositive at the left edge")
    assert "at or below that edge, or below lambda0" in row.status
    assert math.isnan(row.lambda_k) and row.multiplicity == 0


def test_a_root_with_no_level_in_its_band_is_not_ok():
    # the upper block's 2e12 and 3e13 put eps*||A|| far above the cluster band, so
    # the root of level 1 misses A's eigenvalue near 0.50000107 by 3.3e-4
    op = _block_op(np.diag([0.5, 2e12, 3e13]), np.full((2, 3), 1e-3), np.diag([-1.0, -2.0]))
    res = lambda_k(op, 1)
    assert res.multiplicity == 0
    assert res.status.startswith("no_level_in_band: ")
    assert gap_spectrum(op, 1)[0].status == res.status


def test_orthogonal_invariance(campaign_ops):
    rng = np.random.default_rng(17)
    for op in campaign_ops[:4]:
        q_plus, _ = np.linalg.qr(rng.standard_normal((op.n_plus, op.n_plus)))
        q_minus, _ = np.linalg.qr(rng.standard_normal((op.n_minus, op.n_minus)))
        rotated = _block_op(
            q_plus.T @ op.p @ q_plus,
            q_minus.T @ op.c @ q_plus,
            q_minus.T @ op.amm @ q_minus,
        )
        a = lambda_k(op, 1).lambda_k
        b = lambda_k(rotated, 1).lambda_k
        assert a == pytest.approx(b, abs=1e-9 * max(1.0, abs(a)))


def test_spectrum_matches_dense_window(campaign_ops):
    for op in campaign_ops[:6]:
        lam0 = lambda0(op)
        results = gap_spectrum(op, 3)
        window = dense_spectrum(op)
        inside = window[window > lam0 + 1e-9]
        for res, expected in zip(results, inside):
            assert res.lambda_k == pytest.approx(expected, abs=1e-9 * max(1.0, abs(expected)))


def test_certificate_canonical(canonical):
    cert = lambda1_certificate(canonical)
    assert cert.lambda0 == pytest.approx(-1.0, abs=1e-14)
    assert cert.lambda1 == pytest.approx(SQRT2, abs=1e-12)
    assert cert.valid is True


def test_certificate_without_gap():
    op = _block_op([[-5.0]], [[0.0]], [[-1.0]])
    cert = lambda1_certificate(op)
    assert cert.valid is False
    assert math.isnan(cert.lambda1)
    assert "left edge" in cert.diagnostic


def test_certificate_dirac():
    op = build_dirac_coulomb(DiracSpec(nu=0.5, kappa=-1, n=64, r_max=20.0))
    cert = lambda1_certificate(op)
    assert cert.valid is True
    assert cert.lambda0 == pytest.approx(-1.025, abs=1e-13)
    assert cert.lambda1 == pytest.approx(math.sqrt(3.0) / 2.0, abs=5e-3)


def test_k_out_of_range(canonical):
    with pytest.raises(KOutOfRange):
        lambda_k(canonical, 2)
    with pytest.raises(KOutOfRange):
        lambda_k(canonical, 0)
    with pytest.raises(KOutOfRange):
        gap_spectrum(canonical, 0)


@pytest.mark.parametrize("k", [1.5, 2.0, True])
def test_lambda_k_and_gap_spectrum_need_an_integer_level(decoupled23, k):
    # lambda_k(op, 1.5) returned level 1, and gap_spectrum(op, 2.0) a bare TypeError
    with pytest.raises(KOutOfRange, match="integer"):
        lambda_k(decoupled23, k)
    with pytest.raises(KOutOfRange, match="k_max must be an integer"):
        gap_spectrum(decoupled23, k)
    assert lambda_k(decoupled23, np.int64(2)) == lambda_k(decoupled23, 2)
    assert gap_spectrum(decoupled23, np.int64(2)) == gap_spectrum(decoupled23, 2)


def test_the_first_row_of_a_one_level_spectrum_is_a_standalone_lambda_k(campaign_ops):
    # at k_max = 1 the ladder's subset eigensolve is the same LAPACK call as mu_k's, so
    # the row is lambda_k's to the bit; at a larger k_max it can differ in the last bits
    dirac = build_dirac_coulomb(DiracSpec(nu=0.5, kappa=-1, n=300, r_max=30.0))
    for op in [*campaign_ops[:20], dirac]:
        row, alone = gap_spectrum(op, 1)[0], lambda_k(op, 1)
        for name in row.__dataclass_fields__:
            assert getattr(row, name) == getattr(alone, name), name


def test_tol_validation(canonical):
    with pytest.raises(ValueError):
        lambda_k(canonical, 1, tol=0.0)
    with pytest.raises(ValueError):
        lambda_k(canonical, 1, tol=-1e-10)


@pytest.mark.parametrize("tol", (math.inf, math.nan))
def test_non_finite_tol_is_rejected(tol):
    # tol=inf would accept the first Newton step of every level (level 1's is
    # 1.1e-10 off the oracle here), so neither solver takes it
    op = random_gapped(RandomSpec(n_plus=9, n_minus=7, seed=3))
    with pytest.raises(ValueError, match="positive and finite"):
        lambda_k(op, 1, tol=tol)
    with pytest.raises(ValueError, match="positive and finite"):
        gap_spectrum(op, 3, tol=tol)
