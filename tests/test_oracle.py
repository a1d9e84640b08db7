import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

from gapeig import (ApsSpec, BlockOperator, DiracSpec, EigFailure, RandomSpec, assemble_block,
                    build_aps_cylinder, build_dirac_coulomb, dense_spectrum,
                    gap_eigs_bruteforce, oracle, random_gapped, verify)
from gapeig.blockop import inertia, nonzeros
from gapeig.cli import main

SQRT2 = math.sqrt(2.0)
# the random campaign's two tall operators
TALL = [random_gapped(RandomSpec(n_plus=200, n_minus=800, seed=seed))
        for seed in (1_000_000, 1_000_001)]


def test_dense_canonical(canonical):
    values = dense_spectrum(canonical)
    assert values == pytest.approx([-SQRT2, SQRT2], abs=1e-14)


def test_dense_diagonal():
    op = assemble_block(np.diag([2.0, 3.0, -1.0]), 2)
    assert dense_spectrum(op) == pytest.approx([-1.0, 2.0, 3.0])


def test_dense_cross_eigensolver_agreement():
    rng = np.random.default_rng(42)
    m = rng.standard_normal((6, 6))
    full = (m + m.T) / 2.0
    op = assemble_block(full, 3)
    ours = dense_spectrum(op)
    other = sla.eigh(full, eigvals_only=True, driver="ev")
    assert ours == pytest.approx(other, abs=1e-12)


def test_dense_sorted_and_sized(campaign_ops):
    for op in campaign_ops[:8]:
        values = dense_spectrum(op)
        assert len(values) == op.dim
        assert (np.diff(values) >= 0).all()


def test_gap_eigs_canonical(canonical):
    out = gap_eigs_bruteforce(canonical, -1.0, 10.0)
    assert len(out) == 1
    value, mult = out[0]
    assert value == pytest.approx(SQRT2, abs=1e-14)
    assert mult == 1


def test_gap_eigs_multiplicity():
    op = assemble_block(np.diag([2.0, 2.0, -1.0]), 2)
    assert gap_eigs_bruteforce(op, -1.0, 10.0) == [(2.0, 2)]


def test_gap_eigs_empty_window(canonical):
    assert gap_eigs_bruteforce(canonical, 2.0, 3.0) == []


def test_gap_eigs_needs_ordered_window(canonical):
    with pytest.raises(ValueError):
        gap_eigs_bruteforce(canonical, 3.0, 2.0)


def test_orthogonal_conjugation_invariance(campaign_ops):
    rng = np.random.default_rng(5)
    for op in campaign_ops[:5]:
        q_plus, _ = np.linalg.qr(rng.standard_normal((op.n_plus, op.n_plus)))
        q_minus, _ = np.linalg.qr(rng.standard_normal((op.n_minus, op.n_minus)))
        conj = BlockOperator(
            p=q_plus.T @ op.p @ q_plus,
            c=q_minus.T @ op.c @ q_plus,
            amm=q_minus.T @ op.amm @ q_minus,
        )
        before = dense_spectrum(op)
        after = dense_spectrum(conj)
        assert after == pytest.approx(before, abs=1e-10)


def test_trace_identity(campaign_ops):
    for op in campaign_ops[:8]:
        full = op.assembled()
        values = dense_spectrum(op)
        bound = 1e-10 * np.linalg.norm(full) * op.dim
        assert abs(values.sum() - np.trace(full)) <= bound


def test_dense_spectrum_is_numpys_eigvalsh_to_the_bit(campaign_ops):
    # dsyevd is the routine numpy's eigvalsh calls; another LAPACK routine would move the values
    ops = [*campaign_ops, *TALL]
    for op in ops:
        assert np.array_equal(dense_spectrum(op), np.linalg.eigvalsh(op.assembled()))


BANDED = [DiracSpec(nu=nu, kappa=kappa, r_max=30.0, n=300, grading=grading)
          for nu in (0.0, 0.5, 0.9, 1.0) for kappa in (-1, 1)
          for grading in ("uniform", "quadratic")]
BANDED += [ApsSpec((0.0, 3.0, -3.0), 1.0, n) for n in (50, 400)]


def _build(spec):
    return build_dirac_coulomb(spec) if isinstance(spec, DiracSpec) else build_aps_cylinder(spec)


@pytest.mark.parametrize("spec", BANDED, ids=str)
def test_band_spectrum_agrees_with_dsyevd(spec):
    # Both solves are backward stable: each value is exact for A + E with
    # ||E||_2 <= p(dim) eps ||A||_2, so by Weyl the two differ by at most twice
    # that. p(n) = n / 2, the linear a-priori growth of Householder reduction,
    # gives the bound dim * eps * ||A||_2 (1.6% of it used at most, on APS n=400).
    op = _build(spec)
    assert oracle._band(op) is not None
    reference = np.linalg.eigvalsh(op.assembled())
    bound = op.dim * np.finfo(float).eps * np.abs(reference).max()  # ||A||_2
    assert np.abs(dense_spectrum(op) - reference).max() <= bound


def _band_drivers(monkeypatch) -> list[str]:
    """The select argument of each eig_banded call from here on: "a" (dsbevd) or "v"."""
    calls = []
    real = sla.eig_banded

    def spy(*args, **kwargs):
        calls.append(kwargs.get("select", "a"))
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle.scipy.linalg, "eig_banded", spy)
    return calls


WINDOWED = [DiracSpec(nu=nu, kappa=-1, r_max=30.0, n=n) for nu in (0.5, 0.9) for n in (300, 600)]
WINDOWED += [ApsSpec((0.0, 3.0, -3.0), 1.0, 200)]


@pytest.mark.parametrize("spec", WINDOWED, ids=str)
@pytest.mark.parametrize("inside,driver", [(0, "v"), (1, "v"), (10, "v"), (None, "a")],
                         ids=["none", "one", "ten", "most"])
def test_a_window_solve_agrees_with_dsyevd(monkeypatch, spec, inside, driver):
    # The window holds the distinct levels levels[first:last] of A (APS's are multiple),
    # its ends a third of the way into the spacings around them, far from every
    # eigenvalue. Both solves are backward stable, so the values differ by at most
    # dim * eps * ||A||_2 (test_band_spectrum_agrees_with_dsyevd). A window holding
    # most values takes dsbevd, on the count alone.
    op = _build(spec)
    full = np.linalg.eigvalsh(op.assembled())
    bound = op.dim * np.finfo(float).eps * np.abs(full).max()
    levels = [value for value, _ in oracle.cluster_eigenvalues(full)]
    first = int(np.argmin(np.abs(levels))) + 1  # above APS's multiple level 0
    first, last = (2, len(levels) - 2) if inside is None else (first, first + inside)
    lo = levels[first - 1] + (levels[first] - levels[first - 1]) / 3
    hi = levels[last] - (levels[last] - levels[last - 1]) / 3
    assert np.abs(full - lo).min() > 10 * bound and np.abs(full - hi).min() > 10 * bound
    drivers = _band_drivers(monkeypatch)
    values = dense_spectrum(op, lo, hi)
    expected = full[(full > lo) & (full < hi)]
    assert drivers == [driver]
    assert len(values) == len(expected)
    assert np.abs(values - expected).max(initial=0.0) <= bound


def _integer_diagonal() -> BlockOperator:
    # A = diag(0, ..., 39, -1, ..., -8), banded with w = 0; dim 48
    return BlockOperator(p=np.diag(np.arange(40.0)), c=np.zeros((8, 40)),
                         amm=np.diag(-np.arange(1.0, 9.0)))


def test_a_shift_at_an_eigenvalue_leaves_the_count_unknown(monkeypatch):
    op = _integer_diagonal()
    band = oracle._band(op)
    assert band is not None and band.shape == (1, 48)
    assert inertia(band, 3.5)[0] == 12  # -8..-1 and 0..3
    assert inertia(band, 3.0) is None  # a zero pivot
    drivers = _band_drivers(monkeypatch)
    assert np.array_equal(dense_spectrum(op, 3.0, 7.0), [4.0, 5.0, 6.0])
    assert drivers == ["a"]


def test_a_window_solve_drops_ends_that_are_eigenvalues(monkeypatch):
    # dsbevx solves (lo, hi]: the window's end hi is dropped after it
    monkeypatch.setattr(oracle, "_few_inside", lambda band, lo, hi: True)
    drivers = _band_drivers(monkeypatch)
    assert np.array_equal(dense_spectrum(_integer_diagonal(), 3.0, 7.0), [4.0, 5.0, 6.0])
    assert drivers == ["v"]


@pytest.mark.parametrize("shift,drivers", [(0.1, ["v"]), (-0.1, ["v", "a"])])
def test_the_krein_row_reads_its_shell_exactly(monkeypatch, shift, drivers):
    # A lambda1 too high puts A's first gap level inside the gap: the row fails, with the
    # full spectrum's margin up to the solves' rounding (dim * eps * ||A||_2). A lambda1
    # too low leaves the shell empty, and the row reads the whole spectrum.
    op = build_dirac_coulomb(DiracSpec(nu=0.5, kappa=-1, r_max=30.0, n=300))
    full = dense_spectrum(op)
    bound = op.dim * np.finfo(float).eps * np.abs(full).max()
    cert = verify.lambda1_certificate(op)
    monkeypatch.setattr(verify, "lambda1_certificate",
                        lambda op: replace(cert, lambda1=cert.lambda1 + shift))
    called = _band_drivers(monkeypatch)
    report = verify.krein_gap_check(op)
    margin = np.abs(full - report.params["mid"]).min() - report.params["half_gap"]
    assert called == drivers
    assert report.passed == (shift < 0)
    if shift > 0:
        assert report.value < -0.09
        assert abs(report.value - margin) <= bound
    else:
        assert report.value == margin


DIRAC600 = {"kind": "dirac", "spec": {"nu": 0.5, "kappa": -1, "r_max": 30.0,
                                      "grading": "uniform", "n": 600}}


@pytest.mark.parametrize("command,config,full_solves", [
    ("pollution", None, 0),
    ("verify", DIRAC600, 0),
    ("pollution", {"spec": {"window": [-50.0, 50.0]}}, 2),
], ids=["pollution", "verify-dirac600", "pollution-wide"])
def test_the_oracle_solves_a_whole_band_only_for_a_wide_window(
        monkeypatch, tmp_path, capsys, command, config, full_solves):
    # pollution's default window (-0.5, 0.5) and verify's Krein shell hold one eigenvalue
    # of A each; [-50, 50] holds most of them at both grids
    argv = [command, "--quiet"]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(path)]
    drivers = _band_drivers(monkeypatch)
    main(argv)
    capsys.readouterr()
    assert drivers.count("a") == full_solves


@pytest.mark.parametrize("build,solver", [
    (lambda: random_gapped(RandomSpec(n_plus=6, n_minus=5, seed=0)), "eigvalsh"),
    (lambda: build_dirac_coulomb(DiracSpec(nu=0.5, kappa=-1, n=300, r_max=30.0)),
     "eig_banded"),
], ids=["dense", "banded"])
def test_a_failed_eigensolve_is_an_eig_failure(monkeypatch, build, solver):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    op = build()
    monkeypatch.setattr(oracle.scipy.linalg, solver, fail)
    with pytest.raises(EigFailure, match="dense eigensolve failed"):
        dense_spectrum(op)


def test_a_dense_operator_builds_no_band(campaign_ops, monkeypatch):
    # the nonzero count rules a dense operator out before any ordering or band is built
    def refuse(*args, **kwargs):
        raise AssertionError("a dense operator reached the band ordering")

    monkeypatch.setattr(oracle.np, "nonzero", refuse)  # the band's first step
    for op in [*campaign_ops, *TALL]:
        assert oracle._band(op) is None
        dense_spectrum(op)


def test_a_tall_operator_is_ruled_out_by_its_coupling_first(monkeypatch):
    # p's 40 000 nonzeros fit the band budget, c's 160 000 do not: p is never copied
    read = []

    def counted(m, limit=None):
        nz = nonzeros(m, limit)
        read.append((m.shape, nz is not None))
        return nz

    monkeypatch.setattr(oracle, "nonzeros", counted)
    for op in TALL:
        read.clear()
        assert oracle._band(op) is None
        assert read == [((op.n_minus, op.n_plus), False)]


def test_band_spectrum_holds_no_dim_squared_array():
    # pollution's n=1200 operator: dim 2400, where one dim x dim matrix is 46 MB
    op = build_dirac_coulomb(DiracSpec(nu=0.9, kappa=-1, r_max=30.0, n=1200))
    tracemalloc.start()
    try:
        dense_spectrum(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * op.dim**2 * 8


PEAK_RSS_GROWTH = """
from gapeig import DiracSpec, build_dirac_coulomb, dense_spectrum

def peak_mib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024

op = build_dirac_coulomb(DiracSpec(nu=0.9, kappa=-1, r_max=30.0, n=1200))
before = peak_mib()
dense_spectrum(op)
print(peak_mib() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_dense_spectrum_makes_no_copy_of_the_assembled_matrix():
    # tracemalloc misses the copy numpy's eigvalsh makes inside its C code, so a fresh
    # process reads its peak RSS. That is VmHWM, not ru_maxrss, which keeps the peak of
    # the process that started it across exec. On pollution's n=1200 operator (dim
    # 2400, 44 MiB a matrix) a copy grows the peak by about 90 MiB, the solve in the
    # assembled matrix's own memory by about 46 MiB.
    done = subprocess.run([sys.executable, "-c", PEAK_RSS_GROWTH], capture_output=True,
                          text=True, timeout=120, check=True)
    assert float(done.stdout) < 66.0
