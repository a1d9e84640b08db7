import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from gapeig import (ApsSpec, BlockOperator, DiracSpec, EigFailure, RandomSpec, assemble_block,
                    build_aps_cylinder, build_dirac_coulomb, dense_spectrum,
                    gap_eigs_bruteforce, oracle, random_gapped)
from gapeig.blockop import nonzeros

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
