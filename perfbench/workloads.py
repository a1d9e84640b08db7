"""The four benchmark workloads: inputs from a seed, one timed pass, reference gates.

Each workload is a pair of functions. setup(seed) parses the configs and
builds the operators; it is timed as set-up. run_pass(inputs, tally, tracer)
does one pass of the workload, gates every result against that workload's
reference into the tally, and returns the latency in seconds of each work
unit. Only the package's public API is called, and always through its module
(`cli.run`, `minmax.gap_spectrum`, ...), so an installed Tracer sees every
call. Why each workload exists is written up in NOTES.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from gapeig import blockop, cli, minmax, models, oracle

# Failures the program is known to report on these inputs. They are counted
# in `failed` like any other; only a failure missing from this list makes the
# run incorrect.
KNOWN_FAILURES = {
    "verify-suite/inverse_formula/dirac(nu=0.5,kappa=-1,r_max=30,grading=uniform)/e=-0.99784":
        "n=600, 1e-2 of the gap above lambda0: b + e*I is nearly singular this close to "
        "lambda0 and the residual (about 9.0e-10) exceeds the check's absolute 1e-10 bound",
    "verify-suite/inverse_formula/dirac(nu=0.5,kappa=-1,r_max=30,grading=uniform)/e=-1.01478":
        "n=600, 1e-3 of the gap above lambda0: as above, closer still, residual about "
        "6.5e-9 against the absolute 1e-10 bound",
    "verify-suite/pollution/window_spurious_drift":
        "acceptance criterion 10 by design: the clause asks for a spurious state that "
        "this discretization cannot produce (see the README and that test's docstring)",
}


@dataclass
class Tally:
    """Operations attempted and failed, with each failure's key."""

    workload: str
    attempted: int = 0
    failed: int = 0
    known: list[str] = field(default_factory=list)
    unknown: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if ok:
            return
        self.failed += count
        key = f"{self.workload}/{what}"
        (self.known if key in KNOWN_FAILURES else self.unknown).append(key)

    def raised(self, what: str, count: int) -> None:
        """A unit raised: every operation it was to deliver failed."""
        self.record(False, f"{what}/raised: {traceback.format_exc(limit=-1).strip()}", count)


# --- dirac-ladder: cli.run on the Dirac-Coulomb channel of criterion 6 ---

DIRAC_SPEC = {"nu": 0.5, "kappa": -1, "r_max": 30.0}
DIRAC_LADDER = (
    {"kind": "dirac", "spec": {**DIRAC_SPEC, "grading": "uniform"},
     "grids": [300, 600, 1200], "k_max": 1},
    {"kind": "dirac", "spec": {**DIRAC_SPEC, "grading": "quadratic", "n": 1200}, "k_max": 1},
)
QUADRATIC_MAX_ERROR = 1e-2


def _build_dirac(config: cli.ExperimentConfig) -> list[blockop.BlockOperator]:
    spec = config.spec
    grids = config.grids or (int(spec.get("n", 600)),)
    return [models.build_dirac_coulomb(models.DiracSpec(
        nu=spec["nu"], kappa=spec["kappa"], n=n, r_max=spec["r_max"],
        grading=spec.get("grading"))) for n in grids]


def dirac_setup(seed: int) -> list[cli.ExperimentConfig]:
    configs = [cli.config_from_dict({**raw, "seed": seed}) for raw in DIRAC_LADDER]
    for config in configs:
        _build_dirac(config)
    return configs


def dirac_pass(configs, tally: Tally, tracer) -> list[float]:
    exact = models.analytic_dirac_energy(DIRAC_SPEC["nu"], DIRAC_SPEC["kappa"], 0)
    latencies = []
    for config in configs:
        grading = config.spec["grading"]
        tracer.unit = f"dirac-ladder/{grading}"
        try:
            rows = cli.run(config)
            cli.rows_to_csv(rows)
        except Exception:
            tally.raised(grading, len(config.grids or (1,)))
            continue
        latencies += [row.ms / 1e3 for row in rows]
        previous = math.inf
        for row in rows:
            error = abs(row.lambda_k - exact)
            ok = not cli.row_failed(row, config.tol) and row.oracle == exact
            if grading == "quadratic":
                ok = ok and error <= QUADRATIC_MAX_ERROR
            else:
                # criterion 6: the error falls strictly as the grid is refined
                ok = ok and error < previous
                previous = error
            tally.record(ok, f"{grading}/n={row.grid}/k={row.k}")
    return latencies


# --- aps-degenerate: cli.run on the cylinder with degenerate +-3 modes ---

APS = {"kind": "aps", "spec": {"modes": [0.0, 3.0, -3.0], "length_l": 1.0, "n": 400},
       "k_max": 5}
# criterion 8: mode 0 within 1e-10 of the closed form, mode 3 within 1e-9
APS_TOL = {0.0: 1e-10, 3.0: 1e-9}


def aps_reference(modes, length_l: float, n: int, k_max: int) -> list[tuple[float, int, float]]:
    """The first k_max levels sqrt(mode^2 + sigma_j^2) as (value, multiplicity, tolerance).

    sigma_j are the closed-form singular values of the forward difference;
    modes of equal magnitude give the same level, hence the multiplicity.
    """
    j = np.arange(1, n + 1)
    sigmas = 2.0 * (n + 1) / length_l * np.sin(j * np.pi / (2.0 * (n + 1)))
    mult: dict[tuple[float, float], int] = {}
    for mode in modes:
        for sigma in sigmas:
            key = (abs(float(mode)), float(sigma))
            mult[key] = mult.get(key, 0) + 1
    levels = sorted((math.hypot(m, s), count, APS_TOL[m]) for (m, s), count in mult.items())
    return [level for level in levels for _ in range(level[1])][:k_max]


def aps_setup(seed: int) -> cli.ExperimentConfig:
    config = cli.config_from_dict({**APS, "seed": seed})
    spec = config.spec
    models.build_aps_cylinder(models.ApsSpec(
        modes=tuple(spec["modes"]), length_l=spec["length_l"], n=spec["n"]))
    return config


def aps_pass(config, tally: Tally, tracer) -> list[float]:
    spec = config.spec
    reference = aps_reference(spec["modes"], spec["length_l"], spec["n"], config.k_max)
    tracer.unit = "aps-degenerate"
    try:
        rows = cli.run(config)
        cli.rows_to_csv(rows)
    except Exception:
        tally.raised("run", config.k_max)
        return []
    for row, (value, mult, tol) in zip(rows, reference):
        ok = (not cli.row_failed(row, config.tol) and abs(row.lambda_k - value) <= tol
              and row.multiplicity == mult)
        tally.record(ok, f"k={row.k}")
    tally.record(len(rows) == len(reference), "row_count")
    return [rows[0].ms / 1e3] if rows else []


# --- random-campaign: criterion 1's operators plus two tall ones ---

CAMPAIGN_SIZE = 100
TALL_DIMS = (200, 800)
TALL_COUNT = 2
TALL_SEED_BASE = 1_000_000
K_MAX = 5
RANDOM_REL_TOL = 1e-8  # criterion 1


def campaign_dims(seed: int) -> tuple[int, int]:
    """Block sizes of campaign operator `seed`; the recipe of the acceptance campaign."""
    rng = np.random.default_rng(10_000 + seed)
    return int(rng.integers(5, 41)), int(rng.integers(2, 41))


def campaign_specs(seed: int, count: int) -> list[models.RandomSpec]:
    """The first `count` campaign operators of workload seed `seed`.

    Operator i always has the acceptance campaign's block sizes
    campaign_dims(i); the workload seed picks its entries, from the next
    disjoint block of CAMPAIGN_SIZE generator seeds. Seed 0 is exactly the
    acceptance campaign. Fixing the sizes keeps the work per seed the same,
    so the spread between seeds is the machine's, not the sizes'.
    """
    base = CAMPAIGN_SIZE * seed
    return [models.RandomSpec(*campaign_dims(i), gap_target=1.0, seed=base + i)
            for i in range(count)]


def random_setup(seed: int) -> list[blockop.BlockOperator]:
    specs = campaign_specs(seed, CAMPAIGN_SIZE)
    specs += [models.RandomSpec(*TALL_DIMS, gap_target=1.0,
                                seed=TALL_SEED_BASE + TALL_COUNT * seed + j)
              for j in range(TALL_COUNT)]
    return [models.random_gapped(spec) for spec in specs]


def _gate_random(op, results, clusters, tally: Tally, unit: str) -> None:
    flat = [value for value, mult in clusters for _ in range(mult)]
    for res in results:
        want = flat[res.k - 1] if res.k <= len(flat) else math.nan
        row = cli.ReportRow(model=unit, grid=op.dim, k=res.k, lambda_k=res.lambda_k,
                            multiplicity=res.multiplicity, oracle=want,
                            residual=res.residual)
        nearest = min(clusters, key=lambda c: abs(c[0] - res.lambda_k), default=(math.nan, 0))
        ok = (res.status == "ok" and not cli.row_failed(row, 1e-10)
              and abs(res.lambda_k - want) <= RANDOM_REL_TOL * abs(want)
              and nearest[1] == res.multiplicity)
        tally.record(ok, f"{unit}/k={res.k}")


def random_pass(ops, tally: Tally, tracer) -> list[float]:
    latencies = []
    for i, op in enumerate(ops):
        unit = f"op{i}"
        tracer.unit = f"random-campaign/{unit}"
        start = time.perf_counter()
        try:
            results = minmax.gap_spectrum(op, K_MAX)
            lam0 = blockop.lambda0(op)
            hi = max((r.lambda_k for r in results if r.status == "ok"), default=lam0 + 1.0)
            clusters = oracle.gap_eigs_bruteforce(op, lam0, hi + 1e-8 * max(1.0, abs(hi)))
        except Exception:
            tally.raised(unit, K_MAX)
            continue
        latencies.append(time.perf_counter() - start)
        _gate_random(op, results, clusters, tally, unit)
    return latencies


# --- verify-suite: identity checks and the pollution report at matrix scale ---

VERIFY_DIRAC = {"kind": "dirac", "spec": {**DIRAC_SPEC, "n": 600}}
VERIFY_RANDOM_COUNT = 20
POLLUTION_ARGV = ["pollution", "--format", "csv"]


def verify_setup(seed: int) -> list[cli.ExperimentConfig]:
    specs = campaign_specs(seed, VERIFY_RANDOM_COUNT)
    configs = [cli.config_from_dict({**VERIFY_DIRAC, "seed": seed})]
    configs += [cli.config_from_dict({
        "kind": "random", "seed": spec.seed,
        "spec": {"n_plus": spec.n_plus, "n_minus": spec.n_minus, "gap_target": 1.0}})
        for spec in specs]
    _build_dirac(configs[0])
    for spec in specs:
        models.random_gapped(spec)
    # the operators `gapeig pollution` builds with its defaults
    for n in (600, 1200):
        models.build_dirac_coulomb(models.DiracSpec(nu=0.9, kappa=-1, n=n, r_max=30.0))
    return configs


def _report_key(check: str, params: dict) -> str:
    key = f"{check}/{params.get('model', '')}"
    return key + (f"/e={params['e']:.5f}" if "e" in params else "")


def verify_pass(configs, tally: Tally, tracer) -> list[float]:
    latencies = []
    for i, config in enumerate(configs):
        unit = f"{config.kind}{i}"
        tracer.unit = f"verify-suite/{unit}"
        start = time.perf_counter()
        try:
            reports = cli.verify_all(config)
            cli.reports_to_csv(reports)
        except Exception:
            tally.raised(unit, 1)
            continue
        latencies.append(time.perf_counter() - start)
        for rep in reports:
            tally.record(rep.passed, _report_key(rep.check, rep.params))

    tracer.unit = "verify-suite/pollution"
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            cli.main(POLLUTION_ARGV)
    except Exception:
        tally.raised("pollution", 1)
        return latencies
    latencies.append(time.perf_counter() - start)
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    tally.record(bool(rows), "pollution/report")
    for row in rows:
        tally.record(row["passed"] == "true", f"pollution/{row['check']}")
    return latencies


WORKLOADS = {
    "dirac-ladder": (dirac_setup, dirac_pass),
    "aps-degenerate": (aps_setup, aps_pass),
    "random-campaign": (random_setup, random_pass),
    "verify-suite": (verify_setup, verify_pass),
}


def warm_up() -> None:
    """Run the dense LAPACK paths once at workload scale before anything is timed.

    One pencil eigensolve at n=1200, one dense spectrum of dimension 1200
    and one small root solve: about half a second in all.
    """
    models.hardy_check(0.5, 1200, 30.0)
    op = models.build_dirac_coulomb(models.DiracSpec(nu=0.5, kappa=-1, n=600, r_max=30.0))
    oracle.gap_eigs_bruteforce(op, blockop.lambda0(op), math.inf)
    op = models.random_gapped(models.RandomSpec(n_plus=6, n_minus=6, seed=0))
    minmax.gap_spectrum(op, 2)
