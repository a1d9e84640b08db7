"""Benchmark runner for gapeig: four workloads, end-to-end timings, per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload dirac-ladder --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

The package is imported from ./src of the same checkout. A run repeats
iterations (set-up, then one pass of the workload) until --seconds have
passed, gates every result against the workload's reference, and prints one
line per metric, then one JSON object as the last line of standard output:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, measured with no tracing installed. With --trace 1
untraced and traced iterations alternate; the metrics are the per-layer ones
from the traced iterations, plus the tracing overhead, and the spans are
written as JSON lines to perfbench/out/. `--workload all` runs each workload
in its own child process, one after the other, so each gets its own peak RSS.

Exit codes: 0 when every failure is on the known-failure list, 1 when one
is not, 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("dirac-ladder", "aps-degenerate", "random-campaign", "verify-suite")
# BLAS threads are pinned to nproc (OpenBLAS's own default) so that the
# environment block states the setting every run used.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# untraced iterations repeat set-up for at least SETUP_SECONDS, so set-up
# samples are spread over the run; at least MIN_SETUPS in all, median reported
SETUP_SECONDS = 0.5
MIN_SETUPS = 3
# a tail percentile is printed only with at least this many samples beyond it
TAIL_SAMPLES = 10

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
LAYER_CALLS = (
    "schur.mu_k", "schur.mu_k_with_vector", "schur.pencil_values_in_band",
    "blockop.lambda0", "minmax.lambda1_certificate", "models.random_gapped",
    "oracle.dense_spectrum",
)
LAYER_SELF = (
    "schur.mu_k", "schur.mu_k_with_vector", "schur.apply_l", "schur.pencil_values_in_band",
    "schur.build_schur", "schur.q_value_and_slope",
    "minmax.lambda_k", "minmax.gap_spectrum",
    "blockop.lambda0", "blockop.assembled",
    "oracle.dense_spectrum", "oracle.gap_eigs_bruteforce",
    "verify.decomposition_residual", "verify.extension_consistency",
    "verify.inverse_formula_check", "verify.krein_gap_check",
    "models.hardy_check", "cli.run", "cli.verify_all", "cli.format",
)
MODEL_BUILDERS = ("models.build_dirac_coulomb", "models.build_aps_cylinder",
                  "models.random_gapped")
ROOT_METRICS = {
    "minmax.lambda_k.calls": ("lambda_k_calls", "count"),
    "minmax.pencil_evals_per_root": ("pencil_evals_per_root", "evals/root"),
    "minmax.iterations_per_root": ("iterations_per_root", "iters/root"),
    "minmax.levels_delivered": ("levels_delivered", "count"),
    "minmax.sibling_fill_ratio": ("sibling_fill_ratio", "ratio"),
    "minmax.bracket_failures": ("bracket_failures", "count"),
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{name}.calls": "count" for name in LAYER_CALLS}
    units.update({f"{name}.self_s": "s" for name in LAYER_SELF})
    units["models.build.self_s"] = "s"
    units.update({metric: unit for metric, (_, unit) in ROOT_METRICS.items()})
    units["trace.overhead_s"] = "s"
    return units


def layer_metrics(spans: list[dict], iterations: int, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics per traced iteration (one set-up plus one pass)."""
    from benchmath import layer_totals, root_stats

    totals = layer_totals(spans)
    zero = {"calls": 0, "self_s": 0.0}
    values = {f"{name}.calls": totals.get(name, zero)["calls"] / iterations
              for name in LAYER_CALLS}
    values.update({f"{name}.self_s": totals.get(name, zero)["self_s"] / iterations
                   for name in LAYER_SELF})
    values["models.build.self_s"] = sum(
        totals.get(name, zero)["self_s"] for name in MODEL_BUILDERS) / iterations
    roots = root_stats(spans)
    for metric, (key, unit) in ROOT_METRICS.items():
        values[metric] = roots[key] / iterations if unit == "count" else roots[key]
    values["trace.overhead_s"] = overhead_s
    return values


def environment(seed: int) -> dict:
    """Machine, library and source identity recorded with every result."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "gapeig"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run iterations of one workload for `seconds`; return samples, tally and spans."""
    import workloads
    from tracing import Tracer

    setup, run_pass = workloads.WORKLOADS[name]
    tally = workloads.Tally(name)
    tracer = Tracer()
    workloads.warm_up()
    setups, walls, traced_walls, units = [], [], [], []
    iteration = 0
    start = time.perf_counter()
    while True:
        traced = trace and iteration % 2 == 1
        with tracer.installed() if traced else nullcontext():
            first = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                inputs = setup(seed)
                t1 = time.perf_counter()
                if traced:
                    break
                setups.append(t1 - t0)
                if t1 - first >= SETUP_SECONDS:
                    break
            latencies = run_pass(inputs, tally, tracer)
            t2 = time.perf_counter()
        # freed before the next set-up, so peak RSS is that of one iteration
        del inputs
        if traced:
            traced_walls.append(t2 - t1)
        else:
            walls.append(t2 - t1)
            units += latencies
        iteration += 1
        done = time.perf_counter() - start >= seconds
        if done and (not trace or traced_walls):
            break
    while len(setups) < MIN_SETUPS:
        t0 = time.perf_counter()
        setup(seed)
        setups.append(time.perf_counter() - t0)
    return {"setups": setups, "walls": walls, "traced_walls": traced_walls,
            "units": units, "tally": tally, "tracer": tracer}


def summarize(samples: dict, trace: bool) -> tuple[dict, list[str]]:
    """The reported metrics, and one human-readable line per metric."""
    from benchmath import percentile, ratio

    tally = samples["tally"]
    lines = [f"failed_frac  {ratio(tally.failed, tally.attempted):.6g}  "
             f"({tally.failed} of {tally.attempted} operations; "
             f"{len(tally.unknown)} not on the known-failure list)"]
    if trace:
        iterations = len(samples["traced_walls"])
        overhead = statistics.median(samples["traced_walls"]) - statistics.median(samples["walls"])
        values = layer_metrics(samples["tracer"].spans, iterations, overhead)
        units = per_layer_units()
        lines.append(f"per traced iteration (set-up + pass), {iterations} traced; "
                     f"{len(samples['tracer'].spans)} spans")
        lines += [f"{name}  {value:.6g} {units[name]}" for name, value in values.items()
                  if value or name == "trace.overhead_s"]
    else:
        walls, units_s = samples["walls"], samples["units"]
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(samples["setups"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        notes = {
            "wall_s": f"median of {len(walls)} passes",
            "setup_s": f"median of {len(samples['setups'])} set-ups",
            "peak_rss_mb": "ru_maxrss of this process",
        }
        lines += [f"{name}  {values[name]:.6g} {units[name]}  ({notes[name]})" for name in units]
        # unit latencies swing too much between runs on a shared machine to gate
        p50, count = percentile(units_s, 50)
        lines.append(f"unit_ms_p50  {p50 * 1e3:.6g} ms  (nearest rank of {count} units; "
                     f"reported, not gated)")
        p90, _ = percentile(units_s, 90)
        beyond = count - math.ceil(0.9 * count)
        if beyond >= TAIL_SAMPLES:
            lines.append(f"unit_ms_p90  {p90 * 1e3:.6g} ms  (nearest rank of {count} units, "
                         f"{beyond} above it; reported, not gated)")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    return metrics, lines


def run_one(args) -> int:
    sys.path.insert(0, SRC)
    import workloads

    name, seed, trace = args.workload, args.seed, bool(args.trace)
    samples = measure(name, seed, args.seconds, trace)
    tally = samples["tally"]
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}")
    if trace:
        samples["tracer"].write_jsonl(stem + ".spans.jsonl")
    metrics, lines = summarize(samples, trace)
    env = environment(seed)
    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    print("env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    for key, count in Counter(tally.known).items():
        print(f"known failure x{count}: {key}: {workloads.KNOWN_FAILURES[key]}")
    for key, count in Counter(tally.unknown).items():
        print(f"FAILURE x{count}: {key}")
    result = {"correct": not tally.unknown, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({**result, "env": env, "workload": name,
                   "samples": {k: samples[k] for k in ("setups", "walls", "traced_walls", "units")},
                   "known_failures": tally.known, "unknown_failures": tally.unknown},
                  fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in a child process, in turn; a combined result line last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        child = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        status = max(status, child.returncode)
        last = child.stdout.strip().splitlines()[-1] if child.stdout.strip() else "{}"
        try:
            result = json.loads(last)
        except json.JSONDecodeError:
            result = {}
        if not result:
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{metric}": value for metric, value in result["metrics"].items()})
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "gapeig", "__init__.py")):
        print(f"perfbench: no package source at {SRC}/gapeig; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # fixed before numpy is first imported, so every run uses the same setting
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(len(os.sched_getaffinity(0)))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
