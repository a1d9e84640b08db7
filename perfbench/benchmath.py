"""Arithmetic of the benchmark: percentiles, span self time, per-layer ratios.

Pure functions over plain numbers and span dicts, so the tests can check
them without running the solver. A span is a dict with at least "id",
"name", "parent" (an id or None), "start" and "end" (seconds); optional keys
are "site" (the module whose name lookup reached the function), "error"
(exception type name) and per-function annotations such as "iterations".
"""

from __future__ import annotations

import math
from collections import defaultdict

# the pencil evaluations a root solve is made of
PENCIL_EVALS = ("schur.mu_k", "schur.mu_k_with_vector", "schur.pencil_values_in_band")


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the sample count it was taken from.

    The value returned is always one of the samples: the smallest one with
    at least q percent of the samples at or below it.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must lie in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1], len(ordered)


def ratio(numerator: float, base: float) -> float:
    """numerator / base, and 0.0 when the base is empty (nothing was attempted)."""
    return numerator / base if base else 0.0


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time per span id: its duration minus the part its children cover.

    Children are clipped to the parent's interval and merged first, so
    overlapping children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None:
            lo = max(span["start"], parent["start"])
            hi = min(span["end"], parent["end"])
            if hi > lo:
                children[parent["id"]].append((lo, hi))
    return {
        span["id"]: (span["end"] - span["start"]) - _covered(children[span["id"]])
        for span in spans
    }


def layer_totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Calls and summed self time per span name."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for span in spans:
        entry = totals[span["name"]]
        entry["calls"] += 1
        entry["self_s"] += own[span["id"]]
    return dict(totals)


def root_stats(spans: list[dict]) -> dict[str, float]:
    """The minmax ratios, each with its base.

    - pencil_evals_per_root: mu_k, mu_k_with_vector and pencil_values_in_band
      calls looked up through gapeig.minmax, over lambda_k calls.
    - iterations_per_root: MinMaxResult.iterations summed over the lambda_k
      calls that returned, over those calls.
    - sibling_fill_ratio: levels delivered with iterations == 0 (filled in
      from an earlier root without a solve), over levels delivered by
      gap_spectrum.
    - bracket_failures: lambda_k calls that raised BracketFailure.
    """
    roots = [s for s in spans if s["name"] == "minmax.lambda_k"]
    solved = [s for s in roots if "iterations" in s]
    evals = sum(1 for s in spans if s["name"] in PENCIL_EVALS and s.get("site") == "minmax")
    spectra = [s for s in spans if s["name"] == "minmax.gap_spectrum" and "levels" in s]
    levels = sum(s["levels"] for s in spectra)
    return {
        "lambda_k_calls": len(roots),
        "pencil_evals_per_root": ratio(evals, len(roots)),
        "iterations_per_root": ratio(sum(s["iterations"] for s in solved), len(solved)),
        "levels_delivered": levels,
        "sibling_fill_ratio": ratio(sum(s["filled"] for s in spectra), levels),
        "bracket_failures": sum(1 for s in roots if s.get("error") == "BracketFailure"),
    }
