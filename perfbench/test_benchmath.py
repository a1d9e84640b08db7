"""Checks of the benchmark's own arithmetic: percentiles, span self time, ratios."""

import json
import math
import os

import pytest

from benchmath import layer_totals, percentile, ratio, root_stats, self_times
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))


def _span(i, name, parent, start, end, **notes):
    return {"id": i, "name": name, "parent": parent, "start": start, "end": end, **notes}


def test_percentile_is_nearest_rank_with_count():
    values = [7.0, 1.0, 10.0, 3.0, 5.0, 2.0, 9.0, 4.0, 8.0, 6.0]
    assert percentile(values, 50) == (5.0, 10)
    assert percentile(values, 90) == (9.0, 10)
    assert percentile(values, 100) == (10.0, 10)
    assert percentile(values, 1) == (1.0, 10)
    assert percentile([3.5], 90) == (3.5, 1)
    # four samples: the median is the second, never an interpolated value
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == (2.0, 4)
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_self_time_of_nested_spans():
    spans = [
        _span(0, "a", None, 0.0, 10.0),
        _span(1, "b", 0, 1.0, 4.0),
        _span(2, "d", 1, 2.0, 3.0),
        _span(3, "c", 0, 5.0, 6.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_merges_overlapping_children_and_clips_them():
    spans = [
        _span(0, "a", None, 0.0, 10.0),
        _span(1, "b", 0, 1.0, 5.0),
        _span(2, "b", 0, 3.0, 7.0),
        _span(3, "c", 0, 9.0, 12.0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 6.0 - 1.0)
    totals = layer_totals(spans)
    assert totals["b"]["calls"] == 2
    assert totals["b"]["self_s"] == pytest.approx(8.0)


def test_root_ratios_and_their_bases():
    spans = [
        _span(0, "minmax.gap_spectrum", None, 0, 10, levels=5, filled=1),
        _span(1, "minmax.lambda_k", 0, 0, 4, iterations=7),
        _span(2, "minmax.lambda_k", 0, 4, 8, iterations=9),
        _span(3, "minmax.lambda_k", 0, 8, 9, error="BracketFailure"),
    ]
    for i in range(9):
        spans.append(_span(4 + i, "schur.mu_k", 1, 1, 2, site="minmax"))
    spans.append(_span(13, "schur.mu_k_with_vector", 1, 2, 3, site="minmax"))
    spans.append(_span(14, "schur.pencil_values_in_band", 1, 3, 4, site="minmax"))
    # a pencil evaluation made by another layer is not a root-solve evaluation
    spans.append(_span(15, "schur.mu_k", None, 11, 12, site="verify"))
    stats = root_stats(spans)
    assert stats["lambda_k_calls"] == 3
    assert stats["pencil_evals_per_root"] == pytest.approx(11 / 3)
    assert stats["iterations_per_root"] == pytest.approx(8.0)
    assert stats["levels_delivered"] == 5
    assert stats["sibling_fill_ratio"] == pytest.approx(0.2)
    assert stats["bracket_failures"] == 1


def test_ratios_with_an_empty_base_are_zero():
    assert ratio(3, 0) == 0.0
    assert root_stats([]) == {
        "lambda_k_calls": 0, "pencil_evals_per_root": 0.0, "iterations_per_root": 0.0,
        "levels_delivered": 0, "sibling_fill_ratio": 0.0, "bracket_failures": 0,
    }


def test_tracer_records_parents_units_and_errors():
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_inner = tracer.wrap("inner", inner, "here")
    traced_outer = tracer.wrap("outer", lambda x: traced_inner(x) + 1, "here")
    tracer.unit = "u1"
    assert traced_outer(2) == 3
    with pytest.raises(ValueError):
        traced_outer(-1)
    names = [(s["name"], s["parent"], s["unit"]) for s in tracer.spans]
    assert names == [("outer", None, "u1"), ("inner", 0, "u1"),
                     ("outer", None, "u1"), ("inner", 2, "u1")]
    assert tracer.spans[3]["error"] == "ValueError"
    assert all(s["end"] >= s["start"] for s in tracer.spans)


def test_tracer_patches_every_lookup_site_and_restores_them():
    minmax = pytest.importorskip("gapeig.minmax")
    schur = pytest.importorskip("gapeig.schur")
    original = schur.mu_k
    with Tracer().installed():
        assert minmax.mu_k is not original
        assert schur.mu_k is not original
    assert minmax.mu_k is original and schur.mu_k is original


def test_benchmark_json_lists_the_metrics_run_py_reports():
    import run

    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)


def test_aps_reference_has_the_degenerate_levels():
    workloads = pytest.importorskip("workloads")
    levels = workloads.aps_reference([0.0, 3.0, -3.0], 1.0, 400, 5)
    assert [mult for _, mult, _ in levels] == [1, 2, 2, 1, 2]
    sigma1 = 2.0 * 401 * math.sin(math.pi / 802)
    assert levels[0][0] == pytest.approx(sigma1, rel=1e-15)
    assert levels[1][0] == levels[2][0] == pytest.approx(math.hypot(3.0, sigma1), rel=1e-15)
