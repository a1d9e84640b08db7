"""Every layer function the benchmark's trace mode wraps still exists.

perfbench/tracing.py names the package functions it wraps as (module,
attribute) pairs; a refactor that renames or removes one makes
`perfbench/run.py --trace 1` fail. The file is loaded by path, unedited.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import gapeig.minmax as minmax
import gapeig.schur as schur
from gapeig import BlockOperator

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layer_functions():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_FUNCTIONS


def test_every_traced_layer_function_resolves():
    missing = []
    for name, module_name, attr, _ in _layer_functions():
        owner = importlib.import_module(module_name)
        cls_name, _, member = attr.rpartition(".")
        if cls_name:
            found = member in vars(getattr(owner, cls_name, object))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{name}: {module_name}.{attr}")
    assert not missing


def test_minmax_looks_up_pencil_evaluations_from_schur():
    # the trace counts pencil evaluations per root through these two names,
    # and times the Newton step through the third
    assert minmax.mu_k is schur.mu_k
    assert minmax.mu_k_with_vector is schur.mu_k_with_vector
    assert minmax.q_value_and_slope is schur.q_value_and_slope


def test_every_solved_root_is_one_lambda_k_call(monkeypatch):
    # the benchmark's per-root ratios divide by the minmax.lambda_k calls, so each
    # level, a solved root, goes through that name once
    calls = []
    solve = minmax.lambda_k
    monkeypatch.setattr(minmax, "lambda_k",
                        lambda op, k, tol, *, levels=None:
                        calls.append(k) or solve(op, k, tol, levels=levels))
    op = BlockOperator(p=np.diag([2.0, 2.0]), c=np.zeros((1, 2)), amm=np.array([[-1.0]]))
    rows = minmax.gap_spectrum(op, 2)
    assert [r.iterations > 0 for r in rows] == [True, True]
    assert calls == [1, 2]

    calls.clear()
    minmax.lambda1_certificate(op)
    minmax.lambda1_certificate(op)
    assert calls == [1]
