"""Every layer function the benchmark's trace mode wraps still exists.

perfbench/tracing.py names the package functions it wraps as (module,
attribute) pairs; a refactor that renames or removes one makes
`perfbench/run.py --trace 1` fail. The file is loaded by path, unedited.
"""

import importlib
import importlib.util
from pathlib import Path

import gapeig.minmax as minmax
import gapeig.schur as schur

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
    # the trace counts pencil evaluations per root through these two names
    assert minmax.mu_k is schur.mu_k
    assert minmax.mu_k_with_vector is schur.mu_k_with_vector
