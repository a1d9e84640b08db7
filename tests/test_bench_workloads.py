"""Every benchmark workload runs one pass and gates clean against its reference.

perfbench/workloads.py is the benchmark's own output check: each workload's
run_pass calls the package through its public API (`cli.run`,
`cli.verify_all`, `cli.main`, ...) and records every result against its
reference into a tally. A signature change or a moved value there would
otherwise first show up when the benchmark runs. The file is loaded by path,
unedited, as tests/test_trace_names.py loads tracing.py.
"""

import importlib.util
import sys
import types
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_pass_gates_clean(name):
    setup, run_pass = workloads.WORKLOADS[name]
    tally = workloads.Tally(name)
    run_pass(setup(0), tally, types.SimpleNamespace(unit=None))
    assert tally.attempted > 0
    assert tally.unknown == []
