"""The CLI's output bytes are held fixed across commits by the files in tests/golden/.

Each golden run is a `gapeig` command run in a child process with one BLAS
thread (tests/golden/generate.py lists them and writes the files). Its stdout,
with a JSON row's wall-time `ms` field stripped, must equal the golden file byte
for byte (a CSV, with nothing stripped), and its exit code the one recorded. On a machine whose libraries differ
from the ones recorded in index.json, the bytes may move in their last bits:
there numbers are compared to a relative 1e-9 (absolute 1e-12 near zero), the
rest of the text exactly, and the test prints that it did so.
"""

import importlib.util
import json
import math
import re
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"


def _load():
    spec = importlib.util.spec_from_file_location("golden_generate", GOLDEN / "generate.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


generate = _load()
INDEX = json.loads((GOLDEN / "index.json").read_text(encoding="utf-8"))
SAME_ENV = INDEX["environment"] == generate.environment()
NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|nan|inf|NaN|Infinity)")


def _close(text: str, expected: str) -> bool:
    """text equals expected with each number within the stated tolerance."""
    if NUMBER.sub("#", text) != NUMBER.sub("#", expected):
        return False
    return all(math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-12)
               or (math.isnan(float(a)) and math.isnan(float(b)))
               for a, b in zip(NUMBER.findall(text), NUMBER.findall(expected)))


def test_every_golden_file_has_a_run():
    on_disk = {p.name for p in GOLDEN.iterdir()} - {"generate.py", "index.json",
                                                   "canonical.json", "__pycache__"}
    assert on_disk == set(generate.RUNS) == set(INDEX["runs"])


@pytest.mark.parametrize("name", list(generate.RUNS))
def test_output_matches_the_golden_bytes(name, tmp_path):
    code, text = generate.run(name, str(tmp_path))
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert code == INDEX["runs"][name]["exit"]
    if SAME_ENV:
        assert text == expected
    else:
        print(f"{name}: libraries differ from index.json; numbers compared to rel 1e-9")
        assert _close(text, expected)


def test_only_the_ms_field_is_stripped():
    header = "model,grid,k,lambda_k,multiplicity,oracle,abs_error,residual"
    spectrum = f'{header}\n"m(a=1,b=2)",3,1,0.5,1,,,1e-16\n'
    report = 'check,value,passed,params\nkrein_gap,0.5,true,"{""n"": 3}"\n'
    assert generate.strip_ms(spectrum) == spectrum
    assert generate.strip_ms(report) == report
    record = '    {\n      "residual": 1e-16,\n      "ms": 12.345\n    }'
    assert generate.strip_ms(record) == '    {\n      "residual": 1e-16\n    }'


def test_moved_rows_names_each_moved_field():
    old = 'check,value,passed,params\nkrein_gap,0.5,true,"{""n"": 3}"\nsandwich,1e-16,true,{}\n'
    new = 'check,value,passed,params\nkrein_gap,0.5,true,"{""n"": 4}"\nsandwich,2e-16,false,{}\n'
    assert generate.moved_rows(old, old, True) == []
    assert generate.moved_rows(old, new, True) == [
        (2, "params", '{"n": 3}', '{"n": 4}'), (3, "value", "1e-16", "2e-16"),
        (3, "passed", "true", "false")]
    # a row only one side has; a JSON line is one field
    assert generate.moved_rows(old, old + "hardy,1,true,{}\n", True) == [
        (4, "check", "", "hardy"), (4, "value", "", "1"), (4, "passed", "", "true"),
        (4, "params", "", "{}")]
    assert generate.moved_rows('{\n  "value": 1.0\n}', '{\n  "value": 1.5\n}', False) == [
        (2, "", '"value": 1.0', '"value": 1.5')]


def test_a_moved_last_digit_is_close_but_not_equal():
    expected = (GOLDEN / "spectrum_matrix.csv").read_text(encoding="utf-8")
    moved = expected.replace("1.4142135623730951,1,", "1.414213562373095,1,", 1)
    assert moved != expected and _close(moved, expected)
    assert not _close(expected.replace("1.4142135623730951,1,", "1.4142,1,", 1), expected)
