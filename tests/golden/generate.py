"""Write the golden outputs that tests/test_golden.py holds the CLI to.

Each entry of RUNS is one `gapeig` command: a subcommand, a config (None runs
on the defaults) and an output format. `python tests/golden/generate.py`
runs every one in a child process with one BLAS thread, from this folder so
that a matrix file's relative path is the model column, and writes

  <name>.<format>   its stdout, with a JSON row's wall-time `ms` field stripped
  index.json        each run's exit code, and the environment

`python tests/golden/generate.py --diff` runs the same commands and writes
nothing: it prints each moved row as file:line, the CSV column (none for a JSON
line), the old and the new value, and each changed exit code, and exits 1 if
anything moved. A change that moves golden bytes regenerates them with this
script and lists every moved row, with its old and new value, in CHANGES.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

import numpy
import scipy

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

DIRAC = {"nu": 0.5, "kappa": -1, "r_max": 30.0, "grading": "uniform"}
CONFIGS = {
    "dirac": {"kind": "dirac", "spec": DIRAC, "grids": [300, 600, 1200], "k_max": 3},
    "aps": {"kind": "aps", "spec": {"modes": [0.0, 3.0, -3.0], "length_l": 1.0, "n": 400},
            "k_max": 7},
    "random": {"kind": "random", "count": 20, "k_max": 5},
    "matrix": {"kind": "matrix-file", "spec": {"path": "canonical.json"}},
    "dirac600": {"kind": "dirac", "spec": {**DIRAC, "n": 600}},
    "random6": {"kind": "random", "count": 6},
}
# file name -> (subcommand, CONFIGS key or None for the defaults, format); the
# random runs' JSON would repeat their CSV values in a thousand lines each
RUNS = {
    f"{command}{'_' + config if config else ''}.{fmt}": (command, config, fmt)
    for command, config, formats in [
        ("spectrum", "dirac", ("csv", "json")),
        ("spectrum", "aps", ("csv", "json")),
        ("spectrum", "random", ("csv",)),
        ("spectrum", "matrix", ("csv", "json")),
        ("verify", "dirac600", ("csv", "json")),
        ("verify", "random6", ("csv",)),
        ("hardy", None, ("csv",)),
        ("pollution", None, ("csv",)),
    ]
    for fmt in formats
}


def environment() -> dict:
    """What the golden bytes depend on besides the source: libraries and machine. Each
    library names the BLAS it was built with; the package's arithmetic runs on scipy's."""
    blas = {lib.__name__: lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
            for lib in (numpy, scipy)}
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": {name: f"{b.get('name')} {b.get('openblas configuration')}"
                     for name, b in blas.items()},
            "machine": platform.machine(), "threads": THREADS}


def strip_ms(text: str) -> str:
    """text without the wall-time field, a JSON row's ms; the CSV has none."""
    return re.sub(r',\n *"ms": [^\n]*', "", text)


def moved_rows(old: str, new: str, is_csv: bool) -> list[tuple[int, str, str, str]]:
    """(line, column, old value, new value) of each difference between two outputs, lines
    counted from 1. A CSV line is read by csv, each differing field named by the header's
    column; any other line is compared whole, with no column. A line only one side has
    reads "" on the other."""
    moved = []
    lines = zip_longest(old.splitlines(), new.splitlines(), fillvalue="")
    header = next(csv.reader([old.split("\n", 1)[0]]), []) if is_csv else []
    for number, (was, now) in enumerate(lines, 1):
        if was == now:
            continue
        if not is_csv:
            moved.append((number, "", was.strip(), now.strip()))
            continue
        fields = zip_longest(*(next(csv.reader([line]), []) for line in (was, now)),
                             fillvalue="")
        moved += [(number, header[i] if i < len(header) else str(i + 1), a, b)
                  for i, (a, b) in enumerate(fields) if a != b]
    return moved


def run(name: str, workdir: str) -> tuple[int, str]:
    """(exit code, stdout with ms stripped) of one RUNS entry; its config is written to workdir."""
    command, config, fmt = RUNS[name]
    argv = [command, "--format", fmt]
    if config is not None:
        path = os.path.join(workdir, f"{config}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(CONFIGS[config], fh)
        argv += ["--config", path]
    env = {**os.environ, **THREADS, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "gapeig", *argv], cwd=HERE, env=env,
                          capture_output=True, text=True, check=False)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"gapeig {' '.join(argv)} exited {proc.returncode}: {proc.stderr}")
    return proc.returncode, strip_ms(proc.stdout)


def diff(workdir: str) -> int:
    """Print every moved row and changed exit code against the golden files; 1 if any."""
    recorded = json.loads((HERE / "index.json").read_text(encoding="utf-8"))["runs"]
    moved = 0
    for name in RUNS:
        code, text = run(name, workdir)
        if code != recorded[name]["exit"]:
            moved += 1
            print(f"{name}: exit {recorded[name]['exit']} -> {code}")
        old = (HERE / name).read_text(encoding="utf-8")
        for line, column, was, now in moved_rows(old, text, name.endswith(".csv")):
            moved += 1
            print(f"{name}:{line}{' ' + column if column else ''}: {was} -> {now}")
    print(f"{moved} moved across {len(RUNS)} golden outputs")
    return 1 if moved else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--diff", action="store_true",
                        help="print the rows that moved and write nothing")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        if args.diff:
            return diff(workdir)
        index = {"environment": environment(), "runs": {}}
        for name in RUNS:
            code, text = run(name, workdir)
            (HERE / name).write_text(text, encoding="utf-8")
            index["runs"][name] = {"exit": code}
    (HERE / "index.json").write_text(json.dumps(index, indent=2) + "\n", encoding="utf-8")
    print(f"{len(RUNS)} golden outputs -> {HERE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
