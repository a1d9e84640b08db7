"""Batch front end: JSON experiment configs in, CSV/JSON report tables out.

Subcommands:
  spectrum   gap eigenvalues for one model config, across its grids when it lists them
  verify     structural identity checks (decomposition, Krein bound, extension,
             inverse formula, sandwich and norm chain as matrix inequalities between
             neighbouring energies, Hardy for radial models); draws no random numbers
  hardy      zero-energy Schur matrix positivity across couplings
  pollution  stability report for the nu=0.9 channel: gap level drift versus
             dense-spectrum window contents across two grids

The config schema is written once: the top-level keys are ExperimentConfig's
fields, checked in its __post_init__; SPECS holds each model kind's and
subcommand's spec keys with their defaults, and UNREAD the top-level keys it
ignores. main runs every COMMANDS entry on one ExperimentConfig: the --config
file's, or without one the defaults, with --out and --format laid over it.
Configs are plain JSON; no environment variables are consulted. Reports are
deterministic for a fixed config at a fixed BLAS thread count (ROADMAP item 22);
only a JSON spectrum row's wall time, ms, is not. A solver failure in one unit
stays in its rows, so the run exits 1: a level's NaN values in spectrum, a failed
gap_certificate row in verify. Input and config errors exit 2.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import __version__
from .blockop import BlockOperator, assemble_block, check_number, lambda0
from .errors import ConfigParse, GapeigError
from .minmax import gap_spectrum, lambda_k
from .models import (
    ApsSpec,
    DiracSpec,
    RandomSpec,
    analytic_dirac_energy,
    aps_levels,
    build_aps_cylinder,
    build_dirac_coulomb,
    hardy_check,
    random_gapped,
)
from .oracle import dense_spectrum
from .verify import VerificationReport, operator_reports

CSV_HEADER = "model,grid,k,lambda_k,multiplicity,oracle,abs_error,residual"
REPORT_CSV_HEADER = "check,value,passed,params"
ORACLE_DIM_LIMIT = 1200  # dense ground truth attached only below this size

KINDS = ("dirac", "aps", "random", "matrix-file")
# every spec key each model kind (spectrum/verify) or subcommand reads,
# with its default; the default's type is the key's type (int, float or a list
# of floats), and a None default passes the value through to the model
SPECS = {
    "dirac": {"nu": 0.5, "kappa": -1, "n": 600, "r_max": 30.0, "grading": None},
    "aps": {"modes": [0.0], "length_l": 1.0, "n": 200},
    "random": {"n_plus": 8, "n_minus": 8, "gap_target": 1.0},
    "matrix-file": {"path": None},
    "hardy": {"nu_values": [0.0, 0.5, 0.9, 1.0], "n": 1500, "r_max": 30.0},
    "pollution": {"nu": 0.9, "kappa": -1, "r_max": 30.0, "window": [-0.5, 0.5],
                  "grading": None},
}
UNREAD = {"dirac": ("count",), "aps": ("count",), "random": ("grids",),
          "matrix-file": ("grids", "count"), "hardy": ("k_max", "tol", "seed", "grids", "count"),
          "pollution": ("k_max", "seed", "count")}


@dataclass(frozen=True)
class ExperimentConfig:
    """One batch run; the fields are the config keys, and __post_init__ checks them.
    kind defaults to None: spectrum and verify need one, hardy and pollution none."""

    kind: str | None = None
    spec: dict = field(default_factory=dict)
    k_max: int = 1
    tol: float = 1e-10
    out: str | None = None
    format: str = "csv"
    seed: int = 0
    grids: tuple[int, ...] | None = None
    count: int = 1

    def __post_init__(self) -> None:
        set_ = partial(object.__setattr__, self)
        if not isinstance(self.spec, dict):  # dict() would take a list of pairs
            raise ConfigParse(f"spec must be a JSON object, got {self.spec!r}")
        set_("spec", dict(self.spec))
        set_("k_max", _number(self.k_max, "k_max", int, 1))
        set_("tol", _number(self.tol, "tol", float, 0, above=True))
        set_("seed", _number(self.seed, "seed", int, 0))  # as numpy's seeds
        if self.grids is not None:
            set_("grids", _numbers(self.grids, "grids", int))
        set_("count", _number(self.count, "count", int, 1))
        if self.kind is not None and self.kind not in KINDS:
            raise ConfigParse(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.out is not None and not (isinstance(self.out, str) and self.out):
            raise ConfigParse(f"out must be a file path, got {self.out!r}")
        if self.format not in ("csv", "json"):
            raise ConfigParse(f"format must be csv or json, got {self.format!r}")
        if self.grids == ():
            raise ConfigParse("grids must not be empty when given")
        if self.grids is not None and any(b <= a for a, b in zip(self.grids, self.grids[1:])):
            raise ConfigParse(f"grids must be strictly increasing, got {list(self.grids)}")


@dataclass(frozen=True)
class ReportRow:
    """One solved level: value, multiplicity, optional ground truth, provenance."""

    model: str
    grid: int
    k: int
    lambda_k: float
    multiplicity: int
    oracle: float | None
    abs_error: float | None = field(init=False, default=None)
    residual: float = math.nan
    ms: float = 0.0  # the unit's wall time: a JSON row's field, not a CSV column

    def __post_init__(self) -> None:
        err = None if self.oracle is None else abs(self.lambda_k - self.oracle)
        object.__setattr__(self, "abs_error", err)


def _number(value, key: str, kind: type = float, low=-math.inf, **rule):
    """A JSON number as kind (float or int); check_number(value, key, ConfigParse, low,
    **rule) decides whether it is acceptable. JSON writes 600 as readily as 600.0, so
    for an int key an integral float is first taken as the int it equals."""
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    return kind(check_number(value, key, ConfigParse, low, integer=kind is int, **rule))


def _numbers(values, key: str, kind: type = float, **rule) -> tuple:
    """A JSON list of numbers, each read by _number."""
    if not isinstance(values, (list, tuple)):
        raise ConfigParse(f"{key} must be a list of numbers, got {values!r}")
    return tuple(_number(v, f"{key} entry", kind, **rule) for v in values)


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise ConfigParse(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigParse(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ConfigParse(f"{path}: unreadable JSON: {exc}") from exc


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise ConfigParse(f"{path}: config must be a JSON object")
    return config_from_dict(raw, overrides)


def config_from_dict(raw: dict, overrides: dict | None = None) -> ExperimentConfig:
    data = dict(raw)
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(data) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigParse(f"unknown config keys: {sorted(unknown)}")
    try:
        return ExperimentConfig(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigParse(f"bad config value: {exc}") from exc


def _spec(config: ExperimentConfig, family: str) -> dict:
    """The config's spec for a SPECS family: keys and numbers checked, and each
    top-level key in the family's UNREAD entry left at its default."""
    spec = config.spec
    unknown = sorted(set(spec) - set(SPECS[family]))
    if unknown:
        raise ConfigParse(f"unknown {family} spec keys: {unknown}")
    for key in UNREAD[family]:
        if getattr(config, key) != getattr(ExperimentConfig, key):
            raise ConfigParse(f"{family} does not read {key}")
    if config.grids is not None and "n" in spec:  # dirac or aps by now
        raise ConfigParse(f"{family} does not read spec.n beside grids")
    values = {}
    for key, default in SPECS[family].items():
        value = spec.get(key, default)
        if isinstance(default, list):
            value = _numbers(value, key)
        elif default is not None:
            value = _number(value, key, type(default))
        values[key] = value
    return values


def _oracle(spec, op: BlockOperator, k_max: int) -> dict[int, float]:
    """Ground truth by level: closed forms for dirac and aps, else A's eigenvalues above lambda0."""
    if isinstance(spec, DiracSpec):
        # a kappa > 0 channel shares the discrete spectrum of -kappa, so its lowest
        # level is the -kappa ground energy, not the continuum's E(n_r=1)
        if spec.kappa > 0 or spec.nu >= abs(spec.kappa):
            return {}
        return {1: analytic_dirac_energy(spec.nu, spec.kappa, 0)}
    if isinstance(spec, ApsSpec):
        values = aps_levels(spec)
    elif op.dim > ORACLE_DIM_LIMIT:
        return {}
    else:
        values = dense_spectrum(op, lambda0(op))
    return {k: float(values[k - 1]) for k in range(1, min(k_max, len(values)) + 1)}


def _load_matrix_file(path: str) -> BlockOperator:
    raw = _read_json(path)
    if not isinstance(raw, dict) or "matrix" not in raw or "n_plus" not in raw:
        raise ConfigParse(f'{path}: expected an object with "matrix" and "n_plus"')
    if not isinstance(raw["matrix"], list):
        raise ConfigParse(f"{path}: matrix must be a list of rows")
    # non-finite entries pass here, so that assemble_block names the block they sit in
    rows = [_numbers(row, "matrix row", finite=False) for row in raw["matrix"]]
    if len({len(row) for row in rows}) > 1:
        raise ConfigParse(f"{path}: matrix row lengths differ: {[len(row) for row in rows]}")
    return assemble_block(np.array(rows, dtype=float), _number(raw["n_plus"], "n_plus", int))


@dataclass(frozen=True)
class _Unit:
    """One independently runnable (model instance, grid, seed) work item, not yet built.

    spec is the DiracSpec, ApsSpec or RandomSpec that _build turns into the
    operator when the unit runs; the unit's work drops it when done. A matrix
    file's unit carries the operator its file holds, read when the units are listed.
    """

    model_id: str
    grid: int
    spec: DiracSpec | ApsSpec | RandomSpec | BlockOperator


def _units(config: ExperimentConfig) -> list[_Unit]:
    if config.kind is None:
        raise ConfigParse("missing config key: kind")
    kind, spec = config.kind, _spec(config, config.kind)
    if kind == "dirac":
        base = DiracSpec(**spec)
        specs = [replace(base, n=n) for n in config.grids or (base.n,)]
        return [_Unit(f"dirac(nu={s.nu:g},kappa={s.kappa},r_max={s.r_max:g},"
                      f"grading={s.grading})", s.n, s) for s in specs]
    if kind == "aps":
        base = ApsSpec(**spec)
        specs = [replace(base, n=n) for n in config.grids or (base.n,)]
        return [_Unit(f"aps(modes={list(s.modes)},L={s.length_l:g})", s.n, s)
                for s in specs]
    if kind == "random":
        specs = [RandomSpec(**spec, seed=config.seed + i) for i in range(config.count)]
        return [_Unit(f"random(seed={s.seed},gap={s.gap_target:g})",
                      s.n_plus + s.n_minus, s) for s in specs]
    path = spec["path"]
    if not isinstance(path, str) or not path:
        # a number would reach open() as a file descriptor
        raise ConfigParse(f"matrix-file kind needs spec.path, a file path; got {path!r}")
    op = _load_matrix_file(path)
    return [_Unit(f"matrix-file({path})", op.dim, op)]


def _build(spec) -> BlockOperator:
    """A unit's operator, built through this module's names when the unit runs."""
    if isinstance(spec, DiracSpec):
        return build_dirac_coulomb(spec)
    if isinstance(spec, ApsSpec):
        return build_aps_cylinder(spec)
    if isinstance(spec, RandomSpec):
        return random_gapped(spec)
    return spec


def _solve_unit(unit: _Unit, config: ExperimentConfig) -> list[ReportRow]:
    op = _build(unit.spec)
    start = time.perf_counter()
    results = gap_spectrum(op, config.k_max, config.tol)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    try:
        oracle = _oracle(unit.spec, op, config.k_max)
    except GapeigError:  # a solver failure, already in the rows' status: no ground truth
        oracle = {}
    rows = []
    for res in results:
        rows.append(ReportRow(
            model=unit.model_id,
            grid=unit.grid,
            k=res.k,
            lambda_k=res.lambda_k,
            multiplicity=res.multiplicity,
            oracle=oracle.get(res.k),
            residual=res.residual,
            ms=elapsed_ms,
        ))
    return rows


def run(config: ExperimentConfig) -> list[ReportRow]:
    """Solve every work unit of the config; rows come back in unit order, then by k."""
    return [row for unit in _units(config) for row in _solve_unit(unit, config)]


def row_failed(row: ReportRow, tol: float) -> bool:
    if not math.isfinite(row.lambda_k) or row.multiplicity < 1:
        return True
    return row.residual > max(tol, 1e-10 * max(1.0, abs(row.lambda_k)))


def _verify_unit(unit: _Unit, config: ExperimentConfig) -> list[VerificationReport]:
    op = _build(unit.spec)
    reports = operator_reports(op, unit.model_id)
    del op  # the Hardy row builds its own operator; at most one is alive at a time
    if isinstance(unit.spec, DiracSpec):
        reports.append(hardy_check(unit.spec.nu, unit.spec.n, unit.spec.r_max))
    return reports


def verify_all(config: ExperimentConfig) -> list[VerificationReport]:
    """Run the full identity/inequality suite over every work unit of the config, in order."""
    return [rep for unit in _units(config) for rep in _verify_unit(unit, config)]


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _csv(header: str, records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header.split(","))
    writer.writerows(records)
    return buf.getvalue()


def rows_to_csv(rows: list[ReportRow]) -> str:
    return _csv(CSV_HEADER, ([
        r.model, r.grid, r.k, _fmt(r.lambda_k), r.multiplicity,
        _fmt(r.oracle), _fmt(r.abs_error), _fmt(r.residual),
    ] for r in rows))


def _json_doc(rows: list, config: ExperimentConfig) -> str:
    """The JSON envelope of both report kinds: one object per row, fields in order."""
    doc = {
        "schema": 1,
        "version": __version__,
        "config": asdict(config),
        "rows": [asdict(r) for r in rows],
    }
    return json.dumps(doc, indent=2, allow_nan=True) + "\n"


def rows_to_json(rows: list[ReportRow], config: ExperimentConfig) -> str:
    return _json_doc(rows, config)


def reports_to_csv(reports: list[VerificationReport]) -> str:
    return _csv(REPORT_CSV_HEADER, ([
        rep.check, _fmt(rep.value), str(rep.passed).lower(),
        json.dumps(rep.params, sort_keys=True),
    ] for rep in reports))


def reports_to_json(reports: list[VerificationReport], config: ExperimentConfig) -> str:
    return _json_doc(reports, config)


def _emit(text: str, config: ExperimentConfig, quiet: bool, summary: str) -> None:
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        if not quiet:
            print(f"{summary} -> {config.out}")
    else:
        sys.stdout.write(text)


def _cmd_spectrum(config: ExperimentConfig, args: argparse.Namespace) -> int:
    rows = run(config)
    text = rows_to_csv(rows) if config.format == "csv" else rows_to_json(rows, config)
    failed = sum(row_failed(r, config.tol) for r in rows)
    _emit(text, config, args.quiet, f"{len(rows)} rows, {failed} failed")
    return 1 if failed else 0


def _emit_reports(reports: list[VerificationReport], config: ExperimentConfig,
                  args: argparse.Namespace, summary: str | None = None) -> int:
    """Write check reports where the config says; count failures."""
    text = reports_to_csv(reports) if config.format == "csv" else reports_to_json(reports, config)
    failed = sum(not rep.passed for rep in reports)
    _emit(text, config, args.quiet, summary or f"{len(reports)} checks, {failed} failed")
    return failed


def _cmd_verify(config: ExperimentConfig, args: argparse.Namespace) -> int:
    return 1 if _emit_reports(verify_all(config), config, args) else 0


def _cmd_hardy(config: ExperimentConfig, args: argparse.Namespace) -> int:
    spec = _spec(config, "hardy")
    if not spec["nu_values"]:
        raise ConfigParse("nu_values must not be empty")
    reports = [hardy_check(nu, spec["n"], spec["r_max"]) for nu in spec["nu_values"]]
    return 1 if _emit_reports(reports, config, args) else 0


def _cmd_pollution(config: ExperimentConfig, args: argparse.Namespace) -> int:
    spec = _spec(config, "pollution")
    window = spec.pop("window")  # the rest are DiracSpec's fields but n
    grids = list(config.grids or (600, 1200))
    if len(grids) < 2:
        raise ConfigParse(f"pollution compares two grids; grids needs at least two, got {grids}")
    if len(window) != 2 or not window[0] < window[1]:
        raise ConfigParse(f"window must hold two increasing numbers, got {list(window)}")

    lam1 = {}
    window_values = {}
    for dirac in [DiracSpec(**spec, n=n) for n in grids]:  # every grid checked before a build
        op = build_dirac_coulomb(dirac)
        lam1[dirac.n] = lambda_k(op, 1, config.tol).lambda_k
        window_values[dirac.n] = dense_spectrum(op, *window)

    reports = [VerificationReport(
        "window_content", float(len(window_values[n])), True,
        {"n": n, "window": list(window), "values": [float(v) for v in window_values[n]]},
    ) for n in grids]
    n_lo, n_hi = grids[0], grids[-1]
    drift = abs(lam1[n_hi] - lam1[n_lo])
    stable = drift <= 5e-3
    reports.append(VerificationReport(
        "lambda1_stability", drift, stable,
        {"n_lo": n_lo, "n_hi": n_hi,
         "lambda1_lo": lam1[n_lo], "lambda1_hi": lam1[n_hi]},
    ))
    lo_vals, hi_vals = window_values[n_lo], window_values[n_hi]
    dist = np.abs(hi_vals[:, None] - lo_vals[None, :])
    spurious = (float(max(dist.min(axis=0).max(), dist.min(axis=1).max()))
                if dist.size else math.nan)
    reports.append(VerificationReport(
        "window_spurious_drift", spurious, bool(spurious >= 0.05),
        {"n_lo": n_lo, "n_hi": n_hi, "note":
         "a dense-spectrum value drifting >= 0.05 inside the window would mark "
         "a spurious state; the default window (-0.5, 0.5) holds only the nu=0.9 "
         "ground state, and the discretization's spurious levels (kappa=+1 "
         "repeats the kappa=-1 ground energy) lie outside it"},
    ))
    _emit_reports(reports, config, args,
                  f"lambda1 drift {drift:.3e} ({'stable' if stable else 'unstable'})")
    return 0 if stable else 1


# subcommand -> handler(config, args); a model command's missing kind is _units' error
COMMANDS = {"spectrum": _cmd_spectrum, "verify": _cmd_verify, "hardy": _cmd_hardy,
            "pollution": _cmd_pollution}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gapeig",
        description="Eigenvalues in spectral gaps of block-symmetric operators",
    )
    parser.add_argument("--version", action="version", version=f"gapeig {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub = subs.add_parser(name)
        sub.add_argument("--config", help="path to a JSON experiment config")
        sub.add_argument("--out", default=None, help="output file (default: stdout)")
        sub.add_argument("--format", default=None, choices=("csv", "json"),
                         help="output format override")
        sub.add_argument("--quiet", action="store_true", help="suppress summary lines")

    args = parser.parse_args(argv)
    handler = COMMANDS[args.command]
    try:
        flags = {"out": args.out, "format": args.format}
        config = load_config(args.config, flags) if args.config else config_from_dict({}, flags)
        return handler(config, args)
    except OSError as exc:  # a missing file, a directory, an unreadable path
        reason = "file not found" if isinstance(exc, FileNotFoundError) else exc.strerror
        print(f"gapeig: {reason}: {exc.filename or exc}", file=sys.stderr)
        return 2
    except GapeigError as exc:
        print(f"gapeig: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
