"""Batch front end: JSON experiment configs in, CSV/JSON report tables out.

Subcommands:
  spectrum   gap eigenvalues for one model config (optionally across grids)
  converge   same as spectrum but requires a grid list; errors column shows the trend
  verify     structural identity checks (decomposition, Krein bound, extension,
             inverse formula, sandwich/norm-chain sampling, Hardy for radial models)
  hardy      zero-energy pencil positivity across couplings
  pollution  stability report for the nu=0.9 channel: gap level drift versus
             dense-spectrum window contents across two grids

Configs are plain JSON; no environment variables are consulted. Reports are
deterministic for a fixed config (the wall-time column aside).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .blockop import BlockOperator, assemble_block, lambda0
from .errors import ConfigParse, GapeigError
from .minmax import gap_spectrum, lambda1_certificate, lambda_k
from .models import (
    ApsSpec,
    DiracSpec,
    RandomSpec,
    analytic_dirac_energy,
    build_aps_cylinder,
    build_dirac_coulomb,
    hardy_check,
    random_gapped,
)
from .oracle import dense_spectrum, gap_eigs_bruteforce
from .verify import (
    VerificationReport,
    decomposition_residual,
    e_samples,
    extension_consistency,
    gap_fractions,
    inverse_formula_check,
    krein_gap_check,
    sandwich_report,
)

CSV_HEADER = "model,grid,k,lambda_k,multiplicity,oracle,abs_error,residual,ms"
REPORT_CSV_HEADER = "check,value,passed,params"
ORACLE_DIM_LIMIT = 1200  # dense ground truth attached only below this size

KINDS = ("dirac", "aps", "random", "matrix-file")
# the spec keys each model kind (spectrum/converge/verify) or subcommand reads
SPEC_KEYS = {
    "dirac": {"nu", "kappa", "n", "r_max", "grading"},
    "aps": {"modes", "length_l", "n"},
    "random": {"n_plus", "n_minus", "gap_target"},
    "matrix-file": {"path"},
    "hardy": {"nu_values", "n", "r_max"},
    "pollution": {"nu", "kappa", "r_max", "window", "grading"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One batch run: a model kind with its spec, solver knobs, output target."""

    kind: str
    spec: dict
    k_max: int = 1
    tol: float = 1e-10
    out: str | None = None
    fmt: str = "csv"
    seed: int = 0
    grids: tuple[int, ...] | None = None
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigParse(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.k_max < 1:
            raise ConfigParse(f"k_max must be at least 1, got {self.k_max}")
        if not self.tol > 0:
            raise ConfigParse(f"tol must be positive, got {self.tol}")
        if self.fmt not in ("csv", "json"):
            raise ConfigParse(f"format must be csv or json, got {self.fmt!r}")
        if self.count < 1:
            raise ConfigParse(f"count must be at least 1, got {self.count}")
        if self.grids is not None:
            grids = tuple(int(g) for g in self.grids)
            if any(b <= a for a, b in zip(grids, grids[1:])):
                raise ConfigParse(f"grids must be strictly increasing, got {list(grids)}")
            object.__setattr__(self, "grids", grids)

    def echo(self) -> dict:
        return {
            "kind": self.kind, "spec": self.spec, "k_max": self.k_max,
            "tol": self.tol, "out": self.out, "format": self.fmt,
            "seed": self.seed,
            "grids": list(self.grids) if self.grids is not None else None,
            "count": self.count,
        }


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
    ms: float = 0.0

    def __post_init__(self) -> None:
        err = None if self.oracle is None else abs(self.lambda_k - self.oracle)
        object.__setattr__(self, "abs_error", err)


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParse(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise ConfigParse(f"{path}: config must be a JSON object")
    return config_from_dict(raw, overrides)


def config_from_dict(raw: dict, overrides: dict | None = None) -> ExperimentConfig:
    data = dict(raw)
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})
    known = {"kind", "spec", "k_max", "tol", "out", "format", "seed", "grids", "count"}
    unknown = set(data) - known
    if unknown:
        raise ConfigParse(f"unknown config keys: {sorted(unknown)}")
    try:
        return ExperimentConfig(
            kind=data["kind"],
            spec=dict(data.get("spec", {})),
            k_max=int(data.get("k_max", 1)),
            tol=float(data.get("tol", 1e-10)),
            out=data.get("out"),
            fmt=data.get("format", "csv"),
            seed=int(data.get("seed", 0)),
            grids=data.get("grids"),
            count=int(data.get("count", 1)),
        )
    except KeyError as exc:
        raise ConfigParse(f"missing config key: {exc.args[0]}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigParse(f"bad config value: {exc}") from exc


def _checked_spec(config: ExperimentConfig | None, family: str) -> dict:
    """The config's spec ({} without a config), rejecting keys the family does not read."""
    spec = config.spec if config else {}
    unknown = sorted(set(spec) - SPEC_KEYS[family])
    if unknown:
        raise ConfigParse(f"unknown {family} spec keys: {unknown}")
    return spec


def _dirac_oracle(spec: DiracSpec) -> dict[int, float]:
    if spec.nu >= abs(spec.kappa):
        return {}
    n_r = 0 if spec.kappa < 0 else 1
    return {1: analytic_dirac_energy(spec.nu, spec.kappa, n_r)}


def _aps_oracle(spec: ApsSpec, k_max: int) -> dict[int, float]:
    j = np.arange(1, spec.n + 1)
    sigmas = 2.0 * (spec.n + 1) / spec.length_l * np.sin(j * np.pi / (2 * (spec.n + 1)))
    values = np.sort(np.concatenate(
        [np.sqrt(mode * mode + sigmas**2) for mode in spec.modes]
    ))
    return {k: float(values[k - 1]) for k in range(1, min(k_max, len(values)) + 1)}


def _dense_oracle(op: BlockOperator, k_max: int) -> dict[int, float]:
    if op.dim > ORACLE_DIM_LIMIT:
        return {}
    lam0 = lambda0(op)
    clusters = gap_eigs_bruteforce(op, lam0, math.inf)
    flat = [value for value, mult in clusters for _ in range(mult)]
    return {k: flat[k - 1] for k in range(1, min(k_max, len(flat)) + 1)}


def _load_matrix_file(path: str) -> BlockOperator:
    raw = _read_json(path)
    if not isinstance(raw, dict) or "matrix" not in raw or "n_plus" not in raw:
        raise ConfigParse(f'{path}: expected an object with "matrix" and "n_plus"')
    return assemble_block(np.asarray(raw["matrix"], dtype=float), int(raw["n_plus"]))


@dataclass(frozen=True)
class _Unit:
    """One independently runnable (model instance, grid, seed) work item."""

    model_id: str
    grid: int
    op: BlockOperator
    oracle: dict[int, float]
    spec: object


def _units(config: ExperimentConfig) -> list[_Unit]:
    units: list[_Unit] = []
    kind, spec = config.kind, _checked_spec(config, config.kind)
    if kind == "dirac":
        base = DiracSpec(
            nu=float(spec.get("nu", 0.5)),
            kappa=int(spec.get("kappa", -1)),
            n=int(spec.get("n", 600)),
            r_max=float(spec.get("r_max", 30.0)),
            grading=spec.get("grading"),
        )
        grids = config.grids or (base.n,)
        for n in grids:
            dspec = replace(base, n=int(n))
            model_id = (f"dirac(nu={dspec.nu:g},kappa={dspec.kappa},"
                        f"r_max={dspec.r_max:g},grading={dspec.grading})")
            units.append(_Unit(model_id, int(n), build_dirac_coulomb(dspec),
                               _dirac_oracle(dspec), dspec))
    elif kind == "aps":
        base = ApsSpec(
            modes=tuple(spec.get("modes", [0.0])),
            length_l=float(spec.get("length_l", 1.0)),
            n=int(spec.get("n", 200)),
        )
        grids = config.grids or (base.n,)
        for n in grids:
            aspec = replace(base, n=int(n))
            model_id = f"aps(modes={list(aspec.modes)},L={aspec.length_l:g})"
            units.append(_Unit(model_id, int(n), build_aps_cylinder(aspec),
                               _aps_oracle(aspec, config.k_max), aspec))
    elif kind == "random":
        for offset in range(config.count):
            rspec = RandomSpec(
                n_plus=int(spec.get("n_plus", 8)),
                n_minus=int(spec.get("n_minus", 8)),
                gap_target=float(spec.get("gap_target", 1.0)),
                seed=config.seed + offset,
            )
            op = random_gapped(rspec)
            model_id = f"random(seed={rspec.seed},gap={rspec.gap_target:g})"
            units.append(_Unit(model_id, op.dim, op,
                               _dense_oracle(op, config.k_max), rspec))
    else:
        path = spec.get("path")
        if not path:
            raise ConfigParse('matrix-file kind needs spec.path')
        op = _load_matrix_file(path)
        units.append(_Unit(f"matrix-file({path})", op.dim, op,
                           _dense_oracle(op, config.k_max), None))
    return units


def _solve_unit(unit: _Unit, config: ExperimentConfig) -> list[ReportRow]:
    start = time.perf_counter()
    results = gap_spectrum(unit.op, config.k_max, config.tol)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    rows = []
    for res in results:
        rows.append(ReportRow(
            model=unit.model_id,
            grid=unit.grid,
            k=res.k,
            lambda_k=res.lambda_k,
            multiplicity=res.multiplicity,
            oracle=unit.oracle.get(res.k),
            residual=res.residual,
            ms=elapsed_ms,
        ))
    return rows


def _map_units(work, config: ExperimentConfig, jobs: int) -> list:
    """work(unit, config) over every unit of the config, results concatenated in unit order."""
    units = _units(config)
    if jobs > 1 and len(units) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(lambda u: work(u, config), units))
    else:
        chunks = [work(u, config) for u in units]
    return [item for chunk in chunks for item in chunk]


def run(config: ExperimentConfig, jobs: int = 1) -> list[ReportRow]:
    """Solve every work unit of the config; rows come back sorted by (grid, k)."""
    rows = _map_units(_solve_unit, config, jobs)
    return sorted(rows, key=lambda r: (r.grid, r.model, r.k))


def row_failed(row: ReportRow, tol: float) -> bool:
    if not math.isfinite(row.lambda_k):
        return True
    return row.residual > max(tol, 1e-10 * max(1.0, abs(row.lambda_k)))


def _verify_unit(unit: _Unit, config: ExperimentConfig) -> list[VerificationReport]:
    op = unit.op
    reports: list[VerificationReport] = []
    cert = lambda1_certificate(op)
    reports.append(VerificationReport(
        "gap_certificate", cert.lambda1 - cert.lambda0, cert.valid,
        {"model": unit.model_id, "lambda0": cert.lambda0, "lambda1": cert.lambda1,
         "diagnostic": cert.diagnostic},
    ))
    if not cert.valid:
        return reports
    for e in e_samples(op, cert.lambda1):
        value = decomposition_residual(op, e)
        reports.append(VerificationReport(
            "decomposition", value, value <= 1e-11, {"model": unit.model_id, "e": e}))
        value = extension_consistency(op, e)
        reports.append(VerificationReport(
            "extension_consistency", value, value <= 1e-11,
            {"model": unit.model_id, "e": e}))
    for e in gap_fractions(cert.lambda0, cert.lambda1):
        value = inverse_formula_check(op, e)
        reports.append(VerificationReport(
            "inverse_formula", value, value <= 1e-10, {"model": unit.model_id, "e": e}))
    krein = krein_gap_check(op, n_samples=200, seed=config.seed)
    reports.append(VerificationReport(
        krein.check, krein.value, krein.passed,
        {**krein.params, "model": unit.model_id}))
    reports.extend(sandwich_report(op, seed=config.seed))
    if config.kind == "dirac" and unit.spec is not None:
        reports.append(hardy_check(unit.spec.nu, unit.spec.n, unit.spec.r_max))
    return reports


def verify_all(config: ExperimentConfig, jobs: int = 1) -> list[VerificationReport]:
    """Run the full identity/inequality suite over every work unit of the config."""
    return _map_units(_verify_unit, config, jobs)


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    return repr(float(value))


def rows_to_csv(rows: list[ReportRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for r in rows:
        writer.writerow([
            r.model, r.grid, r.k, _fmt(r.lambda_k), r.multiplicity,
            _fmt(r.oracle), _fmt(r.abs_error), _fmt(r.residual), f"{r.ms:.3f}",
        ])
    return buf.getvalue()


def _json_doc(rows: list, config: ExperimentConfig | None) -> str:
    """The JSON envelope of both report kinds: one object per row, fields in order."""
    doc = {
        "schema": 1,
        "version": __version__,
        "config": config.echo() if config is not None else None,
        "rows": [asdict(r) for r in rows],
    }
    return json.dumps(doc, indent=2, default=str, allow_nan=True) + "\n"


def rows_to_json(rows: list[ReportRow], config: ExperimentConfig) -> str:
    return _json_doc(rows, config)


def reports_to_csv(reports: list[VerificationReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_CSV_HEADER.split(","))
    for rep in reports:
        writer.writerow([
            rep.check, _fmt(rep.value), str(rep.passed).lower(),
            json.dumps(rep.params, default=str, sort_keys=True),
        ])
    return buf.getvalue()


def reports_to_json(reports: list[VerificationReport], config: ExperimentConfig | None) -> str:
    return _json_doc(reports, config)


def _emit(text: str, out: str | None, quiet: bool, summary: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        if not quiet:
            print(f"{summary} -> {out}")
    else:
        sys.stdout.write(text)
        if not quiet and not text.endswith("\n"):
            print()


def _cmd_spectrum(args: argparse.Namespace, require_grids: bool = False) -> int:
    config = load_config(args.config, {"out": args.out, "format": args.format})
    if require_grids and not config.grids:
        raise ConfigParse("converge needs a strictly increasing grids list in the config")
    rows = run(config, jobs=args.jobs)
    text = rows_to_csv(rows) if config.fmt == "csv" else rows_to_json(rows, config)
    failed = sum(row_failed(r, config.tol) for r in rows)
    _emit(text, config.out, args.quiet, f"{len(rows)} rows, {failed} failed")
    return 1 if failed else 0


def _emit_reports(reports: list[VerificationReport], config: ExperimentConfig | None,
                  args: argparse.Namespace, summary: str | None = None) -> int:
    """Write check reports where the config (or, without one, the flags) says; count failures."""
    fmt = config.fmt if config else (args.format or "csv")
    text = reports_to_csv(reports) if fmt == "csv" else reports_to_json(reports, config)
    failed = sum(not rep.passed for rep in reports)
    _emit(text, config.out if config else args.out, args.quiet,
          summary or f"{len(reports)} checks, {failed} failed")
    return failed


def _cmd_verify(args: argparse.Namespace) -> int:
    config = load_config(args.config, {"out": args.out, "format": args.format})
    return 1 if _emit_reports(verify_all(config, jobs=args.jobs), config, args) else 0


def _cmd_hardy(args: argparse.Namespace) -> int:
    config = (load_config(args.config, {"out": args.out, "format": args.format})
              if args.config else None)
    spec = _checked_spec(config, "hardy")
    nu_values = spec.get("nu_values", [0.0, 0.5, 0.9, 1.0])
    n = int(spec.get("n", 1500))
    r_max = float(spec.get("r_max", 30.0))
    reports = [hardy_check(float(nu), n, r_max) for nu in nu_values]
    return 1 if _emit_reports(reports, config, args) else 0


def _cmd_pollution(args: argparse.Namespace) -> int:
    config = (load_config(args.config, {"out": args.out, "format": args.format})
              if args.config else None)
    spec = _checked_spec(config, "pollution")
    grids = list(config.grids) if config and config.grids else [600, 1200]
    tol = config.tol if config else 1e-10
    nu = float(spec.get("nu", 0.9))
    kappa = int(spec.get("kappa", -1))
    r_max = float(spec.get("r_max", 30.0))
    window = tuple(spec.get("window", (-0.5, 0.5)))

    lam1 = {}
    window_values = {}
    for n in grids:
        dspec = DiracSpec(nu=nu, kappa=kappa, n=n, r_max=r_max,
                          grading=spec.get("grading"))
        op = build_dirac_coulomb(dspec)
        lam1[n] = lambda_k(op, 1, tol).lambda_k
        values = dense_spectrum(op).values
        window_values[n] = values[(values > window[0]) & (values < window[1])]

    reports = []
    for n in grids:
        reports.append(VerificationReport(
            "window_content", float(len(window_values[n])), True,
            {"n": n, "window": list(window),
             "values": [float(v) for v in window_values[n]]},
        ))
    n_lo, n_hi = grids[0], grids[-1]
    drift = abs(lam1[n_hi] - lam1[n_lo])
    reports.append(VerificationReport(
        "lambda1_stability", drift, drift <= 5e-3,
        {"n_lo": n_lo, "n_hi": n_hi,
         "lambda1_lo": lam1[n_lo], "lambda1_hi": lam1[n_hi]},
    ))
    lo_vals, hi_vals = window_values[n_lo], window_values[n_hi]
    if len(lo_vals) and len(hi_vals):
        spurious = float(max(np.abs(hi_vals[:, None] - lo_vals[None, :]).min(axis=0).max(),
                             np.abs(hi_vals[:, None] - lo_vals[None, :]).min(axis=1).max()))
    else:
        spurious = math.nan
    reports.append(VerificationReport(
        "window_spurious_drift", spurious, bool(spurious >= 0.05)
        if math.isfinite(spurious) else False,
        {"n_lo": n_lo, "n_hi": n_hi, "note":
         "a dense-spectrum value drifting >= 0.05 inside the window would mark "
         "a spurious state; every value above lambda0 is a min-max level here, "
         "so the window stays stable by construction"},
    ))

    stable = drift <= 5e-3
    _emit_reports(reports, config, args,
                  f"lambda1 drift {drift:.3e} ({'stable' if stable else 'unstable'})")
    return 0 if stable else 1


def _add_common(sub: argparse.ArgumentParser, config_required: bool) -> None:
    sub.add_argument("--config", required=config_required,
                     help="path to a JSON experiment config")
    sub.add_argument("--out", default=None, help="output file (default: stdout)")
    sub.add_argument("--format", default=None, choices=("csv", "json"),
                     help="output format override")
    sub.add_argument("--quiet", action="store_true", help="suppress summary lines")
    sub.add_argument("--jobs", type=int, default=1,
                     help="parallel workers across grids/seeds")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gapeig",
        description="Eigenvalues in spectral gaps of block-symmetric operators",
    )
    parser.add_argument("--version", action="version", version=f"gapeig {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, needs_config in (("spectrum", True), ("verify", True),
                               ("converge", True), ("hardy", False),
                               ("pollution", False)):
        sub = subs.add_parser(name)
        _add_common(sub, needs_config)

    args = parser.parse_args(argv)
    try:
        if args.command == "spectrum":
            return _cmd_spectrum(args)
        if args.command == "converge":
            return _cmd_spectrum(args, require_grids=True)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "hardy":
            return _cmd_hardy(args)
        return _cmd_pollution(args)
    except FileNotFoundError as exc:
        print(f"gapeig: file not found: {exc.filename or exc}", file=sys.stderr)
        return 2
    except GapeigError as exc:
        print(f"gapeig: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
