"""Spans around the package's public layer functions, recorded from outside.

The package is not edited. While a Tracer is installed, every public layer
function listed in LAYER_FUNCTIONS is replaced by a recording wrapper at
each place a caller looks it up: the module attribute of every gapeig
module that holds a reference to it (so `gapeig.minmax.mu_k` and
`gapeig.verify.mu_k` are both wrapped), or the class attribute for methods.
Each wrapper records the site it was reached through, so ratios can be
restricted to calls made by one layer. Uninstalling puts every original
back. Spans stay in memory until write_jsonl is called.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

SITE_MODULES = ("gapeig", "gapeig.blockop", "gapeig.schur", "gapeig.minmax",
                "gapeig.oracle", "gapeig.verify", "gapeig.models", "gapeig.cli")


def _lambda_k_note(result) -> dict:
    return {"iterations": result.iterations}


def _gap_spectrum_note(results) -> dict:
    ok = [r for r in results if r.status == "ok"]
    return {"levels": len(ok), "filled": sum(1 for r in ok if r.iterations == 0)}


# (span name, defining module, attribute or Class.attribute, result annotation)
LAYER_FUNCTIONS = (
    ("models.build_dirac_coulomb", "gapeig.models", "build_dirac_coulomb", None),
    ("models.build_aps_cylinder", "gapeig.models", "build_aps_cylinder", None),
    ("models.random_gapped", "gapeig.models", "random_gapped", None),
    ("models.hardy_check", "gapeig.models", "hardy_check", None),
    ("blockop.validate", "gapeig.blockop", "BlockOperator.__post_init__", None),
    ("blockop.assembled", "gapeig.blockop", "BlockOperator.assembled", None),
    ("blockop.lambda0", "gapeig.blockop", "lambda0", None),
    ("schur.mu_k", "gapeig.schur", "mu_k", None),
    ("schur.mu_k_with_vector", "gapeig.schur", "mu_k_with_vector", None),
    ("schur.pencil_values_in_band", "gapeig.schur", "pencil_values_in_band", None),
    ("schur.apply_l", "gapeig.schur", "apply_l", None),
    ("schur.build_schur", "gapeig.schur", "build_schur", None),
    ("schur.q_value_and_slope", "gapeig.schur", "q_value_and_slope", None),
    ("minmax.lambda_k", "gapeig.minmax", "lambda_k", _lambda_k_note),
    ("minmax.gap_spectrum", "gapeig.minmax", "gap_spectrum", _gap_spectrum_note),
    ("minmax.lambda1_certificate", "gapeig.minmax", "lambda1_certificate", None),
    ("oracle.dense_spectrum", "gapeig.oracle", "dense_spectrum", None),
    ("oracle.gap_eigs_bruteforce", "gapeig.oracle", "gap_eigs_bruteforce", None),
    ("verify.decomposition_residual", "gapeig.verify", "decomposition_residual", None),
    ("verify.extension_consistency", "gapeig.verify", "extension_consistency", None),
    ("verify.inverse_formula_check", "gapeig.verify", "inverse_formula_check", None),
    ("verify.krein_gap_check", "gapeig.verify", "krein_gap_check", None),
    ("cli.run", "gapeig.cli", "run", None),
    ("cli.verify_all", "gapeig.cli", "verify_all", None),
    ("cli.main", "gapeig.cli", "main", None),
    ("cli.format", "gapeig.cli", "rows_to_csv", None),
    ("cli.format", "gapeig.cli", "rows_to_json", None),
    ("cli.format", "gapeig.cli", "reports_to_csv", None),
    ("cli.format", "gapeig.cli", "reports_to_json", None),
)


class Tracer:
    """In-memory span recorder for one benchmark run.

    Single-threaded by design: the workloads run with jobs=1, so one stack
    gives every span its parent.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.unit: str | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, site: str, note=None):
        """A callable that runs fn inside a span named name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "site": site,
                    "parent": self._stack[-1] if self._stack else None,
                    "unit": self.unit}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span.update(note(result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer function at each lookup site; restore on exit."""
        modules = [importlib.import_module(name) for name in SITE_MODULES]
        patches: list[tuple[object, str, object]] = []
        try:
            for name, module_name, attr, note in LAYER_FUNCTIONS:
                owner = importlib.import_module(module_name)
                cls_name, _, member = attr.rpartition(".")
                if cls_name:
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[member]
                    site = module_name.rpartition(".")[2]
                    patches.append((cls, member, original))
                    setattr(cls, member, self.wrap(name, original, site, note))
                    continue
                original = getattr(owner, attr)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            site = module.__name__.rpartition(".")[2]
                            patches.append((module, key, original))
                            setattr(module, key, self.wrap(name, original, site, note))
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span: name, start, end, parent, unit and notes."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
