import csv
import io
import json
import math
import subprocess
import sys

import pytest

from gapeig import ConfigParse, __version__
from gapeig.cli import (
    CSV_HEADER,
    REPORT_CSV_HEADER,
    config_from_dict,
    load_config,
    main,
    rows_to_csv,
    rows_to_json,
    run,
)

SQRT2 = math.sqrt(2.0)


def _write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def canonical_matrix_config(tmp_path):
    matrix = _write(tmp_path / "canon.json",
                    {"matrix": [[1.0, 1.0], [1.0, -1.0]], "n_plus": 1})
    return _write(tmp_path / "cfg.json",
                  {"kind": "matrix-file", "spec": {"path": matrix}})


class TestConfigParsing:
    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "random",}', encoding="utf-8")
        with pytest.raises(ConfigParse, match=r"line 1 column"):
            load_config(str(path))

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigParse, match="JSON object"):
            load_config(str(path))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigParse, match="unknown config keys"):
            config_from_dict({"kind": "random", "bogus": 1})

    def test_missing_kind(self):
        with pytest.raises(ConfigParse, match="missing config key: kind"):
            config_from_dict({})

    def test_bad_values(self):
        with pytest.raises(ConfigParse, match="kind"):
            config_from_dict({"kind": "fish"})
        with pytest.raises(ConfigParse, match="k_max"):
            config_from_dict({"kind": "random", "k_max": 0})
        with pytest.raises(ConfigParse, match="format"):
            config_from_dict({"kind": "random", "format": "xml"})
        with pytest.raises(ConfigParse, match="count"):
            config_from_dict({"kind": "random", "count": 0})
        with pytest.raises(ConfigParse, match="grids"):
            config_from_dict({"kind": "dirac", "grids": [200, 100]})
        with pytest.raises(ConfigParse, match="tol"):
            config_from_dict({"kind": "random", "tol": -1.0})

    def test_overrides_win(self, tmp_path):
        path = _write(tmp_path / "c.json", {"kind": "random", "format": "csv"})
        config = load_config(path, {"format": "json", "out": None})
        assert config.fmt == "json"

    def test_defaults(self):
        config = config_from_dict({"kind": "random"})
        assert config.k_max == 1
        assert config.tol == 1e-10
        assert config.fmt == "csv"
        assert config.count == 1
        assert config.grids is None


class TestRun:
    def test_matrix_file_unit(self, canonical_matrix_config):
        rows = run(load_config(canonical_matrix_config))
        assert len(rows) == 1
        row = rows[0]
        assert row.k == 1
        assert row.grid == 2
        assert row.lambda_k == pytest.approx(SQRT2, abs=1e-12)
        assert row.oracle == pytest.approx(SQRT2, abs=1e-12)
        assert row.abs_error <= 1e-12
        assert row.residual <= 1e-10
        assert row.ms >= 0.0

    def test_missing_matrix_path(self):
        with pytest.raises(ConfigParse, match="spec.path"):
            run(config_from_dict({"kind": "matrix-file"}))

    def test_matrix_file_needs_both_keys(self, tmp_path):
        path = _write(tmp_path / "m.json", {"matrix": [[1.0]]})
        config = config_from_dict({"kind": "matrix-file", "spec": {"path": path}})
        with pytest.raises(ConfigParse, match="n_plus"):
            run(config)

    def test_random_count_spawns_distinct_models(self):
        config = config_from_dict({
            "kind": "random", "spec": {"n_plus": 6, "n_minus": 5},
            "count": 3, "seed": 5, "k_max": 2,
        })
        rows = run(config)
        assert len(rows) == 6
        assert len({r.model for r in rows}) == 3
        for row in rows:
            assert row.oracle is not None
            assert row.abs_error <= 1e-9

    def test_deterministic_modulo_ms(self):
        config = config_from_dict({
            "kind": "random", "spec": {"n_plus": 6, "n_minus": 5}, "count": 2,
        })
        strip = lambda rows: [
            (r.model, r.grid, r.k, r.lambda_k, r.multiplicity, r.oracle, r.residual)
            for r in rows
        ]
        assert strip(run(config)) == strip(run(config))

    def test_jobs_preserve_order(self):
        config = config_from_dict({
            "kind": "random", "spec": {"n_plus": 6, "n_minus": 5},
            "count": 4, "seed": 9,
        })
        strip = lambda rows: [(r.model, r.grid, r.k, r.lambda_k) for r in rows]
        assert strip(run(config, jobs=3)) == strip(run(config, jobs=1))

    def test_dirac_grids_expand_to_units(self):
        config = config_from_dict({
            "kind": "dirac", "spec": {"nu": 0.5, "kappa": -1, "r_max": 20.0},
            "grids": [24, 48],
        })
        rows = run(config)
        assert [r.grid for r in rows] == [24, 48]
        for row in rows:
            assert row.oracle == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)
        assert rows[1].abs_error < rows[0].abs_error


class TestSerialization:
    def test_csv_header_exact(self, canonical_matrix_config):
        text = rows_to_csv(run(load_config(canonical_matrix_config)))
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2

    def test_csv_roundtrips_full_precision(self, canonical_matrix_config):
        rows = run(load_config(canonical_matrix_config))
        record = next(csv.DictReader(io.StringIO(rows_to_csv(rows))))
        assert float(record["lambda_k"]) == rows[0].lambda_k
        assert float(record["oracle"]) == rows[0].oracle
        assert int(record["multiplicity"]) == 1

    def test_json_envelope(self, canonical_matrix_config):
        config = load_config(canonical_matrix_config)
        doc = json.loads(rows_to_json(run(config), config))
        assert doc["schema"] == 1
        assert doc["version"] == __version__
        assert doc["config"]["kind"] == "matrix-file"
        assert set(doc["rows"][0]) == set(CSV_HEADER.split(","))


class TestMain:
    def test_spectrum_exit_zero(self, canonical_matrix_config, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(["spectrum", "--config", canonical_matrix_config,
                     "--out", str(out), "--quiet"])
        assert code == 0
        assert out.read_text().splitlines()[0] == CSV_HEADER
        assert capsys.readouterr().out == ""

    def test_summary_line(self, canonical_matrix_config, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(["spectrum", "--config", canonical_matrix_config, "--out", str(out)])
        assert code == 0
        assert "1 rows, 0 failed" in capsys.readouterr().out

    def test_missing_config_file(self, capsys):
        code = main(["spectrum", "--config", "/nonexistent/cfg.json"])
        assert code == 2
        assert "file not found" in capsys.readouterr().err

    def test_non_finite_matrix_file_exits_two(self, tmp_path, capsys):
        matrix = tmp_path / "nan.json"
        matrix.write_text('{"matrix": [[1.0, NaN], [NaN, -1.0]], "n_plus": 1}',
                          encoding="utf-8")
        cfg = _write(tmp_path / "cfg.json",
                     {"kind": "matrix-file", "spec": {"path": str(matrix)}})
        assert main(["spectrum", "--config", cfg, "--quiet"]) == 2
        assert "block c has non-finite entries" in capsys.readouterr().err

    def test_malformed_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        code = main(["spectrum", "--config", str(path)])
        assert code == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_matrix_file_exits_two(self, tmp_path, capsys):
        cfg = _write(tmp_path / "cfg.json",
                     {"kind": "matrix-file", "spec": {"path": "/nonexistent/m.json"}})
        assert main(["spectrum", "--config", cfg]) == 2
        assert "file not found" in capsys.readouterr().err

    @pytest.mark.parametrize("command,kind,spec,key", [
        ("spectrum", "dirac", {"kapa": 1}, "kapa"),
        ("verify", "aps", {"modes": [0.0], "lenght_l": 2.0}, "lenght_l"),
        ("spectrum", "random", {"n_plus": 4, "seed": 3}, "seed"),
        ("spectrum", "matrix-file", {"path": "m.json", "n_plus": 1}, "n_plus"),
        ("hardy", "dirac", {"nu": 0.5, "n": 120}, "nu"),
        ("pollution", "dirac", {"nu": 0.9, "n": 300}, "n"),
    ])
    def test_unknown_spec_key_exits_two(self, tmp_path, capsys, command, kind, spec, key):
        cfg = _write(tmp_path / "cfg.json", {"kind": kind, "spec": spec})
        assert main([command, "--config", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "unknown" in err and f"'{key}'" in err

    def test_converge_requires_grids(self, tmp_path, capsys):
        cfg = _write(tmp_path / "cfg.json", {"kind": "dirac", "spec": {"nu": 0.5}})
        assert main(["converge", "--config", cfg]) == 2
        assert "grids" in capsys.readouterr().err

    def test_converge_runs_with_grids(self, tmp_path):
        out = tmp_path / "rows.csv"
        cfg = _write(tmp_path / "cfg.json", {
            "kind": "dirac", "spec": {"nu": 0.5, "kappa": -1, "r_max": 20.0},
            "grids": [24, 48], "out": str(out),
        })
        assert main(["converge", "--config", cfg, "--quiet"]) == 0
        records = list(csv.DictReader(io.StringIO(out.read_text())))
        assert [r["grid"] for r in records] == ["24", "48"]

    def test_format_override_to_json(self, canonical_matrix_config, tmp_path):
        out = tmp_path / "rows.json"
        code = main(["spectrum", "--config", canonical_matrix_config,
                     "--format", "json", "--out", str(out), "--quiet"])
        assert code == 0
        assert json.loads(out.read_text())["schema"] == 1

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gapeig", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"gapeig {__version__}"


class TestVerifySubcommand:
    def test_random_campaign_passes(self, tmp_path):
        out = tmp_path / "checks.csv"
        cfg = _write(tmp_path / "cfg.json", {
            "kind": "random", "spec": {"n_plus": 5, "n_minus": 4},
            "count": 2, "out": str(out),
        })
        assert main(["verify", "--config", cfg, "--quiet"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == REPORT_CSV_HEADER
        records = list(csv.DictReader(io.StringIO(out.read_text())))
        assert all(r["passed"] == "true" for r in records)
        checks = {r["check"] for r in records}
        assert {"gap_certificate", "decomposition", "extension_consistency",
                "inverse_formula", "krein_gap", "sandwich", "norm_chain"} <= checks
        params = json.loads(records[0]["params"])
        assert "model" in params


class TestHardySubcommand:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "hardy.csv"
        cfg = _write(tmp_path / "cfg.json", {
            "kind": "dirac",
            "spec": {"nu_values": [0.0, 0.5], "n": 120, "r_max": 20.0},
            "out": str(out),
        })
        assert main(["hardy", "--config", cfg, "--quiet"]) == 0
        records = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(records) == 2
        assert all(r["check"] == "hardy" for r in records)
        assert all(r["passed"] == "true" for r in records)


class TestPollutionSubcommand:
    def test_small_grids(self, tmp_path):
        out = tmp_path / "pollution.csv"
        cfg = _write(tmp_path / "cfg.json", {
            "kind": "dirac", "spec": {"nu": 0.9, "kappa": -1, "r_max": 30.0},
            "grids": [100, 200], "out": str(out),
        })
        assert main(["pollution", "--config", cfg, "--quiet"]) == 0
        records = list(csv.DictReader(io.StringIO(out.read_text())))
        by_check = {}
        for r in records:
            by_check.setdefault(r["check"], []).append(r)
        assert len(by_check["window_content"]) == 2
        assert by_check["lambda1_stability"][0]["passed"] == "true"
        drift_row = by_check["window_spurious_drift"][0]
        assert drift_row["passed"] == "false"
        assert "min-max level" in json.loads(drift_row["params"])["note"]
