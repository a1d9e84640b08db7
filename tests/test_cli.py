import csv
import io
import json
import math
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import gapeig.cli as cli
import gapeig.minmax as minmax
import gapeig.models as models
import gapeig.schur as schur
import gapeig.verify as verify
from gapeig import (ApsSpec, BlockOperator, ConfigParse, DiracSpec, RandomSpec,
                    VerificationReport, __version__)
from gapeig.cli import (
    CSV_HEADER,
    REPORT_CSV_HEADER,
    ExperimentConfig,
    config_from_dict,
    load_config,
    main,
    reports_to_csv,
    rows_to_csv,
    rows_to_json,
    run,
    verify_all,
)

SQRT2 = math.sqrt(2.0)


def _write(path, payload):
    """payload as JSON, or as given if it is already JSON text."""
    text = payload if isinstance(payload, str) else json.dumps(payload)
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def canonical_matrix_config(tmp_path):
    matrix = _write(tmp_path / "canon.json",
                    {"matrix": [[1.0, 1.0], [1.0, -1.0]], "n_plus": 1})
    return _write(tmp_path / "cfg.json",
                  {"kind": "matrix-file", "spec": {"path": matrix}})


@pytest.fixture
def live_operators(monkeypatch):
    """A weak set that every BlockOperator joins when it is built."""
    live = weakref.WeakSet()
    validate = BlockOperator.__post_init__

    def register(op):
        validate(op)
        live.add(op)

    monkeypatch.setattr(BlockOperator, "__post_init__", register)
    return live


class TestConfigParsing:
    def test_a_value_that_breaks_a_check_is_a_bad_config_value(self):
        # an array kind makes `kind in KINDS` ambiguous: a ValueError, not a traceback
        with pytest.raises(ConfigParse, match="bad config value"):
            config_from_dict({"kind": np.array(["dirac", "aps"])})

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
        # kind is optional in a config; listing the units of a model needs it
        assert config_from_dict({}).kind is None
        with pytest.raises(ConfigParse, match="missing config key: kind"):
            cli._units(config_from_dict({}))

    @pytest.mark.parametrize("command,raw,code", [
        ("spectrum", {"spec": {"n": 40}}, 2),
        ("converge", {"grids": [40, 80]}, 2),
        ("verify", {}, 2),
        ("hardy", {"spec": {"nu_values": [0.5], "n": 40}}, 0),
        ("pollution", {"grids": [100, 200]}, 0),
    ])
    def test_only_the_model_commands_need_a_kind(self, tmp_path, capsys, command, raw, code):
        cfg = _write(tmp_path / "cfg.json", raw)
        assert main([command, "--config", cfg, "--quiet"]) == code
        err = capsys.readouterr().err
        assert err == ("gapeig: missing config key: kind\n" if code else "")
        if code:  # without --config a model command fails as on an empty config file
            empty = _write(tmp_path / "empty.json", {})
            assert main([command, "--config", empty, "--quiet"]) == 2
            expected = capsys.readouterr().err
            assert main([command, "--quiet"]) == 2
            assert capsys.readouterr().err == expected and len(expected.splitlines()) == 1

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
        assert config.format == "json"

    def test_defaults(self, tmp_path, monkeypatch):
        config = config_from_dict({"kind": "random"})
        assert config.k_max == 1
        assert config.tol == 1e-10
        assert config.format == "csv"
        assert config.count == 1
        assert config.grids is None
        assert (config.spec, config.seed, config.out) == ({}, 0, None)

        # an empty spec gets README's defaults in each of the six families; listing
        # the units builds nothing, and the Hardy check records its arguments
        build_dirac = cli.build_dirac_coulomb
        built, hardy, tols = [], [], []

        def refuse(spec):
            raise AssertionError(f"built {spec} while listing units")

        for name in ("build_dirac_coulomb", "build_aps_cylinder", "random_gapped"):
            monkeypatch.setattr(cli, name, refuse)
        units = [unit for kind in ("dirac", "aps", "random")
                 for unit in cli._units(config_from_dict({"kind": kind}))]
        assert [unit.spec for unit in units] == [
            DiracSpec(nu=0.5, kappa=-1, n=600, r_max=30.0, grading="uniform"),
            ApsSpec(modes=(0.0,), length_l=1.0, n=200),
            RandomSpec(n_plus=8, n_minus=8, gap_target=1.0, seed=0)]
        assert [unit.grid for unit in units] == [600, 200, 16]
        with pytest.raises(ConfigParse, match="spec.path.*None"):
            cli._units(config_from_dict({"kind": "matrix-file"}))

        def record_hardy(nu, n, r_max):
            hardy.append((nu, n, r_max))
            return VerificationReport("hardy", 0.0, True, {})

        monkeypatch.setattr(cli, "hardy_check", record_hardy)
        assert main(["hardy", "--quiet", "--out", str(tmp_path / "hardy.csv")]) == 0
        assert hardy == [(nu, 1500, 30.0) for nu in (0.0, 0.5, 0.9, 1.0)]
        assert all(type(n) is int for _, n, _ in hardy)

        monkeypatch.setattr(cli, "build_dirac_coulomb", lambda spec: built.append(spec)
                            or build_dirac(replace(spec, n=spec.n // 10)))
        monkeypatch.setattr(cli, "lambda_k", lambda op, k, tol: tols.append(tol)
                            or minmax.lambda_k(op, k, tol))
        out = tmp_path / "pollution.json"
        main(["pollution", "--format", "json", "--quiet", "--out", str(out)])
        assert built == [DiracSpec(nu=0.9, kappa=-1, n=n, r_max=30.0, grading="quadratic")
                         for n in (600, 1200)]
        assert tols == [1e-10, 1e-10]
        rows = json.loads(out.read_text())["rows"]
        assert [row["params"]["window"] for row in rows[:2]] == [[-0.5, 0.5]] * 2

        # without --config the JSON envelope echoes the default config the run read
        for command in ("hardy", "pollution"):
            out = tmp_path / f"{command}.json"
            main([command, "--format", "json", "--quiet", "--out", str(out)])
            assert json.loads(out.read_text())["config"] == {
                "kind": None, "spec": {}, "k_max": 1, "tol": 1e-10, "out": str(out),
                "format": "json", "seed": 0, "grids": None, "count": 1}

    @pytest.mark.parametrize("key,value", [("k_max", True), ("count", 2.5), ("tol", "1e-10")])
    def test_a_direct_config_checks_its_numbers(self, key, value):
        with pytest.raises(ConfigParse, match=key):
            ExperimentConfig(kind="random", spec={}, **{key: value})


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

    def test_no_oracle_past_the_dimension_limit(self, monkeypatch):
        monkeypatch.setattr(cli, "ORACLE_DIM_LIMIT", 10)
        config = config_from_dict({
            "kind": "random", "spec": {"n_plus": 8, "n_minus": 8}, "k_max": 2})
        rows = run(config)
        assert len(rows) == 2
        assert all(r.oracle is None and r.abs_error is None for r in rows)

    def test_matrix_must_be_a_list_of_rows(self, tmp_path):
        path = _write(tmp_path / "m.json", {"matrix": {"0": [1.0]}, "n_plus": 1})
        config = config_from_dict({"kind": "matrix-file", "spec": {"path": path}})
        with pytest.raises(ConfigParse, match="matrix must be a list of rows"):
            run(config)

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
        # the banded Dirac channel runs inverse iteration from its fixed start
        random = config_from_dict({
            "kind": "random", "spec": {"n_plus": 6, "n_minus": 5}, "count": 2,
        })
        dirac = config_from_dict({
            "kind": "dirac", "spec": {"nu": 0.5, "kappa": -1, "r_max": 30.0, "n": 300},
            "k_max": 2,
        })
        strip = lambda rows: [
            (r.model, r.grid, r.k, r.lambda_k, r.multiplicity, r.oracle, r.residual)
            for r in rows
        ]
        for config in (random, dirac):
            assert strip(run(config)) == strip(run(config))
        # verify's rows, bit for bit: nothing is kept from one pass to the next
        for config in (replace(dirac, k_max=1), replace(random, count=1)):
            assert reports_to_csv(verify_all(config)) == reports_to_csv(verify_all(config))

    def test_random_rows_come_in_seed_order(self):
        # seeds 7..11 cross a digit boundary, where a sort by the model string
        # put "random(seed=10,...)" first
        config = config_from_dict({
            "kind": "random", "spec": {"n_plus": 6, "n_minus": 5}, "count": 5, "seed": 7})
        assert [r.model for r in run(config)] == [
            f"random(seed={seed},gap=1)" for seed in range(7, 12)]

    def test_one_operator_is_alive_at_each_solve(self, monkeypatch, live_operators):
        # a unit builds its operator when it runs and drops it when done, so the
        # memory a run holds does not grow with count
        live = live_operators
        solve_all, solve_root = cli.gap_spectrum, minmax.lambda_k
        at_solve, at_root = [], []
        monkeypatch.setattr(cli, "gap_spectrum", lambda op, *args:
                            at_solve.append(len(live)) or solve_all(op, *args))
        config = config_from_dict({
            "kind": "random", "spec": {"n_plus": 6, "n_minus": 5}, "count": 8, "k_max": 2})
        assert len(run(config)) == 16
        monkeypatch.setattr(minmax, "lambda_k", lambda op, *args, **kwargs:
                            at_root.append(len(live)) or solve_root(op, *args, **kwargs))
        assert all(rep.passed for rep in verify_all(config))
        assert len(at_solve) == len(at_root) == 8
        assert max(at_solve + at_root) <= 1

    def test_verify_releases_the_operator_before_the_hardy_row(self, monkeypatch,
                                                               live_operators):
        # the Hardy row builds its own kappa=-1 operator, so the unit's must be gone
        build, at_hardy = models.build_dirac_coulomb, []
        monkeypatch.setattr(models, "build_dirac_coulomb", lambda spec:
                            at_hardy.append(len(live_operators)) or build(spec))
        config = config_from_dict({
            "kind": "dirac", "spec": {"r_max": 20.0}, "grids": [40, 60]})
        reports = verify_all(config)
        assert [rep.check for rep in reports].count("hardy") == 2
        assert reports[-1].check == "hardy"
        assert at_hardy == [0, 0]

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

    def test_positive_kappa_has_no_oracle(self):
        # the kappa=1 channel's lowest discrete level is the kappa=-1 ground energy
        config = config_from_dict({
            "kind": "dirac", "spec": {"nu": 0.5, "kappa": 1, "n": 48, "r_max": 20.0},
            "k_max": 2,
        })
        rows = run(config)
        assert [r.k for r in rows] == [1, 2]
        assert all(r.oracle is None and r.abs_error is None for r in rows)
        for record in csv.DictReader(io.StringIO(rows_to_csv(rows))):
            assert record["oracle"] == "" and record["abs_error"] == ""

    def test_split_cluster_rows_each_read_their_own_oracle(self, tmp_path):
        # two levels 5e-9 apart, inside one cluster band: each row's oracle is its
        # own eigenvalue of A, not the cluster's mean
        p, c, amm = np.diag([-17.0, -17.0 + 5e-8]), 6.0 * np.eye(2), -np.eye(2)
        matrix = _write(tmp_path / "split.json", {
            "matrix": np.block([[p, c.T], [c, amm]]).tolist(), "n_plus": 2})
        rows = run(config_from_dict({"kind": "matrix-file", "spec": {"path": matrix},
                                     "k_max": 2}))
        # A's levels in the gap are 1 and 1 + 5e-9 (d lambda / d p = 1/10 there)
        assert [r.oracle for r in rows] == pytest.approx([1.0, 1.0 + 5e-9], rel=1e-14, abs=0.0)
        assert all(r.abs_error <= 1e-14 for r in rows)


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
        with open(canonical_matrix_config, encoding="utf-8") as fh:
            spec = json.load(fh)["spec"]
        assert list(doc["config"].items()) == [
            ("kind", "matrix-file"), ("spec", spec), ("k_max", 1), ("tol", 1e-10),
            ("out", None), ("format", "csv"), ("seed", 0), ("grids", None), ("count", 1)]
        config = config_from_dict({"kind": "dirac", "grids": [24, 48], "format": "json",
                                   "out": "x.json", "seed": 3, "count": 2, "k_max": 2})
        assert json.loads(rows_to_json([], config))["config"] == {
            "kind": "dirac", "spec": {}, "k_max": 2, "tol": 1e-10, "out": "x.json",
            "format": "json", "seed": 3, "grids": [24, 48], "count": 2}

    @pytest.mark.parametrize("command,raw", [
        ("verify", {"kind": "random", "spec": {"n_plus": 5, "n_minus": 4}, "count": 3}),
        ("verify", {"kind": "dirac", "spec": {"n": 60, "r_max": 20.0}}),
        ("verify", {"kind": "aps", "spec": {"modes": [0.0, 3.0], "n": 20}}),
        ("hardy", {"kind": "dirac", "spec": {"nu_values": [0.0, 0.9], "n": 60}}),
        ("pollution", {"kind": "dirac", "grids": [60, 120]}),
    ])
    def test_json_passed_is_a_boolean(self, tmp_path, command, raw):
        # a numpy bool would reach the JSON writer as the string "True"
        out = tmp_path / "out.json"
        cfg = _write(tmp_path / "cfg.json", {**raw, "format": "json", "out": str(out)})
        main([command, "--config", cfg, "--quiet"])
        rows = json.loads(out.read_text())["rows"]
        assert rows and all(type(row["passed"]) is bool for row in rows)


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

    def test_strongly_coupled_matrix_file_solves(self, tmp_path):
        # next to lambda0 an explicit Gram matrix I + l_e.T l_e was indefinite in
        # rounding here and the run exited 2; k_e alone needs no such matrix
        rng = np.random.default_rng(7)
        full = rng.standard_normal((32, 32))
        full = (full + full.T) / 2.0
        full[np.diag_indices(32)] += np.where(np.arange(32) < 12, 6.0, -6.0)
        matrix = _write(tmp_path / "m.json", {"matrix": full.tolist(), "n_plus": 12})
        cfg = _write(tmp_path / "cfg.json",
                     {"kind": "matrix-file", "spec": {"path": matrix}, "k_max": 4})
        assert main(["spectrum", "--config", cfg, "--quiet", "--out",
                     str(tmp_path / "rows.csv")]) == 0
        rows = run(load_config(cfg))
        assert [r.k for r in rows] == [1, 2, 3, 4]
        for row in rows:
            assert abs(row.lambda_k - row.oracle) <= 1e-13 * abs(row.oracle)

    def test_verify_samples_above_a_scaled_edge(self, tmp_path, capsys):
        # lambda0 <= -1e8 puts the edge at lambda0 + 1e-2 or higher; verify's offsets grow
        # with max(1, |lambda0|) like the edge, so every row is reported and passes
        cfg = _write(tmp_path / "cfg.json", {"kind": "random", "spec": {"gap_target": 1e8}})
        out = tmp_path / "rows.csv"
        assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert "sandwich" in {row["check"] for row in rows}
        assert all(row["passed"] == "true" for row in rows)

    def test_verify_a_level_next_to_the_edge(self, tmp_path, capsys):
        p, amm = np.diag([-1.0 + 5e-9, 2.0]), np.diag([-1.0, -3.0])
        full = np.block([[p, np.zeros((2, 2))], [np.zeros((2, 2)), amm]])
        matrix = _write(tmp_path / "m.json", {"matrix": full.tolist(), "n_plus": 2})
        cfg = _write(tmp_path / "cfg.json", {"kind": "matrix-file", "spec": {"path": matrix}})
        assert main(["verify", "--config", cfg, "--quiet",
                     "--out", str(tmp_path / "rows.csv")]) == 0
        assert capsys.readouterr().err == ""

    def test_a_failed_pencil_eigensolve_exits_two(self, canonical_matrix_config, capsys,
                                                  monkeypatch):
        # a solver failure is one "gapeig:" line and exit 2, not a traceback
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("the leading minor of order 7 is not positive definite")

        monkeypatch.setattr(schur.sla, "eigh", fail)
        assert main(["spectrum", "--config", canonical_matrix_config, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gapeig: ") and len(err.splitlines()) == 1
        assert "pencil eigensolve" in err

    def test_an_integer_beyond_float_range_exits_two(self, tmp_path, capsys):
        # json reads the literal as an exact int, whose float() overflows
        cfg = _write(tmp_path / "cfg.json", '{"kind": "random", "k_max": 1' + "0" * 400 + "}")
        assert main(["spectrum", "--config", cfg, "--quiet"]) == 2
        assert "k_max must be finite" in capsys.readouterr().err

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

    @pytest.mark.parametrize("config,key", [
        ({"kind": "random", "out": 7}, "out"),
        ({"kind": "random", "out": 1}, "out"),
        ({"kind": "matrix-file", "spec": {"path": 7}}, "spec.path"),
        ({"kind": "matrix-file", "spec": {"path": 1}}, "spec.path"),
    ])
    def test_numeric_path_exits_two(self, tmp_path, config, key):
        # in a child process: a number that reached open() would be taken as a file
        # descriptor, and fd 1 is this process's stdout
        cfg = _write(tmp_path / "cfg.json", config)
        proc = subprocess.run(
            [sys.executable, "-m", "gapeig", "spectrum", "--config", cfg],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("gapeig: ") and len(proc.stderr.splitlines()) == 1
        assert key in proc.stderr

    @pytest.mark.parametrize("where", ["config", "flag", "flag without config"])
    def test_empty_out_exits_two(self, canonical_matrix_config, tmp_path, capsys, where):
        # an empty path names no file, and must not fall back to stdout
        if where == "config":
            cfg = _write(tmp_path / "cfg.json", {"kind": "random", "out": ""})
            argv = ["spectrum", "--config", cfg]
        elif where == "flag":
            argv = ["spectrum", "--config", canonical_matrix_config, "--out", ""]
        else:
            argv = ["hardy", "--out", ""]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("gapeig: ") and len(err.splitlines()) == 1
        assert "out must be a file path" in err

    def test_directory_as_config_exits_two(self, tmp_path, capsys):
        assert main(["spectrum", "--config", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gapeig: ") and len(err.splitlines()) == 1
        assert str(tmp_path) in err

    def test_directory_as_out_exits_two(self, canonical_matrix_config, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert main(["spectrum", "--config", canonical_matrix_config,
                     "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gapeig: ") and len(err.splitlines()) == 1
        assert str(out) in err

    @pytest.mark.parametrize("target", ["config", "matrix"])
    def test_non_utf8_file_exits_two(self, tmp_path, capsys, target):
        garbage = tmp_path / "garbage.json"
        garbage.write_bytes(b'{"kind": "\xff\xfe\x80random"}')
        cfg = (str(garbage) if target == "config" else
               _write(tmp_path / "cfg.json",
                      {"kind": "matrix-file", "spec": {"path": str(garbage)}}))
        assert main(["spectrum", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gapeig: ") and len(err.splitlines()) == 1
        assert "UTF-8" in err and str(garbage) in err

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

    @pytest.mark.parametrize("command,config,key", [
        ("spectrum", {"kind": "aps", "spec": {"modes": "ab"}}, "modes"),
        ("spectrum", {"kind": "aps", "spec": {"modes": 3}}, "modes"),
        ("spectrum", {"kind": "matrix-file"}, "matrix row"),
        ("hardy", {"kind": "dirac", "spec": {"nu_values": ["x"]}}, "nu_values"),
        ("pollution", {"kind": "dirac", "spec": {"window": ["a", "b"]}}, "window"),
        ("spectrum", {"kind": "dirac", "spec": {"kappa": 1.5, "n": 24}}, "kappa"),
        ("spectrum", {"kind": "dirac", "spec": {"r_max": 20.0}, "grids": [100.7, 200]},
         "grids"),
        ("spectrum", {"kind": "random", "k_max": True}, "k_max"),
        # json reads these as inf and nan; json.dumps cannot write 1e400
        ("spectrum", '{"kind": "random", "spec": {"n_plus": 6, "n_minus": 5}, '
                     '"tol": 1e400, "k_max": 2}', "tol"),
        ("spectrum", '{"kind": "random", "tol": Infinity}', "tol"),
        ("spectrum", '{"kind": "aps", "spec": {"length_l": NaN}}', "length_l"),
        ("pollution", '{"kind": "dirac", "spec": {"window": [-Infinity, 0.5]}}', "window"),
        # an empty or reversed list would run as a clean, empty report
        ("pollution", {"kind": "dirac", "spec": {"window": [0.5, -0.5]}}, "window"),
        ("pollution", {"kind": "dirac", "spec": {"window": [0.5, 0.5]}}, "window"),
        ("hardy", {"kind": "dirac", "spec": {"nu_values": []}}, "nu_values"),
        ("spectrum", {"kind": "dirac", "spec": {"n": 24}, "grids": []}, "grids"),
        ("pollution", {"kind": "dirac", "grids": []}, "grids"),
        # a key the kind ignores would run as if it were absent
        ("converge", {"kind": "random", "spec": {"n_plus": 6, "n_minus": 5},
                      "grids": [100, 200, 400]}, "grids"),
        ("spectrum", {"kind": "matrix-file", "grids": [2]}, "grids"),
        ("spectrum", {"kind": "dirac", "spec": {"n": 24}, "count": 5}, "count"),
        ("verify", {"kind": "aps", "spec": {"n": 8}, "count": 2}, "count"),
        *[("hardy", {"kind": "dirac", key: value}, f"does not read {key}") for key, value in
          (("k_max", 5), ("tol", 1e-3), ("seed", 9), ("count", 3), ("grids", [100, 200]))],
        *[("pollution", {"kind": "dirac", key: value}, f"does not read {key}")
          for key, value in (("k_max", 7), ("seed", 4), ("count", 2))],
        ("spectrum", {"kind": "dirac", "spec": {"n": 40}, "grids": [60, 80]}, "spec.n"),
        ("verify", {"kind": "aps", "spec": {"n": 8}, "grids": [8, 16]}, "spec.n"),
        # the grids replace n, so an over-cap n is not the error to report
        ("converge", {"kind": "dirac", "spec": {"n": 5001}, "grids": [300]}, "spec.n"),
    ])
    def test_malformed_number_exits_two(self, tmp_path, capsys, command, config, key):
        if isinstance(config, dict) and config["kind"] == "matrix-file":
            matrix = _write(tmp_path / "m.json", {"matrix": [[1, 2], [3]], "n_plus": 1})
            config = {**config, "spec": {"path": matrix}}
        cfg = _write(tmp_path / "cfg.json", config)
        assert main([command, "--config", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gapeig: ") and key in err

    @pytest.mark.parametrize("command,raw", [
        ("hardy", {"kind": "random", "spec": {"nu_values": [0.5], "n": 40}, "k_max": 1,
                   "tol": 1e-10, "seed": 0, "grids": None, "count": 1}),
        ("spectrum", {"kind": "dirac", "spec": {"n": 40}, "seed": 5}),
        ("verify", {"kind": "random", "spec": {"n_plus": 5, "n_minus": 4}, "k_max": 3,
                    "tol": 1e-8}),
    ])
    def test_a_key_at_its_default_or_read_elsewhere_is_accepted(self, tmp_path, command,
                                                                raw):
        # any kind for hardy; seed on every kind, and k_max and tol for verify, so
        # that one config serves spectrum and verify
        cfg = _write(tmp_path / "cfg.json", raw)
        assert main([command, "--config", cfg, "--quiet"]) == 0

    def test_a_root_with_no_counted_eigenvalue_fails_its_row(self, tmp_path, monkeypatch):
        # equal inertia counts at lambda +- band: the band holds no eigenvalue of A, so
        # both levels of the degenerate pair, each its own root, read multiplicity 0,
        # and the rows fail on that alone
        monkeypatch.setattr(minmax, "_count", lambda op, e, lam0: 3)
        results = minmax.gap_spectrum(models.build_aps_cylinder(ApsSpec((3.0, -3.0), 1.0, 8)), 2)
        assert [(r.multiplicity, r.iterations > 0) for r in results] == [(0, True)] * 2
        assert all(r.residual <= 1e-10 for r in results)
        cfg = _write(tmp_path / "cfg.json",
                     {"kind": "aps", "spec": {"modes": [3.0, -3.0], "n": 8}, "k_max": 2})
        assert main(["spectrum", "--config", cfg, "--quiet"]) == 1

    @pytest.mark.parametrize("spec", [[["n", 40], ["r_max", 20.0]], "abc"])
    def test_non_object_spec_exits_two(self, tmp_path, capsys, spec):
        # a list of pairs must not pass as an object because dict() accepts it
        cfg = _write(tmp_path / "cfg.json", {"kind": "dirac", "spec": spec})
        assert main(["spectrum", "--config", cfg, "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gapeig: spec must be a JSON object, got {spec!r}\n"

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_jobs_is_no_flag(self, canonical_matrix_config, capsys, command):
        # every run is one serial loop over its units; there is no worker count to set
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", canonical_matrix_config, "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command,raw", [
        ("spectrum", {"kind": "random", "seed": -1}),
        ("spectrum", {"kind": "random", "seed": -3, "count": 5}),
        ("verify", {"kind": "dirac", "spec": {"n": 40}, "seed": -1}),
        ("verify", {"kind": "aps", "spec": {"n": 8}, "seed": -2}),
        ("verify", {"kind": "random", "seed": -1}),
    ])
    def test_negative_seed_exits_two(self, tmp_path, capsys, command, raw):
        # numpy's generators take no negative seed; it is a config error, not a traceback
        cfg = _write(tmp_path / "cfg.json", raw)
        assert main([command, "--config", cfg, "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gapeig: seed must be at least 0, got {raw['seed']}\n"

    @pytest.mark.parametrize("command,raw", [
        ("spectrum", {"kind": "dirac", "spec": {"n": 5001}}),
        ("hardy", {"kind": "dirac", "spec": {"n": 5001}}),
        ("pollution", {"kind": "dirac", "grids": [100, 5001]}),
    ])
    def test_an_over_cap_grid_exits_two_before_any_block_is_built(self, tmp_path, capsys,
                                                                  command, raw):
        cfg = _write(tmp_path / "cfg.json", raw)
        tracemalloc.start()
        try:
            assert main([command, "--config", cfg]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == "gapeig: block size exceeds cap 5000\n"
        assert peak < 2**20

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

    def test_one_root_solve_per_operator(self, monkeypatch):
        calls = []
        solve = minmax.lambda_k

        def counted(op, *args, **kwargs):
            calls.append(op)
            return solve(op, *args, **kwargs)

        monkeypatch.setattr(minmax, "lambda_k", counted)
        config = config_from_dict({
            "kind": "random", "spec": {"n_plus": 5, "n_minus": 4}, "count": 2})
        reports = verify_all(config)
        assert all(rep.passed for rep in reports)
        assert len(calls) == 2 and calls[0] is not calls[1]

    @pytest.mark.parametrize("raw, tail", [
        ({"kind": "dirac", "spec": {"nu": 0.5, "kappa": -1, "r_max": 30.0, "n": 200}},
         ["hardy"]),
        ({"kind": "random", "spec": {"n_plus": 5, "n_minus": 4}, "count": 1}, []),
    ])
    def test_every_check_keeps_its_rows(self, raw, tail):
        # six energies, each with its decomposition and extension rows; five gap fractions
        expected = (["gap_certificate"] + ["decomposition", "extension_consistency"] * 6
                    + ["inverse_formula"] * 5 + ["krein_gap", "sandwich", "norm_chain"]
                    + tail)
        reports = verify_all(config_from_dict(raw))
        assert [rep.check for rep in reports] == expected

    def test_one_congruence_per_energy(self, monkeypatch):
        # the decomposition and extension rows at an energy read one congruence
        calls, congruence = [], verify._congruence
        monkeypatch.setattr(verify, "_congruence",
                            lambda op, e: calls.append(e) or congruence(op, e))
        reports = verify_all(config_from_dict({"kind": "dirac", "spec": {"n": 40,
                                                                        "r_max": 20.0}}))
        assert calls == [rep.params["e"] for rep in reports if rep.check == "decomposition"]
        assert len(calls) == 6

    def test_verify_computes_no_oracle(self, monkeypatch):
        calls = []
        oracle = cli.dense_spectrum

        def counted(op):
            calls.append(op)
            return oracle(op)

        monkeypatch.setattr(cli, "dense_spectrum", counted)
        config = config_from_dict({
            "kind": "random", "spec": {"n_plus": 5, "n_minus": 4}, "count": 2})
        verify_all(config)
        assert calls == []
        run(config)
        assert len(calls) == 2


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
        assert "kappa=+1" in json.loads(drift_row["params"])["note"]

    def test_one_grid_exits_two(self, tmp_path, capsys):
        # one grid would be compared with itself: drift 0.0, passed, exit 0
        cfg = _write(tmp_path / "cfg.json", {
            "kind": "dirac", "spec": {"nu": 0.9, "kappa": -1, "r_max": 30.0},
            "grids": [200],
        })
        assert main(["pollution", "--config", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gapeig: ") and "grids" in err
