"""README's "Config files" section documents every config key, its
"Command line" table every subcommand, its "Output" table every check that
`verify` writes, and its "Layout" section every module.

The top-level keys are the fields of `cli.ExperimentConfig`, and the spec
keys of each model kind and subcommand are the entries of `cli.SPECS`; a key
added to either without a backticked mention in that section fails here. A
module added to or removed from `src/gapeig/` without its Layout line fails
too.
"""

from dataclasses import fields
from pathlib import Path

from gapeig.cli import COMMANDS, SPECS, ExperimentConfig, config_from_dict, verify_all

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _section(heading: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(heading)
    return text[start:text.index("\n#", start + len(heading))]


def test_every_config_and_spec_key_is_documented():
    section = _section("### Config files")
    keys = [f.name for f in fields(ExperimentConfig)]
    keys += [name for family, spec in SPECS.items() for name in (family, *spec)]
    missing = sorted({key for key in keys if f"`{key}`" not in section})
    assert not missing


def test_subcommand_table_lists_exactly_the_commands():
    rows = [line.split("|")[1].strip() for line in _section("## Command line").splitlines()
            if line.startswith("| `")]
    assert sorted(rows) == sorted(f"`{name}`" for name in COMMANDS)


def test_verify_table_lists_exactly_the_checks():
    rows = [line.split("|")[1].strip() for line in _section("### Output").splitlines()
            if line.startswith("| `")]
    config = config_from_dict({"kind": "dirac", "spec": {"n": 40, "r_max": 20.0}})
    checks = [rep.check for rep in verify_all(config)]
    assert rows == [f"`{check}`" for check in dict.fromkeys(checks)]


def test_layout_lists_exactly_the_modules():
    text = README.read_text(encoding="utf-8")
    block = text[text.index("## Layout"):].split("```")[1]
    listed = {line.split()[0] for line in block.splitlines() if line.startswith("  ")}
    modules = {path.name for path in (ROOT / "src" / "gapeig").glob("*.py")}
    assert listed == modules - {"__init__.py", "__main__.py"}
