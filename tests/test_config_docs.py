"""README's "Config files" section documents every config key, its
"Command line" table every subcommand and that section every flag the parser
takes and no other, its "Output" table every check that
`verify` writes, and its "Layout" section every module; its Python examples
run against the package as it stands.

The top-level keys are the fields of `cli.ExperimentConfig`, and the spec
keys of each model kind and subcommand are the entries of `cli.SPECS`; a key
added to either without a backticked mention in that section fails here. A
module added to or removed from `src/gapeig/` without its Layout line fails
too. The ```python blocks run in order in one namespace, as a reader would
paste them, so an example that drifts from the API fails, and so does a
command of the "Examples" shell block that names a subcommand, flag or
config key the command line no longer takes.
"""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from gapeig.cli import COMMANDS, SPECS, ExperimentConfig, config_from_dict, main, verify_all

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


def _flags(text: str) -> set[str]:
    return set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))


def test_command_line_section_names_exactly_the_flags(capsys):
    options = {}
    for name in COMMANDS:
        with pytest.raises(SystemExit):
            main([name, "--help"])
        options[name] = _flags(capsys.readouterr().out)
    text = README.read_text(encoding="utf-8")
    start = text.index("## Command line")
    section = text[start:text.index("\n## ", start)]
    # fenced blocks first, so that their fences do not pair up as inline spans
    spans = re.findall(r"```(.*?)```", section, re.S)
    spans += re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", section, flags=re.S))
    documented = set().union(*map(_flags, spans))
    undocumented = {name: sorted(flags - documented - {"--help"})
                    for name, flags in options.items()}
    assert not any(undocumented.values()), undocumented
    assert documented <= set().union(*options.values())


def test_verify_table_lists_exactly_the_checks():
    rows = [line.split("|")[1].strip() for line in _section("### Output").splitlines()
            if line.startswith("| `")]
    config = config_from_dict({"kind": "dirac", "spec": {"n": 40, "r_max": 20.0}})
    checks = [rep.check for rep in verify_all(config)]
    assert rows == [f"`{check}`" for check in dict.fromkeys(checks)]
    assert rows == [f"`{check}`" for check in (
        "gap_certificate", "decomposition", "extension_consistency", "inverse_formula",
        "krein_gap", "sandwich", "norm_chain", "hardy")]


def test_layout_lists_exactly_the_modules():
    text = README.read_text(encoding="utf-8")
    block = text[text.index("## Layout"):].split("```")[1]
    listed = {line.split()[0] for line in block.splitlines() if line.startswith("  ")}
    modules = {path.name for path in (ROOT / "src" / "gapeig").glob("*.py")}
    assert listed == modules - {"__init__.py", "__main__.py"}


def test_readme_python_examples_run():
    blocks = README.read_text(encoding="utf-8").split("```python\n")[1:]
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(block[:block.index("```")], namespace)
    assert abs(namespace["res"].lambda_k - 2.0 ** 0.5) <= 1e-14


def test_readme_shell_examples_run(tmp_path, monkeypatch):
    # each heredoc is written into tmp_path, then each gapeig line runs in-process
    text = README.read_text(encoding="utf-8")
    block = text[text.index("### Examples"):].split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    files = re.findall(r"^cat > (\S+) <<'EOF'\n(.*?)^EOF$", block, re.M | re.S)
    for name, body in files:
        (tmp_path / name).write_text(body, encoding="utf-8")
    commands = [line.split()[1:] for line in block.splitlines() if line.startswith("gapeig ")]
    assert len(files) == 4 and len(commands) == 5
    for argv in commands:
        assert main(argv) == 0, argv
