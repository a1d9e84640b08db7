"""README's "Config files" section documents every config key.

The top-level keys are the fields of `cli.ExperimentConfig`, and the spec
keys of each model kind and subcommand are the entries of `cli.SPECS`; a key
added to either without a backticked mention in that section fails here.
"""

from dataclasses import fields
from pathlib import Path

from gapeig.cli import SPECS, ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def _config_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("### Config files")
    return text[start:text.index("\n### ", start)]


def test_every_config_and_spec_key_is_documented():
    section = _config_section()
    keys = [f.name for f in fields(ExperimentConfig)]
    keys += [name for family, spec in SPECS.items() for name in (family, *spec)]
    missing = sorted({key for key in keys if f"`{key}`" not in section})
    assert not missing
