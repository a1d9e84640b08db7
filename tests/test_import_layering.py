"""The package's modules import one another in layers.

errors <- blockop <- {schur, oracle}, then schur <- minmax <- verify. The oracle is the
reference the solver is checked against, so it reads only the data model (blockop)
and the errors; the solver (schur, minmax) reads neither the oracle nor anything
built on top of it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gapeig"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}
ONLY = {"blockop": {"errors"}, "oracle": {"blockop", "errors"}}
NEVER = {module: {"oracle", "verify", "models", "cli"} for module in ("schur", "minmax")}


def _imports(source: str) -> set[str]:
    """The package modules source imports, at any depth, relatively or as gapeig.x; a
    name imported from the package itself (from . import x, x no module) is __init__."""
    found = set()

    def add(path: str, names=()):
        if path:
            found.add(path.partition(".")[0])
        else:  # from the package itself
            found.update(name if name in MODULES else "__init__" for name in names)

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "gapeig":
                    add(rest, ["__init__"])
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if node.level:
                add(node.module or "", names)
            elif node.module and node.module.partition(".")[0] == "gapeig":
                add(node.module.partition(".")[2], names)
    return found


def test_the_scan_sees_a_planted_import():
    source = ("import numpy as np\n"
              "from scipy import sparse\n"
              "from .schur import BAND_RATIO\n"
              "from . import verify, __version__\n"
              "import gapeig.models\n"
              "from gapeig.cli import main\n"
              "def f():\n"
              "    from gapeig import oracle\n")
    assert _imports(source) == {"schur", "verify", "__init__", "models", "cli", "oracle"}


def test_the_import_graph_has_its_layers():
    graph = {module: _imports((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
             for module in MODULES}
    wrong = sorted({(module, to) for module, allowed in ONLY.items()
                    for to in graph[module] - allowed}
                   | {(module, to) for module, forbidden in NEVER.items()
                      for to in graph[module] & forbidden})
    assert wrong == []
