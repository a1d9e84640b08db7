"""The package tests whether a number is a bool in one place only.

blockop.check_number is the one rule for every scalar the package takes in, the
CLI's JSON numbers included. An isinstance(..., bool) test anywhere else in
src/gapeig is a second copy of the rule.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gapeig"
ALLOWED = {("blockop", "check_number")}


def _bool_tests(source: str, module: str) -> set[tuple[str, str]]:
    """(module, enclosing function) of each isinstance(..., bool) call in source."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
                found.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_the_check_sees_a_bool_test():
    source = ("def size(n):\n"
              "    if isinstance(n, (int, bool)):\n"
              "        return n\n"
              "ok = isinstance(1, bool)\n")
    assert _bool_tests(source, "m") == {("m", "size"), ("m", "<module>")}


def test_only_the_number_rule_tests_for_bool():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= _bool_tests(path.read_text(encoding="utf-8"), path.stem)
    assert found == ALLOWED
