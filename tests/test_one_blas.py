"""Every BLAS and LAPACK call of the package runs on scipy's OpenBLAS.

numpy and scipy each bring their own OpenBLAS, each with its own thread pool. A numpy
product or solve wakes numpy's pool, whose workers then contend for the cores with
scipy's. So the source reads numpy.linalg only for its LinAlgError and makes no numpy
call that reaches BLAS: no dot, vdot, inner, tensordot or matmul, and no einsum with
optimize on (which hands contractions to tensordot). Dense products go through
blockop.mul. The one numpy BLAS call left is the 1-D dot x @ x, whose length is at
most BlockOperator.SIZE_CAP; OpenBLAS runs such a dot on one thread below 10000 entries.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from gapeig import BlockOperator

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gapeig").glob("*.py"))
LINALG = ("np.linalg", "numpy.linalg")
BLAS_CALLS = {"dot", "vdot", "inner", "tensordot", "matmul"}


def _dotted(node: ast.AST) -> str:
    """The dotted name of a chain of attributes on a name, e.g. "np.linalg.eigh"."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _numpy_blas(source: str) -> list[str]:
    """Each use in source of a numpy routine that calls BLAS or LAPACK, as line: text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        bad = False
        if isinstance(node, ast.Attribute):
            bad = ((_dotted(node.value) in LINALG and node.attr != "LinAlgError")
                   or node.attr in BLAS_CALLS)
        elif isinstance(node, ast.Import):
            bad = any(alias.name == "numpy.linalg" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            bad = ((node.module == "numpy.linalg" and names != {"LinAlgError"})
                   or (node.module == "numpy" and bool(names & ({"linalg"} | BLAS_CALLS))))
        elif isinstance(node, ast.Call) and _dotted(node.func).endswith("einsum"):
            bad = any(k.arg == "optimize" and not (isinstance(k.value, ast.Constant)
                                                   and k.value.value is False)
                      for k in node.keywords)
        if bad:
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_the_package_calls_no_numpy_blas(path):
    assert _numpy_blas(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", [
    "np.linalg.eigh(a)",
    "numpy.linalg.norm(x)",
    "from numpy.linalg import solve",
    "from numpy import linalg",
    "import numpy.linalg",
    "np.dot(a, b)",
    "a.dot(b)",
    "np.matmul(a, b)",
    "np.einsum('ij,jk->ik', a, b, optimize=True)",
    "np.einsum('ij,jk->ik', a, b, optimize='greedy')",
])
def test_the_scan_sees_each_kind_of_numpy_blas_call(source):
    assert len(_numpy_blas(source)) == 1


@pytest.mark.parametrize("source", [
    "try:\n    pass\nexcept np.linalg.LinAlgError:\n    pass",
    "from numpy.linalg import LinAlgError",
    "np.einsum('ij,ij->', a, a)",
    "np.einsum('i,i->', a, a, optimize=False)",
    "x @ x",
])
def test_the_scan_passes_what_calls_no_numpy_blas(source):
    assert _numpy_blas(source) == []


def test_the_one_dimensional_dots_stay_on_one_thread():
    # ROADMAP item 3 must move the 1-D dots x @ x to sum_squares-like sums, or to scipy's
    # BLAS, before it lifts the cap to 10000 or beyond
    assert BlockOperator.SIZE_CAP < 10000
