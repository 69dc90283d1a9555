"""The library is numpy-only: every module imports from the standard library, numpy or the package itself.

scipy and the other test dependencies stay in the tests.  Each module under
``src/shadowgeom`` is parsed, not imported, so a module that would fail to
import is still checked.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shadowgeom"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "shadowgeom"}


def imported_roots(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, top-level module) of every absolute import in the tree; relative imports are the package's own."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append((node.lineno, node.module.split(".")[0]))
    return roots


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda path: str(path.relative_to(PACKAGE)))
def test_every_import_is_stdlib_numpy_or_the_package(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = [f"{path.name}:{line} imports {root}" for line, root in imported_roots(tree) if root not in ALLOWED]
    assert not foreign, foreign


def test_the_guard_sees_a_foreign_import():
    tree = ast.parse("import math\nfrom . import kernel\nfrom scipy.spatial import ConvexHull\nimport numpy.linalg as la\n")
    assert [root for _, root in imported_roots(tree) if root not in ALLOWED] == ["scipy"]
