"""A rank is decided in one place per input: ``np.linalg.matrix_rank`` only in ``kernel.check_slab_directions``.

Slab directions are tested there, by every constructor that takes them; the
MVEE's points are tested by the pivots of its core set
(``ellipsoid._spanning_basis``).  A second rank test elsewhere repeats one of
these.  Each module under ``src/shadowgeom`` is parsed, not imported.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shadowgeom"
ALLOWED = {("kernel.py", "check_slab_directions")}


def rank_uses(tree: ast.AST) -> list[tuple[int, str | None]]:
    """(line, innermost enclosing function) of every name, attribute or import named ``matrix_rank`` in the tree."""
    uses = []

    def visit(node: ast.AST, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            names = []
            if isinstance(child, ast.Attribute):
                names = [child.attr]
            elif isinstance(child, ast.Name):
                names = [child.id]
            elif isinstance(child, ast.alias):
                names = [child.name, child.asname]
            if "matrix_rank" in names:
                uses.append((child.lineno, owner))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(tree, None)
    return uses


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda path: str(path.relative_to(PACKAGE)))
def test_matrix_rank_is_called_only_by_the_slab_direction_check(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = [f"{path.name}:{line} in {owner}" for line, owner in rank_uses(tree) if (path.name, owner) not in ALLOWED]
    assert not foreign, foreign


def test_the_guard_sees_a_foreign_rank_test():
    tree = ast.parse(
        "import numpy as np\n"
        "def check_slab_directions(u):\n"
        "    return np.linalg.matrix_rank(u)\n"
        "def draw(u):\n"
        "    from numpy.linalg import matrix_rank\n"
        "    return matrix_rank(u) == u.shape[1]\n"
    )
    assert rank_uses(tree) == [(3, "check_slab_directions"), (5, "draw"), (6, "draw")]
