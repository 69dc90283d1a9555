"""A body's measure triple is written in one place: ``polytope._seed_measures``.

Every triple a body holds, whether its own cone pass computed it, the family
solver seeded it or the linear-image map carried it over from the body it is
the image of, goes in through that function and its one check.  A write of
``_measures`` through ``vars(...)`` or ``__dict__`` anywhere else would skip
the check.  Each module under ``src/shadowgeom`` is parsed, not imported.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shadowgeom"
ALLOWED = {("polytope.py", "_seed_measures")}


def _namespace(node: ast.AST) -> bool:
    """Whether the node is ``vars(...)`` or ``<expression>.__dict__``."""
    call = isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "vars"
    return call or (isinstance(node, ast.Attribute) and node.attr == "__dict__")


def _measures_key(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value == "_measures"


def _names_measures(call: ast.Call) -> bool:
    """Whether the call names ``_measures`` as an argument, a key of a dict argument or a keyword."""
    keys = [*call.args, *(key for arg in call.args if isinstance(arg, ast.Dict) for key in arg.keys)]
    return any(map(_measures_key, keys)) or any(keyword.arg == "_measures" for keyword in call.keywords)


def measure_writes(tree: ast.AST) -> list[tuple[int, str | None]]:
    """(line, innermost enclosing function) of every write of ``_measures`` through ``vars(...)`` or ``__dict__``.

    A write is a store or delete of the subscript ``"_measures"``, or a call of
    the namespace's ``update``, ``setdefault`` or ``__setitem__`` that names it
    as a key or a keyword.
    """
    writes = []

    def visit(node: ast.AST, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            stored = (
                isinstance(child, ast.Subscript)
                and isinstance(child.ctx, (ast.Store, ast.Del))
                and _namespace(child.value)
                and _measures_key(child.slice)
            )
            called = (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in {"update", "setdefault", "__setitem__"}
                and _namespace(child.func.value)
                and _names_measures(child)
            )
            if stored or called:
                writes.append((child.lineno, owner))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(tree, None)
    return writes


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda path: str(path.relative_to(PACKAGE)))
def test_measures_are_written_only_by_the_seeding_helper(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = [f"{path.name}:{line} in {owner}" for line, owner in measure_writes(tree) if (path.name, owner) not in ALLOWED]
    assert not foreign, foreign


def test_the_guard_sees_a_foreign_write():
    tree = ast.parse(
        "def _seed_measures(body, triple):\n"
        "    vars(body)['_measures'] = triple\n"
        "def solve(body, triple):\n"
        "    body.__dict__['_measures'] = triple\n"
        "    vars(body).update(_measures=triple)\n"
        "    vars(body).update({'_measures': triple})\n"
        "    body.__dict__.setdefault('_measures', triple)\n"
        "    del vars(body)['_measures']\n"
        "    vars(body)['_facet_measures'] = triple[1]\n"
        "    return body._measures, vars(body)['_measures']\n"
    )
    assert measure_writes(tree) == [(2, "_seed_measures"), (4, "solve"), (5, "solve"), (6, "solve"), (7, "solve"), (8, "solve")]
