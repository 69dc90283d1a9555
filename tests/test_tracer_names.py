"""The library names that the benchmark's outside tracer (``shadowbench/tracing.py``) patches.

The tracer replaces cached properties, methods and entry points by name, so
a rename in the library breaks a traced benchmark run.  These tests read the
tracer's own tables, so that such a rename fails here first.
"""

import importlib.util
import sys
from functools import cached_property
from pathlib import Path

from shadowgeom import polytope

TRACING = Path(__file__).resolve().parents[1] / "shadowbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("shadowbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
BODY = polytope.SymmetricHPolytope


def test_every_patched_name_exists():
    for attr, _, _ in tracing.CACHED_PROPERTIES:
        assert isinstance(BODY.__dict__.get(attr), cached_property), attr
    for attr, _ in tracing.METHODS:
        assert callable(BODY.__dict__.get(attr)), attr
    for home, attr, _, _ in tracing.ENTRY_POINTS:
        assert callable(home.__dict__.get(attr)), f"{home.__name__}.{attr}"


def test_install_then_uninstall_restores_every_attribute():
    owners = (BODY, *tracing.MODULES)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for attr in [a for a, _, _ in tracing.CACHED_PROPERTIES] + [a for a, _ in tracing.METHODS]:
            assert BODY.__dict__[attr] is not before[0][attr], attr
        for home, attr, _, _ in tracing.ENTRY_POINTS:
            assert home.__dict__[attr] is not before[owners.index(home)][attr], f"{home.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for owner, saved in zip(owners, before):
        now = dict(vars(owner))
        assert now.keys() == saved.keys(), owner
        assert all(now[key] is saved[key] for key in saved), owner
