"""The library names that the benchmark's outside tracer (``shadowbench/tracing.py``) patches.

The tracer replaces cached properties, methods and entry points by name, so
a rename in the library breaks a traced benchmark run.  These tests read the
tracer's own tables, so that such a rename fails here first.  Its hooks read
fields of the returned records, so one op of each benchmark workload also
runs under an installed tracer, so that a removed field fails here too.
One round of each workload also records which of its bodies walk their
vertex graph, so that a workload that changes its vertex enumeration fails
here.
"""

import importlib.util
import math
import sys
from functools import cached_property
from pathlib import Path

import pytest

from shadowgeom import kernel, polytope

SHADOWBENCH = Path(__file__).resolve().parents[1] / "shadowbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"shadowbench_{name}", SHADOWBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")
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


def test_the_hooks_read_the_records_of_one_op_of_each_workload():
    ops = {name: workload.generate(3, 1)[0] for name, workload in workloads.WORKLOADS.items()}
    tracer = tracing.Tracer()
    with tracer:
        for name, op in ops.items():
            tracer.run_op(op.index, workloads.WORKLOADS[name].run, op)
        body = ops["measure"].inputs["body"]  # its measures build no vertex set
        body.vertices, body.facets
    assert not [span.name for span in tracer.spans if span.error]
    counts = tracer.counts
    for name in ("shadow.shadow_position.reports", "shadow.min_support.exact", "shadow.polar_vertices.points",
                 "ellipsoid.mvee.points", "ellipsoid.mvee.support", "family.maximize.iterations",
                 "polytope.vertices.kept", "polytope.facets.builds"):
        assert counts[name] > 0, name


def counted_walks(monkeypatch) -> list[tuple[tuple[int, int], bool]]:
    """Patch ``polytope._walk`` to record, per call, the body's (n, m) and whether the walk was certified."""
    walks = []
    walk = polytope._walk

    def recorded(plan, t):
        rows = walk(plan, t)
        walks.append((plan.directions.shape[::-1], rows is not None))
        return rows

    monkeypatch.setattr(polytope, "_walk", recorded)
    return walks


#: per workload, the (n, m) of the bodies of one round that walk: the measure shapes with more than SUBSET_BLOCK
#: subsets; the position and family bodies have stored plans, so those workloads enumerate as before the walk
WALKED = {"measure": [(6, 15), (6, 16)], "position": [], "family": []}


@pytest.mark.parametrize("name", list(WALKED))
def test_the_lone_bodies_whose_plans_stream_walk_and_no_other(monkeypatch, name):
    walks = counted_walks(monkeypatch)
    workload = workloads.WORKLOADS[name]
    for op in workload.generate(3, len(workload.shapes)):
        workload.run(op)
    assert walks == [(shape, True) for shape in WALKED[name]]
    if name == "measure":
        assert [(n, m) for n, m in workload.shapes if math.comb(m, n) > kernel.SUBSET_BLOCK] == WALKED[name]
