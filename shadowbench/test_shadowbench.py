"""Tests of the benchmark's own code.

    python3 -m pytest -q shadowbench

They use a few ops of each workload, so they take seconds, not minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import shadowgeom  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def traced_metrics(name: str, count: int) -> dict:
    wl = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    with tracer:
        for op in wl.generate(7, count):
            tracer.run_op(op.index, wl.run, op)
    return tracing.layer_metrics(tracer, 1.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_digest_and_another_seed_another(name):
    wl = workloads.WORKLOADS[name]
    count = len(wl.shapes)
    first = workloads.inputs_digest(wl.generate(3, count))
    assert workloads.inputs_digest(wl.generate(3, count)) == first
    assert workloads.inputs_digest(wl.generate(4, count)) != first


def test_prefix_of_a_longer_pool_is_the_same_ops():
    wl = workloads.MEASURE
    short = wl.generate(5, 10)
    assert workloads.inputs_digest(wl.generate(5, 40)[:10]) == workloads.inputs_digest(short)


def test_facet_types_repeat_on_family_and_never_on_measure():
    assert traced_metrics("family", 1)["polytope.facets.type_repeat_share"] > 0.0
    measure = traced_metrics("measure", 6)
    assert measure["polytope.facets.calls"] == 6
    assert measure["polytope.facets.type_repeat_share"] == 0.0


def test_mvee_runs_only_on_position():
    assert traced_metrics("family", 1)["ellipsoid.mvee.calls"] == 0
    assert traced_metrics("measure", 3)["ellipsoid.mvee.calls"] == 0
    position = traced_metrics("position", 1)
    assert position["ellipsoid.mvee.calls"] == 1
    assert position["ellipsoid.mvee.iterations"] > 0


def test_tracer_restores_every_patched_attribute():
    before = {
        (m.__name__, k): v for m in tracing.MODULES for k, v in vars(m).items() if callable(v)
    }
    cls_before = dict(vars(shadowgeom.SymmetricHPolytope))
    with tracing.Tracer():
        assert shadowgeom.shadow_position is not before[("shadowgeom", "shadow_position")]
        assert shadowgeom.shadow.dedup_rows is not before[("shadowgeom.shadow", "dedup_rows")]
    after = {(m.__name__, k): v for m in tracing.MODULES for k, v in vars(m).items() if callable(v)}
    assert after == before
    assert dict(vars(shadowgeom.SymmetricHPolytope)) == cls_before


def test_self_time_subtracts_direct_children():
    spans = [
        tracing.Span("op", 0.0, 10.0, -1, 0),
        tracing.Span("a", 1.0, 5.0, 0, 0),
        tracing.Span("b", 2.0, 3.0, 1, 0),
        tracing.Span("c", 6.0, 7.0, 0, 0),
    ]
    assert tracing.self_times(spans) == [5.0, 3.0, 1.0, 1.0]


def test_reference_speed_uses_the_probes_next_to_each_op():
    ref = run.PROBE_REF_S
    starts, latencies = [0.0, 0.6], [0.5, 0.5]
    # a probe before each op and after the last, then one far beyond the window
    probes = [(-0.002, ref), (0.55, 2 * ref), (1.15, 2 * ref), (5.0, 100 * ref)]
    at_ref = run.at_reference_speed(latencies, starts, probes)
    assert at_ref == pytest.approx([0.5 / 1.5, 0.5 / 2.0])
    slower = [(t, 2 * d) for t, d in probes]
    assert run.at_reference_speed(latencies, starts, slower) == pytest.approx([x / 2 for x in at_ref])


def test_probe_count_follows_the_last_latency():
    assert run.probe_repeats([]) == 1
    assert run.probe_repeats([0.001]) == 1
    assert run.probe_repeats([1.0]) == round(run.PROBE_SHARE / run.PROBE_REF_S)
    assert run.probe_repeats([1e6]) == run.PROBE_MAX_REPEATS


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "11", "--seconds", "0.5",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain = run_bench("measure", 0)
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["failed"] == 0
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layered = run_bench("measure", 1)
    assert layered["correct"]
    assert {k: v["unit"] for k, v in layered["metrics"].items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
