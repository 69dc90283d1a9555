"""shadowgeom benchmark: seeded workloads timed from outside the library.

    python3 shadowbench/run.py --workload position --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workload's whole input pool is generated
from ``--seed`` before timing starts; then one client runs ops in a closed
loop, one after the other, until the round of ops running when ``--seconds``
have passed is complete.  Between ops a speed probe (fixed work that does
not call the library) times the machine, and the timing metrics are given
at a fixed reference speed, so that a shared host's changes of speed do not
show as changes of the program.  Every op is checked after the loop, and
the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a fixed
prefix of the same ops twice, untraced and then with the layer wrappers of
``tracing.py`` installed, checks that both passes give bit-identical results,
and reports the per-layer metrics.  Each run also writes its record (and, when
traced, its spans) under ``shadowbench/out/``.  See ``DESIGN.md`` for why the
workloads and metrics are what they are.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP threads before numpy is imported anywhere
THREAD_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 5  # the run's own set-up plus four fresh processes
#: Seconds one speed probe takes at the reference speed: about its median
#: on the 2-core machine the bounds were set on.
PROBE_REF_S = 0.003
PROBE_LOOPS = 18  # sets the probe's length, about 3 ms
#: After each op, probes for this share of its latency (at least one, at
#: most ``PROBE_MAX_REPEATS``), so a long op is bracketed by many probes.
PROBE_SHARE = 0.05
PROBE_MAX_REPEATS = 40
#: An op's speed is the mean of the probes this close to it.
PROBE_WINDOW_S = 0.1

# Each set-up probe is a fresh interpreter that pays the import and the input
# generation, as this process did before its first timed op.
_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import shadowgeom
import workloads
wl = workloads.WORKLOADS[sys.argv[3]]
wl.generate(int(sys.argv[4]), int(sys.argv[5]))
print(time.perf_counter() - start)
"""


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("position", "family", "measure"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (0 <= args.seed < 2**64):
        p.error("--seed must fit in an unsigned 64-bit integer")
    if not (0 < args.seconds <= 600):
        p.error("--seconds must lie in (0, 600]")
    return args


def load_library():
    """Import shadowgeom from this checkout's ``src``; returns (modules, import seconds)."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    start = time.perf_counter()
    import shadowgeom  # noqa: F401

    elapsed = time.perf_counter() - start
    import workloads

    return workloads, elapsed


class SpeedProbe:
    """Fixed work outside the library, timed between ops to track machine speed.

    On a shared host the same work runs up to 50% slower from one moment
    to the next, as other tenants come and go, and whole runs a few minutes
    apart differ by a third.  The probe does the same kind of work as the
    library (small batched solves, a small eigensolve, Python arithmetic)
    and never calls it, so a change to the library cannot move it.
    ``run_pass`` runs probes between ops; ``at_reference_speed`` turns op
    latencies into latencies at a fixed reference speed.
    """

    def __init__(self) -> None:
        import numpy as np

        gen = np.random.default_rng(20240601)
        self._mats = gen.standard_normal((64, 5, 5)) + 5.0 * np.eye(5)
        self._rhs = gen.standard_normal((64, 5, 3))
        sym = gen.standard_normal((6, 6))
        self._sym = sym @ sym.T
        self._np = np

    def __call__(self) -> tuple[float, float]:
        """Runs the probe once; returns (the perf_counter at its middle, its seconds)."""
        np = self._np
        start = time.perf_counter()
        acc = 0.0
        for i in range(PROBE_LOOPS):
            sols = np.linalg.solve(self._mats, self._rhs)
            acc += float(np.abs(sols).max()) + float(np.linalg.eigh(self._sym)[0][0])
            acc += sum(j * j for j in range(60 + i))
        end = time.perf_counter()
        if not math.isfinite(acc):
            raise RuntimeError("speed probe produced a non-finite value")
        return 0.5 * (start + end), end - start


def at_reference_speed(latencies: list[float], starts: list[float], probes: list[tuple[float, float]]) -> list[float]:
    """Each op latency at the reference speed ``PROBE_REF_S``.

    An op's speed is the mean of the probes taken from ``PROBE_WINDOW_S``
    before it started to ``PROBE_WINDOW_S`` after it ended, which always
    includes the probes just before it and just after.  A short op also
    takes in its neighbours' probes, which keeps one probe's jitter out of
    it; the window is short because the speed changes within a second.
    """
    times = [t for t, _ in probes]
    out = []
    for lat, start in zip(latencies, starts):
        lo = bisect.bisect_left(times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(times, start + lat + PROBE_WINDOW_S)
        near = [d for _, d in probes[lo:hi]]
        out.append(lat * PROBE_REF_S / statistics.fmean(near))
    return out


def nearest_rank(sorted_values: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def probe_repeats(latencies: list[float]) -> int:
    """Probes to run after an op: ``PROBE_SHARE`` of its latency, at least one."""
    last = latencies[-1] if latencies else 0.0
    return max(1, min(PROBE_MAX_REPEATS, round(PROBE_SHARE * last / PROBE_REF_S)))


def run_pass(workloads, wl, ops, deadline_s: float | None, tracer=None, probe=None):
    """Run ops in order, in whole rounds, until ``deadline_s`` seconds have passed.

    Returns (latencies, starts, outcomes, errors, probes); an op that raised
    has outcome None.  With a ``probe``, probes run before the first op and
    after every op, and ``probes`` holds their (middle, seconds); without,
    it is empty.
    Each op's inputs are released after it ran, so that peak memory does not
    grow with the number of ops a run completes.
    """
    latencies: list[float] = []
    outcomes: list = []
    errors: list = []
    starts: list[float] = []
    probes: list[tuple[float, float]] = []
    start = time.perf_counter()
    for op in ops:
        at_round_start = op.index % len(wl.shapes) == 0
        if deadline_s is not None and at_round_start and time.perf_counter() - start >= deadline_s:
            break
        if probe:
            probes.extend(probe() for _ in range(probe_repeats(latencies)))
        t0 = time.perf_counter()
        try:
            raw = tracer.run_op(op.index, wl.run, op) if tracer else wl.run(op)
            err = None
        except workloads.OP_ERRORS as exc:
            raw, err = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        starts.append(t0)
        outcomes.append(None if raw is None else wl.summarize(op, raw))
        errors.append(err)
        del raw
        op.inputs.clear()
    if probe:
        probes.extend(probe() for _ in range(probe_repeats(latencies)))
    return latencies, starts, outcomes, errors, probes


def check_ops(wl, ops, outcomes, errors) -> list[dict]:
    """Check every attempted op; returns one record per failed op."""
    sys.path.insert(0, str(ROOT / "tests"))
    import oracles  # imported only now: scipy must not count towards peak memory

    failures = []
    for op, out, err in zip(ops, outcomes, errors):
        misses = [err] if err else wl.check(op, out, oracles)
        if misses:
            failures.append({"op": op.index, "shape": list(op.shape), "misses": misses})
    return failures


def setup_probes(wl, seed: int, count: int) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(ROOT / "src"), str(HERE), wl.name, str(seed), str(count)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}


def run_record(args, wl, digest: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_digest": digest,
        "git": git_state(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "loop": "closed, one client, one process",
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kilobytes on Linux


def end_to_end(args, workloads, wl, ops, record, setup_main: float) -> tuple[dict, bool]:
    """The timed closed loop; returns (metrics, correct) and fills ``record``."""
    wall, starts, outcomes, errors, probes = run_pass(workloads, wl, ops, args.seconds, probe=SpeedProbe())
    rss = peak_rss_mb()
    latencies = at_reference_speed(wall, starts, probes)
    attempted = len(latencies)
    done = ops[:attempted]
    failures = check_ops(wl, done, outcomes, errors)
    setups = [setup_main] + setup_probes(wl, args.seed, len(ops))
    ordered = sorted(latencies)
    tail, beyond = nearest_rank(ordered, wl.tail_percentile)
    completed = attempted - len(failures)
    metrics = {
        "ops_per_s": (completed / sum(latencies), "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    record.update({
        "attempted": attempted,
        "failed": len(failures),
        "failed_ratio": len(failures) / attempted,
        "failures": failures,
        "pool_exhausted": attempted == len(ops),
        "op_tail_percentile": wl.tail_percentile,
        "ops_beyond_tail": beyond,
        "setup_samples_s": setups,
        "latencies_s": latencies,
        "wall_latencies_s": wall,
        "probes_s": [d for _, d in probes],
        "probe_at_s": [t - starts[0] for t, _ in probes],
        "op_start_s": [t - starts[0] for t in starts],
        # the same timing metrics in wall-clock seconds, not at reference speed
        "wall": {
            "ops_per_s": completed / sum(wall),
            "op_p50_s": statistics.median(wall),
            "op_tail_s": nearest_rank(sorted(wall), wl.tail_percentile)[0],
        },
        "probe_median_s": statistics.median(d for _, d in probes),
    })
    return metrics, not failures


def traced(args, workloads, wl, ops, record) -> tuple[dict, bool]:
    """The untraced and traced passes; returns (metrics, correct) and fills ``record``."""
    import tracing

    # bodies cache their vertices and facets, so each pass gets its own copy
    # of the same ops: the first prefix of the pool, regenerated
    count = min(len(ops), wl.trace_size(args.seconds))
    ops, again = ops[:count], wl.generate(args.seed, count)
    if workloads.inputs_digest(again) != workloads.inputs_digest(ops):
        raise RuntimeError("regenerated inputs differ from the pool")
    # a throwaway first op, so neither pass pays one-time costs the other does not
    run_pass(workloads, wl, wl.generate(args.seed, 1), None)
    start = time.perf_counter()
    _, _, plain, plain_errors, _ = run_pass(workloads, wl, again, None)
    plain_s = time.perf_counter() - start
    tracer = tracing.Tracer()
    with tracer:
        start = time.perf_counter()
        _, _, outcomes, errors, _ = run_pass(workloads, wl, ops, None, tracer)
        traced_s = time.perf_counter() - start
    failures = check_ops(wl, ops, outcomes, errors)
    mismatched = [
        op.index for op, a, b, ea, eb in zip(ops, plain, outcomes, plain_errors, errors)
        if (a and a.fingerprint) != (b and b.fingerprint) or ea != eb
    ]
    layer = tracing.layer_metrics(tracer, traced_s / plain_s)
    units = dict(tracing.LAYER_METRICS)
    metrics = {name: (layer[name], units[name]) for name, _ in tracing.LAYER_METRICS}
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
    with spans_path.open("w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(asdict(span)) + "\n")
    record.update({
        "attempted": len(ops),
        "failed": len(failures),
        "failed_ratio": len(failures) / len(ops),
        "failures": failures,
        "parity_mismatched_ops": mismatched,
        "self_time_shares": tracing.self_time_shares(tracer),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "untraced_s": plain_s,
        "traced_s": traced_s,
    })
    return metrics, not failures and not mismatched


def main(argv=None) -> int:
    args = parse_args(argv)
    setup_start = time.perf_counter()
    workloads, import_s = load_library()
    wl = workloads.WORKLOADS[args.workload]
    ops = wl.generate(args.seed, wl.pool_size(args.seconds))
    setup_main = time.perf_counter() - setup_start
    digest = workloads.inputs_digest(ops)
    record = run_record(args, wl, digest)
    record["pool_ops"] = len(ops)
    record["import_s"] = import_s
    print(json.dumps({"workload": wl.name, "seed": args.seed, "inputs_digest": digest}), flush=True)
    if args.trace:
        metrics, correct = traced(args, workloads, wl, ops, record)
    else:
        metrics, correct = end_to_end(args, workloads, wl, ops, record, setup_main)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    summary = {k: v for k, v in record.items() if k not in ("latencies_s", "wall_latencies_s", "probes_s", "probe_at_s",
                                                               "op_start_s", "metrics")}
    print(json.dumps(summary), flush=True)
    result = {"correct": correct, "attempted": record["attempted"], "failed": record["failed"], "metrics": record["metrics"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
