"""The three benchmark workloads: seeded inputs, one op each, and the op checks.

Every workload draws its whole input pool before anything is timed, so the
library only ever sees generated inputs (see ``Workload.generate``).  An op
calls the library through the ``shadowgeom`` package attributes at call
time, which is what lets the tracer swap in its wrappers.

After each op, outside the timed region, ``summarize`` keeps an ``Outcome``:
the values its check needs and a fingerprint of every number it produced.
The check sees only the ``Outcome``, so the op's inputs and results (bodies
with their cached vertices and facets) can be dropped right after the op.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import shadowgeom
from shadowgeom.family import FloorViolationError
from shadowgeom.kernel import CapacityError, RandomSource, random_orthogonal, sample_unit_sphere
from shadowgeom.zonotope import random_weighted_directions

#: Exceptions an op may raise; each one counts the op as failed.
OP_ERRORS = (CapacityError, FloorViolationError, ValueError)

FAMILY_TOL = 1e-8
IDENTITY_SAMPLES = 1000
SHADOW_DIRECTIONS = 1000
ORACLE_MAX_DIM = 4  # body_volume_oracle takes 1.4 s at n=5, m=14 and 12 s at n=6, m=16
ORACLE_SHADOWS = 3
#: Draws the base inputs; fixed, so every seed runs the same geometries.
BASE_SEED = 0x5AD0_BA5E


@dataclass(frozen=True)
class Op:
    index: int
    shape: tuple
    inputs: dict[str, Any]


@dataclass
class Outcome:
    fingerprint: str
    values: dict[str, Any]


@dataclass(frozen=True)
class Workload:
    """One seeded workload.

    Ops come in rounds of one op per slot (entry of ``shapes``), and a run
    always ends on a round boundary, so every run does the same mix of work.
    ``pool_rate`` sizes the input pool (ops per timed second, several times
    today's throughput, so a faster program does not run out of inputs);
    ``trace_rate`` sizes the traced run at roughly today's throughput.  ``tail_percentile`` is fixed per workload so that
    runs of different length report the same statistic; at the default run
    length it leaves at least ten ops beyond it.
    """

    name: str
    tag: int
    shapes: tuple[tuple, ...]
    pool_rate: float
    trace_rate: float
    tail_percentile: float
    repeat_base: bool
    make_base: Callable[[tuple, RandomSource], Any]
    make_inputs: Callable[[Any, RandomSource, dict], dict[str, Any]]
    run: Callable[[Op], Any]
    summarize: Callable[[Op, Any], Outcome]
    check: Callable[[Op, Outcome, Any], list[str]]

    def _whole_rounds(self, ops: float) -> int:
        return max(1, math.ceil(ops / len(self.shapes))) * len(self.shapes)

    def pool_size(self, seconds: float) -> int:
        return self._whole_rounds(self.pool_rate * seconds)

    def trace_size(self, seconds: float) -> int:
        return self._whole_rounds(self.trace_rate * seconds)

    def generate(self, seed: int, count: int) -> list[Op]:
        """The first ``count`` ops of the seed's pool (a prefix of any longer pool).

        Op i starts from a base input drawn once from ``BASE_SEED``: the same
        one for slot k in every round when ``repeat_base``, else one of its
        own.  The seed draws a fresh random rotation of it, plus the op's
        other random inputs.  So every run does the same sequence of work,
        while every op sees new coordinates.  The costs of these pipelines
        are heavy-tailed over random inputs (one MVEE in thirty at n = 5,
        m = 8 takes 170x the median's iterations), so with inputs drawn from
        the seed one op could fill most of a run.  Every pipeline here is
        rotation-equivariant, so a rotation does not change the work.
        DESIGN.md has the measurements.
        """
        base = RandomSource(BASE_SEED).fork(self.tag)
        root = RandomSource(seed).fork(self.tag)
        bases: dict = {}
        shared: dict = {}
        ops = []
        for i in range(count):
            shape = self.shapes[i % len(self.shapes)]
            key = i % len(self.shapes) if self.repeat_base else i
            if key not in bases:
                bases[key] = self.make_base(shape, base.fork(key))
            ops.append(Op(i, shape, self.make_inputs(bases[key], root.fork(i), shared)))
        return ops


def _random_body(shape, src: RandomSource):
    n, m = shape
    return shadowgeom.random_symmetric_polytope(n, m, src)


def fingerprint(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        arr = np.ascontiguousarray(np.asarray(a, dtype=float))
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _input_arrays(value) -> tuple:
    if isinstance(value, shadowgeom.SymmetricHPolytope):
        return value.directions, value.offsets
    if isinstance(value, (shadowgeom.SlabFamilySpec, shadowgeom.WeightedDirections)):
        return value.directions, value.weights
    if isinstance(value, RandomSource):
        return (np.frombuffer(value.seed.to_bytes(8, "little"), dtype=np.uint8),)
    return (value,)


def inputs_digest(ops: list[Op]) -> str:
    """One hash over every generated input, so two runs can show they ran the same ops."""
    h = hashlib.sha256()
    for op in ops:
        h.update(repr((op.index, op.shape)).encode())
        for key in sorted(op.inputs):
            h.update(key.encode())
            h.update(fingerprint(*_input_arrays(op.inputs[key])).encode())
    return h.hexdigest()


# -- position: the shadow-position pipeline ------------------------------------


def _position_inputs(base, src: RandomSource, _shared: dict) -> dict:
    rotation = random_orthogonal(base.dim, src.fork(1).generator())
    return {"body": base.affine_image(rotation), "rng": src.fork(2)}


def _position_run(op: Op):
    return shadowgeom.shadow_position(op.inputs["body"], rng=op.inputs["rng"])


def _position_summarize(_op: Op, rep) -> Outcome:
    res = rep.residuals
    values = {
        "ok": rep.ok,
        "ratio": rep.ratio,
        "john_frobenius": res["john_frobenius"],
        "john_trace_gap": res["john_trace_gap"],
        "diagnostics": rep.diagnostics,
    }
    fp = fingerprint(rep.transform, rep.min_direction, [rep.min_shadow, rep.volume, rep.ratio],
                     rep.john.contacts, rep.john.weights, list(res.values()))
    return Outcome(fp, values)


def _position_check(op: Op, out: Outcome, _oracles) -> list[str]:
    v = out.values
    misses = []
    if not v["ok"]:
        misses.append(f"report not ok: {v['diagnostics']}")
    if not v["ratio"] >= 1.0 - 1e-4:
        misses.append(f"ratio {v['ratio']!r} < 1 - 1e-4")
    if not v["john_frobenius"] <= 1e-6:
        misses.append(f"John Frobenius residual {v['john_frobenius']!r} > 1e-6")
    if not abs(v["john_trace_gap"]) <= 1e-8:
        misses.append(f"John trace gap {v['john_trace_gap']!r} > 1e-8")
    return misses


POSITION = Workload(
    name="position",
    tag=0x9051,
    shapes=tuple((n, m) for n in (4, 5, 6) for m in range(n + 3, 15)),
    pool_rate=8.0,
    trace_rate=0.5,
    tail_percentile=75.0,
    repeat_base=True,  # identical rounds: a heavy op is in every round or in none
    make_base=_random_body,
    make_inputs=_position_inputs,
    run=_position_run,
    summarize=_position_summarize,
    check=_position_check,
)


# -- family: volume maximisation over slab families ----------------------------


def _family_base(shape, src: RandomSource):
    n, weighting = shape
    m = 2 * n
    for attempt in range(16):
        u = sample_unit_sphere(n, src.fork(16 + attempt), count=m)
        if np.linalg.matrix_rank(u, tol=1e-10) == n:
            break
    else:
        raise ValueError(f"failed to sample {m} spanning directions in dimension {n}")
    if weighting == "uniform":
        weights = np.full(m, 1.0 / m)  # the construct_pathological family
    else:
        raw = src.fork(1).generator().uniform(0.5, 2.0, size=m)  # as minkowski-solve draws them
        weights = raw / raw.sum()
    # the multistart source is part of the base: the starts set the solve's cost
    return shadowgeom.SlabFamilySpec(u, weights), src.fork(2)


def _family_inputs(base, src: RandomSource, _shared: dict) -> dict:
    spec, starts = base
    rotation = random_orthogonal(spec.dim, src.fork(1).generator())
    return {
        "spec": shadowgeom.SlabFamilySpec(spec.directions @ rotation.T, spec.weights),
        "rng": starts,
        "identity_rng": src.fork(3),
    }


def _family_run(op: Op):
    spec = op.inputs["spec"]
    details = shadowgeom.maximize_volume_details(spec, tol=FAMILY_TOL, rng=op.inputs["rng"])
    kkt = shadowgeom.kkt_report(details.body, spec)
    identity = shadowgeom.verify_projection_identity(
        details.body, spec, sample_count=IDENTITY_SAMPLES, rng=op.inputs["identity_rng"]
    )
    return details, kkt, identity


def _family_summarize(_op: Op, raw) -> Outcome:
    details, kkt, identity = raw
    values = {
        "converged": details.converged,
        "kkt": kkt.max_relative_residual,
        "identity": identity.max_relative_error,
        "agreement": details.volume_agreement,
    }
    fp = fingerprint(details.offsets, [details.volume, details.gradient_norm, details.iterations],
                     details.start_volumes, details.start_offsets, kkt.relative_residuals,
                     [kkt.multiplier, identity.max_relative_error], identity.worst_direction)
    return Outcome(fp, values)


def _family_check(op: Op, out: Outcome, _oracles) -> list[str]:
    v = out.values
    misses = []
    if not v["converged"]:
        misses.append("solver did not converge")
    if not v["kkt"] <= 1e-3:
        misses.append(f"KKT residual {v['kkt']!r} > 1e-3")
    if not v["identity"] <= 1e-3:
        misses.append(f"projection identity error {v['identity']!r} > 1e-3")
    if not v["agreement"] <= 10.0 * FAMILY_TOL:
        misses.append(f"multistart volume agreement {v['agreement']!r} > {10.0 * FAMILY_TOL:g}")
    return misses


FAMILY = Workload(
    name="family",
    tag=0xFA31,
    # n = 4 twice as often as n = 3, so the median op lies inside the n = 4
    # cluster rather than in the gap between n = 3 (0.2 s) and n = 4 (0.8 s)
    shapes=((3, "uniform"), (3, "random"), (4, "uniform"), (4, "random"), (4, "uniform"), (4, "random")) * 2,
    pool_rate=8.0,
    trace_rate=0.4,
    tail_percentile=70.0,  # a slow run completes three rounds, 36 ops
    repeat_base=True,
    make_base=_family_base,
    make_inputs=_family_inputs,
    run=_family_run,
    summarize=_family_summarize,
    check=_family_check,
)


# -- measure: one-shot exact measures of fresh bodies ---------------------------


def _measure_inputs(base, src: RandomSource, shared: dict) -> dict:
    n = base.dim
    # one direction batch per dimension, drawn by the first op of that
    # dimension, keeps the pool small; bodies and decompositions are per op
    if n not in shared:
        shared[n] = sample_unit_sphere(n, src.fork(3), count=SHADOW_DIRECTIONS)
    rotation = random_orthogonal(n, src.fork(1).generator())
    return {
        "body": base.affine_image(rotation),
        "thetas": shared[n],
        "decomposition": random_weighted_directions(n, src.fork(2), bases=2),
    }


def _measure_run(op: Op):
    body = op.inputs["body"]
    volume = body.volume
    shadows = body.shadow_areas(op.inputs["thetas"])
    product = shadowgeom.verify_product_inequality(body, op.inputs["decomposition"])
    formula = shadowgeom.volume_formula_check(shadowgeom.projection_body(body))
    return volume, shadows, product, formula


def _measure_summarize(op: Op, raw) -> Outcome:
    volume, shadows, product, formula = raw
    body = op.inputs["body"]
    values = {
        "directions": body.directions,
        "offsets": body.offsets,
        "thetas_head": op.inputs["thetas"][:ORACLE_SHADOWS].copy(),
        "volume": volume,
        "shadows_head": shadows[:ORACLE_SHADOWS].copy(),
        "product_ratio": product.ratio,
        "formula_gap": formula.relative_gap,
    }
    fp = fingerprint([volume], shadows, [product.lhs, product.rhs, product.ratio],
                     [formula.determinant_volume, formula.shadow_identity_volume, formula.relative_gap])
    return Outcome(fp, values)


def _measure_check(op: Op, out: Outcome, oracles) -> list[str]:
    v = out.values
    misses = []
    if not v["product_ratio"] >= 1.0 - 1e-9:
        misses.append(f"product ratio {v['product_ratio']!r} < 1 - 1e-9")
    if not v["formula_gap"] <= 1e-9:
        misses.append(f"double-entry volume gap {v['formula_gap']!r} > 1e-9")
    if op.shape[0] <= ORACLE_MAX_DIM:
        verts = oracles.intersection_vertices(v["directions"], v["offsets"])
        exact = oracles.hull_volume(verts)
        if not abs(v["volume"] - exact) <= 1e-9 * exact:
            misses.append(f"volume {v['volume']!r} differs from the hull oracle {exact!r}")
        for theta, got in zip(v["thetas_head"], v["shadows_head"]):
            ref = oracles.shadow_area_oracle(verts, theta)
            if not abs(got - ref) <= 1e-9 * ref:
                misses.append(f"shadow {got!r} differs from the hull oracle {ref!r}")
    return misses


MEASURE = Workload(
    name="measure",
    tag=0x3EA5,
    shapes=tuple((n, m) for n in (3, 4, 5, 6) for m in range(n + 2, min(16, 2 * n + 4) + 1)),
    pool_rate=40.0,
    trace_rate=3.0,
    tail_percentile=95.0,
    repeat_base=False,  # no body geometry recurs in a run, so a cache across ops finds nothing
    make_base=_random_body,
    make_inputs=_measure_inputs,
    run=_measure_run,
    summarize=_measure_summarize,
    check=_measure_check,
)

WORKLOADS = {w.name: w for w in (POSITION, FAMILY, MEASURE)}
