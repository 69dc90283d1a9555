"""Spans around the library's layer entry points, recorded from outside the library.

``Tracer.install()`` replaces each entry point listed in ``ENTRY_POINTS`` with
a wrapper that records a span (name, start, end, parent, op id) and calls the
original.  A function is replaced under every module that bound it with
``from .x import ...``, and the two cached properties of
``SymmetricHPolytope`` are replaced by cached properties around a wrapped
getter, so a span there is one cache miss.  ``uninstall()`` restores every
attribute it replaced.

Counts that need the returned value (vertices kept, MVEE iterations, the
combinatorial type of a facet build, ...) are taken after the span closes,
inside a ``trace.bookkeeping`` span, so that work is subtracted from the
enclosing layer's self time instead of being charged to it.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property, wraps

import numpy as np

import shadowgeom
from shadowgeom import ellipsoid, family, kernel, polytope, shadow, zonotope

MODULES = (shadowgeom, kernel, polytope, zonotope, ellipsoid, shadow, family)

BOOKKEEPING = "trace.bookkeeping"
OP = "op"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    op: int
    error: bool = False


class Tracer:
    """In-memory span and count collector for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self.types_seen: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self._op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, error: bool = False) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()

    def run_op(self, index: int, fn, *args):
        """Run one op under a root span; facet types are compared within an op only."""
        self._op = index
        self.types_seen = set()
        idx = self.open(OP)
        try:
            return fn(*args)
        finally:
            self.close(idx)
            self._op = -1

    def _wrap(self, name: str, fn, hook=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, error=True)
                raise
            self.close(idx)
            if hook is not None:
                book = self.open(BOOKKEEPING)
                try:
                    hook(self, args, out)
                finally:
                    self.close(book)
            return out

        return traced

    # -- patching ------------------------------------------------------------

    def _replace(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        cls = polytope.SymmetricHPolytope
        for attr, name, hook in CACHED_PROPERTIES:
            prop = cls.__dict__[attr]
            traced = cached_property(self._wrap(name, prop.func, hook))
            traced.__set_name__(cls, attr)
            self._replace(cls, attr, traced)
        for attr, name in METHODS:
            self._replace(cls, attr, self._wrap(name, cls.__dict__[attr]))
        for home, attr, name, hook in ENTRY_POINTS:
            original = home.__dict__[attr]
            traced = self._wrap(name, original, hook)
            for module in MODULES:
                if module.__dict__.get(attr) is original:
                    self._replace(module, attr, traced)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# -- hooks: counts taken from inputs and returned values ---------------------------


def _vertices_hook(tracer: Tracer, args, out) -> None:
    body = args[0]
    m, n = body.num_slabs, body.dim
    tracer.counts["polytope.vertices.candidates"] += math.comb(m, n) * 2 ** (n - 1)
    # the candidates fix the first sign, so they can find one vertex of each antipodal pair
    tracer.counts["polytope.vertices.kept"] += len(out) // 2


def _facets_hook(tracer: Tracer, args, out) -> None:
    body = args[0]
    tracer.counts["polytope.facets.builds"] += 1
    verts = body.vertices.points  # cached by the build that just finished
    dots = verts @ body.directions.T
    tol = polytope.FEASIBILITY_TOL
    incidence = np.concatenate([np.abs(dots - body.offsets) <= tol, np.abs(dots + body.offsets) <= tol], axis=1)
    key = (
        body.directions.shape,
        tuple(sorted(f.owners for f in out)),
        tuple(sorted(map(bytes, np.packbits(incidence, axis=1)))),
    )
    if key in tracer.types_seen:
        tracer.counts["polytope.facets.type_repeats"] += 1
    tracer.types_seen.add(key)


def _volume_hook(tracer: Tracer, args, out) -> None:
    m, n = args[0].shape
    if m >= n and n > 1:
        tracer.counts["zonotope.volume.subset_dets"] += math.comb(m, n)


def _mvee_hook(tracer: Tracer, args, out) -> None:
    tracer.counts["ellipsoid.mvee.iterations"] += out.iterations
    tracer.counts["ellipsoid.mvee.points"] += len(out.points)
    # the support extract_john_decomposition keeps
    tracer.counts["ellipsoid.mvee.support"] += int(np.sum(out.weights > max(out.eps, 1e-9)))


def _polar_hook(tracer: Tracer, args, out) -> None:
    tracer.counts["shadow.polar_vertices.points"] += len(out)


def _position_hook(tracer: Tracer, args, out) -> None:
    tracer.counts["shadow.shadow_position.reports"] += 1
    tracer.counts["shadow.min_support.exact"] += out.branch == "exact"


def _maximize_hook(tracer: Tracer, args, out) -> None:
    tracer.counts["family.maximize.iterations"] += out.iterations


CACHED_PROPERTIES = (
    ("vertices", "polytope.vertices", _vertices_hook),
    ("facets", "polytope.facets", _facets_hook),
)
METHODS = (("shadow_areas", "polytope.shadow_areas"),)
ENTRY_POINTS = (
    (zonotope, "_volume_of_generators", "zonotope.volume", _volume_hook),
    (zonotope, "projection_body", "zonotope.projection_body", None),
    (ellipsoid, "mvee_symmetric", "ellipsoid.mvee", _mvee_hook),
    (ellipsoid, "extract_john_decomposition", "ellipsoid.john", None),
    (shadow, "polar_vertices", "shadow.polar_vertices", _polar_hook),
    (shadow, "shadow_position", "shadow.shadow_position", _position_hook),
    (shadow, "verify_product_inequality", "shadow.verify_product", None),
    (family, "maximize_volume_details", "family.maximize", _maximize_hook),
    (family, "kkt_report", "family.certificates", None),
    (family, "verify_projection_identity", "family.certificates", None),
    (kernel, "jacobi_eigh", "kernel.jacobi_eigh", None),
    (kernel, "dedup_rows", "kernel.dedup_rows", None),
)
SPAN_NAMES = tuple(dict.fromkeys(
    [name for _, name, _ in CACHED_PROPERTIES] + [name for _, name in METHODS] + [e[2] for e in ENTRY_POINTS]
))

# -- per-layer metrics -------------------------------------------------------------

#: (metric, unit) in print order; ``layer_metrics`` fills every one of them.
LAYER_METRICS = (
    ("polytope.vertices.calls", "count"),
    ("polytope.vertices.self_s", "s"),
    ("polytope.vertices.candidates", "count"),
    ("polytope.vertices.kept_share", "ratio"),
    ("polytope.facets.calls", "count"),
    ("polytope.facets.self_s", "s"),
    ("polytope.facets.type_repeat_share", "ratio"),
    ("polytope.shadow_areas.self_s", "s"),
    ("zonotope.volume.calls", "count"),
    ("zonotope.volume.self_s", "s"),
    ("zonotope.volume.subset_dets", "count"),
    ("zonotope.projection_body.self_s", "s"),
    ("ellipsoid.mvee.calls", "count"),
    ("ellipsoid.mvee.self_s", "s"),
    ("ellipsoid.mvee.iterations", "count"),
    ("ellipsoid.mvee.points", "count"),
    ("ellipsoid.mvee.support_share", "ratio"),
    ("ellipsoid.john.self_s", "s"),
    ("shadow.polar_vertices.self_s", "s"),
    ("shadow.polar_vertices.points", "count"),
    ("shadow.shadow_position.self_s", "s"),
    ("shadow.min_support.exact_share", "ratio"),
    ("shadow.verify_product.self_s", "s"),
    ("family.maximize.calls", "count"),
    ("family.maximize.self_s", "s"),
    ("family.volume_evals_per_solve", "count"),
    ("family.iterations", "count"),
    ("family.certificates.self_s", "s"),
    ("kernel.jacobi_eigh.calls", "count"),
    ("kernel.jacobi_eigh.self_s", "s"),
    ("kernel.dedup_rows.calls", "count"),
    ("kernel.dedup_rows.self_s", "s"),
) + tuple((f"{name}.errors", "count") for name in SPAN_NAMES) + (
    ("trace.overhead_ratio", "ratio"),
)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, float]:
    """Every metric in ``LAYER_METRICS``, totalled over the traced pass."""
    spans = tracer.spans
    own = self_times(spans)
    calls: Counter = Counter()
    errors: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    for s, t in zip(spans, own):
        calls[s.name] += 1
        errors[s.name] += s.error
        self_s[s.name] += t
    evals_in_solves = 0
    for s in spans:
        if s.name == "polytope.facets":
            p = s.parent
            while p >= 0 and spans[p].name != "family.maximize":
                p = spans[p].parent
            evals_in_solves += p >= 0
    c = tracer.counts
    out = {
        "polytope.vertices.calls": calls["polytope.vertices"],
        "polytope.vertices.self_s": self_s["polytope.vertices"],
        "polytope.vertices.candidates": c["polytope.vertices.candidates"],
        "polytope.vertices.kept_share": _ratio(c["polytope.vertices.kept"], c["polytope.vertices.candidates"]),
        "polytope.facets.calls": calls["polytope.facets"],
        "polytope.facets.self_s": self_s["polytope.facets"],
        "polytope.facets.type_repeat_share": _ratio(c["polytope.facets.type_repeats"], c["polytope.facets.builds"]),
        "polytope.shadow_areas.self_s": self_s["polytope.shadow_areas"],
        "zonotope.volume.calls": calls["zonotope.volume"],
        "zonotope.volume.self_s": self_s["zonotope.volume"],
        "zonotope.volume.subset_dets": c["zonotope.volume.subset_dets"],
        "zonotope.projection_body.self_s": self_s["zonotope.projection_body"],
        "ellipsoid.mvee.calls": calls["ellipsoid.mvee"],
        "ellipsoid.mvee.self_s": self_s["ellipsoid.mvee"],
        "ellipsoid.mvee.iterations": c["ellipsoid.mvee.iterations"],
        "ellipsoid.mvee.points": c["ellipsoid.mvee.points"],
        "ellipsoid.mvee.support_share": _ratio(c["ellipsoid.mvee.support"], c["ellipsoid.mvee.points"]),
        "ellipsoid.john.self_s": self_s["ellipsoid.john"],
        "shadow.polar_vertices.self_s": self_s["shadow.polar_vertices"],
        "shadow.polar_vertices.points": c["shadow.polar_vertices.points"],
        "shadow.shadow_position.self_s": self_s["shadow.shadow_position"],
        "shadow.min_support.exact_share": _ratio(c["shadow.min_support.exact"], c["shadow.shadow_position.reports"]),
        "shadow.verify_product.self_s": self_s["shadow.verify_product"],
        "family.maximize.calls": calls["family.maximize"],
        "family.maximize.self_s": self_s["family.maximize"],
        "family.volume_evals_per_solve": _ratio(evals_in_solves, calls["family.maximize"]),
        "family.iterations": _ratio(c["family.maximize.iterations"], calls["family.maximize"]),
        "family.certificates.self_s": self_s["family.certificates"],
        "kernel.jacobi_eigh.calls": calls["kernel.jacobi_eigh"],
        "kernel.jacobi_eigh.self_s": self_s["kernel.jacobi_eigh"],
        "kernel.dedup_rows.calls": calls["kernel.dedup_rows"],
        "kernel.dedup_rows.self_s": self_s["kernel.dedup_rows"],
        "trace.overhead_ratio": overhead_ratio,
    }
    for name in SPAN_NAMES:
        out[f"{name}.errors"] = errors[name]
    return out


def self_time_shares(tracer: Tracer) -> dict[str, float]:
    """Share of all op time spent in each span name's self time (including ``op`` glue)."""
    own = self_times(tracer.spans)
    total = sum(own)
    shares: defaultdict = defaultdict(float)
    for s, t in zip(tracer.spans, own):
        shares[s.name] += t / total if total else 0.0
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
