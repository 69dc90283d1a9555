"""Origin-symmetric polytopes given as slab intersections.

A body is the set ``{x : |<x, u_i>| <= t_i, i = 1..m}`` for unit directions
``u_i`` and positive offsets ``t_i``.  All derived data (vertices, facets,
volume, shadows) is computed by explicit brute-force geometry:

* vertices by inverting every invertible ``n``-subset of the slab normals
  once and filtering its 2^(n-1) sign patterns by feasibility in two passes,
  the first four slabs for every pattern and the other slabs for the
  survivors;
* the face lattice from the vertex-hyperplane incidence, each face named by
  the bitmask of the hyperplanes tight on all its vertices and found as an
  inclusion-minimal closure at the vertices of the face one level up, down
  to the 2-faces; a facet's owners are the hyperplanes of its code;
* 2-face areas by angular sort and the shoelace formula, then facet
  measures by Lasserre's pyramid recursion unrolled over the lattice, one
  dimension level at a time over whole arrays: a face's measure is the sum
  over its own facets of (in-face height from its vertex centroid) x
  (facet measure) / (face dimension), kept in one record of arrays;
* volume as ``sum(offset * facet measure) / n`` over the facet fan;
* shadow area in direction theta as ``0.5 * sum |<theta, n_F>| * |F|``.

The feasibility, merge and sign tolerances and the negligible-facet floor
are given at unit scale and scaled with the body (see ``_scale``).  The
enumeration cost is combinatorial, so the one guard of the kernel, which
zonotopes share, rejects ``m > 24`` slabs or dimension ``n > 7``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernel import RandomSource, _read_unit_rows, canonical_signs, check_capacity, check_slab_directions, dedup_rows
from .kernel import sample_unit_sphere, sign_patterns, subset_blocks, unit_ball_volume

__all__ = [
    "FacetData",
    "Facets",
    "SymmetricHPolytope",
    "VertexSet",
    "cauchy_surface_check",
    "random_symmetric_polytope",
]

FEASIBILITY_TOL = 1e-9
VERTEX_MERGE_TOL = 1e-8
MEASURE_FLOOR = 1e-12
_DET_TOL = 1e-12
#: slabs that every (subset, sign pattern) candidate of `vertices` is tested against before its
#: coordinates are formed; on random bodies about 10 % of the candidates pass them
_FIRST_PASS_SLABS = 4


@dataclass(frozen=True)
class VertexSet:
    """Vertices of a symmetric polytope, closed under negation, in canonical order."""

    points: np.ndarray

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class FacetData:
    """One row of :class:`Facets`: outward unit normal, offset, (n-1)-measure, vertex indices.

    ``owners`` lists by slab the (slab index, sign) pairs whose constraint
    hyperplane supports this facet; several only where slabs coincide.
    """

    normal: np.ndarray
    offset: float
    measure: float
    vertex_indices: tuple[int, ...]
    owners: tuple[tuple[int, int], ...]


@dataclass(frozen=True, eq=False)
class Facets(Sequence):
    """The facets as arrays, one row per facet; indexing builds a :class:`FacetData`.

    Rows come in pairs F, -F, F on the positive side of its first owning slab,
    the pairs ordered by that slab.  ``signs`` (facets x m, int8) is +-1 where
    that side of a slab supports the facet, else 0; ``incidence`` (facets x vertices) its vertices.
    """

    normals: np.ndarray
    offsets: np.ndarray
    measures: np.ndarray
    signs: np.ndarray
    incidence: np.ndarray

    def __len__(self) -> int:
        return len(self.measures)

    def __getitem__(self, index: int) -> FacetData:
        i = range(len(self))[operator.index(index)]  # negative indices and IndexError as for a tuple
        owners = tuple((int(j), int(self.signs[i, j])) for j in np.flatnonzero(self.signs[i]))
        vertex_indices = tuple(np.flatnonzero(self.incidence[i]).tolist())
        return FacetData(self.normals[i], float(self.offsets[i]), float(self.measures[i]), vertex_indices, owners)


def _set_bits(codes: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, bit) index pairs of the set bits among the low `width` bits of each code."""
    return np.nonzero((codes[:, None] >> np.arange(width, dtype=np.int64)) & 1)


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the entries that differ from their predecessor (the first always does)."""
    starts = np.ones(len(values), dtype=bool)
    starts[1:] = values[1:] != values[:-1]
    return starts


def _argmax_per_group(groups: np.ndarray, score: np.ndarray) -> np.ndarray:
    """Index of the first highest-scoring entry in each run of equal, sorted `groups`."""
    starts = _run_starts(groups)
    top = np.maximum.reduceat(score, np.flatnonzero(starts))
    hit = np.flatnonzero(score == top[np.cumsum(starts) - 1])
    return hit[_run_starts(groups[hit])]


@dataclass(frozen=True)
class _Level:
    """The faces of one codimension k, each named by its closure code.

    A closure code is the bitmask of every signed hyperplane tight on all of
    the face's vertices.  Faces come in antipodal pairs F, -F of equal
    measure, and only the member with the smaller code is kept.
    ``face``/``vertex`` list its vertex incidences, sorted by face.
    ``parent``/``child``/``sign`` list the pairs in which ``sign * child``
    is a facet of the face ``parent`` of codimension k - 1, sorted by child.
    """

    codes: np.ndarray
    face: np.ndarray
    vertex: np.ndarray
    parent: np.ndarray
    child: np.ndarray
    sign: np.ndarray


def _mirror(codes: np.ndarray, half: int) -> np.ndarray:
    """Codes of the antipodal faces: hyperplane j+ and j- trade places."""
    return ((codes & ((1 << half) - 1)) << half) | (codes >> half)


def _canonical(codes: np.ndarray, half: int) -> tuple[np.ndarray, np.ndarray]:
    """The smaller code of each antipodal pair, and whether that is the mirror."""
    mirrored = _mirror(codes, half)
    flip = mirrored < codes
    return np.where(flip, mirrored, codes), flip


def _facets_of(level: _Level, tcode: np.ndarray, tight_at: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, ...]:
    """The facets of every face of `level`, as (parent, closure code, face, vertex).

    At a vertex w of a face F every hyperplane h tight at w but not on all of
    F cuts out the face of F whose vertices are those of F tight on h; its
    closure code is the AND of their incidence codes.  The facets of F are
    the inclusion-minimal closures among these.  ``face``/``vertex`` list
    the vertex incidences of the facets, ``face`` indexing the result rows.
    `tight_at` lists the hyperplanes tight at each vertex, as (offsets, flat
    list) with the list of vertex v from offsets[v] to offsets[v + 1].
    """
    offsets, listed = tight_at
    count = np.diff(offsets)[level.vertex]
    before = np.cumsum(count) - count
    h = listed[np.arange(count.sum()) + np.repeat(offsets[level.vertex] - before, count)]
    f, w = np.repeat(level.face, count), np.repeat(level.vertex, count)
    cutting = ((level.codes[f] >> h) & 1) == 0
    key = f[cutting] * 64 + h[cutting]  # h < 64: codes are int64
    order = np.argsort(key)
    f, w, key = f[cutting][order], w[cutting][order], key[order]
    starts = _run_starts(key)
    cut = np.cumsum(starts) - 1  # the (face, hyperplane) group of each incidence
    start = np.flatnonzero(starts)
    parent, closed = f[start], np.bitwise_and.reduceat(tcode[w], start)
    # one group per distinct (parent, closure): hyperplanes that cut out the same face
    order = np.lexsort((closed, parent))
    first = order[_run_starts(parent[order]) | _run_starts(closed[order])]
    parent, closed = parent[first], closed[first]
    # compare every candidate with every other candidate of the same parent
    group_start = np.flatnonzero(_run_starts(parent))
    size = np.diff(np.append(group_start, len(parent)))
    group_size = np.repeat(size, size)
    a = np.repeat(np.arange(len(parent)), group_size)
    offset = np.arange(len(a)) - np.repeat(np.cumsum(group_size) - group_size, group_size)
    b = np.repeat(np.repeat(group_start, size), group_size) + offset
    dominated = ((closed[b] & closed[a]) == closed[b]) & (closed[b] != closed[a])
    keep = np.bincount(a, weights=dominated, minlength=len(parent)) == 0
    row_of = np.full(len(start), -1)
    row_of[first[keep]] = np.arange(np.count_nonzero(keep))
    member = row_of[cut] >= 0
    return parent[keep], closed[keep], row_of[cut[member]], w[member]


def _face_lattice(tight: np.ndarray, depth: int, neg_index: np.ndarray) -> list[_Level]:
    """The faces of codimension 0..depth of a symmetric polytope.

    `tight` is the (vertices x 2m) boolean vertex-hyperplane incidence,
    columns j and j + m holding the two sides of slab j, and `neg_index`
    maps each vertex to its antipode.  Entry k of the result holds the
    faces of codimension k, from the body itself (k = 0) down: the facets
    of the faces of entry k - 1 (:func:`_facets_of`).  Closures need no rank
    test, so vertices on more than n hyperplanes (the octahedron, coinciding
    or touching slabs) take the same path as simple ones.
    """
    num_v, width = tight.shape
    tcode = tight.astype(np.int64) @ np.left_shift(np.int64(1), np.arange(width, dtype=np.int64))
    tight_at = np.append(0, np.cumsum(tight.sum(axis=1))), np.nonzero(tight)[1]
    none = np.zeros(0, dtype=np.intp)
    levels = [_Level(np.zeros(1, dtype=np.int64), np.zeros(num_v, dtype=np.intp), np.arange(num_v), none, none, none)]
    for _ in range(depth):
        parent, found, row, vertex = _facets_of(levels[-1], tcode, tight_at)
        found, flip = _canonical(found, width // 2)
        codes, first, child = np.unique(found, return_index=True, return_inverse=True)
        # each face's vertices from one of its finds, mirrored if that find was -F
        use = first[child[row]] == row
        face = child[row[use]]
        vertex = np.where(flip[row[use]], neg_index[vertex[use]], vertex[use])
        by_face = np.argsort(face, kind="stable")
        by_child = np.argsort(child, kind="stable")
        sign = np.where(flip[by_child], -1, 1)
        levels.append(_Level(codes, face[by_face], vertex[by_face], parent[by_child], child[by_child], sign))
    return levels


def _centroids(points: np.ndarray, level: _Level) -> np.ndarray:
    """The centroid of the vertices of each face of `level`."""
    nf, n = len(level.codes), points.shape[1]
    slots = (level.face[:, None] * n + np.arange(n)).ravel()
    sums = np.bincount(slots, weights=points[level.vertex].ravel(), minlength=nf * n).reshape(nf, n)
    return sums / np.bincount(level.face, minlength=nf)[:, None]


def _flat_measures(points: np.ndarray, centroids: np.ndarray, level: _Level, dim: int) -> np.ndarray:
    """Measures of the faces of `level`, of dimension `dim` <= 2, read off their vertices.

    Points measure 1.  Segments and polygons are charted by the offset of
    their farthest vertex from the centroid and the farthest residual from
    that; segments measure their extent and polygons their area, by angular
    sort about the centroid and the shoelace formula.
    """
    num_f = len(level.codes)
    if dim == 0:
        return np.ones(num_f)
    starts = np.flatnonzero(_run_starts(level.face))
    d = points[level.vertex] - centroids[level.face]
    coords = []
    for _ in range(dim):
        length = np.linalg.norm(d, axis=1)
        far = _argmax_per_group(level.face, length)
        axis = d[far] / np.maximum(length[far], 1e-300)[:, None]
        x = np.einsum("ri,ri->r", d, axis[level.face])
        d = d - x[:, None] * axis[level.face]
        coords.append(x)
    if dim == 1:
        return np.maximum.reduceat(x, starts) - np.minimum.reduceat(x, starts)
    x, y = coords
    order = np.lexsort((np.arctan2(y, x), level.face))
    x, y = x[order], y[order]
    succ = np.arange(1, len(order) + 1)
    succ[np.append(starts[1:], len(order)) - 1] = starts
    return 0.5 * np.abs(np.bincount(level.face, weights=x * y[succ] - y * x[succ], minlength=num_f))


def _face_measures(points: np.ndarray, normals: np.ndarray, levels: list[_Level]) -> list[np.ndarray]:
    """Measures of the faces of ``levels[1:]``, one array per level in code order.

    The faces of the last level, of dimension at most 2, are measured from
    their vertices (:func:`_flat_measures`).  Above them Lasserre's pyramid
    identity |F| = sum_G h(c_F, G) |G| / dim F over the facets G of F, with
    c_F the centroid of F's vertices, runs one level at a time up to the
    facets.  The in-face height of G is the component of c_G - c_F along the
    unit in-face normal of G, the residual of a cutting hyperplane's normal
    against an orthonormal basis of F's normal space (shared by F and -F).
    """
    n = points.shape[1]
    half = len(normals) // 2
    centroids = [np.zeros((1, n))] + [_centroids(points, lv) for lv in levels[1:]]  # the body's is the origin
    facet_rows, facet_bits = _set_bits(levels[1].codes, len(normals))
    basis = normals[facet_bits[_run_starts(facet_rows)]][:, :, None]
    heights = {}
    for k in range(2, len(levels)):
        lv, above = levels[k], levels[k - 1]
        delta = lv.sign[:, None] * centroids[k][lv.child] - centroids[k - 1][lv.parent]
        child_codes = np.where(lv.sign < 0, _mirror(lv.codes[lv.child], half), lv.codes[lv.child])
        rows, cut = _set_bits(child_codes & ~above.codes[lv.parent], len(normals))
        q = basis[lv.parent[rows]]
        a = normals[cut]
        for _ in range(2):  # Gram-Schmidt, twice for orthogonality to working precision
            a = a - np.einsum("rij,rj->ri", q, np.einsum("rij,ri->rj", q, a))
        norm = np.linalg.norm(a, axis=1)
        best = _argmax_per_group(rows, norm)  # the best-conditioned cutting hyperplane
        a, norm = a[best], norm[best]
        if len(best) != len(lv.child) or np.any(norm <= 1e-12):
            raise ValueError("degenerate face lattice: a facet pair has no cutting hyperplane")
        unit = a / norm[:, None]
        heights[k] = np.abs(np.einsum("ri,ri->r", unit, delta))
        pick = _argmax_per_group(lv.child, norm)
        basis = np.concatenate([basis[lv.parent[pick]], unit[pick][:, :, None]], axis=2)
    measures = [_flat_measures(points, centroids[-1], levels[-1], n + 1 - len(levels))]
    for k in range(len(levels) - 1, 1, -1):
        lv = levels[k]
        above = np.bincount(lv.parent, weights=heights[k] * measures[0][lv.child], minlength=len(levels[k - 1].codes))
        measures.insert(0, above / (n - k + 1))
    return measures


def _volume_hessian(plane: np.ndarray, ridges: _Level, ridge_measures: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """d^2(volume)/dt_i dt_j from the ridges, the faces of codimension 2.

    Moving slab j out by dt moves each ridge R = F_i & F_j that a facet F_i
    of slab i shares with a facet of slab j by dt / sin(theta) within F_i,
    and moving F_i itself moves each of its ridges by -dt cot(theta), theta
    the angle between the two outward normals.  So d|F_i|/dt_j sums
    |R| / sin(theta) over those ridges and d|F_i|/dt_i sums -|R| cot(theta)
    over all ridges of F_i (Klain, "The Minkowski problem for polytopes",
    Adv. Math. 2004; Schneider, *Convex Bodies*).  The volume gradient is
    twice the one-sided facet measure per slab, and R and -R are alike, so
    every ridge of `ridges` (one of each antipodal pair) counts twice.  A
    facet is charged to `plane`, its hyperplane on its first owning slab.
    """
    m = len(normals) // 2
    if np.any(np.bincount(ridges.child, minlength=len(ridges.codes)) != 2):
        raise ValueError("degenerate face lattice: a ridge does not lie on exactly two facets")
    # entries are sorted by ridge, two per ridge: the facets sign * parent that hold it
    pair = plane[ridges.parent].reshape(-1, 2)
    sign = ridges.sign.reshape(-1, 2)
    cos = sign[:, 0] * sign[:, 1] * np.einsum("ri,ri->r", normals[pair[:, 0]], normals[pair[:, 1]])
    sin = np.sqrt(np.maximum(1.0 - cos * cos, 0.0))
    a, b = (pair % m).T
    across = 2.0 * ridge_measures / sin
    along = -across * cos
    hess = np.zeros((m, m))
    rows, cols = np.concatenate([a, b, a, b]), np.concatenate([b, a, a, b])
    np.add.at(hess, (rows, cols), np.concatenate([across, across, along, along]))
    return hess


class SymmetricHPolytope:
    """Intersection of symmetric slabs ``|<x, u_i>| <= t_i``.

    Directions must be unit vectors (within 1e-12) spanning R^n — otherwise
    the body would be unbounded and construction is rejected.  Offsets must
    be finite and strictly positive.  Instances are immutable; vertices and
    facets are computed on first use and cached.
    """

    def __init__(self, directions: np.ndarray, offsets: np.ndarray):
        u = np.array(directions, dtype=float)
        t = np.array(offsets, dtype=float)
        if u.ndim != 2:
            raise ValueError("directions must be a 2-d array (m, n)")
        m, n = u.shape
        if n < 1:
            raise ValueError("dimension must be at least 1")
        if t.shape != (m,):
            raise ValueError("offsets must have one entry per direction")
        if m < n:
            raise ValueError(f"need at least n={n} slabs to bound the body, got {m}")
        check_slab_directions(u)
        if not np.all((t > 0.0) & np.isfinite(t)):
            raise ValueError("offsets must be finite and strictly positive")
        u.setflags(write=False)
        t.setflags(write=False)
        self._directions = u
        self._offsets = t
        self._hessian: np.ndarray | None = None  # kept only by a build of facets that volume_hessian asked for
        self._keep_hessian = False

    # -- basic accessors -------------------------------------------------

    @property
    def directions(self) -> np.ndarray:
        return self._directions

    @property
    def offsets(self) -> np.ndarray:
        return self._offsets

    @property
    def dim(self) -> int:
        return self._directions.shape[1]

    @property
    def num_slabs(self) -> int:
        return self._directions.shape[0]

    def __repr__(self) -> str:
        return f"SymmetricHPolytope(n={self.dim}, m={self.num_slabs})"

    @cached_property
    def _scale(self) -> float:
        """The largest offset rounded down to a power of two.

        The vertex and facet tolerances are multiplied by it (the measure
        floor by its (n-1)-th power), so that they scale with the body; a
        power of two scales them without rounding, and bodies whose largest
        offset lies in [1, 2) keep the unscaled tolerances.
        """
        _, exponent = math.frexp(float(self._offsets.max()))
        return math.ldexp(1.0, exponent - 1)

    # -- membership / support --------------------------------------------

    def contains(self, points: np.ndarray, tol: float = FEASIBILITY_TOL) -> np.ndarray:
        """Boolean mask: which of the given points satisfy every slab constraint."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.all(np.abs(pts @ self._directions.T) <= self._offsets + tol, axis=1)

    def support(self, theta: np.ndarray) -> float:
        """Support function ``max_{x in P} <x, theta>`` (via the vertex set)."""
        return float(np.max(self.vertices.points @ np.asarray(theta, dtype=float)))

    # -- vertex enumeration ----------------------------------------------

    @cached_property
    def vertices(self) -> VertexSet:
        """All vertices, by brute force over invertible n-subsets of the slab normals.

        Each subset S is inverted once, as ``X_S = U_S^-1 diag(t_S)`` (the
        inverse of its rows divided by their offsets), so that the candidate
        of a sign pattern p (first sign fixed positive) is ``X_S p``.  Every
        (subset, pattern) pair is tested against the first
        ``_FIRST_PASS_SLABS`` slabs at once; only the survivors' coordinates
        are formed and tested against the other slabs.  Both passes use the
        bound ``t + FEASIBILITY_TOL * scale`` on every slab, the subset's own
        included, so the kept set is the one a single test over all slabs
        would keep.  Mirrored solutions are added afterwards, so the set is
        exactly closed under negation.
        """
        u, t, s = self._directions, self._offsets, self._scale
        m, n = u.shape
        check_capacity(m, n, "slab enumeration")
        patterns = sign_patterns(n)  # (P, n)
        bound = t + FEASIBILITY_TOL * s
        first = min(m, _FIRST_PASS_SLABS)
        u_first, bound_first = u[:first], bound[:first, None, None]
        rest, bound_rest = u[first:].T, bound[first:]
        scaled = u / t[:, None]  # rows u_i / t_i: the inverse of a subset of them is U_S^-1 diag(t_S)
        found: list[np.ndarray] = []
        for block in subset_blocks(m, n):
            keep = np.abs(np.linalg.det(u[block])) > _DET_TOL
            x = np.linalg.inv(scaled[block[keep]])  # (B, n, n): the candidates are x @ p
            dots = (u_first @ x).transpose(1, 0, 2) @ patterns.T  # (first, B, P)
            ok = (np.abs(dots, out=dots) <= bound_first).all(axis=0)
            sub, pat = ok.nonzero()
            cand = np.einsum("rij,rj->ri", x[sub], patterns[pat])
            found.append(cand[(np.abs(cand @ rest) <= bound_rest).all(axis=1)])
        raw = np.concatenate(found)
        if len(raw) == 0:
            raise ValueError("no vertices found; body is numerically degenerate")
        # canonicalise sign so each antipodal pair is represented once
        canon = dedup_rows(raw * canonical_signs(raw, 1e-9 * s)[:, None], VERTEX_MERGE_TOL * s)
        both = np.concatenate([canon, -canon])
        order = np.lexsort(both.T[::-1])
        pts = both[order]
        pts.setflags(write=False)
        # negation pairing is exact by construction: row i <-> row i +/- len(canon)
        inv = np.empty_like(order)
        inv[order] = np.arange(len(order))
        self._negation_index = inv[(order + len(canon)) % len(order)]
        return VertexSet(pts)

    # -- facet fan ---------------------------------------------------------

    @cached_property
    def facets(self) -> Facets:
        """Geometric facets with their (n-1)-measures, as one record of arrays.

        The face lattice is read off the vertex-hyperplane incidence down to
        the 2-faces, which are measured from their vertices, and the measures
        are carried up one dimension level at a time over whole arrays (see
        :func:`_face_lattice` and :func:`_face_measures`).  Facets below 1e-12
        at unit scale are omitted.  A facet's owners are the hyperplanes of its
        closure code, and its vertices those tight on its first owner.
        """
        verts = self.vertices.points
        u, t, s = self._directions, self._offsets, self._scale
        m, n = u.shape
        dots = verts @ u.T
        tight = np.hstack([np.abs(dots - t) <= FEASIBILITY_TOL * s, np.abs(dots + t) <= FEASIBILITY_TOL * s])
        normals = np.vstack([u, -u])
        # the ridges are a level of the lattice from n = 4 on; below, one level more
        levels = _face_lattice(tight, max(n - 2, 2 if self._keep_hessian else 1), self._negation_index)
        level_measures = _face_measures(verts, normals, levels[: max(n - 1, 2)])
        # each facet's owners by slab; bit b of a code is slab b mod m, on its positive side if b < m
        rows, bits = _set_bits(levels[1].codes, 2 * m)
        by_slab = np.lexsort((bits, bits % m, rows))
        rows, bits = rows[by_slab], bits[by_slab]
        plane = bits[_run_starts(rows)]  # the first owner, as a signed hyperplane
        if self._keep_hessian:
            ridges = levels[2]
            ridge_measures = level_measures[1] if n >= 4 else _flat_measures(verts, _centroids(verts, ridges), ridges, max(n - 2, 0))
            self._hessian = _volume_hessian(plane, ridges, ridge_measures, normals)
        code_signs = np.zeros((len(plane), m), dtype=np.int8)
        code_signs[rows, bits % m] = np.where((bits < m) == (plane[rows] < m), 1, -1)
        # two rows per facet above the floor, by first slab: the facet on its positive side, then the mirror
        kept = np.flatnonzero(level_measures[0] >= MEASURE_FLOOR * s ** (n - 1))
        kept = kept[np.argsort(plane[kept] % m)]
        first, side = np.repeat(plane[kept] % m, 2), np.tile(np.array([1, -1], dtype=np.int8), len(kept))
        measures, signs = np.repeat(level_measures[0][kept], 2), side[:, None] * np.repeat(code_signs[kept], 2, axis=0)
        record = Facets(side[:, None] * u[first], t[first], measures, signs, tight.T[first + m * (side < 0)])
        for field in vars(record).values():
            field.setflags(write=False)
        return record

    # -- measures ----------------------------------------------------------

    @cached_property
    def volume(self) -> float:
        """Lebesgue volume via the cone decomposition over the facet fan."""
        return float(self.facets.offsets @ self.facets.measures) / self.dim

    @cached_property
    def volume_hessian(self) -> np.ndarray:
        """The (m, m) Hessian of the volume in the offsets, read off the ridge measures.

        The build of :attr:`facets` that this asks for measures the ridges
        too (see :func:`_volume_hessian`); a body that never asks for it
        keeps no ridge data.  If the facets were built already, they are
        built again.  Where the combinatorial type changes, or slabs
        coincide, the volume is not twice differentiable, and this is the
        Hessian of the current type.
        """
        if self._hessian is None:
            self.__dict__.pop("facets", None)
            self._keep_hessian = True
            self.facets
        hess = self._hessian
        hess.setflags(write=False)
        return hess

    @cached_property
    def surface_area(self) -> float:
        return float(self.facets.measures.sum())

    def shadow_area(self, theta: np.ndarray) -> float:
        """(n-1)-volume of the orthogonal projection onto the hyperplane theta^perp."""
        th = np.asarray(theta, dtype=float)
        if th.shape != (self.dim,):
            raise ValueError("direction has wrong shape")
        if abs(float(np.linalg.norm(th)) - 1.0) > 1e-9:
            raise ValueError("projection direction must be a unit vector")
        return float(self.shadow_areas(th[None, :])[0])

    def shadow_areas(self, thetas: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`shadow_area` over rows of unit directions."""
        th = np.atleast_2d(np.asarray(thetas, dtype=float))
        if th.ndim != 2 or th.shape[1] != self.dim:
            raise ValueError("directions have wrong shape")
        if np.any(np.abs(np.linalg.norm(th, axis=1) - 1.0) > 1e-9):
            raise ValueError("projection directions must be unit vectors")
        return 0.5 * (np.abs(th @ self.facets.normals.T) @ self.facets.measures)

    # -- transforms ---------------------------------------------------------

    def affine_image(self, matrix: np.ndarray) -> "SymmetricHPolytope":
        """The body ``A P`` for an invertible matrix A.

        Slab normals map by the inverse transpose and are re-normalised;
        offsets are rescaled accordingly.  A is refused as singular when its
        smallest singular value is at most 1e-12 times its largest, a test
        that does not depend on the scale of A.
        """
        a = np.asarray(matrix, dtype=float)
        if a.shape != (self.dim, self.dim):
            raise ValueError("transform has wrong shape")
        if not np.all(np.isfinite(a)):
            raise ValueError("transform must be finite")
        sv = np.linalg.svd(a, compute_uv=False)
        if not sv[-1] > 1e-12 * sv[0]:
            raise ValueError("transform is numerically singular")
        w = np.linalg.solve(a.T, self._directions.T).T  # rows A^{-T} u_i
        norms = np.linalg.norm(w, axis=1)
        return SymmetricHPolytope(w / norms[:, None], self._offsets / norms)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n": self.dim,
            "directions": self._directions.tolist(),
            "offsets": self._offsets.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SymmetricHPolytope":
        """Read ``{"n", "directions", "offsets"}``; rows within 1e-6 of unit length are normalised."""
        return cls(*_read_unit_rows(data, "body", "offsets"))


def random_symmetric_polytope(
    n: int,
    m: int,
    rng: RandomSource,
    offset_range: tuple[float, float] = (0.5, 1.5),
) -> SymmetricHPolytope:
    """Random spanning slab body: uniform sphere directions, uniform offsets."""
    if m < n:
        raise ValueError("need m >= n slabs")
    lo, hi = offset_range
    for attempt in range(16):
        src = rng.fork(attempt) if attempt else rng
        gen = src.generator()
        u = gen.standard_normal((m, n))
        u /= np.linalg.norm(u, axis=1)[:, None]
        t = gen.uniform(lo, hi, size=m)
        if np.linalg.matrix_rank(u, tol=1e-10) == n:
            return SymmetricHPolytope(u, t)
    raise ValueError("failed to draw spanning directions")


@dataclass(frozen=True)
class CauchySurfaceCheck:
    surface_area: float
    estimate: float
    relative_error: float
    constant: float
    samples: int


def cauchy_surface_check(body: SymmetricHPolytope, rng: RandomSource, samples: int = 100_000) -> CauchySurfaceCheck:
    """Monte Carlo cross-check of the surface area against averaged shadows.

    The mean shadow area over uniform directions, scaled by
    ``n * v_n / v_{n-1}``, reproduces the surface area.  Returns the measured
    relative error; no assertion is made here.
    """
    n = body.dim
    if samples < 1:
        raise ValueError("need at least one sample")
    thetas = sample_unit_sphere(n, rng, count=samples)
    mean_shadow = float(np.mean(body.shadow_areas(thetas)))
    constant = n * unit_ball_volume(n) / unit_ball_volume(n - 1) if n > 1 else 2.0
    estimate = constant * mean_shadow
    exact = body.surface_area
    return CauchySurfaceCheck(exact, estimate, abs(estimate - exact) / exact, constant, samples)
