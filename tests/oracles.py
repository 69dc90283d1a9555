"""Independent brute-force oracles for cross-checking library results.

Everything here avoids the library's own computational paths: vertex sets
come from direct constraint intersection, volumes and shadow areas from
scipy's convex hull, facet areas in R^3 also in exact rational arithmetic
(``fractions``), zonotope shadows also from projected generators in a
chart, gradients and Jacobians from central differences,
support minima from plain sphere sampling or the exhaustive sign-pattern
search with its own subgradient refinement, and
minimal ellipsoids from the Wolfe-Atwood design loop.  Keep hull-based
oracles at dimension 6 or below — qhull becomes unreliable past that at
these point counts.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.spatial import ConvexHull, QhullError


def hull_volume(points: np.ndarray) -> float:
    """Volume of the convex hull of a point cloud (d >= 2)."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[1] == 1:
        return float(pts.max() - pts.min())
    return float(ConvexHull(pts).volume)


def hull_surface_area(points: np.ndarray) -> float:
    """Surface area ((d-1)-measure of the boundary) of the hull."""
    return float(ConvexHull(np.asarray(points, dtype=float)).area)


def intersection_vertices(directions: np.ndarray, offsets: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Vertices of ``{x : |<u_i, x>| <= t_i}`` by brute-force subsystem solves.

    Every n-subset of rows with every sign pattern is solved; solutions
    feasible for all constraints are kept and deduplicated.
    """
    u = np.asarray(directions, dtype=float)
    t = np.asarray(offsets, dtype=float)
    m, n = u.shape
    found: list[np.ndarray] = []
    for rows in itertools.combinations(range(m), n):
        sub = u[list(rows)]
        if abs(np.linalg.det(sub)) <= 1e-12:
            continue
        for signs in itertools.product((-1.0, 1.0), repeat=n):
            rhs = np.array(signs) * t[list(rows)]
            x = np.linalg.solve(sub, rhs)
            if np.all(np.abs(u @ x) <= t + tol):
                found.append(x)
    pts = np.array(found)
    # dedup within tolerance
    keep: list[np.ndarray] = []
    for p in pts:
        if not any(np.linalg.norm(p - q) <= 1e-8 for q in keep):
            keep.append(p)
    return np.array(keep)


def body_volume_oracle(directions: np.ndarray, offsets: np.ndarray) -> float:
    """Full-dimensional volume via intersection vertices + qhull."""
    return hull_volume(intersection_vertices(directions, offsets))


def complement_chart(theta: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the hyperplane orthogonal to theta."""
    v = np.asarray(theta, dtype=float)
    v = v / np.linalg.norm(v)
    _, _, vt = np.linalg.svd(v[None, :])
    return vt[1:].T


def facet_measure_oracle(directions: np.ndarray, offsets: np.ndarray, k: int, tol: float = 1e-9) -> float:
    """(n-1)-measure of the facet of ``{x : |<u_i, x>| <= t_i}`` on the hyperplane ``<u_k, x> = t_k``.

    In an orthonormal chart Q of that hyperplane (:func:`complement_chart`)
    the facet is ``{y : |<Q^T u_i, y> + t_k <u_i, u_k>| <= t_i, i != k}``.
    Its vertices come from solving every (n-1)-subset of those slabs with
    every sign pattern, kept when they satisfy all constraints within `tol`,
    and its measure from qhull (0 for fewer than n affinely independent
    vertices).  The body's own vertex set is never formed.
    """
    u = np.asarray(directions, dtype=float)
    t = np.asarray(offsets, dtype=float)
    m, n = u.shape
    others = np.delete(np.arange(m), k)
    a = u[others] @ complement_chart(u[k])  # (m - 1, n - 1)
    shift = t[k] * (u[others] @ u[k])
    lo, hi = -t[others] - shift, t[others] - shift
    if n == 1:
        return float(np.all(lo <= tol) and np.all(hi >= -tol))
    subsets = np.array(list(itertools.combinations(range(m - 1), n - 1)), dtype=np.intp).reshape(-1, n - 1)
    subsets = subsets[np.abs(np.linalg.det(a[subsets])) > 1e-12]
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n - 1)))
    if len(subsets) == 0:
        return 0.0
    inv = np.linalg.inv(a[subsets])
    # bound s_i on row i is hi_i for s_i = +1 and lo_i for s_i = -1
    rhs = np.where(signs[None] > 0, hi[subsets][:, None], lo[subsets][:, None])  # (subsets, patterns, n - 1)
    pts = np.einsum("sij,spj->spi", inv, rhs).reshape(-1, n - 1)
    vals = pts @ a.T
    pts = pts[np.all((vals <= hi + tol) & (vals >= lo - tol), axis=1)]
    if n == 2:
        return float(pts.max() - pts.min()) if len(pts) else 0.0
    try:
        return hull_volume(pts) if len(pts) >= n else 0.0
    except QhullError:  # a facet of lower dimension: measure 0
        return 0.0


def exact_facet_areas(directions: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each slab's one-sided facet area of ``{x : |<u_i, x>| <= t_i}`` in R^3, from the float input taken as exact rationals.

    The vertices of the facet on ``<u_k, x> = t_k`` solve that plane and two
    other slab hyperplanes by Cramer's rule in ``fractions.Fraction`` and are
    kept when every constraint holds exactly.  They are ordered around their
    centroid by exact half-plane and cross-product tests in the coordinate
    plane where u_k has its largest entry c, and the shoelace area A there is
    exact; the facet area is ``A |u_k| / |u_k[c]|``, whose square is rational,
    so the one rounding is that of the final square root.  No step depends on
    a tolerance, so the areas are those of the rounded input however close
    to parallel two slabs are.
    """
    u = [[Fraction(float(x)) for x in row] for row in np.asarray(directions, dtype=float)]
    t = [Fraction(float(x)) for x in np.asarray(offsets, dtype=float)]
    m = len(u)
    if any(len(row) != 3 for row in u):
        raise ValueError("exact facet areas are for bodies in R^3")

    def det3(a, b, c):
        return a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0]) + a[2] * (b[0] * c[1] - b[1] * c[0])

    def solve(rows, rhs):
        d = det3(*rows)
        if d == 0:
            return None
        # det A = det A^T, so the columns of A, with column i replaced by the right side, give x_i
        cols = list(zip(*rows))
        return tuple(det3(*[rhs if j == i else cols[j] for j in range(3)]) / d for i in range(3))

    areas = np.zeros(m)
    for k in range(m):
        points = set()
        for i, j in itertools.combinations([r for r in range(m) if r != k], 2):
            for si, sj in itertools.product((1, -1), repeat=2):
                x = solve([u[k], u[i], u[j]], [t[k], si * t[i], sj * t[j]])
                if x is not None and all(abs(sum(a * b for a, b in zip(row, x))) <= tr for row, tr in zip(u, t)):
                    points.add(x)
        if len(points) < 3:
            continue
        c = max(range(3), key=lambda idx: abs(u[k][idx]))
        keep = [idx for idx in range(3) if idx != c]
        flat = [(p[keep[0]], p[keep[1]]) for p in points]
        cx, cy = sum(p[0] for p in flat) / len(flat), sum(p[1] for p in flat) / len(flat)
        rel = [(x - cx, y - cy) for x, y in flat]

        def before(a, b):
            upper_a, upper_b = a[1] > 0 or (a[1] == 0 and a[0] > 0), b[1] > 0 or (b[1] == 0 and b[0] > 0)
            if upper_a != upper_b:
                return -1 if upper_a else 1
            cross = a[0] * b[1] - a[1] * b[0]
            return -1 if cross > 0 else (1 if cross < 0 else 0)

        ring = sorted(rel, key=functools.cmp_to_key(before))
        area = abs(sum(a[0] * b[1] - a[1] * b[0] for a, b in zip(ring, ring[1:] + ring[:1]))) / 2
        areas[k] = math.sqrt(area * area * sum(x * x for x in u[k]) / (u[k][c] * u[k][c]))
    return areas


def shadow_area_oracle(vertices: np.ndarray, theta: np.ndarray) -> float:
    """(n-1)-volume of the projection of a vertex cloud onto theta's hyperplane."""
    chart = complement_chart(theta)
    projected = np.asarray(vertices, dtype=float) @ chart
    if projected.shape[1] == 1:
        return float(projected.max() - projected.min())
    return hull_volume(projected)


def cofactor_oracle(rows: np.ndarray) -> np.ndarray:
    """The cofactor vector of every (n-1)-subset of the rows, in ``itertools.combinations`` order, from LU determinants.

    Row S holds ``(-1)^k det(W_S without column k)``, each minor factorised
    by ``np.linalg.det``: the reference for the Laplace recursion of
    ``kernel.cofactor_table``.
    """
    w = np.asarray(rows, dtype=float)
    m, n = w.shape
    subsets = list(itertools.combinations(range(m), n - 1))
    mats = w[np.array(subsets, dtype=np.intp).reshape(len(subsets), n - 1)]
    return np.stack([(-1.0) ** k * np.linalg.det(mats[:, :, np.arange(n) != k]) for k in range(n)], axis=1)


def lex_ranks(subsets: np.ndarray, m: int) -> list[list[int]]:
    """Per k-subset row of ``range(m)``, the rank of each subset without its i-th element among ``itertools.combinations(range(m), k - 1)``, by lookup."""
    lex = {c: r for r, c in enumerate(itertools.combinations(range(m), np.shape(subsets)[1] - 1))}
    return [[lex[s[:i] + s[i + 1 :]] for i in range(len(s))] for s in map(tuple, np.asarray(subsets).tolist())]


def zonotope_shadow_chart(generators: np.ndarray, theta: np.ndarray) -> float:
    """Shadow of a zonotope by the chart recursion: the volume of its projection in a chart of theta-perp.

    The generators are expressed in an orthonormal basis of the hyperplane
    (:func:`complement_chart`, from an SVD), and the projected zonotope's
    (n-1)-volume is ``2^(n-1) sum |det|`` over its (n-1)-subsets.  The
    reference for ``Zonotope.shadow_areas``, which sums cofactors of the
    unprojected generators instead; the two agree by Cauchy-Binet.
    """
    g = np.asarray(generators, dtype=float) @ complement_chart(theta)
    m, k = g.shape
    if k == 0:
        return 1.0  # the projection of a segment in R^1 is a point
    if m < k:
        return 0.0
    subsets = np.array(list(itertools.combinations(range(m), k)), dtype=np.intp)
    return 2.0**k * float(np.sum(np.abs(np.linalg.det(g[subsets]))))


def zonotope_vertex_cloud(generators: np.ndarray) -> np.ndarray:
    """All sign combinations of the generators (2^m points, m <= 14)."""
    g = np.asarray(generators, dtype=float)
    m = len(g)
    if m > 14:
        raise ValueError("vertex cloud oracle capped at 14 generators")
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=m)))
    return signs @ g


def zonotope_volume_oracle(generators: np.ndarray) -> float:
    """Zonotope volume via the hull of its sign-pattern point cloud."""
    return hull_volume(zonotope_vertex_cloud(generators))


def canonical_sign_reference(vector: np.ndarray, tol: float = 1e-12) -> float:
    """Sign (+1.0 / -1.0) that makes the first coordinate above `tol` in magnitude positive.

    The per-row loop reference for ``kernel.canonical_signs``; +1.0 when no
    coordinate is above `tol`.
    """
    for x in np.asarray(vector, dtype=float):
        if abs(x) > tol:
            return 1.0 if x > 0 else -1.0
    return 1.0


def dedup_rows_reference(points: np.ndarray, tol: float) -> np.ndarray:
    """Row merging by a plain row-by-row scan.

    The quadratic reference for ``kernel.dedup_rows``: a row is dropped when
    it lies within `tol` of an earlier kept row.  Every row is compared with
    every kept row, with no hashing or rounding, so the result holds at any
    magnitude.
    """
    pts = np.asarray(points, dtype=float)
    kept = np.empty_like(pts)
    count = 0
    for row in pts:
        if count and float(np.min(np.sum((kept[:count] - row) ** 2, axis=1))) <= tol * tol:
            continue
        kept[count] = row
        count += 1
    return kept[:count].copy()


def mvee_reference(points: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """Wolfe-Atwood MVEE of the symmetric set ``{+/- v_k}``, rebuilding M every step.

    The reference for ``ellipsoid.mvee_symmetric``, by another algorithm:
    Frank-Wolfe toward the point of largest ``g_k = v_k^T M^{-1} v_k`` or
    away from the support point of smallest, with ``M = sum lam_k v_k v_k^T``,
    its inverse and every ``g_k`` recomputed from scratch at each iteration.
    `points` must already be one canonical representative per antipodal
    pair.  Returns the shape of the ellipsoid ``{x : x^T shape x <= 1}``.
    """
    v = np.asarray(points, dtype=float)
    m, n = v.shape
    lam = np.full(m, 1.0 / m)
    outer = v[:, :, None] * v[:, None, :]
    while True:
        mat = np.tensordot(lam, outer, axes=1)
        g = np.einsum("ij,jk,ik->i", v, np.linalg.inv(mat), v)
        sup = lam > 0.0
        k_max = float(np.max(g))
        k_min = float(np.min(g[sup]))
        if k_max <= n * (1.0 + eps) and k_min >= n * (1.0 - eps):
            break
        if k_max - n >= n - k_min:
            j = int(np.argmax(g))
            beta = (k_max - n) / (n * (k_max - 1.0))
        else:
            j = int(np.argmin(np.where(sup, g, np.inf)))
            drop = -lam[j] / (1.0 - lam[j])
            beta = drop if k_min <= 1.0 + 1e-12 else max((k_min - n) / (n * (k_min - 1.0)), drop)
        lam *= 1.0 - beta
        lam[j] += beta
        lam = np.maximum(lam, 0.0)
        lam /= lam.sum()
    shape = np.linalg.inv(n * mat)
    return 0.5 * (shape + shape.T)


def kappa_range(points: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    """``(min over the support, max over all)`` of ``g_k = v_k^T M^{-1} v_k`` for a design.

    Recomputed from the weights alone: ``M = sum w_k v_k v_k^T`` with the
    weights renormalised, and the minimum taken over positive weights.
    """
    v = np.asarray(points, dtype=float)
    lam = np.asarray(weights, dtype=float) / float(np.sum(weights))
    mat = sum(l * np.outer(p, p) for l, p in zip(lam, v))
    g = np.array([p @ np.linalg.solve(mat, p) for p in v])
    return float(np.min(g[lam > 0.0])), float(np.max(g))


def monte_carlo_volume(
    directions: np.ndarray,
    offsets: np.ndarray,
    gen: np.random.Generator,
    samples: int = 200_000,
) -> tuple[float, float]:
    """(estimate, standard error) of the body volume by box sampling."""
    verts = intersection_vertices(directions, offsets)
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    box = float(np.prod(hi - lo))
    pts = gen.uniform(lo, hi, size=(samples, len(lo)))
    inside = np.all(np.abs(pts @ np.asarray(directions, dtype=float).T) <= offsets + 1e-12, axis=1)
    p = float(np.mean(inside))
    err = box * math.sqrt(max(p * (1.0 - p), 1e-12) / samples)
    return box * p, err


def fd_gradient(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        step = np.zeros_like(x)
        step[i] = h
        g[i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return g


def fd_jacobian(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference Jacobian of a vector function, column j = df/dx_j."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(len(x)):
        step = np.zeros_like(x)
        step[j] = h
        cols.append((np.asarray(f(x + step)) - np.asarray(f(x - step))) / (2.0 * h))
    return np.stack(cols, axis=1)


def _refine_support_minima(gens: np.ndarray, starts: np.ndarray, steps: int = 60) -> np.ndarray:
    """Projected subgradient descent for ``theta -> sum_j |<theta, w_j>|`` on the sphere.

    All starts evolve together through batched array ops; each start follows
    the same iterates it would follow alone (descent step 0.5 * value / |gradient|
    with up to 40 halvings, stopping at the first failed line search or a
    vanishing tangent), so the result per row is independent of the batch.
    """
    thetas = starts / np.linalg.norm(starts, axis=1)[:, None]
    values = np.sum(np.abs(thetas @ gens.T), axis=1)
    active = np.ones(len(thetas), dtype=bool)
    for _ in range(steps):
        if not np.any(active):
            break
        th = thetas[active]
        grads = np.sign(th @ gens.T) @ gens
        tangents = grads - np.sum(grads * th, axis=1)[:, None] * th
        tnorms = np.linalg.norm(tangents, axis=1)
        vals = values[active]
        moving = tnorms > 1e-14 * np.maximum(1.0, vals)
        idx = np.flatnonzero(active)
        active[idx[~moving]] = False
        idx = idx[moving]
        if idx.size == 0:
            break
        dirs = tangents[moving] / tnorms[moving][:, None]
        steps_now = 0.5 * vals[moving] / tnorms[moving]
        pending = np.ones(idx.size, dtype=bool)
        for _ in range(40):
            rows = np.flatnonzero(pending)
            if rows.size == 0:
                break
            cand = thetas[idx[rows]] - steps_now[rows][:, None] * dirs[rows]
            cand /= np.linalg.norm(cand, axis=1)[:, None]
            cvals = np.sum(np.abs(cand @ gens.T), axis=1)
            vref = values[idx[rows]]
            better = cvals < vref - 1e-15 * vref
            take = rows[better]
            thetas[idx[take]] = cand[better]
            values[idx[take]] = cvals[better]
            pending[take] = False
            steps_now[rows[~better]] *= 0.5
        # starts whose line search never improved are finished
        active[idx[pending]] = False
    return thetas


#: sign patterns are enumerated 2^PATTERN_BITS at a time
PATTERN_BITS = 16


def _sign_table(count: int, k: int) -> np.ndarray:
    """Row c holds the signs ``1 - 2 * bit_j(c)`` for j < k, for each c < count."""
    return 1.0 - 2.0 * ((np.arange(count)[:, None] >> np.arange(k)) & 1)


def support_minimum_reference(generators: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, float]:
    """Exhaustive minimum of ``theta -> sum_j |<theta, w_j>|`` on the unit sphere.

    Three candidate families, the smallest value winning: every
    self-consistent sign-pattern direction (``sum_j s_j w_j`` normalised,
    whose inner products with the generators have the pattern's signs), the
    unit normal of every full-rank (n-1)-subset of generators (from its SVD,
    not a cofactor expansion), and the given `starts` descended by
    projected-subgradient refinement.  Returns ``(direction, value)``.  The
    2^(m-1) sign patterns (s_0 = +1) are taken as one fixed table over the
    next ``PATTERN_BITS`` generators, combined with each pattern of the
    rest in turn, and the subsets in blocks of the same size, so memory
    stays bounded up to m = 24; needs n >= 2.
    """
    g = np.asarray(generators, dtype=float)
    m, n = g.shape
    low = min(m - 1, PATTERN_BITS)
    table = np.hstack([np.ones((1 << low, 1)), _sign_table(1 << low, low)])
    base = table @ g[: low + 1]
    candidates = []
    for rest in _sign_table(1 << (m - 1 - low), m - 1 - low):
        dirs = base + rest @ g[low + 1 :]
        inner = dirs @ g.T
        norms = np.linalg.norm(dirs, axis=1)
        # every <dir, w_j> has the sign s_j or vanishes, relative to |dir|
        tol = -1e-12 * norms[:, None]
        consistent = (
            (norms > 1e-12)
            & np.all(inner[:, : low + 1] * table >= tol, axis=1)
            & np.all(inner[:, low + 1 :] * rest >= tol, axis=1)
        )
        candidates.append(dirs[consistent] / norms[consistent][:, None])
    candidates.append(_refine_support_minima(g, np.asarray(starts, dtype=float)))
    combos = itertools.combinations(range(m), n - 1)
    while subsets := list(itertools.islice(combos, 1 << PATTERN_BITS)):
        _, sv, vt = np.linalg.svd(g[np.array(subsets, dtype=np.intp)])
        candidates.append(vt[sv[:, -1] > 1e-10 * sv[:, 0], -1, :])
    cand = np.vstack(candidates)
    values = np.sum(np.abs(cand @ g.T), axis=1)
    best = int(np.argmin(values))
    return cand[best], float(values[best])


def support_minimum_sampled(generators: np.ndarray, gen: np.random.Generator, samples: int = 200_000) -> float:
    """Plain sampled minimum of the zonotope support function on the sphere."""
    g = np.asarray(generators, dtype=float)
    n = g.shape[1]
    thetas = gen.standard_normal((samples, n))
    thetas /= np.linalg.norm(thetas, axis=1)[:, None]
    return float(np.min(np.sum(np.abs(thetas @ g.T), axis=1)))
