"""Independent brute-force oracles for cross-checking library results.

Everything here avoids the library's own computational paths: vertex sets
come from direct constraint intersection, volumes and shadow areas from
scipy's convex hull, gradients and Jacobians from central differences,
support minima from plain sphere sampling or the exhaustive sign-pattern
search (which reuses only the library's subgradient refinement), and
minimal ellipsoids from the Wolfe-Atwood design loop.  Keep hull-based
oracles at dimension 6 or below — qhull becomes unreliable past that at
these point counts.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.spatial import ConvexHull


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


def shadow_area_oracle(vertices: np.ndarray, theta: np.ndarray) -> float:
    """(n-1)-volume of the projection of a vertex cloud onto theta's hyperplane."""
    chart = complement_chart(theta)
    projected = np.asarray(vertices, dtype=float) @ chart
    if projected.shape[1] == 1:
        return float(projected.max() - projected.min())
    return hull_volume(projected)


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


def support_minimum_reference(generators: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, float]:
    """Exhaustive minimum of ``theta -> sum_j |<theta, w_j>|`` on the unit sphere.

    Three candidate families, the smallest value winning: every
    self-consistent sign-pattern direction (``sum_j s_j w_j`` normalised,
    whose inner products with the generators have the pattern's signs), the
    unit normal of every full-rank (n-1)-subset of generators (from its SVD,
    not a cofactor expansion), and the given `starts` descended by the
    library's projected-subgradient refinement.  Returns
    ``(direction, value)``; 2^(m-1) patterns, so keep m <= 20 and n >= 2.
    """
    from shadowgeom.shadow import _refine_support_minima

    g = np.asarray(generators, dtype=float)
    m, n = g.shape
    patterns = np.array(list(itertools.product([1.0, -1.0], repeat=m - 1)))
    patterns = np.hstack([np.ones((len(patterns), 1)), patterns])
    dirs = patterns @ g
    norms = np.linalg.norm(dirs, axis=1)
    ok = norms > 1e-12
    dirs = dirs[ok] / norms[ok][:, None]
    inner = dirs @ g.T
    consistent = np.all((np.abs(inner) <= 1e-12) | (np.sign(inner) == patterns[ok]), axis=1)
    candidates = [dirs[consistent], _refine_support_minima(g, np.asarray(starts, dtype=float))]
    subsets = np.array(list(itertools.combinations(range(m), n - 1)), dtype=np.intp).reshape(-1, n - 1)
    if len(subsets):
        _, sv, vt = np.linalg.svd(g[subsets])
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
