"""Minimum-volume enclosing ellipsoids of symmetric point sets.

The MVEE of a symmetric set is origin-centered, so the problem is the
D-optimal design: maximize ``log det M`` with ``M = sum_k lambda_k v_k v_k^T``
over the probability simplex.  It is solved by an active-set Newton method
(Sun and Freund 2004; Todd 2016, ch. 3).  On a small active set S the
gradient is ``g_k = v_k^T M^{-1} v_k`` and the Hessian ``-(V_S M^{-1}
V_S^T)**2`` entrywise, so a Newton step under ``sum lambda = 1`` is one
small linear solve; ``log det`` is self-concordant, so damping the step by
``1/(1 + delta)`` (delta the Newton decrement) needs no line search.  The
solve starts from n points spanning R^n (the Kumar-Yildirim core set) and,
whenever the Newton solve on S has converged, reads g over every point and
brings the worst violators into S by Frank-Wolfe steps.  The iterate doubles
as an optimality certificate over all points.  The ellipsoid is
``{x : x^T (n M)^{-1} x <= 1}``.

From an optimal design the contact-point decomposition is extracted: after
mapping by ``(n M)^{-1/2}`` the support points become unit vectors ``u_i``
with weights ``c_i`` satisfying ``sum c_i u_i (x) u_i = I`` and
``sum c_i = n`` — recomputed from the support-only design so the identities
hold to machine precision rather than to the solver tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import CapacityError, WeightedDirections, canonical_signs, dedup_rows, jacobi_eigh, unit_ball_volume

__all__ = [
    "Ellipsoid",
    "JohnResidualReport",
    "MveeResult",
    "extract_john_decomposition",
    "john_residual",
    "mvee_symmetric",
]

#: Cap on Newton steps.
MAX_MVEE_ITERATIONS = 1_000_000
DEFAULT_EPS = 1e-8
#: A Newton step with a decrement below this, and no weight reaching 0, ends
#: the solve on the active set: by quadratic convergence the next decrement
#: would be below its square, so the weights are exact to rounding.
_NEWTON_DONE = 1e-6


@dataclass(frozen=True)
class Ellipsoid:
    """Origin-centered ellipsoid ``{x : x^T H x <= 1}`` with H symmetric PD."""

    shape: np.ndarray

    def __post_init__(self):
        h = np.array(self.shape, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("shape matrix must be square")
        if not np.allclose(h, h.T, atol=1e-10 * max(1.0, float(np.abs(h).max()))):
            raise ValueError("shape matrix must be symmetric")
        try:
            np.linalg.cholesky(h)
        except np.linalg.LinAlgError as exc:
            raise ValueError("shape matrix must be positive definite") from exc
        h = 0.5 * (h + h.T)
        h.setflags(write=False)
        object.__setattr__(self, "shape", h)

    @property
    def dim(self) -> int:
        return self.shape.shape[0]

    @property
    def volume(self) -> float:
        sign, logdet = np.linalg.slogdet(self.shape)
        if sign <= 0:
            raise ValueError("shape matrix is not positive definite")
        return unit_ball_volume(self.dim) * float(np.exp(-0.5 * logdet))

    def contains(self, points: np.ndarray, tol: float = 0.0) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.einsum("ij,jk,ik->i", pts, self.shape, pts) <= 1.0 + tol


@dataclass(frozen=True)
class MveeResult:
    """Solved design: the ellipsoid, canonical points, weights, and certificate data.

    ``weights`` has one entry per point, zero off the support;
    ``iterations`` counts Newton steps.
    """

    ellipsoid: Ellipsoid
    points: np.ndarray
    weights: np.ndarray
    iterations: int
    kappa_max: float
    kappa_min: float
    eps: float


def _canonicalize_symmetric(points: np.ndarray) -> np.ndarray:
    """One representative per antipodal pair, zero rows dropped; tolerances relative to the largest norm."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array (m, n)")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    norms = np.linalg.norm(pts, axis=1)
    tol = 1e-12 * float(norms.max(initial=0.0))
    keep = pts[norms > tol]
    if len(keep) == 0:
        raise ValueError("no nonzero points given")
    return dedup_rows(keep * canonical_signs(keep, tol)[:, None], tol)


def _spanning_basis(v: np.ndarray) -> np.ndarray:
    """Indices of n rows, each the farthest from the span of those before.

    Pivoted Gram-Schmidt: the Kumar-Yildirim core set of a centered set, on
    which uniform weights give a nonsingular design.
    """
    rest = v.copy()
    picked = []
    for _ in range(v.shape[1]):
        sq = np.einsum("ij,ij->i", rest, rest)
        j = int(np.argmax(sq))
        picked.append(j)
        q = rest[j] / np.sqrt(sq[j])
        rest -= np.outer(rest @ q, q)
    return np.array(picked)


def _newton_step(k: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, float]:
    """One damped Newton step of ``log det M`` in the weights of the active set.

    `k` is ``V_S M^{-1} V_S^T``: the gradient is its diagonal and the Hessian
    ``-(k * k)``.  The step keeps ``sum lam = 1`` by a bordered system,
    solved by least squares because ``k * k`` is singular when the outer
    products of S are dependent (the design is then not unique, M is).  It
    is damped by ``1/(1 + delta)`` and cut where the first weight reaches 0;
    every weight that reaches 0 in it comes back as 0.  Returns the new
    weights and the Newton decrement delta.
    """
    s = len(lam)
    hess = k * k
    kkt = np.ones((s + 1, s + 1))
    kkt[:s, :s] = hess
    kkt[s, s] = 0.0
    d = np.linalg.lstsq(kkt, np.append(np.diag(k), 0.0), rcond=None)[0][:s]
    delta = float(np.sqrt(max(d @ hess @ d, 0.0)))
    step = 1.0 / (1.0 + delta)
    falling = d < 0.0
    reach = np.full(s, np.inf)
    reach[falling] = -lam[falling] / d[falling]
    step = min(step, float(reach.min()))
    new = lam + step * d
    new[reach <= step * (1.0 + 1e-12)] = 0.0
    return np.maximum(new, 0.0), delta


def _add_violators(v: np.ndarray, g: np.ndarray, active: np.ndarray, lam: np.ndarray, bound: float):
    """Bring the n points of largest g above `bound` into the design by Frank-Wolfe steps.

    Each step moves weight toward the worst of them under the current
    design, by the exact line search ``beta = (g_j - n) / (n (g_j - 1))``,
    after which that point has ``g_j = n``.
    """
    n = v.shape[1]
    worst = np.argsort(g)[::-1][:n]
    worst = worst[g[worst] > bound]
    for _ in range(len(worst)):
        w = v[active]
        gw = np.einsum("ij,jk,ik->i", v[worst], np.linalg.inv((w.T * lam) @ w), v[worst])
        i = int(np.argmax(gw))
        if gw[i] <= bound:
            break
        beta = (gw[i] - n) / (n * (gw[i] - 1.0))
        lam = lam * (1.0 - beta)
        active, lam = np.append(active, worst[i]), np.append(lam, beta)
        worst = np.delete(worst, i)
    return active, lam


def mvee_symmetric(points: np.ndarray, eps: float = DEFAULT_EPS) -> MveeResult:
    """MVEE of the symmetric set ``{+/- v_k}`` via the D-optimal design problem.

    Antipodal pairs are collapsed to canonical representatives first (the
    design is even); the zero-row and duplicate tolerances and the span test
    are relative to the largest point norm, so scaling the points by s
    scales the shape by ``1/s**2`` and changes nothing else.  Non-finite
    points raise ValueError.  The weights start uniform on n spanning points
    and are solved by damped Newton steps on the active set S, dropping
    every point whose weight reaches 0.  When that solve has converged, g is
    read over every point: the solve ends when every point satisfies
    ``v^T (nM)^{-1} v <= 1 + eps`` and every support point ``>= 1 - eps``;
    otherwise the worst violators enter S by Frank-Wolfe steps and the
    Newton solve resumes.  The stopping test and the returned kappa range
    are exact over every point for the returned weights.
    ``MveeResult.iterations`` counts Newton steps; after
    ``MAX_MVEE_ITERATIONS`` of them :class:`CapacityError` is raised with
    the current iterate attached.
    """
    if not (1e-10 <= eps <= 1e-2):
        raise ValueError("eps must lie in [1e-10, 1e-2]")
    v = _canonicalize_symmetric(points)
    m, n = v.shape
    if np.linalg.matrix_rank(v, tol=1e-10 * float(np.linalg.norm(v, axis=1).max())) < n:
        raise ValueError("points do not span R^n: the MVEE is degenerate")
    active = _spanning_basis(v)
    lam = np.full(n, 1.0 / n)  # optimal on n points: det M is then prod(lam) det(V_S)^2
    iterations = 0
    settled = True  # the Newton solve on the active set has converged
    while True:
        w = v[active]
        mat = (w.T * lam) @ w
        inv = np.linalg.inv(mat)
        if settled or iterations >= MAX_MVEE_ITERATIONS:
            g = np.einsum("ij,jk,ik->i", v, inv, v)
            k_max, k_min = float(g.max()), float(g[active].min())
            converged = k_max <= n * (1.0 + eps) and k_min >= n * (1.0 - eps)
            if converged or iterations >= MAX_MVEE_ITERATIONS:
                break
            active, lam = _add_violators(v, g, active, lam, n * (1.0 + eps))
            settled = False
            continue
        lam, delta = _newton_step(w @ inv @ w.T, lam)
        iterations += 1
        kept = lam > 0.0
        settled = delta <= _NEWTON_DONE and bool(kept.all())
        active, lam = active[kept], lam[kept] / lam[kept].sum()
    weights = np.zeros(m)
    weights[active] = lam
    shape = np.linalg.inv(n * mat)
    shape = 0.5 * (shape + shape.T)
    result = MveeResult(Ellipsoid(shape), v, weights, iterations, k_max, k_min, eps)
    if not converged:
        err = CapacityError(f"MVEE did not converge in {MAX_MVEE_ITERATIONS} Newton steps (kappa range [{k_min:.6g}, {k_max:.6g}], target n={n})")
        err.best = result
        raise err
    return result


def extract_john_decomposition(result: MveeResult) -> WeightedDirections:
    """Contact decomposition from a solved design, as weighted directions.

    Support points are those with design weight above ``max(eps, 1e-9)``.
    The support weights are renormalized and the whitening map recomputed
    from the support-only design D, so the output satisfies the identity
    resolution to machine precision regardless of the solver tolerance.
    The weights ``c_i = n lam_i v_i^T D^{-1} v_i`` come from one linear
    solve, so their sum ``tr(D^{-1} D) = n`` holds to rounding.
    """
    lam = result.weights
    v = result.points
    n = v.shape[1]
    threshold = max(result.eps, 1e-9)
    idx = np.flatnonzero(lam > threshold)
    if len(idx) < n:
        raise ValueError(f"only {len(idx)} support points for dimension {n}: MVEE did not converge to a spanning design")
    lam_hat = lam[idx] / lam[idx].sum()
    vs = v[idx]
    design = n * (vs.T * lam_hat) @ vs
    w, q = jacobi_eigh(design)
    if w[0] <= 0:
        raise ValueError("support design is rank-deficient")
    whiten = q @ np.diag(w**-0.5) @ q.T
    tv = vs @ whiten
    contacts = tv / np.linalg.norm(tv, axis=1)[:, None]
    weights = n * lam_hat * np.einsum("ij,ji->i", vs, np.linalg.solve(design, vs.T))
    return WeightedDirections(contacts, weights)


@dataclass(frozen=True)
class JohnResidualReport:
    """Diagnostics of a contact decomposition."""

    frobenius: float
    trace_gap: float
    quadratic_max_relative: float


def john_residual(decomposition: WeightedDirections, check_points: int = 20) -> JohnResidualReport:
    """Frobenius and trace residuals plus the quadratic identity spot-check.

    The identity ``|x|^2 = sum c_i <u_i, x>^2`` is evaluated at a fixed set
    of deterministic pseudo-random points; the worst relative error is
    reported.
    """
    frob, gap = decomposition.residuals()
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0x5EED_1DE4)))
    xs = gen.standard_normal((check_points, decomposition.dim))
    sq = np.sum((xs @ decomposition.directions.T) ** 2 * decomposition.weights, axis=1)
    norms = np.sum(xs**2, axis=1)
    quad = float(np.max(np.abs(sq - norms) / norms))
    return JohnResidualReport(frob, gap, quad)
