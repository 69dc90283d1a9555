"""Minimum-volume enclosing ellipsoids of symmetric point sets.

The MVEE of a symmetric set is origin-centered, so the problem is the
D-optimal design: maximize ``log det M`` with ``M = sum_k lambda_k v_k v_k^T``
over the probability simplex.  It is solved by Frank-Wolfe ascent with
Wolfe-Atwood away steps (linear convergence, and the iterate doubles as an
optimality certificate).  Each step is a rank-one change of M, so ``M^{-1}``
and the leverages ``g_k = v_k^T M^{-1} v_k`` are updated in O(mn) (Khachiyan
1996; Todd and Yildirim 2007) and rebuilt from scratch every
``REBUILD_INTERVAL`` steps and before the solve stops, which keeps the
certificate exact.  The ellipsoid is ``{x : x^T (n M)^{-1} x <= 1}``.

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

MAX_MVEE_ITERATIONS = 1_000_000
DEFAULT_EPS = 1e-8
#: Rank-one steps between two rebuilds of M, M^{-1} and g from the weights.
REBUILD_INTERVAL = 64


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
    """Solved design: the ellipsoid, canonical points, weights, and certificate data."""

    ellipsoid: Ellipsoid
    points: np.ndarray
    weights: np.ndarray
    iterations: int
    kappa_max: float
    kappa_min: float
    eps: float


def _canonicalize_symmetric(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array (m, n)")
    norms = np.linalg.norm(pts, axis=1)
    keep = pts[norms > 1e-12]
    if len(keep) == 0:
        raise ValueError("no nonzero points given")
    return dedup_rows(keep * canonical_signs(keep)[:, None], 1e-12)


def mvee_symmetric(points: np.ndarray, eps: float = DEFAULT_EPS) -> MveeResult:
    """MVEE of the symmetric set ``{+/- v_k}`` via the D-optimal design problem.

    Antipodal pairs are collapsed to canonical representatives first (the
    design is even).  Each Wolfe-Atwood step moves weight toward the point of
    largest ``g_k = v_k^T M^{-1} v_k`` or away from the support point of
    smallest, which changes ``M`` by a rank-one term: ``M^{-1}`` follows by
    Sherman-Morrison and every ``g_k`` by one matrix-vector product, O(mn)
    per step.  Every ``REBUILD_INTERVAL`` steps, and before any stop, the
    weights are renormalised and ``M``, ``M^{-1}`` and ``g`` are rebuilt from
    scratch, so the stopping test and the returned kappa range are exact for
    the returned weights.  Terminates when every point satisfies
    ``v^T (nM)^{-1} v <= 1 + eps`` and every support point satisfies
    ``>= 1 - eps``; raises :class:`CapacityError` with the best iterate
    attached after ``MAX_MVEE_ITERATIONS`` steps.
    """
    if not (1e-10 <= eps <= 1e-2):
        raise ValueError("eps must lie in [1e-10, 1e-2]")
    v = _canonicalize_symmetric(points)
    m, n = v.shape
    if np.linalg.matrix_rank(v, tol=1e-10) < n:
        raise ValueError("points do not span R^n: the MVEE is degenerate")
    lam = np.full(m, 1.0 / m)
    iterations = 0
    final = False
    while not final:
        lam /= lam.sum()
        mat = (v.T * lam) @ v
        inv = np.linalg.inv(mat)
        g = np.einsum("ij,jk,ik->i", v, inv, v)
        for step in range(REBUILD_INTERVAL):
            j_max = int(np.argmax(g))
            support_g = np.where(lam > 0.0, g, np.inf)
            j_min = int(np.argmin(support_g))
            k_max, k_min = float(g[j_max]), float(support_g[j_min])
            converged = k_max <= n * (1.0 + eps) and k_min >= n * (1.0 - eps)
            if converged or iterations >= MAX_MVEE_ITERATIONS:
                final = step == 0  # only a test on freshly rebuilt g ends the solve
                break
            if k_max - n >= n - k_min:
                j = j_max
                beta = (k_max - n) / (n * (k_max - 1.0))
            else:
                j = j_min
                drop = -lam[j] / (1.0 - lam[j])
                if k_min <= 1.0 + 1e-12:
                    beta = drop  # unconstrained optimum is past removal: drop the point
                else:
                    beta = max((k_min - n) / (n * (k_min - 1.0)), drop)
            # M <- (1 - beta) M + beta v_j v_j^T, by Sherman-Morrison
            w = inv @ v[j]
            scale = beta / (1.0 - beta + beta * g[j])
            inv = (inv - scale * np.outer(w, w)) / (1.0 - beta)
            g = (g - scale * (v @ w) ** 2) / (1.0 - beta)
            lam *= 1.0 - beta
            lam[j] = max(lam[j] + beta, 0.0)
            iterations += 1
    shape = np.linalg.inv(n * mat)
    shape = 0.5 * (shape + shape.T)
    result = MveeResult(Ellipsoid(shape), v, lam, iterations, k_max, k_min, eps)
    if not converged:
        err = CapacityError(f"MVEE did not converge in {MAX_MVEE_ITERATIONS} iterations (kappa range [{k_min:.6g}, {k_max:.6g}], target n={n})")
        err.best = result
        raise err
    return result


def extract_john_decomposition(result: MveeResult) -> WeightedDirections:
    """Contact decomposition from a solved design, as weighted directions.

    Support points are those with design weight above ``max(eps, 1e-9)``.
    The support weights are renormalized and the whitening map recomputed
    from the support-only design, so the output satisfies the identity
    resolution to machine precision regardless of the solver tolerance.
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
    lengths = np.linalg.norm(tv, axis=1)
    contacts = tv / lengths[:, None]
    weights = n * lam_hat * lengths**2
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
