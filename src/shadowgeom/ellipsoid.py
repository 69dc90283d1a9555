"""Minimum-volume enclosing ellipsoids of symmetric point sets.

The MVEE of a symmetric set is origin-centered, so the problem is the
D-optimal design: maximize ``log det M`` with ``M = sum_k lambda_k v_k v_k^T``
over the probability simplex.  It is solved by an active-set Newton method
(Sun and Freund 2004; Todd 2016, ch. 3) that inverts M once per iterate.  On
an active set S the gradient is ``g_k = v_k^T M^{-1} v_k`` and the Hessian
``-(V_S M^{-1} V_S^T)**2`` entrywise; a step under ``sum lambda = 1`` is the
family ascent's Newton step on a slice, and ``log det`` is self-concordant, so
damping it by ``1/(1 + delta)`` (delta the Newton decrement) needs no line
search.  The solve starts from n points spanning R^n (the Kumar-Yildirim core
set) and, after every Newton step that drops no point, reads g over every
point, as the row-wise dot of ``V M^{-1}`` with V, and brings the worst
violators outside S into S at once by Frank-Wolfe steps, each a rank-one
update of that inverse; it does not wait for the Newton solve on S to
settle first.  It stops at the first exact iterate whose g certifies it:
one whose last Newton step had a decrement of at most ``_NEWTON_DONE`` and
dropped no point, with no point entered since.  That iterate is an
optimality certificate over all points, and the ellipsoid
``{x : x^T (n M)^{-1} x <= 1}`` is read from the inverse it certified.

From an optimal design the contact-point decomposition is extracted: after
mapping by ``(n M)^{-1/2}`` the support points become unit vectors ``u_i``
with weights ``c_i`` satisfying ``sum c_i u_i (x) u_i = I`` and
``sum c_i = n`` — recomputed from the support-only design so the identities
hold to machine precision rather than to the solver tolerance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .kernel import CapacityError, WeightedDirections, canonical_signs, dedup_rows, hyperplane_basis, jacobi_eigh, newton_on_slice, row_norms, unit_ball_volume

__all__ = [
    "Ellipsoid",
    "MveeResult",
    "extract_john_decomposition",
    "mvee_symmetric",
]

#: Cap on Newton steps.
MAX_MVEE_ITERATIONS = 1_000_000
DEFAULT_EPS = 1e-8
#: A Newton step with a decrement below this, and no weight reaching 0, gives
#: an exact iterate, the only kind the solve stops at: by quadratic
#: convergence the next decrement would be below its square, so the weights
#: are exact to rounding.
_NEWTON_DONE = 1e-6
#: The one refusal of a design whose g has no correct digit (see :func:`mvee_symmetric`).
_UNDECIDED = "the MVEE cannot decide the design, the points are too thin"
#: The refusal of points whose design M or its inverse overflows: largest norms outside about 1e-153 to 1e153.
_OFF_SCALE = "the MVEE's design M or its inverse is not finite at the points' scale (largest norm {:.3g})"


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

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.einsum("ij,jk,ik->i", pts, self.shape, pts) <= 1.0


@dataclass(frozen=True)
class MveeResult:
    """Solved design: the ellipsoid, canonical points, weights, and certificate data.

    ``weights`` has one entry per point, zero off the support;
    ``iterations`` counts Newton steps.  ``tol`` is the width the solve
    stopped at, ``eps + eps_mach tr(M) tr(M^-1)``: the kappa range lies
    within ``n (1 +/- tol)`` when the solve converged.
    """

    ellipsoid: Ellipsoid
    points: np.ndarray
    weights: np.ndarray
    iterations: int
    kappa_max: float
    kappa_min: float
    eps: float
    tol: float


def _canonicalize_symmetric(points: np.ndarray) -> np.ndarray:
    """One representative per antipodal pair, zero rows dropped; tolerances relative to the largest norm, at any finite scale."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array (m, n)")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    norms, e = row_norms(pts)
    tol = 1e-12 * float(norms.max(initial=0.0))
    keep = pts[norms > tol]
    if len(keep) == 0:
        raise ValueError("no nonzero points given")
    tol = float(np.ldexp(tol, e))
    return dedup_rows(keep * canonical_signs(keep, tol)[:, None], tol)


def _spanning_basis(v: np.ndarray, tol: float) -> np.ndarray:
    """Indices of n rows, each the farthest from the span of those before.

    Pivoted Gram-Schmidt: the Kumar-Yildirim core set of a centered set, on
    which uniform weights give a nonsingular design.  It is also the span
    test: when no row lies farther than `tol` from the span of those picked,
    the points do not span R^n and ValueError is raised.
    """
    rest = v.copy()
    picked = []
    for _ in range(v.shape[1]):
        sq = np.einsum("ij,ij->i", rest, rest)
        j = int(np.argmax(sq))
        if not sq[j] > tol * tol:
            raise ValueError("points do not span R^n: the MVEE is degenerate")
        picked.append(j)
        q = rest[j] / np.sqrt(sq[j])
        rest -= np.outer(rest @ q, q)
    return np.array(picked)


@functools.lru_cache(maxsize=64)
def _slice_basis(s: int) -> np.ndarray:
    """The orthonormal basis of ``{d : sum d = 0}`` in R^s that :func:`_newton_step` steps in; read-only.

    Built once per active-set size; the cache keeps 64 sizes, so a solve
    whose active set grows large holds a bounded number of s x s arrays.
    """
    basis = hyperplane_basis(np.ones(s))
    basis.setflags(write=False)
    return basis


def _newton_step(k: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, float]:
    """One damped Newton step of ``log det M`` in the weights of the active set.

    `k` is ``V_S M^{-1} V_S^T``: the gradient is its diagonal and the Hessian
    ``-(k * k)``, taken by :func:`newton_on_slice` on ``sum lam = 1``.  Where
    the outer products of S are dependent, ``k * k`` is singular, but moving
    weight along its null directions leaves M unchanged: the slope there is
    0, so the clamped step is the minimum-norm one.  It is damped by
    ``1/(1 + delta)``, delta the Newton decrement (the root of the predicted
    gain), and cut where the first weight reaches 0; every weight that
    reaches 0 in it comes back as 0.  Returns the new weights and delta.
    """
    s = len(lam)
    basis = _slice_basis(s)
    d, gain = newton_on_slice(basis, basis.T @ np.diag(k), -basis.T @ (k * k) @ basis)
    delta = float(np.sqrt(gain))
    step = 1.0 / (1.0 + delta)
    falling = d < 0.0
    reach = np.full(s, np.inf)
    reach[falling] = -lam[falling] / d[falling]
    step = min(step, float(reach.min()))
    new = lam + step * d
    new[reach <= step * (1.0 + 1e-12)] = 0.0
    return np.maximum(new, 0.0), delta


def _frank_wolfe_entry(cross: np.ndarray, i: int, n: int) -> tuple[float, np.ndarray]:
    """The weight beta of the entry of candidate i, and `cross` for the design after it."""
    g = cross[i, i]
    beta = (g - n) / (n * (g - 1.0))
    return beta, (cross - (n * beta / g) * np.outer(cross[i], cross[i])) / (1.0 - beta)


def _add_violators(v: np.ndarray, g: np.ndarray, inv: np.ndarray, active: np.ndarray, lam: np.ndarray, bound: float):
    """Bring the n points outside `active` of largest g above `bound` into the design by Frank-Wolfe steps.

    Each step moves weight toward the worst of them under the current
    design, by the exact line search ``beta = (g_j - n) / (n (g_j - 1))``,
    after which that point has ``g_j = n``.  Their ``cross = V_W M^{-1} V_W^T``
    is read from the loop's `inv` and follows each design by Sherman-Morrison,
    ``(cross - n beta c_j c_j^T / g_j) / (1 - beta)`` with c_j its column j;
    a point that has entered keeps its row and column and is masked out of
    the choice.  A point already in S never enters again: its weight is the
    Newton solve's to set.  Returns `active` and `lam` as given when no
    point outside S reads above `bound`.
    """
    n = v.shape[1]
    above = g > bound
    above[active] = False
    worst = np.flatnonzero(above)
    if not len(worst):
        return active, lam
    worst = worst[np.argsort(g[worst])[::-1][:n]]
    cross = v[worst] @ inv @ v[worst].T
    np.fill_diagonal(cross, g[worst])  # the g of the stopping test, so the worst of them enters
    s = len(active)
    active = np.concatenate([active, np.zeros(len(worst), dtype=active.dtype)])
    lam = np.concatenate([lam, np.zeros(len(worst))])
    entered = np.zeros(len(worst), dtype=bool)
    while True:
        left = np.where(entered, -np.inf, cross.diagonal())
        i = int(np.argmax(left))
        if not left[i] > bound:
            return active[:s], lam[:s]
        beta, cross = _frank_wolfe_entry(cross, i, n)
        lam[:s] *= 1.0 - beta
        active[s], lam[s] = worst[i], beta
        entered[i] = True
        s += 1


def mvee_symmetric(points: np.ndarray, eps: float = DEFAULT_EPS) -> MveeResult:
    """MVEE of the symmetric set ``{+/- v_k}`` via the D-optimal design problem.

    Antipodal pairs are collapsed to canonical representatives first (the
    design is even); the zero-row and duplicate tolerances and the span test
    are relative to the largest point norm, so scaling the points by s
    scales the shape by ``1/s**2`` and changes nothing else.  They are read
    off the points scaled by a power of two, so they hold at any finite
    scale; where M or its inverse overflows (largest norms outside about
    1e-153 to 1e153) ValueError is raised, naming the points' scale.
    Non-finite points raise ValueError.  The weights start uniform on n
    spanning points and are solved by damped Newton steps on the active set
    S, dropping every point whose weight reaches 0.  After every step that
    drops no point, and at the start, g is read over every point, and the
    worst violators outside S, those above ``n (1 + tol)``, enter S by
    Frank-Wolfe steps.  The solve ends at an exact iterate (the start, or
    one whose last step had a decrement of at most ``_NEWTON_DONE`` and
    dropped no point, with no point entered since) where every point
    satisfies ``v^T (nM)^{-1} v <= 1 + tol`` and every support point
    ``>= 1 - tol``.  ``tol = eps + eps_mach tr(M) tr(M^-1)`` widens eps by
    the rounding of g read through ``M^-1`` (the traces' product lies
    between cond(M) and n^2 cond(M)).  The stopping test and the returned
    kappa range are exact over every point for the returned weights.  When
    the design does not invert, or ``tol`` reaches 1 at an exact iterate,
    g has no correct digit and ValueError is raised, naming the design as
    one the MVEE cannot decide; at any other iterate such a ``tol`` only
    skips the entries.
    ``MveeResult.iterations`` counts Newton steps; after
    ``MAX_MVEE_ITERATIONS`` of them :class:`CapacityError` is raised with
    the current iterate attached.
    """
    if not (1e-10 <= eps <= 1e-2):
        raise ValueError("eps must lie in [1e-10, 1e-2]")
    v = _canonicalize_symmetric(points)
    m, n = v.shape
    norms, e = row_norms(v)
    unit = np.ldexp(v, -e)  # the pivots of v, at any finite scale
    largest = float(norms.max())
    active = _spanning_basis(unit, 1e-10 * largest)
    scale = float(np.ldexp(largest, e))
    if not scale * scale < np.inf:  # the entries of M are at most the largest squared norm
        raise ValueError(_OFF_SCALE.format(scale))
    lam = np.full(n, 1.0 / n)  # optimal on n points: det M is then prod(lam) det(V_S)^2
    iterations = 0
    exact = read = True  # the start is exact: it is optimal on its n points
    while True:
        w = v[active]
        design = (w.T * lam) @ w
        try:
            inv = np.linalg.inv(design)
        except np.linalg.LinAlgError:
            raise ValueError(f"{_UNDECIDED}: its design does not invert") from None
        if not np.isfinite(inv).all():
            raise ValueError(_OFF_SCALE.format(scale))
        capped = iterations >= MAX_MVEE_ITERATIONS
        if read or capped:
            spread = float(design.trace() * inv.trace())
            tol = eps + np.finfo(float).eps * spread
            # the spread is at least n^2 for a positive definite M, so tol <= eps says the inverse is rounding noise too
            decided = eps < tol < 1.0
            if not decided and (exact or capped):
                raise ValueError(f"{_UNDECIDED}: tr(M) tr(M^-1) reads {spread:.3g}")
            if decided:  # an inexact iterate whose g has no correct digit enters no point
                g = np.einsum("ij,ij->i", v @ inv, v)
                k_max, k_min = float(g.max()), float(g[active].min())
                converged = k_max <= n * (1.0 + tol) and k_min >= n * (1.0 - tol)
                if (exact and converged) or capped:
                    break
                grown, lam = _add_violators(v, g, inv, active, lam, n * (1.0 + tol))
                if len(grown) > len(active):
                    active, exact, read = grown, False, False
                    continue
        lam, delta = _newton_step(w @ inv @ w.T, lam)
        iterations += 1
        kept = lam > 0.0
        read = bool(kept.all())
        exact = delta <= _NEWTON_DONE and read
        active, lam = active[kept], lam[kept] / lam[kept].sum()
    weights = np.zeros(m)
    weights[active] = lam
    result = MveeResult(Ellipsoid(inv / n), v, weights, iterations, k_max, k_min, eps, tol)
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
    The weights ``c_i = n lam_i v_i^T D^{-1} v_i`` read the squared norms of
    the whitened rows; their sum is ``tr(D^{-1} D) = n`` up to about
    eps cond(D), so they are rescaled to sum to n, which holds to rounding.
    """
    v, lam = result.points, result.weights
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
    tv = vs @ (q @ np.diag(w**-0.5) @ q.T)
    norms = np.linalg.norm(tv, axis=1)
    weights = n * lam_hat * norms**2
    return WeightedDirections(tv / norms[:, None], weights * (n / weights.sum()))

