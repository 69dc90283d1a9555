"""Shadow position: the normal form in which every shadow is large.

For an origin-symmetric polytope C the map theta -> shadow_area(C, theta)
is the support function of the projection body, a zonotope.  Its polar has
the shadow norm as Minkowski functional, so the affine image that rounds the
polar's minimal enclosing ellipsoid into a ball equalizes the extreme
shadows.  In that position every (n-1)-dimensional shadow is at least
``volume^{(n-1)/n}``, with equality exactly for the cube.

This module builds that pipeline end to end and provides the verifiers for
the product-of-shadows inequality (its orthonormal special case included)
and the Euclidean ball's shadow ratio.  The polytope is measured once per
pipeline run: a linear map T keeps the combinatorial type, so the
repositioned body TC holds C's measures mapped by the chain rule, which
gives ``|TC| = |det T| |C|`` and ``Pi(TC) = |det T| T^{-T} Pi C`` (Petty,
"Projection bodies", 1967; Schneider, *Convex Bodies*, section 10.9).  TC is
enumerated only when a caller asks for its vertices or facets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ellipsoid import extract_john_decomposition, mvee_symmetric
from .kernel import RandomSource, WeightedDirections, canonical_signs, cofactor_table, dedup_rows, jacobi_eigh, log_unit_ball_volume
from .polytope import SymmetricHPolytope, _mapped_image
from .zonotope import Zonotope, projection_body

__all__ = [
    "MinShadowReport",
    "ProductInequalityReport",
    "ShadowPositionReport",
    "ball_shadow_ratio",
    "loomis_whitney_check",
    "min_shadow_direction",
    "minimize_support",
    "polar_vertices",
    "shadow_position",
    "verify_product_inequality",
    "zonotope_facet_normals",
]


def zonotope_facet_normals(z: Zonotope) -> np.ndarray:
    """Unit normals of all full-rank (n-1)-generator subsets, deduplicated up to sign.

    Every facet normal of the zonotope appears in the output (facets of a
    zonotope are spanned by generator subsets); the list may also contain
    directions that touch lower-dimensional faces, which is harmless for
    support minimization.  The normals are the cofactor vectors of the unit
    generators (:func:`cofactor_table`, the table the shadows are summed
    over, under its capacity guard); at n = 1 that is the one normal (1,).
    """
    w = z.unit_directions  # unit generators: the cofactors, and their threshold, are free of scale
    normals = cofactor_table(w)
    norms = np.linalg.norm(normals, axis=1)
    keep = norms > 1e-10
    unit = normals[keep] / norms[keep][:, None]
    if len(unit) == 0:
        raise ValueError("generators do not span: no facet normals")
    return dedup_rows(unit * canonical_signs(unit)[:, None], 1e-10)


def polar_vertices(z: Zonotope) -> np.ndarray:
    """Vertex set of ``{x : sum_j |<x, w_j>| <= 1}``, closed under negation, as a read-only array.

    Polarity sends each facet of the zonotope (unit normal nu at support
    height h) to the vertex ``nu / h``; every returned point lies exactly on
    the unit sphere of the shadow norm.  The first half of the rows are the
    candidates of :func:`zonotope_facet_normals` so scaled, in its order, and
    the second half their negatives.
    """
    normals = zonotope_facet_normals(z)
    heights = z.supports(normals)
    if np.any(heights <= 1e-12 * np.max(heights)):
        raise ValueError("zonotope is degenerate: zero support height")
    verts = normals / heights[:, None]
    out = np.vstack([verts, -verts])
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MinShadowReport:
    """Least support of a zonotope over the sphere, or smallest shadow of a body: direction and value.

    The minimum is exact; ``candidates_checked`` counts the facet normals it
    was taken over.  :func:`~shadowgeom.family.direction_spread` reports its
    value divided by sqrt(n), and 0 with no candidate on a non-spanning set.
    """

    direction: np.ndarray
    value: float
    candidates_checked: int


def minimize_support(z: Zonotope) -> MinShadowReport:
    """Global minimum of a zonotope's support function over the unit sphere.

    The minimum of ``h_Z`` over the sphere is the inradius of the symmetric
    body Z, and a polytope's inradius is attained at a facet normal.  Every
    facet of a zonotope is spanned by n-1 generators, so the normals of all
    full-rank (n-1)-generator subsets (:func:`zonotope_facet_normals`) are
    the candidates and the minimum is exact for every zonotope within the
    capacity guard (24 generators, n <= 7); beyond it CapacityError is
    raised, so no minimum is estimated.  Values within ``TIE_TOLERANCE``
    relative of the least one tie, and the earliest tied candidate is
    reported, so the direction is deterministic.  See
    :func:`min_shadow_direction` for the shadow specialization.
    """
    return _least_support(z, zonotope_facet_normals(z))


TIE_TOLERANCE = 1e-12


def _least_support(z: Zonotope, candidates: np.ndarray) -> MinShadowReport:
    """The least support of ``z`` over unit candidate directions.

    Candidates within ``TIE_TOLERANCE`` relative of the least value tie, and
    the first of them is reported, in canonical sign, so the direction does
    not depend on the last bits of the values.
    """
    values = z.supports(candidates)
    least = float(np.min(values))
    idx = int(np.argmax(values <= least * (1.0 + TIE_TOLERANCE)))
    direction = candidates[idx] * canonical_signs(candidates[idx])[0]
    return MinShadowReport(direction, least, len(candidates))


def min_shadow_direction(body: SymmetricHPolytope) -> MinShadowReport:
    """Direction of the smallest (n-1)-dimensional shadow of the body.

    The shadow area is the support function of the projection body, so the
    problem reduces to minimizing a zonotope support over the sphere.
    """
    return minimize_support(projection_body(body))


@dataclass(frozen=True)
class ShadowPositionReport:
    """Result of the shadow-position pipeline.

    ``ok`` is False when the certified ratio falls below ``1 - 1e-4``
    (a numerical failure: the transform is guaranteed to achieve 1), in
    which case ``diagnostics`` says what was measured.  The attached
    decomposition certifies the position: its contact directions all attain
    the minimal shadow.  ``volume``, ``min_shadow``, ``min_direction`` and the
    contact shadows are read off ``body``, which holds the input body's
    measures mapped by the chain rule and is enumerated only if a caller
    asks for its vertices or facets.
    ``mvee_iterations`` counts the Newton steps of the ellipsoid solve, and
    the kappa range is its certificate (every polar vertex has
    ``v^T M^{-1} v <= kappa_max``, every support point ``>= kappa_min``,
    both within ``n (1 +/- kappa_tol)``, where ``kappa_tol`` is the solve's
    eps, ``DEFAULT_EPS`` = 1e-8, widened by the rounding of g, see
    :func:`mvee_symmetric`);
    ``candidates_checked`` counts the directions searched for the minimal
    shadow.  ``branch`` is always "exact": the minimal shadow is taken over
    every facet normal of the projection body (:func:`minimize_support`).
    The field stays because the CLI's schema-1 report carries it and the
    benchmark's tracer reads it.
    """

    transform: np.ndarray
    body: SymmetricHPolytope
    min_shadow: float
    min_direction: np.ndarray
    volume: float
    ratio: float
    branch: str
    mvee_iterations: int
    kappa_min: float
    kappa_max: float
    kappa_tol: float
    candidates_checked: int
    john: WeightedDirections
    residuals: dict[str, float]
    ok: bool
    diagnostics: str


#: The shadow-position certificate: ratio >= 1 - RATIO_TOLERANCE, and ||det T| - 1| <= UNIMODULAR_TOLERANCE.
RATIO_TOLERANCE = 1e-4
UNIMODULAR_TOLERANCE = 1e-9


def shadow_position(body: SymmetricHPolytope, rng: RandomSource | None = None) -> ShadowPositionReport:
    """Volume-preserving linear map after which every shadow is >= vol^{(n-1)/n}.

    Pipeline: projection body -> polar vertices -> minimal enclosing
    ellipsoid -> whitening transform T (determinant normalized to one).  The
    ellipsoid's contact decomposition is attached; each contact direction
    attains the minimal shadow of the repositioned body TC.

    The body is measured once: TC holds its measures mapped by the chain
    rule, and the volume and shadows are read off TC and ``Pi(TC)``.  A
    facet normal nu of ``Pi C`` becomes ``T nu`` (up to scale) on ``Pi(TC) =
    |det T| T^{-T} Pi C``, so the minimal shadow is searched over the polar
    vertices mapped by T.
    ``rng`` is unused: the pipeline draws no random numbers.  Raises
    ValueError when the ellipsoid's root is singular (its determinant not
    finite and positive), as on bodies too thin for the solve.
    """
    n = body.dim
    zono = projection_body(body)
    pv = polar_vertices(zono)
    canonical = pv[: len(pv) // 2]  # the MVEE of {+/- v} needs one of each pair
    mvee = mvee_symmetric(canonical)
    # the shape is symmetric positive definite (Ellipsoid checks it): its root needs only the eigenvalues clamped at 0
    w, q = jacobi_eigh(mvee.ellipsoid.shape)
    root = (q * np.sqrt(np.clip(w, 0.0, None))) @ q.T
    root = 0.5 * (root + root.T)
    det = float(np.linalg.det(root))
    if not (math.isfinite(det) and det > 0.0):
        raise ValueError(f"the minimal enclosing ellipsoid of the polar vertices is singular (det of its root {det!r}): the body is too thin")
    transform = root / det ** (1.0 / n)
    john = extract_john_decomposition(mvee)
    # contacts were whitened with the same matrix up to the determinant
    # factor, so they are unit directions in the image frame already
    det_t = abs(float(np.linalg.det(transform)))
    image = _mapped_image(body, transform)
    image_zono = projection_body(image)
    normals = canonical @ transform.T
    report = _least_support(image_zono, normals / np.linalg.norm(normals, axis=1)[:, None])
    volume = image.volume
    ratio = report.value / volume ** ((n - 1) / n)
    contact_shadows = image_zono.supports(john.directions)
    contact_err = float(np.max(np.abs(contact_shadows - report.value)) / report.value)
    frob, trace_gap = john.residuals()
    det_residual = abs(det_t - 1.0)
    residuals = {
        "transform_det": det_residual,
        "john_frobenius": frob,
        "john_trace_gap": trace_gap,
        "contact_shadow_max_rel_err": contact_err,
    }
    ok = ratio >= 1.0 - RATIO_TOLERANCE and det_residual <= UNIMODULAR_TOLERANCE
    diagnostics = "" if ok else (
        f"shadow-position ratio {ratio:.8f} fell below 1 - {RATIO_TOLERANCE:g} "
        f"(min shadow {report.value:.6g} in direction {report.direction.tolist()}, volume {volume:.6g})"
    )
    return ShadowPositionReport(
        transform=transform,
        body=image,
        min_shadow=report.value,
        min_direction=report.direction,
        volume=volume,
        ratio=ratio,
        branch="exact",
        mvee_iterations=mvee.iterations,
        kappa_min=mvee.kappa_min,
        kappa_max=mvee.kappa_max,
        kappa_tol=mvee.tol,
        candidates_checked=report.candidates_checked,
        john=john,
        residuals=residuals,
        ok=ok,
        diagnostics=diagnostics,
    )


@dataclass(frozen=True)
class ProductInequalityReport:
    """``|C|^{n-1} <= prod shadow(C, u_i)^{c_i}`` evaluated on a decomposition."""

    lhs: float
    rhs: float
    ratio: float


def verify_product_inequality(body: SymmetricHPolytope, decomposition: WeightedDirections) -> ProductInequalityReport:
    """Evaluate the product-of-shadows inequality for an isotropic decomposition.

    ``decomposition`` is validated first (unit directions, positive weights
    resolving the identity); an MVEE's contact decomposition is one such.
    Both sides are computed in log space (one that overflows a float, or
    underflows below the least normal float, raises ValueError); the report
    carries rhs/lhs, read from the logs, which the inequality guarantees to
    be at least one.
    """
    decomposition.validate()
    u = decomposition.directions
    c = decomposition.weights
    if u.shape[1] != body.dim:
        raise ValueError("dimension mismatch")
    n = body.dim
    shadows = body.shadow_areas(u)
    if np.any(shadows <= 0.0):
        raise ValueError("degenerate shadow encountered")
    log_lhs = (n - 1) * math.log(body.volume)
    log_rhs = float(np.sum(c * np.log(shadows)))
    if not (min(log_lhs, log_rhs) >= math.log(np.finfo(float).tiny) and max(log_lhs, log_rhs, log_rhs - log_lhs) < math.log(np.finfo(float).max)):
        raise ValueError(f"a side of the product inequality under- or overflows a float: log lhs {log_lhs:.6g}, log rhs {log_rhs:.6g}")
    return ProductInequalityReport(math.exp(log_lhs), math.exp(log_rhs), math.exp(log_rhs - log_lhs))


def loomis_whitney_check(body: SymmetricHPolytope) -> ProductInequalityReport:
    """The orthonormal special case: ``|C|^{n-1} <= prod_i shadow(C, e_i)``."""
    n = body.dim
    frame = WeightedDirections(np.eye(n), np.ones(n))
    return verify_product_inequality(body, frame)


def ball_shadow_ratio(n: int) -> float:
    """Minimal-shadow-to-volume ratio ``v_{n-1} / v_n^{(n-1)/n}`` of the Euclidean ball.

    Strictly increasing in n with limit sqrt(e); computed with log-gamma so
    large n stays finite.
    """
    if not (2 <= n <= 200):
        raise ValueError("dimension must lie in [2, 200]")
    return math.exp(log_unit_ball_volume(n - 1) - (n - 1) / n * log_unit_ball_volume(n))
