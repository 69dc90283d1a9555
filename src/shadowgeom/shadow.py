"""Shadow position: the normal form in which every shadow is large.

For an origin-symmetric polytope C the map theta -> shadow_area(C, theta)
is the support function of the projection body, a zonotope.  Its polar has
the shadow norm as Minkowski functional, so the affine image that rounds the
polar's minimal enclosing ellipsoid into a ball equalizes the extreme
shadows.  In that position every (n-1)-dimensional shadow is at least
``volume^{(n-1)/n}``, with equality exactly for the cube.

This module builds that pipeline end to end and provides the verifiers for
the product-of-shadows inequality (its orthonormal special case included)
and the Euclidean ball's shadow ratio.  The polytope is enumerated once per
pipeline run: a linear map T keeps the face lattice, the projection body
transforms as ``Pi(TC) = |det T| T^{-T} Pi C`` (Petty, "Projection bodies",
1967; Schneider, *Convex Bodies*, section 10.9) and ``|TC| = |det T| |C|``,
so the certificate of the repositioned body is read off the input body's
projection body and polar vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ellipsoid import extract_john_decomposition, mvee_symmetric
from .kernel import RandomSource, WeightedDirections, canonical_signs, check_capacity, dedup_rows, log_unit_ball_volume
from .kernel import psd_sqrt, subset_blocks
from .polytope import SymmetricHPolytope
from .zonotope import Zonotope, projection_body

__all__ = [
    "MinShadowReport",
    "PolarVertexSet",
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
    support minimization.  The subsets are enumerated in blocks under the
    kernel's capacity guard, the one the zonotope volume runs under.
    """
    w = z.unit_directions  # unit generators: the cofactors, and their threshold, are free of scale
    m, n = w.shape
    if n == 1:
        return np.array([[1.0]])
    check_capacity(m, n, "zonotope")
    cols = np.arange(n)
    blocks = [np.empty((0, n))]
    for subsets in subset_blocks(m, n - 1):
        mats = w[subsets]  # (S, n-1, n)
        # normal by cofactor expansion: component k = (-1)^k det(minor without column k)
        normals = np.empty((len(subsets), n))
        for k in range(n):
            normals[:, k] = (-1.0) ** k * np.linalg.det(mats[:, :, cols != k])
        norms = np.linalg.norm(normals, axis=1)
        keep = norms > 1e-10
        blocks.append(normals[keep] / norms[keep][:, None])
    unit = np.vstack(blocks)
    if len(unit) == 0:
        raise ValueError("generators do not span: no facet normals")
    return dedup_rows(unit * canonical_signs(unit)[:, None], 1e-10)


@dataclass(frozen=True)
class PolarVertexSet:
    """Vertices of the polar of a zonotope: normals scaled to shadow-norm one.

    The first half of the rows are the candidates of
    :func:`zonotope_facet_normals`, in its order, and the second half their
    negatives.
    """

    vertices: np.ndarray

    def __len__(self) -> int:
        return len(self.vertices)


def polar_vertices(z: Zonotope) -> PolarVertexSet:
    """Vertex set of ``{x : sum_j |<x, w_j>| <= 1}``, closed under negation.

    Polarity sends each facet of the zonotope (unit normal nu at support
    height h) to the vertex ``nu / h``; every returned point lies exactly on
    the unit sphere of the shadow norm.
    """
    normals = zonotope_facet_normals(z)
    heights = z.supports(normals)
    if np.any(heights <= 1e-12 * np.max(heights)):
        raise ValueError("zonotope is degenerate: zero support height")
    verts = normals / heights[:, None]
    out = np.vstack([verts, -verts])
    out.setflags(write=False)
    return PolarVertexSet(out)


@dataclass(frozen=True)
class MinShadowReport:
    """Smallest shadow of a body: direction, value, and how it was found."""

    direction: np.ndarray
    value: float
    branch: str
    candidates_checked: int


def minimize_support(z: Zonotope) -> MinShadowReport:
    """Global minimum of a zonotope's support function over the unit sphere.

    The minimum of ``h_Z`` over the sphere is the inradius of the symmetric
    body Z, and a polytope's inradius is attained at a facet normal.  Every
    facet of a zonotope is spanned by n-1 generators, so the normals of all
    full-rank (n-1)-generator subsets (:func:`zonotope_facet_normals`) are
    the candidates and the minimum is exact for every zonotope within the
    capacity guard (24 generators, n <= 7); beyond it CapacityError is
    raised.  ``branch`` is always "exact".  Values within ``TIE_TOLERANCE``
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
    return MinShadowReport(direction, least, "exact", len(candidates))


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
    contact shadows are those of ``body``, computed from the input body
    through the linear-image identities; ``body`` itself is enumerated only
    if a caller asks for its vertices, facets or measures.
    ``mvee_iterations`` counts the Newton steps of the
    ellipsoid solve, and the kappa range is its certificate (every polar
    vertex has ``v^T M^{-1} v <= kappa_max``, every support point
    ``>= kappa_min``, both within ``n (1 +/- eps)``); ``candidates_checked``
    counts the directions searched for the minimal shadow.
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
    candidates_checked: int
    john: WeightedDirections
    residuals: dict[str, float]
    ok: bool
    diagnostics: str

    def to_dict(self) -> dict:
        return {
            "ratio": self.ratio,
            "min_shadow": self.min_shadow,
            "min_direction": self.min_direction.tolist(),
            "volume": self.volume,
            "transform": self.transform.tolist(),
            "branch": self.branch,
            "mvee_iterations": self.mvee_iterations,
            "kappa_min": self.kappa_min,
            "kappa_max": self.kappa_max,
            "candidates_checked": self.candidates_checked,
            "residuals": dict(self.residuals),
            "ok": self.ok,
            "diagnostics": self.diagnostics,
        }


RATIO_TOLERANCE = 1e-4


def shadow_position(body: SymmetricHPolytope, eps: float = 1e-8, rng: RandomSource | None = None) -> ShadowPositionReport:
    """Volume-preserving linear map after which every shadow is >= vol^{(n-1)/n}.

    Pipeline: projection body -> polar vertices -> minimal enclosing
    ellipsoid -> whitening transform T (determinant normalized to one).  The
    ellipsoid's contact decomposition is attached; each contact direction
    attains the minimal shadow of the repositioned body TC.

    The body is enumerated once.  The certificate of TC comes from the
    identities ``Pi(TC) = |det T| T^{-T} Pi C`` and ``|TC| = |det T| |C|``:
    shadows of TC are supports of the mapped generators, and since a facet
    normal nu of ``Pi C`` becomes ``T nu`` (up to scale) on ``T^{-T} Pi C``,
    the minimal shadow is searched over the polar vertices mapped by T.
    ``rng`` is unused: the pipeline draws no random numbers.
    """
    n = body.dim
    zono = projection_body(body)
    pv = polar_vertices(zono)
    mvee = mvee_symmetric(pv.vertices, eps)
    root = psd_sqrt(mvee.ellipsoid.shape)
    det = float(np.linalg.det(root))
    transform = root / det ** (1.0 / n)
    john = extract_john_decomposition(mvee)
    # contacts were whitened with the same matrix up to the determinant
    # factor, so they are unit directions in the image frame already
    det_t = abs(float(np.linalg.det(transform)))
    image_zono = Zonotope(det_t * np.linalg.solve(transform.T, zono.generators.T).T)  # rows |det T| T^{-T} g
    normals = pv.vertices[: len(pv) // 2] @ transform.T
    report = _least_support(image_zono, normals / np.linalg.norm(normals, axis=1)[:, None])
    volume = det_t * body.volume
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
    ok = ratio >= 1.0 - RATIO_TOLERANCE and det_residual <= 1e-9
    diagnostics = "" if ok else (
        f"shadow-position ratio {ratio:.8f} fell below 1 - {RATIO_TOLERANCE:g} "
        f"(min shadow {report.value:.6g} in direction {report.direction.tolist()}, volume {volume:.6g})"
    )
    return ShadowPositionReport(
        transform=transform,
        body=body.affine_image(transform),
        min_shadow=report.value,
        min_direction=report.direction,
        volume=volume,
        ratio=ratio,
        branch=report.branch,
        mvee_iterations=mvee.iterations,
        kappa_min=mvee.kappa_min,
        kappa_max=mvee.kappa_max,
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
    Both sides are computed in log space; the report carries rhs/lhs, which
    the inequality guarantees to be at least one.
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
