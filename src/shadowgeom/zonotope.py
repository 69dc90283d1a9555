"""Zonotopes: exact volumes, shadows, projection bodies, and volume inequalities.

A zonotope is a Minkowski sum of centered segments ``Z = sum_j [-w_j, w_j]``.
Everything here is exact desk-scale arithmetic:

* volume by the subset-determinant expansion ``|Z| = 2^n sum_{|S|=n} |det W_S|``;
* shadows by recursing on the projected generators inside an orthonormal
  chart of the projection hyperplane;
* the surface-area-measure volume identity ``|Z| = (2/n) sum alpha_i |P_{u_i} Z|``
  as an independent cross-check of the same number;
* the projection body of a symmetric polytope (support = shadow area);
* mixed volume ``v_{n-1}(C, Z)``, the Minkowski first-inequality check, the
  isotropic-weights volume floor ``2^n prod (alpha_i/c_i)^{c_i}``, and the
  shadow-dominance volume bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import CapacityError, RandomSource, WeightedDirections, canonical_signs, check_capacity, hyperplane_basis
from .kernel import random_orthogonal, sample_unit_sphere, sign_patterns, subset_blocks
from .polytope import SymmetricHPolytope

__all__ = [
    "MinkowskiInequalityReport",
    "VolumeFloorReport",
    "VolumeFormulaReport",
    "Zonotope",
    "dominance_volume_bound",
    "minkowski_inequality_check",
    "mixed_volume_vn1",
    "projection_body",
    "random_weighted_directions",
    "random_zonotope",
    "volume_formula_check",
    "zonotope_volume_floor",
]

GENERATOR_FLOOR = 1e-12


def _volume_of_generators(gens: np.ndarray) -> float:
    """``2^n sum over n-subsets |det|``, one sum whatever the block size; 0 if the generators do not span."""
    m, n = gens.shape
    if m < n:
        return 0.0
    check_capacity(m, n, "zonotope")
    dets = [np.abs(np.linalg.det(gens[subsets])) for subsets in subset_blocks(m, n)]
    return (2.0**n) * float(np.sum(np.concatenate(dets)))


class Zonotope:
    """Minkowski sum of centered segments ``[-w_j, w_j]``.

    Generators of norm at most 1e-12 times the largest are dropped at
    construction (they contribute nothing to support, volume, or shadows
    at that relative precision).  The decomposition
    views ``alphas[j] = |w_j|`` and ``unit_directions[j] = w_j/|w_j|`` are
    exposed for the weighted-volume identities.
    """

    def __init__(self, generators: np.ndarray):
        w = np.array(generators, dtype=float)
        if w.ndim != 2:
            raise ValueError("generators must be a 2-d array (m, n)")
        if w.shape[1] < 1:
            raise ValueError("dimension must be at least 1")
        if not np.all(np.isfinite(w)):
            raise ValueError("generators must be finite")
        norms = np.linalg.norm(w, axis=1)
        w = w[norms > GENERATOR_FLOOR * np.max(norms, initial=0.0)]
        if len(w) == 0:
            raise ValueError("no nonzero generators")
        w.setflags(write=False)
        self._generators = w

    @property
    def generators(self) -> np.ndarray:
        return self._generators

    @property
    def dim(self) -> int:
        return self._generators.shape[1]

    @property
    def num_generators(self) -> int:
        return self._generators.shape[0]

    @property
    def alphas(self) -> np.ndarray:
        return np.linalg.norm(self._generators, axis=1)

    @property
    def unit_directions(self) -> np.ndarray:
        return self._generators / self.alphas[:, None]

    def __repr__(self) -> str:
        return f"Zonotope(n={self.dim}, m={self.num_generators})"

    def support(self, theta: np.ndarray) -> float:
        """``h_Z(theta) = sum_j |<theta, w_j>|`` — even and positively homogeneous."""
        th = np.asarray(theta, dtype=float)
        if th.shape != (self.dim,):
            raise ValueError("direction has wrong shape")
        return float(np.sum(np.abs(self._generators @ th)))

    def supports(self, thetas: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`support` over rows."""
        th = np.atleast_2d(np.asarray(thetas, dtype=float))
        return np.sum(np.abs(th @ self._generators.T), axis=1)

    @property
    def volume(self) -> float:
        """Exact volume by the subset-determinant expansion (chunked, deterministic)."""
        return _volume_of_generators(self._generators)

    def shadow_area(self, theta: np.ndarray) -> float:
        """(n-1)-volume of the projection onto theta-perp.

        The projected generators, expressed in an explicit orthonormal chart
        of the hyperplane, form an (n-1)-dimensional zonotope whose volume is
        the shadow.
        """
        th = np.asarray(theta, dtype=float)
        if th.shape != (self.dim,):
            raise ValueError("direction has wrong shape")
        if abs(float(np.linalg.norm(th)) - 1.0) > 1e-9:
            raise ValueError("projection direction must be a unit vector")
        if self.dim == 1:
            return 1.0  # projection is the single point 0, of 0-dim measure 1
        chart = hyperplane_basis(th)
        return _volume_of_generators(self._generators @ chart)

    def vertices(self) -> np.ndarray:
        """All points ``sum_j s_j w_j`` over sign patterns (contains every vertex)."""
        m, n = self._generators.shape
        if m > 16:
            raise CapacityError(f"vertex sign-pattern guard exceeded: m={m} (max 16)")
        half = sign_patterns(m) @ self._generators
        return np.vstack([half, -half])

    def to_dict(self) -> dict:
        return {"n": self.dim, "generators": self._generators.tolist()}


@dataclass(frozen=True)
class VolumeFormulaReport:
    """Subset-determinant volume vs the shadow-recursion identity."""

    determinant_volume: float
    shadow_identity_volume: float
    relative_gap: float


def volume_formula_check(z: Zonotope) -> VolumeFormulaReport:
    """Cross-check ``|Z|`` against ``(2/n) sum alpha_i |P_{u_i} Z|``.

    The two sides use genuinely different recursions (n-subsets vs
    (n-1)-subsets in charts), so agreement is a real consistency certificate.
    """
    lhs = z.volume
    n = z.dim
    alphas = z.alphas
    units = z.unit_directions
    rhs = (2.0 / n) * float(np.sum(alphas * np.array([z.shadow_area(units[j]) for j in range(z.num_generators)])))
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return VolumeFormulaReport(lhs, rhs, gap)


@dataclass(frozen=True)
class VolumeFloorReport:
    """Volume of the weighted zonotope against its isotropic floor."""

    volume: float
    floor: float
    ratio: float


def zonotope_volume_floor(weighted: WeightedDirections, alphas: np.ndarray) -> VolumeFloorReport:
    """Volume floor ``|Z| >= 2^n prod (alpha_i/c_i)^{c_i}`` for isotropic weights.

    ``Z`` is the zonotope with generators ``alpha_i u_i``; equality holds for
    an orthonormal frame with unit scales (the cube).  The weighted-direction
    invariants are validated before any arithmetic.
    """
    weighted.validate()
    a = np.asarray(alphas, dtype=float)
    if a.shape != (len(weighted.weights),):
        raise ValueError("need one scale per direction")
    if np.any(a <= 0.0):
        raise ValueError("scales must be strictly positive")
    z = Zonotope(a[:, None] * weighted.directions)
    n = weighted.dim
    c = weighted.weights
    floor = (2.0**n) * float(np.exp(np.sum(c * np.log(a / c))))
    return VolumeFloorReport(z.volume, floor, z.volume / floor)


def projection_body(body: SymmetricHPolytope) -> Zonotope:
    """The zonotope whose support function is the shadow area of ``body``.

    One generator per antipodal facet pair: the facet's (n-1)-measure times
    its unit normal, taken with canonical sign.  Then
    ``support(result, theta) = shadow_area(body, theta)`` for every theta —
    the defining contract, checked in tests on sampled directions.
    """
    normals = np.array([facet.normal for facet in body.facets])
    measures = np.array([facet.measure for facet in body.facets])
    keep = canonical_signs(normals) > 0
    return Zonotope(measures[keep, None] * normals[keep])


def mixed_volume_vn1(body: SymmetricHPolytope, z: Zonotope) -> float:
    """First mixed volume ``v_{n-1}(C, Z) = (2/n) sum alpha_i |P_{u_i} C|``.

    This is the coefficient of ``n t`` in ``|C + t Z|`` at t = 0; it is exactly
    linear under scaling of Z.
    """
    if body.dim != z.dim:
        raise ValueError("dimension mismatch")
    shadows = body.shadow_areas(z.unit_directions)
    return (2.0 / body.dim) * float(np.sum(z.alphas * shadows))


@dataclass(frozen=True)
class MinkowskiInequalityReport:
    """``v_{n-1}(C,Z) >= |C|^{(n-1)/n} |Z|^{1/n}``, with the measured gap."""

    lhs: float
    rhs: float
    gap: float


def minkowski_inequality_check(body: SymmetricHPolytope, z: Zonotope) -> MinkowskiInequalityReport:
    """Evaluate both sides of Minkowski's first inequality for (C, Z)."""
    n = body.dim
    lhs = body.volume ** ((n - 1) / n) * z.volume ** (1.0 / n)
    rhs = mixed_volume_vn1(body, z)
    return MinkowskiInequalityReport(lhs, rhs, rhs - lhs)


def dominance_volume_bound(
    body: SymmetricHPolytope,
    z: Zonotope,
    shadows_of_d: np.ndarray,
    rng: RandomSource,
    sample_count: int = 10_000,
) -> float:
    """Upper bound on ``|D|`` for any body D whose shadows along Z's directions
    are the given values, assuming Z is contained in C.

    Chain: ``|D|^{(n-1)/n} |Z|^{1/n} <= (2/n) sum alpha_i s_i`` and, when the
    shadows are dominated by C's, ``... <= v_{n-1}(C, Z) <= |C|``.  The bound
    returned is the smaller of the two corresponding closed forms.  Containment
    is verified by exhaustive vertex membership when Z has at most 16
    generators, plus support comparison along sampled directions.
    """
    if body.dim != z.dim:
        raise ValueError("dimension mismatch")
    s = np.asarray(shadows_of_d, dtype=float)
    if s.shape != (z.num_generators,):
        raise ValueError("need one shadow value per generator")
    if np.any(s < 0.0):
        raise ValueError("shadow values must be nonnegative")
    n = body.dim
    checked_vertices = 0
    margin = np.inf
    if z.num_generators <= 16:
        verts = z.vertices()
        inside = body.contains(verts)
        if not np.all(inside):
            raise ValueError("containment check failed: a vertex of Z lies outside C")
        checked_vertices = len(verts)
        margin = float(np.min(body.offsets - np.max(np.abs(verts @ body.directions.T), axis=0)))
    thetas = sample_unit_sphere(n, rng, count=sample_count)
    h_z = z.supports(thetas)
    h_c = np.max(np.abs(thetas @ body.vertices.points.T), axis=1)
    gap = h_c - h_z
    if np.any(gap < -1e-9):
        raise ValueError("containment check failed: support of Z exceeds support of C")
    zvol = z.volume
    if zvol <= 0.0:
        raise ValueError("Z must be full-dimensional")
    mixed = (2.0 / n) * float(np.sum(z.alphas * s))
    bound_from_shadows = mixed ** (n / (n - 1)) * zvol ** (-1.0 / (n - 1))
    cvol = body.volume
    bound_from_containment = cvol * (cvol / zvol) ** (1.0 / (n - 1))
    return min(bound_from_shadows, bound_from_containment)


def random_zonotope(n: int, m: int, rng: RandomSource, scale_range: tuple[float, float] = (0.5, 1.5)) -> Zonotope:
    """Random zonotope: uniform sphere directions with uniform scales."""
    if m < 1:
        raise ValueError("need at least one generator")
    gen = rng.generator()
    u = gen.standard_normal((m, n))
    u /= np.linalg.norm(u, axis=1)[:, None]
    lo, hi = scale_range
    return Zonotope(u * gen.uniform(lo, hi, size=m)[:, None])


def random_weighted_directions(n: int, rng: RandomSource, bases: int = 2) -> WeightedDirections:
    """Exactly isotropic weighted directions: columns of random orthogonal frames.

    Each of the ``bases`` frames contributes its n columns with weight
    ``1/bases``, so the identity resolution holds to machine precision.
    """
    if bases < 1:
        raise ValueError("need at least one frame")
    gen = rng.generator()
    frames = [random_orthogonal(n, gen).T for _ in range(bases)]
    directions = np.vstack(frames)
    weights = np.full(n * bases, 1.0 / bases)
    return WeightedDirections(directions, weights)
