"""Zonotopes: exact volumes, shadows, projection bodies, and volume inequalities.

A zonotope is a Minkowski sum of centered segments ``Z = sum_j [-w_j, w_j]``.
Everything here is exact desk-scale arithmetic:

* volume by the subset-determinant expansion ``|Z| = 2^n sum_{|S|=n} |det W_S|``;
* shadows by the expansion ``|P_theta Z| = 2^(n-1) sum_{|S|=n-1} |det(theta, W_S)|``
  (Shephard, Canad. J. Math. 1974; McMullen, "On zonotopes", Trans. AMS
  1971), where ``det(theta, W_S) = <c_S, theta>`` for the cofactor vector
  c_S of the (n-1)-subset S, so one table of cofactor vectors serves every
  direction (and gives the facet normals of ``shadow.zonotope_facet_normals``);
* the surface-area-measure volume identity ``|Z| = (2/n) sum alpha_i |P_{u_i} Z|``
  as an independent cross-check of the same number: LU determinants of
  n-subsets against the cofactors of (n-1)-subsets by the kernel's Laplace
  recursion (``kernel.cofactor_table``);
* the projection body of a symmetric polytope (support = shadow area);
* mixed volume ``v_{n-1}(C, Z)``, the Minkowski first-inequality check, the
  isotropic-weights volume floor ``2^n prod (alpha_i/c_i)^{c_i}``, and the
  shadow-dominance volume bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import RandomSource, WeightedDirections, canonical_signs, cofactor_table, random_orthogonal, subset_blocks
from .kernel import unit_directions
from .polytope import FEASIBILITY_TOL, SymmetricHPolytope

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
    dets = [np.abs(np.linalg.det(np.take(gens, subsets, axis=0))) for subsets, _ in subset_blocks(m, n)]
    return (2.0**n) * float(np.sum(np.concatenate(dets)))


#: direction-cofactor products per chunk of :meth:`Zonotope.shadow_areas` (8 MB)
_SHADOW_CHUNK = 1 << 20


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
        """(n-1)-volume of the projection onto theta-perp (see :meth:`shadow_areas`)."""
        th = np.asarray(theta, dtype=float)
        if th.shape != (self.dim,):
            raise ValueError("direction has wrong shape")
        return float(self.shadow_areas(th[None, :])[0])

    def shadow_areas(self, thetas: np.ndarray) -> np.ndarray:
        """Shadows ``|P_theta Z| = 2^(n-1) sum_{|S|=n-1} |<c_S, theta>|`` for rows of unit directions.

        The cofactor table of the generators (:func:`cofactor_table`: c_S
        is normal to the span of W_S, and its length is the (n-1)-volume of
        the parallelotope W_S) is built once per call, and each shadow is one
        sum over all of it, so no result depends on the subset block size.
        At n = 1 the table is the one vector (1,), so every shadow is the
        single point 0, of 0-dimensional measure 1.
        """
        th = unit_directions(thetas, self.dim)
        cof = cofactor_table(self._generators).T
        rows = max(1, _SHADOW_CHUNK // max(cof.shape[1], 1))
        sums = np.empty(len(th))
        for lo in range(0, len(th), rows):
            sums[lo : lo + rows] = np.abs(th[lo : lo + rows] @ cof).sum(axis=1)
        return 2.0 ** (self.dim - 1) * sums


@dataclass(frozen=True)
class VolumeFormulaReport:
    """Subset-determinant volume vs the shadow identity."""

    determinant_volume: float
    shadow_identity_volume: float
    relative_gap: float


def volume_formula_check(z: Zonotope) -> VolumeFormulaReport:
    """Cross-check ``|Z|`` against ``(2/n) sum alpha_i |P_{u_i} Z|``.

    The two sides are computed by different arithmetic: LU determinants of
    the n-subsets on the left, and on the right the cofactors of the
    (n-1)-subsets by Laplace recursion over column subsets
    (:func:`cofactor_table`, no factorisation), dotted with each unit
    generator (one call of :meth:`Zonotope.shadow_areas`).  They are the
    same sum in exact arithmetic (Cauchy-Binet), so agreement is a
    consistency certificate of both; a volume of 0 or inf raises ValueError,
    and numpy's overflow warnings on the way to it are not raised.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        lhs, rhs = z.volume, mixed_volume_vn1(z, z)
    if not (0.0 < lhs < np.inf and 0.0 < rhs < np.inf):
        raise ValueError(f"the volumes read {lhs!r} and {rhs!r}: they under- or overflow a float, and would check nothing")
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
    volume = z.volume
    return VolumeFloorReport(volume, floor, volume / floor)


def projection_body(body: SymmetricHPolytope) -> Zonotope:
    """The zonotope whose support function is the shadow area of ``body``.

    One generator ``|F_j| u_j`` per slab j, in slab order and canonical
    sign, read off the body's per-slab facet measures with no vertex set or
    facet record built; the zero generators of slabs without a facet are
    dropped.  Then ``support(result, theta) = sum_j |<theta, u_j>| |F_j| =
    shadow_area(body, theta)`` for every theta — the defining contract,
    checked in tests on sampled directions.
    """
    u = body.directions
    return Zonotope((body._facet_measures * canonical_signs(u))[:, None] * u)


def mixed_volume_vn1(body: SymmetricHPolytope | Zonotope, z: Zonotope) -> float:
    """First mixed volume ``v_{n-1}(C, Z) = (2/n) sum alpha_i |P_{u_i} C|``.

    This is the coefficient of ``n t`` in ``|C + t Z|`` at t = 0; it is exactly
    linear under scaling of Z.  C may be a zonotope too, and
    ``v_{n-1}(Z, Z) = |Z|``.
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


def dominance_volume_bound(body: SymmetricHPolytope, z: Zonotope, shadows_of_d: np.ndarray) -> float:
    """Upper bound on ``|D|`` for any body D whose shadows along Z's directions
    are the given values, assuming Z is contained in C.

    Chain: ``|D|^{(n-1)/n} |Z|^{1/n} <= (2/n) sum alpha_i s_i`` and, when the
    shadows are dominated by C's, ``... <= v_{n-1}(C, Z) <= |C|``.  The bound
    returned is the smaller of the two corresponding closed forms.  C is an
    intersection of slabs and Z is symmetric, so Z lies in C exactly when
    ``h_Z(u_i) = sum_j |<u_i, w_j>| <= t_i`` on every slab i; that is
    checked with the tolerance of :meth:`SymmetricHPolytope.contains`,
    ``FEASIBILITY_TOL`` times the scale of C.  The closed forms need n >= 2.
    """
    if body.dim != z.dim:
        raise ValueError("dimension mismatch")
    if body.dim < 2:
        raise ValueError("the dominance bound needs n >= 2: its exponents n/(n-1) and 1/(n-1)")
    s = np.asarray(shadows_of_d, dtype=float)
    if s.shape != (z.num_generators,):
        raise ValueError("need one shadow value per generator")
    if not np.all(np.isfinite(s) & (s >= 0.0)):
        raise ValueError("shadow values must be finite and nonnegative")
    n = body.dim
    if not np.all(z.supports(body.directions) <= body.offsets + FEASIBILITY_TOL * body._scale):
        raise ValueError("containment check failed: the support of Z exceeds the offset of a slab of C")
    zvol = z.volume
    if zvol <= 0.0:
        raise ValueError("Z must be full-dimensional")
    mixed = (2.0 / n) * float(np.sum(z.alphas * s))
    bound_from_shadows = mixed ** (n / (n - 1)) * zvol ** (-1.0 / (n - 1))
    cvol = body.volume
    bound_from_containment = cvol * (cvol / zvol) ** (1.0 / (n - 1))
    return min(bound_from_shadows, bound_from_containment)


def random_zonotope(n: int, m: int, rng: RandomSource) -> Zonotope:
    """Random zonotope: uniform sphere directions with scales uniform in [0.5, 1.5)."""
    if m < 1:
        raise ValueError("need at least one generator")
    gen = rng.generator()
    u = gen.standard_normal((m, n))
    u /= np.linalg.norm(u, axis=1)[:, None]
    return Zonotope(u * gen.uniform(0.5, 1.5, size=m)[:, None])


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
