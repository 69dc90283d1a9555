"""Symmetric slab bodies: exact volumes, facets, shadows, and validation."""

import dis
import itertools
import math
import sys
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    body_volume_oracle,
    exact_facet_areas,
    facet_measure_oracle,
    fd_jacobian,
    hull_surface_area,
    hull_volume,
    intersection_vertices,
    lex_ranks,
    monte_carlo_volume,
    shadow_area_oracle,
)
from shadowgeom import family, kernel, polytope
from shadowgeom.family import OFFSET_FLOOR, SlabFamilySpec, _volume_gradient, kkt_report, maximize_volume_details, verify_projection_identity
from shadowgeom.kernel import CapacityError, RandomSource, canonical_signs, cofactor_table, random_orthogonal, sample_unit_sphere
from shadowgeom.polytope import (
    _DET_TOL,
    _ONE_SLAB_TOL,
    _TIE_TOL,
    FEASIBILITY_TOL,
    MEASURE_FLOOR,
    SymmetricHPolytope,
    _candidates,
    _SlabPlan,
    _volume_derivatives,
    cauchy_surface_check,
    random_symmetric_polytope,
)
from shadowgeom.zonotope import projection_body


def cube(n: int) -> SymmetricHPolytope:
    return SymmetricHPolytope(np.eye(n), np.ones(n))


def cross_polytope(n: int) -> SymmetricHPolytope:
    """``|x_1| + ... + |x_n| <= 1`` as the 2^(n-1) slabs ``|<s, x>| <= 1`` over sign vectors s with s_1 = 1."""
    signs = np.array([(1.0,) + s for s in itertools.product((1.0, -1.0), repeat=n - 1)])
    return SymmetricHPolytope(signs / math.sqrt(n), np.full(len(signs), 1.0 / math.sqrt(n)))


def coinciding_body() -> SymmetricHPolytope:
    """A 4-D body whose slab 7 repeats slab 2 and whose slab 8 is slab 4 reversed."""
    base = random_symmetric_polytope(4, 7, RandomSource(60))
    u = np.vstack([base.directions, base.directions[2], -base.directions[4]])
    return SymmetricHPolytope(u, np.r_[base.offsets, base.offsets[2], base.offsets[4]])


def near_coincident_body(eps: float, tilt: float = 0.0) -> tuple[SymmetricHPolytope, float, float]:
    """The unit cube plus the slab of unit normal (a, b, 0) ~ (1, eps, 0) at offset 1, rotated by `tilt` radians.

    The rotation turns about (1, 1, 1) / sqrt(3), so that no normal keeps a
    zero coordinate.  Returns the body and the unrotated (a, b).
    """
    u = np.vstack([np.eye(3), [[1.0, eps, 0.0]]])
    u /= np.linalg.norm(u, axis=1)[:, None]
    k = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]]) / math.sqrt(3.0)
    rotation = np.eye(3) + math.sin(tilt) * k + (1.0 - math.cos(tilt)) * (k @ k)
    return SymmetricHPolytope(u @ rotation.T, np.ones(4)), u[3, 0], u[3, 1]


def doubled_at_half_offset(base: SymmetricHPolytope, eps: float, last: bool) -> tuple[SymmetricHPolytope, SymmetricHPolytope]:
    """`base` with a copy of its slab 0 at half the offset, turned by the angle eps, as the last slab or the first; and the same without slab 0."""
    u, t = base.directions, base.offsets
    w = u[1] - (u[1] @ u[0]) * u[0]
    copy = math.cos(eps) * u[0] + math.sin(eps) * w / np.linalg.norm(w)

    def body(rows: np.ndarray, offsets: np.ndarray) -> SymmetricHPolytope:
        if last:
            return SymmetricHPolytope(np.vstack([rows, copy]), np.r_[offsets, t[0] / 2.0])
        return SymmetricHPolytope(np.vstack([copy, rows]), np.r_[t[0] / 2.0, offsets])

    return body(u, t), body(u[1:], t[1:])


def named_degenerate_bodies() -> dict[str, SymmetricHPolytope]:
    """Bodies with vertices on more than n hyperplanes, by name: coinciding, reversed, touching, near-coincident and thin slabs."""
    bodies = {f"cube-{n}": cube(n) for n in (2, 3, 4)} | {f"cross-{n}": cross_polytope(n) for n in (3, 4)}
    bodies["coinciding"] = coinciding_body()
    bodies["doubled-square"] = SymmetricHPolytope(np.vstack([np.eye(2), np.eye(2)[:1]]), np.ones(3))
    base = cube(4)
    theta = np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0)
    bodies["touching-2-faces"] = SymmetricHPolytope(np.vstack([base.directions, theta]), np.r_[base.offsets, base.support(theta)])
    for eps in (1e-5, 1e-9, 1e-13):
        bodies[f"near-coincident-{eps:g}"] = near_coincident_body(eps)[0]
    for n in (3, 4, 5):  # one offset at the family solver's floor: the two floors merge
        base = random_symmetric_polytope(n, n + 3, RandomSource(70 + 10 * n))
        bodies[f"floor-offset-{n}"] = SymmetricHPolytope(base.directions, np.r_[OFFSET_FLOOR, base.offsets[1:]])
    return bodies


def degenerate_bodies() -> list[SymmetricHPolytope]:
    """The bodies of :func:`named_degenerate_bodies`, in order."""
    return list(named_degenerate_bodies().values())


def assert_vertices_match(body: SymmetricHPolytope, ref: np.ndarray, scale: float = 1.0) -> None:
    """The body has as many vertices as the oracle, and every oracle vertex within 1e-8 * scale."""
    mine = body.vertices.points
    assert len(mine) == len(ref)
    for p in ref:
        assert np.min(np.linalg.norm(mine - p, axis=1)) <= 1e-8 * scale


class TestConstruction:
    def test_rejects_non_unit_directions(self):
        with pytest.raises(ValueError, match="unit"):
            SymmetricHPolytope(np.array([[2.0, 0.0], [0.0, 1.0]]), np.ones(2))

    def test_rejects_nonpositive_offsets(self):
        with pytest.raises(ValueError, match="positive"):
            SymmetricHPolytope(np.eye(2), np.array([1.0, 0.0]))

    def test_rejects_unbounded(self):
        s = math.sqrt(0.5)
        u = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [s, s, 0.0]])
        with pytest.raises(ValueError, match="unbounded"):
            SymmetricHPolytope(u, np.ones(3))

    def test_rejects_too_few_slabs(self):
        with pytest.raises(ValueError, match="slabs"):
            SymmetricHPolytope(np.eye(3)[:2], np.ones(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_offsets(self, bad):
        with pytest.raises(ValueError, match="offsets"):
            SymmetricHPolytope(np.eye(2), np.array([bad, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_directions(self, bad):
        with pytest.raises(ValueError, match="directions"):
            SymmetricHPolytope(np.array([[bad, 0.0], [0.0, 1.0], [1.0, 0.0]]), np.ones(3))


class TestFromDict:
    def test_round_trip(self):
        body = cube(3)
        again = SymmetricHPolytope.from_dict(body.to_dict())
        assert np.allclose(again.directions, body.directions)
        assert np.allclose(again.offsets, body.offsets)

    def test_auto_normalizes_within_tolerance(self):
        doc = {
            "n": 2,
            "directions": [[1.0 + 5e-7, 0.0], [0.0, 1.0]],
            "offsets": [1.0, 1.0],
        }
        body = SymmetricHPolytope.from_dict(doc)
        assert np.allclose(np.linalg.norm(body.directions, axis=1), 1.0, atol=1e-15)

    def test_rejects_far_from_unit(self):
        doc = {"n": 2, "directions": [[1.1, 0.0], [0.0, 1.0]], "offsets": [1.0, 1.0]}
        with pytest.raises(ValueError, match="norm"):
            SymmetricHPolytope.from_dict(doc)

    def test_rejects_unknown_keys(self):
        doc = {"n": 2, "directions": [[1, 0], [0, 1]], "offsets": [1, 1], "extra": 0}
        with pytest.raises(ValueError, match="unknown"):
            SymmetricHPolytope.from_dict(doc)

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="missing"):
            SymmetricHPolytope.from_dict({"n": 2})

    def test_rejects_zero_direction(self):
        doc = {"n": 2, "directions": [[0.0, 0.0], [0.0, 1.0]], "offsets": [1.0, 1.0]}
        with pytest.raises(ValueError, match="zero"):
            SymmetricHPolytope.from_dict(doc)

    def test_rejects_boolean_n(self):
        # JSON true is a Python bool, which is an int: it must not read as n = 1
        with pytest.raises(ValueError, match="positive integer"):
            SymmetricHPolytope.from_dict({"n": True, "directions": [[1.0]], "offsets": [1.0]})


class TestExactFixtures:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_cube_volume(self, n):
        assert cube(n).volume == pytest.approx(2.0**n, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cube_surface_area(self, n):
        assert cube(n).surface_area == pytest.approx(2.0 * n * 2.0 ** (n - 1), rel=1e-12)

    def test_cube_vertices(self):
        verts = cube(3).vertices.points
        assert len(verts) == 8
        assert np.allclose(np.abs(verts), 1.0)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_octahedron_volume(self, n):
        # cross-polytope via the 2^(n-1) cube-diagonal slabs at offset 1/sqrt(n):
        # {|x1 +- ... +- xn| <= 1} is |x1| + ... + |xn| <= 1, volume 2^n / n!.
        # Every vertex lies on 2^(n-1) facet hyperplanes, so none is simple.
        body = cross_polytope(n)
        assert body.volume == pytest.approx(2.0**n / math.factorial(n), rel=1e-12)
        # each facet is a regular simplex with edge sqrt(2)
        assert len(body.facets) == 2**n
        for f in body.facets:
            assert f.measure == pytest.approx(math.sqrt(n) / math.factorial(n - 1), rel=1e-12)
            assert len(f.vertex_indices) == n

    def test_hexagon_area(self):
        angles = np.array([0.0, math.pi / 3.0, 2.0 * math.pi / 3.0])
        u = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        body = SymmetricHPolytope(u, np.ones(3))
        assert body.volume == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-12)

    def test_vertex_on_several_slabs_is_listed_once(self):
        # a fourth slab touches the hexagon at the vertex (1, -1/sqrt(3)), so
        # subsets of different slabs find that vertex with opposite signs,
        # and another vertex has a zero first coordinate
        angles = np.array([0.0, math.pi / 3.0, 2.0 * math.pi / 3.0, -math.pi / 6.0])
        u = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        body = SymmetricHPolytope(u, np.array([1.0, 1.0, 1.0, 2.0 / math.sqrt(3.0)]))
        verts = body.vertices.points
        assert len(verts) == 6
        assert np.min(np.linalg.norm(verts[:, None] - verts[None], axis=2) + 9.0 * np.eye(6)) > 1.1
        assert body.volume == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-12)

    def test_cube_shadow_along_diagonal(self):
        theta = np.ones(3) / math.sqrt(3.0)
        assert cube(3).shadow_area(theta) == pytest.approx(4.0 * math.sqrt(3.0), rel=1e-12)

    def test_cube_axis_shadow(self):
        assert cube(3).shadow_area(np.array([1.0, 0.0, 0.0])) == pytest.approx(4.0, rel=1e-12)


class TestAgainstHullOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_volume_matches_vertex_hull(self, seed):
        n = 2 + seed % 4  # 2..5
        m = n + 2 + seed % 4
        body = random_symmetric_polytope(n, m, RandomSource(100 + seed))
        oracle = body_volume_oracle(body.directions, body.offsets)
        assert body.volume == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_vertices_match_intersection_oracle(self, seed):
        n = 2 + seed % 3
        body = random_symmetric_polytope(n, n + 3, RandomSource(200 + seed))
        assert_vertices_match(body, intersection_vertices(body.directions, body.offsets))

    @pytest.mark.parametrize("n, m", [(n, m) for n in (5, 6) for m in (10, 11, 12)])
    def test_vertices_match_intersection_oracle_in_five_and_six_dimensions(self, n, m):
        body = random_symmetric_polytope(n, m, RandomSource(210 + 10 * n + m))
        assert_vertices_match(body, intersection_vertices(body.directions, body.offsets))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_cube_vertices_match_intersection_oracle(self, n):
        body = cube(n)
        assert_vertices_match(body, intersection_vertices(body.directions, body.offsets))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_cross_polytope_vertices_match_intersection_oracle(self, n):
        # every vertex lies on the boundary of all 2^(n-1) slabs, the first four included
        body = cross_polytope(n)
        assert_vertices_match(body, intersection_vertices(body.directions, body.offsets))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_duplicated_and_reversed_slabs_among_the_first_four(self, n):
        # rows 0, 1 are one slab twice and rows 2, 3 one slab with opposite normals:
        # all four are tested in the first pass, and subsets holding a pair are singular
        base = random_symmetric_polytope(n, n + 3, RandomSource(230 + n))
        u, t = base.directions, base.offsets
        body = SymmetricHPolytope(np.vstack([u[:1], u[:1], u[1:2], -u[1:2], u[2:]]), np.concatenate([t[:1], t[:2], t[1:]]))
        ref = intersection_vertices(body.directions, body.offsets)
        assert_vertices_match(body, ref)
        assert_vertices_match(base, ref)

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_vertices_match_intersection_oracle_at_extreme_scales(self, scale):
        # the vertices of sP are s times those of P; the oracle's tolerances are absolute
        base = random_symmetric_polytope(6, 10, RandomSource(240))
        body = SymmetricHPolytope(base.directions, scale * base.offsets)
        assert_vertices_match(body, scale * intersection_vertices(base.directions, base.offsets), scale)

    @pytest.mark.parametrize("seed", range(6))
    def test_shadow_matches_projected_hull(self, seed):
        n = 3 + seed % 2
        body = random_symmetric_polytope(n, n + 3, RandomSource(300 + seed))
        theta = sample_unit_sphere(n, RandomSource(301 + seed))
        mine = body.shadow_area(theta)
        ref = shadow_area_oracle(body.vertices.points, theta)
        assert mine == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("m", [8, 9, 10])
    def test_volume_matches_vertex_hull_in_six_dimensions(self, m):
        body = random_symmetric_polytope(6, m, RandomSource(400 + m))
        oracle = body_volume_oracle(body.directions, body.offsets)
        assert body.volume == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("m", [8, 9, 10])
    def test_shadow_matches_projected_hull_in_six_dimensions(self, m):
        body = random_symmetric_polytope(6, m, RandomSource(500 + m))
        theta = sample_unit_sphere(6, RandomSource(501 + m))
        ref = shadow_area_oracle(intersection_vertices(body.directions, body.offsets), theta)
        assert body.shadow_area(theta) == pytest.approx(ref, rel=1e-9)

    def test_surface_area_matches_hull(self):
        body = random_symmetric_polytope(3, 7, RandomSource(42))
        ref = hull_surface_area(body.vertices.points)
        assert body.surface_area == pytest.approx(ref, rel=1e-9)

    def test_volume_matches_monte_carlo(self):
        body = random_symmetric_polytope(3, 6, RandomSource(43))
        est, err = monte_carlo_volume(body.directions, body.offsets, RandomSource(44).generator())
        assert abs(body.volume - est) <= 5.0 * err


class TestFacets:
    def test_cube_facet_measures(self):
        facets = cube(3).facets
        assert len(facets) == 6
        for f in facets:
            assert f.measure == pytest.approx(4.0, rel=1e-12)
            assert len(f.owners) == 1

    def test_facet_measures_sum_to_surface_area(self):
        body = random_symmetric_polytope(4, 7, RandomSource(45))
        total = sum(f.measure for f in body.facets)
        assert total == pytest.approx(body.surface_area, rel=1e-12)

    def test_coinciding_slabs_share_one_facet(self):
        u = np.vstack([np.eye(2), np.eye(2)[:1]])
        body = SymmetricHPolytope(u, np.array([1.0, 1.0, 1.0]))
        # slab 2 duplicates slab 0: the facet at x1 = 1 must carry both owners
        owners = {f.owners for f in body.facets}
        assert ((0, 1), (2, 1)) in owners

    def test_coinciding_slabs_in_four_dimensions(self):
        # slab 7 repeats slab 2 and slab 8 is slab 4 reversed: the vertices on
        # those facets are not simple, the rest of the body is
        body = coinciding_body()
        base = SymmetricHPolytope(body.directions[:7], body.offsets[:7])
        owners = {f.owners for f in body.facets}
        assert ((2, 1), (7, 1)) in owners and ((2, -1), (7, -1)) in owners
        assert ((4, 1), (8, -1)) in owners and ((4, -1), (8, 1)) in owners
        assert len(body.facets) == len(base.facets)
        for f, g in zip(body.facets, base.facets):
            assert f.vertex_indices == g.vertex_indices
            assert f.measure == pytest.approx(g.measure, rel=1e-12)
        assert body.volume == pytest.approx(body_volume_oracle(body.directions, body.offsets), rel=1e-9)

    @pytest.mark.parametrize("case", ["vertex", "two-face"])
    def test_touching_redundant_slab_in_four_dimensions(self, case):
        if case == "vertex":
            # a generic direction at the support value touches one vertex pair
            base = random_symmetric_polytope(4, 7, RandomSource(61))
            theta = sample_unit_sphere(4, RandomSource(62))
        else:
            # the cube touched along its 2-faces x1 = x2 = +-1
            base = cube(4)
            theta = np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0)
        u = np.vstack([base.directions, theta])
        t = np.r_[base.offsets, base.support(theta)]
        body = SymmetricHPolytope(u, t)
        assert len(u) - 1 not in {o[0] for f in body.facets for o in f.owners}
        assert body.volume == pytest.approx(hull_volume(intersection_vertices(u, t)), rel=1e-9)
        assert body.volume == pytest.approx(base.volume, rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13])
    def test_near_coincident_slab_matches_hull(self, eps):
        # unit cube plus a slab with normal ~ (1, eps, 0) at offset 1: the
        # cut-off wedges have volume ~eps.  The reference merges vertices
        # within 1e-8, so below that it cannot see the wedges; the closed
        # form below can.
        body, _, _ = near_coincident_body(eps)
        ref = hull_volume(intersection_vertices(body.directions, body.offsets))
        assert body.volume == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("tilt", [0.0, 0.5])
    @pytest.mark.parametrize(
        "eps",
        [10.0 ** (-k / 4.0) for k in range(20, 61)] + sorted({f * tol for tol in (_TIE_TOL, _DET_TOL) for f in (0.5, 0.8, 1.25, 2.0)}),
    )
    def test_near_coincident_slab_matches_closed_form(self, eps, tilt):
        # the slab (a, b, 0) cuts two wedges off the cube: on the facet x1 = 1
        # it is tight at x2 = x* = (1 - a) / b, and each wedge has volume
        # b (1 - x*)^2 / a.  Around eps = _TIE_TOL the corner and the slab's
        # vertex next to it become one vertex, and up to eps = _ONE_SLAB_TOL
        # the two slabs are one, which moves the volume by about eps / 4
        # relative.  No case is refused.
        body, a, b = near_coincident_body(eps, tilt)
        x = (1.0 - a) / b
        assert body.volume == pytest.approx(8.0 - 2.0 * b * (1.0 - x) ** 2 / a, rel=1e-11)

    @pytest.mark.parametrize("tilt", [0.0, 0.3, 0.5, 0.8, 1.1])
    @pytest.mark.parametrize("factor", [1.0, 1.01, 1.05, 1.1, 1.25])
    def test_the_band_at_the_singular_threshold_is_one_slab(self, factor, tilt):
        # eps = 1e-12 to 1.25e-12, where the subsets of the pair's ridge fell on both sides of _DET_TOL: three of these
        # bodies were refused ("reads negative") and the rest read volumes within 2.5e-13.  The pair is within
        # _ONE_SLAB_TOL, so slab 0 stands for both: its facets take the pair's measure, and no body is refused.
        body, a, b = near_coincident_body(factor * _DET_TOL, tilt)
        x = (1.0 - a) / b
        exact = exact_facet_areas(body.directions, body.offsets)
        assert body.volume == pytest.approx(8.0 - 2.0 * b * (1.0 - x) ** 2 / a, rel=1e-11)
        measures = body._facet_measures
        assert measures[3] == 0.0 and measures[0] == pytest.approx(exact[0] + exact[3], rel=1e-11)

    @pytest.mark.parametrize("eps", [2e-12, 1e-10, 1e-8])
    def test_near_parallel_facet_split_is_conditioned_by_the_angle(self, eps):
        # a documented limit: the two nearly parallel facets meet along a line that rounding moves by about
        # eps_mach / eps, so each of their measures is good to about that much (4.1e-5 relative at eps = 2e-12),
        # while their sum and the volume stay exact to rounding.  The reference is exact on the rounded input.
        body, _, _ = near_coincident_body(eps, 0.5)
        exact = exact_facet_areas(body.directions, body.offsets)
        measures = body._facet_measures
        assert np.all(np.abs(measures - exact) <= 1e-15 / eps * exact)
        assert measures[0] + measures[3] == pytest.approx(exact[0] + exact[3], rel=1e-15)
        assert body.volume == pytest.approx((2.0 / 3.0) * float(body.offsets @ exact), rel=1e-15)

    def test_exact_facet_areas_match_the_closed_form(self):
        # the oracle itself, at an angle where floating point resolves the cut: facets 2(1 + x*) and 2(1 - x*)/a
        body, a, b = near_coincident_body(1e-3)
        x = (1.0 - a) / b
        exact = exact_facet_areas(body.directions, body.offsets)
        assert exact[[0, 3]] == pytest.approx([2.0 * (1.0 + x), 2.0 * (1.0 - x) / a], rel=1e-12)
        assert exact_facet_areas(np.eye(3), np.ones(3)).tolist() == [4.0, 4.0, 4.0]

    @pytest.mark.parametrize("tilt", [0.0, 0.5])
    @pytest.mark.parametrize("factor", [0.5, 0.8, 1.25, 2.0])
    def test_subset_determinants_match_lu_at_the_singular_threshold(self, factor, tilt):
        # the slab at angle eps ~ factor * _DET_TOL to x1 = 1 makes subset determinants of about eps
        body, _, _ = near_coincident_body(factor * _DET_TOL, tilt)
        u = body.directions
        ((subsets, ranks),) = kernel.subset_blocks(4, 3)
        assert ranks.tolist() == lex_ranks(subsets, 4)
        lu = np.linalg.det(u[subsets])
        laplace = np.sum(u[subsets[:, 0]] * cofactor_table(u)[ranks[:, 0]], axis=1)
        assert np.abs(laplace - lu).max() <= 1e-15
        _, kept, _, _, _, dets, _ = _candidates(_SlabPlan(u), body.offsets[None])
        assert np.abs(dets - np.abs(np.linalg.det(u[kept]))).max() <= 1e-15
        # the plan keeps the subsets whose determinants are above _DET_TOL; within _ONE_SLAB_TOL slab 0 stands for slab
        # 3, and no kept row holds it
        assert _SlabPlan(u).block.subsets.tolist() == subsets[np.abs(laplace) > _DET_TOL].tolist()
        rows = polytope._kept_rows(_SlabPlan(u), body.offsets[None])[1]
        assert (factor * _DET_TOL <= _ONE_SLAB_TOL) == (3 not in rows)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_floor_offset_facet_matches_hull(self, n):
        # one offset at the family solver's floor: the body is 2e-9 thick, so
        # its two floors lie within FEASIBILITY_TOL and VERTEX_MERGE_TOL of
        # each other.  The reference measures the floor facet in a chart of
        # its own hyperplane, not from the library's vertex set.
        base = random_symmetric_polytope(n, n + 3, RandomSource(70 + 10 * n))
        u, t = base.directions, np.r_[OFFSET_FLOOR, base.offsets[1:]]
        body = SymmetricHPolytope(u, t)
        floor = next(f for f in body.facets if np.array_equal(f.normal, u[0]))
        ref = facet_measure_oracle(u, t, 0)
        assert floor.measure == pytest.approx(ref, rel=1e-9)
        # a prism of height 2 t_0 over its section, up to O(t_0) relative
        assert body.volume == pytest.approx(2.0 * OFFSET_FLOOR * ref, rel=1e-5)

    @pytest.mark.parametrize("last", [True, False])
    @pytest.mark.parametrize("eps", [0.0, 1e-12])
    @pytest.mark.parametrize("n, m", [(2, 2), (4, 8)])
    def test_a_doubled_slab_is_the_one_of_smaller_offset(self, n, m, eps, last):
        # slab 0 again, at half its offset and within _ONE_SLAB_TOL of it, after the body's slabs or before them: the
        # copy binds, so it stands for the pair whichever index it has, and the body is the one without slab 0
        base = cube(2) if n == 2 else random_symmetric_polytope(n, m, RandomSource(71))
        body, ref = doubled_at_half_offset(base, eps, last)
        assert _SlabPlan(body.directions).stored
        assert body.volume == pytest.approx(ref.volume, rel=1e-14)
        assert body.vertices.points == pytest.approx(ref.vertices.points, abs=1e-14)
        looser = 0 if last else 1
        assert body._facet_measures[looser] == 0.0
        assert np.delete(body._facet_measures, looser) == pytest.approx(ref._facet_measures, rel=1e-12)

    def test_redundant_slab_has_no_facet(self):
        u = np.vstack([np.eye(2), [[math.sqrt(0.5), math.sqrt(0.5)]]])
        body = SymmetricHPolytope(u, np.array([1.0, 1.0, 5.0]))
        touched = {o[0] for f in body.facets for o in f.owners}
        assert 2 not in touched
        assert body.volume == pytest.approx(4.0, rel=1e-12)

    def test_vertex_and_facet_counts_of_the_degenerate_bodies(self):
        # the vertex set is merged within VERTEX_MERGE_TOL * scale (1e-8), as README states: the two floors of a
        # floor-offset body, 2e-9 apart, are one set of vertices, and so are the points that the slab at angle
        # eps = 1e-9..1e-11 puts within 1e-8 of the cube's.  Merging at the cone pass's _TIE_TOL (1e-12) instead counts
        # 16/32/84 vertices on floor-offset-3/4/5 and 20 on the near-coincident bodies at eps = 1e-9..1e-11.
        def counts(body: SymmetricHPolytope) -> tuple[int, int]:
            return len(body.vertices.points), len(body.facets)

        assert {name: counts(body) for name, body in named_degenerate_bodies().items()} == {
            "cube-2": (4, 4), "cube-3": (8, 6), "cube-4": (16, 8), "cross-3": (6, 8), "cross-4": (8, 16),
            "coinciding": (36, 12), "doubled-square": (4, 4), "touching-2-faces": (16, 8),
            "near-coincident-1e-05": (12, 8), "near-coincident-1e-09": (12, 8), "near-coincident-1e-13": (8, 6),
            "floor-offset-3": (8, 10), "floor-offset-4": (16, 12), "floor-offset-5": (42, 16),
        }
        sweep = {k: counts(near_coincident_body(10.0**-k)[0]) for k in range(5, 14)}
        assert sweep == {k: (12, 8) for k in range(5, 12)} | {12: (8, 6), 13: (8, 6)}


#: the (n, m) shapes of random bodies that the benchmark workloads (position, family, measure) draw
WORKLOAD_SHAPES = sorted(
    {(n, m) for n in (4, 5, 6) for m in range(n + 3, 15)}
    | {(3, 6), (4, 8)}
    | {(n, m) for n in (3, 4, 5, 6) for m in range(n + 2, min(16, 2 * n + 4) + 1)}
)


class TestFacetMeasures:
    @pytest.mark.parametrize("n, m", WORKLOAD_SHAPES)
    def test_every_facet_matches_the_chart_oracle(self, n, m):
        body = random_symmetric_polytope(n, m, RandomSource(600 + 20 * n + m))
        ref = np.array([facet_measure_oracle(body.directions, body.offsets, k) for k in range(m)])
        facets = body.facets
        mine = np.zeros(m)
        mine[np.argmax(facets.signs[::2] != 0, axis=1)] = facets.measures[::2]
        assert np.max(np.abs(mine - ref)) <= 1e-9 * ref.max()


class TestVertexCones:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_volume_matches_the_hull_of_the_vertices_at_every_workload_shape(self, n):
        # one body a shape; the worst relative error measured is 6.3e-16, 3.7e-15, 5.4e-15 and 6.2e-14 at n = 3..6
        for m in (m for k, m in WORKLOAD_SHAPES if k == n):
            body = random_symmetric_polytope(n, m, RandomSource(5000 + 100 * n + 10 * m))
            ref = hull_volume(body.vertices.points)
            assert abs(body.volume - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("n, m, seed", [(3, 7, 700), (4, 9, 701), (5, 10, 702)])
    def test_gamma_does_not_depend_on_the_offsets(self, n, m, seed):
        # two bodies over one direction set whose sums choose the same c: a cone (S, p) of both has the same gamma bits
        body = random_symmetric_polytope(n, m, RandomSource(seed))
        u, table = body.directions, polytope._direction_table(n)
        gammas, chosen = [], []
        for t in (body.offsets, body.offsets * RandomSource(seed + 1).generator().uniform(0.99, 1.01, size=m)):
            _, sub, pat, _, _, _, _ = _candidates(_SlabPlan(u), t[None])
            _, kept, _, gamma, _ = polytope._cones(_SlabPlan(u), t[None])
            assert np.array_equal(kept, sub)  # a generic body keeps every candidate, in order
            # p * inv(U_S)^T c for every column c of the table, and the column whose gammas these are
            ref = pat[:, :, None] * (np.linalg.inv(u[sub]).transpose(0, 2, 1) @ table)
            c = int(np.argmin(np.abs(ref - gamma[:, :, None]).max(axis=(0, 1))))
            scale = np.abs(ref[:, :, c]).max(axis=1) * np.linalg.cond(u[sub])
            assert np.all(np.abs(gamma - ref[:, :, c]).max(axis=1) <= 1e-14 * scale)
            gammas.append({(tuple(s), tuple(p)): g for s, p, g in zip(sub.tolist(), pat.tolist(), gamma)})
            chosen.append(c)
        assert chosen[0] == chosen[1]
        shared = gammas[0].keys() & gammas[1].keys()
        assert len(shared) >= 10
        assert all(np.array_equal(gammas[0][key], gammas[1][key]) for key in shared)


class TestFacetRecord:
    @pytest.mark.parametrize("body", [random_symmetric_polytope(4, 8, RandomSource(91)), coinciding_body()], ids=["random", "coinciding"])
    def test_sequence_and_arrays_agree(self, body):
        body = SymmetricHPolytope(body.directions, body.offsets)
        thetas = sample_unit_sphere(body.dim, RandomSource(96), count=50)
        # read from the cone rows before the record exists
        shadows, area, generators = body.shadow_areas(thetas), body.surface_area, projection_body(body).generators
        facets = body.facets
        # the rows F, -F of each slab with a facet, by slab, read off the per-slab measures
        measures = body._facet_measures
        slabs = np.flatnonzero(measures)
        sides = np.tile([1.0, -1.0], len(slabs))[:, None]
        assert np.array_equal(facets.normals, sides * np.repeat(body.directions[slabs], 2, axis=0))
        assert np.array_equal(facets.measures, np.repeat(measures[slabs], 2))
        assert np.array_equal(facets.offsets, np.repeat(body.offsets[slabs], 2))
        # Cauchy's formula and the sum over the record's rows up to rounding, and the canonical-sign filter of its rows
        assert shadows == pytest.approx(0.5 * (np.abs(thetas @ facets.normals.T) @ facets.measures), rel=1e-15)
        assert area == pytest.approx(float(facets.measures.sum()), rel=1e-15)
        keep = canonical_signs(facets.normals) > 0
        assert np.array_equal(generators, facets.measures[keep, None] * facets.normals[keep])
        count, m = len(facets), body.num_slabs
        assert facets.signs.shape == (count, m) and facets.signs.dtype == np.int8
        assert facets.incidence.shape == (count, len(body.vertices)) and facets.incidence.dtype == bool
        listed = list(facets)
        assert len(listed) == count == len(facets.measures)
        for i, f in enumerate(listed):
            for g in (facets[i], facets[i - count]):
                assert np.array_equal(g.normal, f.normal) and (g.offset, g.measure) == (f.offset, f.measure)
                assert (g.vertex_indices, g.owners) == (f.vertex_indices, f.owners)
            assert np.array_equal(facets.normals[i], f.normal)
            assert (facets.offsets[i], facets.measures[i]) == (f.offset, f.measure)
            assert tuple(np.flatnonzero(facets.incidence[i])) == f.vertex_indices
            assert tuple((j, facets.signs[i, j]) for j in np.flatnonzero(facets.signs[i])) == f.owners
        with pytest.raises(IndexError):
            facets[count]
        with pytest.raises(IndexError):
            facets[-count - 1]

    @pytest.mark.parametrize("make", [lambda: random_symmetric_polytope(4, 8, RandomSource(93)), coinciding_body, lambda: cube(3)], ids=["random", "coinciding", "cube"])
    def test_no_measure_builds_the_vertices_or_the_facets(self, make):
        body = make()
        spec = SlabFamilySpec(body.directions, np.full(body.num_slabs, 1.0 / body.num_slabs))
        body.volume, body.volume_hessian, body.surface_area
        body.shadow_areas(sample_unit_sphere(body.dim, RandomSource(94), count=10))
        projection_body(body)
        kkt_report(body, spec)
        verify_projection_identity(body, spec, sample_count=10)
        assert "vertices" not in body.__dict__ and "facets" not in body.__dict__
        # the body keeps the measures read off its cones, not the cone rows
        assert "_measures" in body.__dict__ and "_cones" not in body.__dict__

    def test_the_family_solver_and_its_certificates_build_neither(self):
        spec = SlabFamilySpec(sample_unit_sphere(3, RandomSource(95), count=6), np.full(6, 1.0 / 6.0))
        body = maximize_volume_details(spec, rng=RandomSource(95)).body
        kkt_report(body, spec)
        verify_projection_identity(body, spec, sample_count=10)
        assert "vertices" not in body.__dict__ and "facets" not in body.__dict__
        assert "_measures" in body.__dict__ and "_cones" not in body.__dict__

    @pytest.mark.parametrize(
        "body",
        [random_symmetric_polytope(n, m, RandomSource(92 + 10 * n + m)) for n in range(2, 7) for m in (n + 1, 2 * n + 2)]
        + degenerate_bodies(),
    )
    def test_owners_are_the_slabs_tight_on_every_vertex(self, body):
        u, t = body.directions, body.offsets
        scale = math.ldexp(1.0, math.frexp(float(t.max()))[1] - 1)
        for f in body.facets:
            dots = body.vertices.points[list(f.vertex_indices)] @ u.T
            tight = [
                (j, sign)
                for j in range(len(u))
                for sign in (1, -1)
                if np.all(np.abs(sign * dots[:, j] - t[j]) <= FEASIBILITY_TOL * scale)
            ]
            assert f.owners == tuple(tight)


class TestVolumeHessian:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_finite_differences_of_gradient(self, n, seed):
        body = random_symmetric_polytope(n, 2 * n, RandomSource(80 + 10 * n + seed))
        u, weights = body.directions, np.ones(body.num_slabs)
        ref = fd_jacobian(lambda t: _volume_gradient(SymmetricHPolytope(u, t), weights), body.offsets)
        hess = body.volume_hessian
        assert np.max(np.abs(hess - ref)) <= 1e-5 * np.max(np.abs(ref))
        assert np.array_equal(hess, hess.T)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cube_closed_form(self, n):
        # V = prod(2 t_i): d2V/dt_i dt_j = 2^n off the diagonal and 0 on it at t = 1
        expected = 2.0**n * (np.ones((n, n)) - np.eye(n))
        assert np.allclose(cube(n).volume_hessian, expected, rtol=1e-12, atol=1e-12)

    def test_hessian_after_facets_keeps_the_facets(self):
        body = random_symmetric_polytope(3, 6, RandomSource(90))
        facets = body.facets
        hess = body.volume_hessian
        assert body.facets is facets
        assert np.array_equal(hess, SymmetricHPolytope(body.directions, body.offsets).volume_hessian)

    def test_nearly_parallel_facets_give_a_finite_hessian(self):
        # the facet x1 = 1 and the slab (a, b, 0) meet at an angle of about
        # b = 1e-8; moving the slab by dt moves their two ridges, of length 2,
        # by dt / b within the facet, on both sides of the body
        body, a, b = near_coincident_body(1e-8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hess = body.volume_hessian
        assert np.all(np.isfinite(hess)) and np.array_equal(hess, hess.T)
        assert hess[0, 3] == pytest.approx(4.0 / b, rel=1e-6)

    def test_coinciding_slabs_are_charged_to_the_first(self):
        # slab 7 repeats slab 2 and slab 8 is slab 4 reversed: their facets
        # and ridges belong to slabs 2 and 4, whichever side is canonical
        hess = coinciding_body().volume_hessian
        for j in (7, 8):
            assert not hess[j].any() and not hess[:, j].any()
        assert np.abs(hess[2]).sum() > 0.0 and np.abs(hess[4]).sum() > 0.0


def assert_stack_is_its_bodies_alone(u: np.ndarray, t: np.ndarray, plan: _SlabPlan | None = None) -> None:
    volumes, grads, hessians = _volume_derivatives(plan or _SlabPlan(u), t)
    for k in range(len(t)):
        (volume,), (grad,), (hess,) = _volume_derivatives(_SlabPlan(u), t[k : k + 1])
        assert volume == volumes[k] and np.array_equal(grad, grads[k]) and np.array_equal(hess, hessians[k])
        body = SymmetricHPolytope(u, t[k])
        assert body.volume == volume and np.array_equal(body._measures[1], grad) and np.array_equal(body.volume_hessian, hess)
        # the facet measures are half the gradient, before the family splits a facet of coinciding slabs among
        # them, and 0 below the floor
        floor = MEASURE_FLOOR * body._scale ** (body.dim - 1)
        assert np.array_equal(body._facet_measures, np.where(0.5 * grad < floor, 0.0, 0.5 * grad))


class TestStackedBodies:
    @pytest.mark.parametrize("n, m", [(n, m) for n in (3, 4, 5, 6) for m in range(n + 2, min(16, 2 * n + 4) + 1)])
    def test_each_body_of_a_stack_is_the_same_bits_as_alone(self, n, m):
        # the shapes of the measure workload; at n = 6, m = 15 and 16 the plan streams, and each body walks alone
        body = random_symmetric_polytope(n, m, RandomSource(640 + 20 * n + m))
        t = body.offsets * RandomSource(641 + 20 * n + m).generator().uniform(0.5, 2.0, size=(3, m))
        assert_stack_is_its_bodies_alone(body.directions, t)

    @pytest.mark.parametrize("index", range(len(degenerate_bodies())))
    def test_degenerate_bodies_in_a_stack_are_the_same_bits_as_alone(self, index):
        # tied vertices, whose candidates the lexicographic rule decides, next to a dilate and a copy whose ties are broken
        body = degenerate_bodies()[index]
        perturbed = body.offsets * RandomSource(644 + index).generator().uniform(0.99, 1.01, size=body.num_slabs)
        assert_stack_is_its_bodies_alone(body.directions, np.array([body.offsets, 1.5 * body.offsets, perturbed]))

    def test_a_body_of_a_stack_with_no_candidate_is_refused_by_the_one_check_of_the_pass(self):
        # _kept refuses a body with no kept row before its early exit, which every row passing would take; so does it
        # a stack of one with no row at all
        body = random_symmetric_polytope(4, 8, RandomSource(645))
        plan, t = _SlabPlan(body.directions), body.offsets * np.array([[1.0], [1.5]])
        candidates = _candidates(plan, t)
        assert np.array_equal(polytope._kept(plan, t, candidates)[0], candidates[0])  # every row is kept
        for stack, rows in [(t, candidates[0] == 0), (t[:1], np.zeros(len(candidates[0]), dtype=bool))]:
            with pytest.raises(ValueError, match="no vertex cone kept"):
                polytope._kept(plan, stack, tuple(field[rows] for field in candidates))

    def test_family_trial_points_are_the_same_bits_as_alone(self, monkeypatch):
        stacks = []

        def recorded(plan, t):
            stacks.append((plan, t.copy()))
            return _volume_derivatives(plan, t)

        monkeypatch.setattr(family, "_volume_derivatives", recorded)
        u = sample_unit_sphere(4, RandomSource(642), count=8)
        maximize_volume_details(SlabFamilySpec(u, np.full(8, 1.0 / 8.0)), rng=RandomSource(643))
        assert len(stacks[0][1]) == 5
        for plan, t in stacks[::3]:
            assert_stack_is_its_bodies_alone(plan.directions, t, plan)


class TestSlabPlan:
    @pytest.mark.parametrize("n, m", [(3, 6), (4, 8), (5, 10)])
    def test_a_solve_that_reuses_its_plan_is_the_same_bits_as_one_that_rebuilds_it(self, monkeypatch, n, m):
        spec = SlabFamilySpec(sample_unit_sphere(n, RandomSource(660 + n), count=m), np.full(m, 1.0 / m))
        reused = maximize_volume_details(spec, rng=RandomSource(661))
        monkeypatch.setattr(family, "_volume_derivatives", lambda plan, t: _volume_derivatives(_SlabPlan(plan.directions), t))
        rebuilt = maximize_volume_details(spec, rng=RandomSource(661))
        assert rebuilt.start_offsets == reused.start_offsets and rebuilt.start_volumes == reused.start_volumes
        assert rebuilt.start_volume_evals == reused.start_volume_evals

    def test_a_stored_plan_is_read_only(self, monkeypatch):
        plans = []

        def recorded(plan, t):
            plans.append(plan)
            return _volume_derivatives(plan, t)

        monkeypatch.setattr(family, "_volume_derivatives", recorded)
        u = sample_unit_sphere(4, RandomSource(662), count=8)
        maximize_volume_details(SlabFamilySpec(u, np.full(8, 1.0 / 8.0)), rng=RandomSource(663))
        plan = plans[0]
        assert plan.stored and all(p is plan for p in plans)
        for array in [*plan.block, plan.outside, plan.first_rows, plan._slots, *plan._terms]:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        # the rounds left the offset-free half as built, and computed each kept subset's cone terms once
        fresh = _SlabPlan(u)
        built = [*fresh.block, fresh.outside, fresh.first_rows]
        assert all(np.array_equal(a, b) for a, b in zip([*plan.block, plan.outside, plan.first_rows], built, strict=True))
        assert len(plan._terms[0]) == np.count_nonzero(plan._slots >= 0) > 0

    @pytest.mark.parametrize("n, m", [(3, 7), (6, 16)])
    def test_the_measures_build_one_plan_and_the_vertices_their_own(self, monkeypatch, n, m):
        # the measures all read the cones, found over one plan; (6, 16) walks
        built = []
        init = _SlabPlan.__init__
        monkeypatch.setattr(_SlabPlan, "__init__", lambda plan, directions: (built.append(plan), init(plan, directions))[1])
        body = random_symmetric_polytope(n, m, RandomSource(665 + n))
        body.volume, body.surface_area, body.shadow_areas(np.eye(n))
        assert len(built) == 1
        body.vertices
        assert len(built) == 2

    @pytest.mark.parametrize("n, m", [(3, 7), (4, 9), (6, 16)])
    def test_inverses_are_c_contiguous_and_invert_each_subset(self, monkeypatch, n, m):
        u = sample_unit_sphere(n, RandomSource(664 + n), count=m)
        u[-1] = u[0]  # so some subsets are singular and left out
        monkeypatch.setattr(kernel, "SUBSET_BLOCK", math.comb(m, n))  # one stored block
        cofactors = cofactor_table(u)
        subsets, ranks = kernel._lattice(m, n)
        plan = _SlabPlan(u)
        block = plan.block
        det = (u[subsets[:, 0], None, :] @ cofactors[ranks[:, 0], :, None])[:, 0, 0]
        kept = np.flatnonzero(np.abs(det) > _DET_TOL)
        assert np.array_equal(block.keys, kept)  # the ranks of the subsets
        assert len(subsets) - len(kept) == math.comb(m - 2, n - 2)
        assert block.subsets.dtype == np.intp and np.array_equal(block.subsets, subsets[kept])
        assert block.inverses.flags.c_contiguous and block.inverses.shape == (len(kept), n, n)
        # U_S U_S^-1 = I to rounding, which grows with the condition of U_S
        residual = np.abs(u[block.subsets] @ block.inverses - np.eye(n)).max(axis=(1, 2))
        assert np.all(residual <= 1e-14 * np.linalg.cond(u[block.subsets]))
        outside = kernel._outside(m, n, 4)
        assert np.array_equal(plan.outside, outside[kept]) and np.array_equal(plan.first_rows, u[plan.outside] @ block.inverses)

    @pytest.mark.parametrize("bodies", [1, 2, 7])
    def test_a_stored_plan_cuts_a_stack_into_runs_of_whole_bodies(self, monkeypatch, bodies):
        # C(9, 4) = 126 subsets, none singular, in one block; a stack of 7 is tested in runs of SUBSET_BLOCK // 126 bodies:
        # one body a run, two, and the whole stack in one run
        u = sample_unit_sphere(4, RandomSource(666), count=9)
        t = RandomSource(667).generator().uniform(0.5, 1.5, size=(7, 9))
        monkeypatch.setattr(kernel, "SUBSET_BLOCK", {1: 126, 2: 2 * 126, 7: 10**6}[bodies])
        plan = _SlabPlan(u)
        assert plan.stored and len(plan.block.keys) == 126
        runs = []
        refined = polytope._refined_points
        with monkeypatch.context() as patch:  # one refinement per run
            patch.setattr(polytope, "_refined_points", lambda *args: (runs.append(len(args[1])), refined(*args))[1])
            body = _candidates(plan, t)[0]
        assert len(runs) == -(-7 // bodies) and sum(runs) == len(body)
        assert np.array_equal(body, np.repeat(np.arange(7), np.bincount(body, minlength=7)))  # the runs come by body
        assert_stack_is_its_bodies_alone(u, t, plan)

    @pytest.mark.parametrize("n, m", [(3, 25), (8, 10)])
    def test_the_guard_raises_when_the_plan_is_built(self, n, m):
        # the plan builds its cofactor table first, which applies the guard before any lattice is built
        u = sample_unit_sphere(n, RandomSource(667), count=m)
        kernel._lattice.cache_clear()
        with pytest.raises(CapacityError, match=f"subset enumeration guard exceeded: m={m} \\(max 24\\), n={n} \\(max 7\\)"):
            _SlabPlan(u)
        assert kernel._lattice.cache_info().currsize == 0


def direct_candidates(u: np.ndarray, t: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """Per body of the stack `t`, the fields of :func:`_candidates` that a direct all-slab test of every ``X_S p`` keeps.

    Each (subset, pattern) row of the stored plan's block, in order, forms
    ``X_S p`` by the product of :func:`_candidates` and is kept when its
    slack on every slab outside S is within the bound, with no first pass;
    the kept points take the same step of refinement.  The offsets are read
    as unit-scale ones, as ``_volume_derivatives`` passes them in its frame:
    the bound is ``t + FEASIBILITY_TOL``, whatever the largest offset.
    """
    patterns = polytope._sign_patterns(u.shape[1])
    bound = t + FEASIBILITY_TOL
    keys, subsets, dets, inverses = _SlabPlan(u).block
    found = []
    for k in range(len(t)):
        sub, pat = np.divmod(np.arange(len(keys) * len(patterns)), len(patterns))
        x = inverses[sub] * t[k, subsets[sub]][:, None, :]
        pts = np.einsum("rij,rj->ri", x, patterns[pat])
        slack = np.abs(pts @ u.T)
        slack[np.arange(len(pts))[:, None], subsets[sub]] = 0.0
        keep = (slack <= bound[k]).all(axis=1)
        sub, pat, x, pts, own = sub[keep], pat[keep], x[keep], pts[keep], subsets[sub[keep]]
        pts += np.einsum("rij,rj->ri", x, patterns[pat] - np.einsum("rij,rj->ri", u[own], pts) / t[k, own])
        found.append((own, patterns[pat], inverses[sub], pts, dets[sub], keys[sub]))
    return found


def first_pass_survivors(body: SymmetricHPolytope) -> int:
    """The (subset, pattern) rows of `body` that pass the first pass of :func:`_candidates`, from the fields of its plan."""
    t = body.offsets
    bound = t + FEASIBILITY_TOL * body._scale
    patterns = polytope._sign_patterns(body.dim)
    plan = _SlabPlan(body.directions)
    slacks = np.abs((plan.first_rows * t[plan.block.subsets][:, None, :]) @ patterns.T)  # (subsets, slabs of J(S), patterns)
    return np.count_nonzero((slacks <= bound[plan.outside][:, :, None]).all(axis=1))


class TestFirstPass:
    # random bodies of n = 2..6 with m - n = 0, 1, 3 and more slabs than the first pass tests, up to C(16, 6), over
    # stored plans: a larger plan walks, and the brute force is read over a plan that SUBSET_BLOCK lets store
    SHAPES = [(n, m) for n in range(2, 7) for m in sorted({n, n + 1, n + 3, min(2 * n + 4, 16)})]

    @pytest.fixture(autouse=True)
    def stored(self, monkeypatch):
        monkeypatch.setattr(kernel, "SUBSET_BLOCK", math.comb(16, 6))

    @staticmethod
    def assert_direct(u: np.ndarray, t: np.ndarray) -> None:
        body, *fields = _candidates(_SlabPlan(u), t)
        assert np.array_equal(body, np.repeat(np.arange(len(t)), np.bincount(body, minlength=len(t))))
        for k, direct in enumerate(direct_candidates(u, t)):
            mine = [field[body == k] for field in fields]
            assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(mine, direct, strict=True))

    @pytest.mark.parametrize("index", range(len(degenerate_bodies())))
    def test_degenerate_bodies_keep_the_rows_of_a_direct_test(self, index):
        body = degenerate_bodies()[index]
        self.assert_direct(body.directions, body.offsets[None])

    @pytest.mark.parametrize("n, m", SHAPES)
    def test_random_bodies_keep_the_rows_of_a_direct_test(self, n, m):
        body = random_symmetric_polytope(n, m, RandomSource(700 + 20 * n + m))
        self.assert_direct(body.directions, body.offsets[None])
        # a stack of three, whose bodies share each slice of a stored plan's block
        t = body.offsets * RandomSource(701 + 20 * n + m).generator().uniform(0.5, 2.0, size=(3, m))
        self.assert_direct(body.directions, t)

    def test_the_first_pass_slabs_are_outside_the_subset(self):
        for n, m in self.SHAPES:
            plan = _SlabPlan(random_symmetric_polytope(n, m, RandomSource(n + m)).directions)
            assert plan.outside.shape == (len(plan.block.keys), min(polytope._FIRST_PASS_SLABS, m - n))
            assert not np.any(plan.outside[:, :, None] == plan.block.subsets[:, None, :])

    @pytest.mark.parametrize("m, survivors, fixed", [(14, 1564, 9423), (16, 6314, 19494)])
    def test_survivors_of_the_first_pass(self, m, survivors, fixed):
        # 3003 and 8008 subsets x 32 patterns; testing slabs 0-3, which 93 % and 88 % of the subsets hold one of, lets
        # `fixed` through
        assert first_pass_survivors(random_symmetric_polytope(6, m, RandomSource(5))) == survivors <= fixed // 3


def brute_force_rows(u: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """The kept rows of the body (u, t) by the brute force, ``polytope._kept`` of :func:`_candidates`, over a stored plan.

    The plan stores its one block whatever C(m, n) is, and a block of more
    than ``SUBSET_BLOCK`` subsets is tested one body at a time.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "SUBSET_BLOCK", max(kernel.SUBSET_BLOCK, math.comb(*u.shape)))
        plan = _SlabPlan(u)
    return polytope._kept(plan, t[None], _candidates(plan, t[None]))


def assert_walks_to_the_kept_rows(u: np.ndarray, t: np.ndarray) -> None:
    """The walk of the body (u, t) gives the bits of the brute force's kept rows, keys (the subsets' ranks) included."""
    walked = polytope._walk(_SlabPlan(u), t[None])
    assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(walked, brute_force_rows(u, t), strict=True))


def through_a_vertex(base: SymmetricHPolytope, src: RandomSource) -> SymmetricHPolytope:
    """`base` and one more slab, whose hyperplane supports it at a vertex: a vertex on n + 1 hyperplanes."""
    theta = sample_unit_sphere(base.dim, src)
    return SymmetricHPolytope(np.vstack([base.directions, theta]), np.r_[base.offsets, base.support(theta)])


def swap_onto_a_singular_subset(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-cube and the slab w ~ (1e-12, 1, 1, 0, ...) just inside its edge x_1 = x_2 = 1, whose swap for x_1 is singular.

    In R^6 eight more slabs, which do not cut the cube, make a (6, 15) body,
    whose plan streams.
    """
    w = np.r_[1e-12, 1.0, 1.0, np.zeros(n - 3)]
    w /= np.linalg.norm(w)
    u, t = [np.eye(n), w[None]], [np.ones(n), [w @ np.r_[0.3, np.ones(n - 1)] * (1.0 - 1e-12)]]
    if n == 6:
        far = sample_unit_sphere(n, RandomSource(19), count=8)
        u, t = u + [far], t + [1.5 * np.abs(far).sum(axis=1)]
    return np.vstack(u), np.concatenate(t)


def item_17_recipe_image() -> SymmetricHPolytope:
    """ROADMAP item 17's recipe: a (6, 10) body under a map of condition 1e3, whose subset determinants crowd below _DET_TOL."""
    a = random_orthogonal(6, np.random.default_rng(2)) @ np.diag([1.0] * 5 + [1e-3]) @ random_orthogonal(6, np.random.default_rng(52))
    return random_symmetric_polytope(6, 10, RandomSource(762)).affine_image(a)


def unexecuted_lines(functions: list, run) -> list[str]:
    """The lines of `functions`, and of the functions nested in them, on which no line event fires while `run()` runs.

    Each is given as ``name:line``.  The lines are those where the compiled
    code starts one (``dis.findlinestarts``), without each function's own
    first line, which fires a call event; the events come from
    ``sys.settrace``, restored afterwards.
    """
    codes, stack = set(), [f.__code__ for f in functions]
    while stack:
        code = stack.pop()
        codes.add(code)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    ran = set()

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code, frame.f_lineno))
        return line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: line if frame.f_code in codes else None)
    try:
        run()
    finally:
        sys.settrace(previous)
    lines = {(code, n) for code in codes for _, n in dis.findlinestarts(code) if n is not None and n != code.co_firstlineno}
    return sorted(f"{code.co_name}:{n}" for code, n in lines - ran)


class TestVertexWalk:
    # n = 3..7 with m from n + 2 to 20, stored plans included; most of the time is the brute force at m = 20
    SHAPES = [(n, m) for n in range(3, 8) for m in sorted({n + 2, n + 5, 2 * n + 4, 20})]

    @pytest.mark.parametrize("n, m", SHAPES)
    def test_random_bodies_walk_to_the_rows_of_the_brute_force(self, n, m):
        body = random_symmetric_polytope(n, m, RandomSource(900 + 20 * n + m))
        assert_walks_to_the_kept_rows(body.directions, body.offsets)

    @pytest.mark.parametrize("name", list(named_degenerate_bodies()))
    def test_degenerate_bodies_walk_to_the_rows_of_the_brute_force(self, name):
        # ties in ratio tests (the cross-polytopes, coinciding, doubled and touching slabs) and vertices that clear a
        # slab outside S by less than FEASIBILITY_TOL (near-coincident slabs) are decided by the tie rule of _kept
        body = named_degenerate_bodies()[name]
        assert_walks_to_the_kept_rows(body.directions, body.offsets)

    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7, 1e-9, 1e-11, 1e-13])
    @pytest.mark.parametrize("tilt", [0.0, 0.5])
    def test_near_coincident_slabs_walk_to_the_rows_of_the_brute_force(self, eps, tilt):
        body = near_coincident_body(eps, tilt)[0]
        assert_walks_to_the_kept_rows(body.directions, body.offsets)

    @pytest.mark.parametrize("tilt", [0.0, 0.3, 0.5, 0.8, 1.1])
    @pytest.mark.parametrize("factor", [1.0, 1.01, 1.05, 1.1, 1.25])
    def test_the_band_at_the_singular_threshold_walks_to_the_rows_of_the_brute_force(self, factor, tilt):
        # where the walk with the tie rule read volumes 7e-2 to 1.0 off while _DET_TOL kept some subsets of the
        # pair's ridge and dropped others; the pair is now one slab for both (TestFacets checks the measures)
        body = near_coincident_body(factor * _DET_TOL, tilt)[0]
        assert_walks_to_the_kept_rows(body.directions, body.offsets)

    def test_the_cross_polytope_in_five_dimensions_walks(self, monkeypatch):
        # C(16, 5) = 4368 subsets, and every vertex is tight on all 16 slabs: the brute force kept 120 of 15040
        # candidate rows in 0.23 s of CPU; the walk breaks every tie of its ratio tests by the tie rule of _kept
        body = cross_polytope(5)
        assert not _SlabPlan(body.directions).stored
        walks, stacks = self.recorded(monkeypatch)
        assert body.volume == pytest.approx(2.0**5 / math.factorial(5), rel=1e-14, abs=0.0)
        assert len(walks) == 1 and stacks == []
        assert len(walks[0][0]) == 120
        assert_walks_to_the_kept_rows(body.directions, body.offsets)

    def test_a_streamed_body_with_a_slab_through_a_vertex_walks(self, monkeypatch):
        body = through_a_vertex(random_symmetric_polytope(6, 15, RandomSource(960)), RandomSource(961))
        assert not _SlabPlan(body.directions).stored
        assert_walks_to_the_kept_rows(body.directions, body.offsets)
        walks, stacks = self.recorded(monkeypatch)
        tables = []
        monkeypatch.setattr(polytope, "cofactor_table", lambda rows: (tables.append(len(rows)), cofactor_table(rows))[1])
        # the brute force's volume, as before the walk; the walk reads the plan's one cofactor table
        assert body.volume == float.fromhex("0x1.d1898e8212f91p+3") and len(walks) == 1 and stacks == [] and tables == [16]

    @pytest.mark.parametrize("last", [True, False])
    @pytest.mark.parametrize("eps", [0.0, 1e-12])
    def test_a_streamed_body_walks_on_the_doubled_slab_of_smaller_offset(self, eps, last):
        # a (6, 14) body and a copy of its slab 0 at half the offset: the copy stands for the pair, so the walk meets
        # it and not slab 0, and reads the body without slab 0
        body, ref = doubled_at_half_offset(random_symmetric_polytope(6, 14, RandomSource(965)), eps, last)
        assert not _SlabPlan(body.directions).stored
        assert_walks_to_the_kept_rows(body.directions, body.offsets)
        assert body.volume == pytest.approx(ref.volume, rel=1e-14)
        assert body.vertices.points == pytest.approx(ref.vertices.points, abs=1e-14)

    @pytest.mark.parametrize("tilt", [0.0, 0.5, 1.1])
    def test_the_vertex_set_of_a_thin_wedge_holds_no_point_outside_the_body(self, tilt):
        # the fourth slab cuts off a wedge about 1e-9 deep: a candidate 1e-9 outside it passes both feasibility passes,
        # but not the exact slacks that the kept rows are decided on, so the vertex set holds the wedge's own vertices
        body = near_coincident_body(1e-9, tilt)[0]
        points = body.vertices.points
        assert len(points) == 12 and (np.abs(points @ body.directions.T) - body.offsets).max() <= 1e-14

    @staticmethod
    def recorded(monkeypatch) -> tuple[list, list]:
        """Record each walk's rows, and the stack of each brute-force enumeration, of the calls that follow."""
        walks, stacks = [], []
        walk, candidates = polytope._walk, polytope._candidates
        monkeypatch.setattr(polytope, "_walk", lambda plan, t: (walks.append(walk(plan, t)), walks[-1])[1])
        monkeypatch.setattr(polytope, "_candidates", lambda plan, t: (stacks.append(len(t)), candidates(plan, t))[1])
        return walks, stacks

    def test_an_edge_onto_a_singular_swap_gives_the_volume_or_a_refusal(self, monkeypatch):
        # the cube and the slab w ~ (1e-12, 1, 1, 0, ...) 1.7e-12 inside its edge x_1 = x_2 = 1, which cuts off less than
        # 1e-20; in R^6 with eight slabs that do not cut the cube, (6, 15), whose plan streams, and in R^3 walked with
        # SUBSET_BLOCK = 1.  An edge meets w where its swap is singular: the walk refuses the body there (where testing
        # the edge again without w read 39.331 and 7.454), and the brute force, over a stored plan, reads the cube
        for n, block, volume in [(6, kernel.SUBSET_BLOCK, 63.99999999999995), (3, 1, 7.999999999999997)]:
            body = SymmetricHPolytope(*swap_onto_a_singular_subset(n))
            monkeypatch.setattr(kernel, "SUBSET_BLOCK", block)
            assert not _SlabPlan(body.directions).stored
            with pytest.raises(ValueError, match="the walk meets a singular subset; body is numerically degenerate"):
                body.volume
            monkeypatch.setattr(kernel, "SUBSET_BLOCK", 10**6)
            assert SymmetricHPolytope(body.directions, body.offsets).volume == volume

    def test_a_singular_start_is_refused_by_the_same_gate(self, monkeypatch):
        # ROADMAP item 17's recipe image: the walk's first vertex lies on a subset below _DET_TOL, so the one
        # _subset_block call of the first layer refuses the body, as across an edge
        image = item_17_recipe_image()
        calls = []
        subset_block = polytope._subset_block
        monkeypatch.setattr(polytope, "_subset_block", lambda *args: (calls.append(len(args[2])), subset_block(*args))[1])
        monkeypatch.setattr(kernel, "SUBSET_BLOCK", 1)
        with pytest.raises(ValueError, match="the walk meets a singular subset; body is numerically degenerate"):
            image.volume
        assert calls == [1]

    def test_every_line_of_the_walk_runs(self):
        # a line trace over the walk, its nested functions and its ratio test: a branch that none of these bodies
        # reaches fails here, so each rule of the walk has a body in tier-1 that takes it
        bodies = [*named_degenerate_bodies().values(), cross_polytope(5), item_17_recipe_image()]
        bodies += [SymmetricHPolytope(*swap_onto_a_singular_subset(n)) for n in (6, 3)]

        def walk_all():
            for body in bodies:
                try:
                    polytope._walk(_SlabPlan(body.directions), body.offsets[None] / body._scale)
                except ValueError as error:
                    assert "the walk meets a singular subset" in str(error)

        assert unexecuted_lines([polytope._walk, polytope._ratio_test], walk_all) == []

    def test_a_streamed_stack_walks_each_body_and_builds_no_block(self, monkeypatch):
        body = random_symmetric_polytope(6, 16, RandomSource(962))
        t = body.offsets * RandomSource(963).generator().uniform(0.5, 2.0, size=(3, 16))
        walks, stacks = self.recorded(monkeypatch)
        _volume_derivatives(_SlabPlan(body.directions), t)
        assert len(walks) == 3 and stacks == []

    def test_the_vertex_set_of_a_streamed_body_is_walked_to_that_of_a_stored_plan(self, monkeypatch):
        body = random_symmetric_polytope(6, 16, RandomSource(964))
        walks, stacks = self.recorded(monkeypatch)
        points = SymmetricHPolytope(body.directions, body.offsets).vertices.points
        assert len(walks) == 1 and stacks == []
        # C(16, 6) = 8008 subsets in one stored block: the brute force over the stack of one
        monkeypatch.setattr(kernel, "SUBSET_BLOCK", 8008)
        assert _SlabPlan(body.directions).stored
        assert np.array_equal(SymmetricHPolytope(body.directions, body.offsets).vertices.points, points)
        assert len(walks) == 1 and stacks == [1]


def chained_labels(body: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The partition of ``polytope._cluster_labels`` from its per-coordinate chains alone, with no early exit.

    The points are read as unit-scale ones, as ``_kept`` passes them in the
    frame of ``_volume_derivatives``: they chain within ``_TIE_TOL``.
    """
    ids = np.empty((len(points), points.shape[1] + 1), dtype=np.intp)
    ids[:, 0] = body
    for d in range(points.shape[1]):
        order = np.lexsort((points[:, d], body))
        ids[order, d + 1] = np.cumsum(np.diff(points[order, d], prepend=-np.inf) > _TIE_TOL)
    return np.unique(ids, axis=0, return_inverse=True)[1].ravel()


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    return len(set(zip(a.tolist(), b.tolist()))) == len(set(a.tolist())) == len(set(b.tolist()))


def cluster_inputs(u: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows that ``_kept`` clusters for the stack `t`, read at unit scale: candidates in canonical sign."""
    body, _, _, _, pts, _, _ = _candidates(_SlabPlan(u), t)
    return body, pts * canonical_signs(pts, 1e-9)[:, None]


class TestClusterLabels:
    @pytest.mark.parametrize("index", range(len(degenerate_bodies())))
    def test_partition_is_that_of_the_chains_on_degenerate_bodies(self, index):
        body = degenerate_bodies()[index]
        # alone, and stacked with itself and a dilate
        for t in (body.offsets[None], body.offsets * np.array([[1.0], [1.0], [1.5]])):
            rows = cluster_inputs(body.directions, t)
            assert same_partition(polytope._cluster_labels(*rows), chained_labels(*rows))

    def test_generic_rows_are_singletons_in_a_stack(self):
        # a change of body separates two rows, so the first coordinate alone separates a stack of generic bodies
        body = random_symmetric_polytope(4, 9, RandomSource(664))
        rows = cluster_inputs(body.directions, body.offsets * np.array([[1.0], [1.0], [1.2]]))
        labels = polytope._cluster_labels(*rows)
        assert np.array_equal(labels, np.arange(len(labels))) and same_partition(labels, chained_labels(*rows))


def prism_directions(n: int, m: int, src: RandomSource) -> np.ndarray:
    """u_0 = e_n and m - 1 random unit rows orthogonal to it: every n-subset without slab 0 is singular."""
    u = np.zeros((m, n))
    u[0, n - 1] = 1.0
    u[1:, : n - 1] = sample_unit_sphere(n - 1, src, count=m - 1)
    return u


class TestSingularSubsetBlocks:
    # the C(15, 5) = 3003 subsets holding slab 0 come first, so every block that starts past them is all singular
    def test_a_block_of_singular_subsets_is_passed_over(self, monkeypatch):
        u = prism_directions(6, 16, RandomSource(650))
        t = RandomSource(651).generator().uniform(0.5, 1.5, size=(3, 16))
        body = SymmetricHPolytope(u, t[0])
        volume, points = body.volume, body.vertices.points
        section = SymmetricHPolytope(u[1:, :5], t[0, 1:])
        assert volume == pytest.approx(2.0 * t[0, 0] * section.volume, rel=1e-12)
        assert_stack_is_its_bodies_alone(u, t)
        monkeypatch.setattr(kernel, "SUBSET_BLOCK", 7)
        small = SymmetricHPolytope(u, t[0])
        assert small.volume == volume and np.array_equal(small.vertices.points, points)
        assert_stack_is_its_bodies_alone(u, t)

    def test_family_solve_over_singular_blocks(self, monkeypatch):
        # of the C(16, 4) = 1820 subsets only the first C(15, 3) = 455, which hold slab 0, are nonsingular: the
        # stored plan's one block keeps those, and at SUBSET_BLOCK = 1000 the plan is not stored and each start walks
        spec = SlabFamilySpec(prism_directions(4, 16, RandomSource(652)), np.full(16, 1.0 / 16.0))
        details = maximize_volume_details(spec, rng=RandomSource(653))
        assert details.converged
        for size in (1000, 1 << 20):
            monkeypatch.setattr(kernel, "SUBSET_BLOCK", size)
            other = maximize_volume_details(spec, rng=RandomSource(653))
            assert other.volume == details.volume and np.array_equal(other.offsets, details.offsets)


class TestMemory:
    # one volume's traced allocation peak at the guard, against that of the
    # enumeration that factorised every subset by LAPACK (the same bodies)
    @pytest.mark.parametrize("n, m, ceiling_mb", [(6, 24, 23.6), (7, 20, 62.2)])
    def test_volume_peak_at_the_guard(self, n, m, ceiling_mb):
        body = random_symmetric_polytope(n, m, RandomSource(5))
        tracemalloc.start()
        try:
            body.volume
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ceiling_mb * 1e6

    @staticmethod
    def traced_peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_a_lone_streamed_volume_builds_no_block(self):
        # C(16, 6) = 8008 subsets: the body walks its vertex graph; a first-pass block alone would take 4.2 MB
        body = random_symmetric_polytope(6, 16, RandomSource(5))
        assert self.traced_peak(lambda: body.volume) <= 8.4e6

    def test_the_walk_at_the_guard_holds_less_than_a_bit_per_pattern_beyond_its_cofactor_table(self):
        # C(20, 7) 2^6 = 4.96 M (subset, pattern) pairs, of which 1148 are vertices; the cofactor table's own peak is
        # about 7.6 MB, and every array of the walk past it (keys, rows, ratio tests) is far smaller
        n, m = 7, 20
        body = random_symmetric_polytope(n, m, RandomSource(5))
        plan, t = _SlabPlan(body.directions), body.offsets[None]
        table = self.traced_peak(lambda: cofactor_table(body.directions))
        walked = []
        peak = self.traced_peak(lambda: walked.append(polytope._walk(plan, t)))
        assert walked[0] is not None and len(walked[0][0]) == 1148
        assert peak <= table + math.comb(m, n) * 2 ** (n - 1) // 8

    def test_an_evaluated_body_keeps_its_measures_not_its_cones(self):
        # C(14, 6) = 3003 subsets: a body that kept the plan of its cones would hold its stored block, about 2 MB,
        # and one that kept its cone rows about 37 kB; the volume, gradient and Hessian take about 6 kB
        def evaluated(seed: int) -> SymmetricHPolytope:
            body = random_symmetric_polytope(6, 14, RandomSource(seed))
            body.volume, body.surface_area, body.shadow_areas(np.eye(6)), projection_body(body)
            return body

        evaluated(670)  # fills the caches of the shape (subset lattice, sign patterns, direction table)
        tracemalloc.start()
        try:
            bodies = [evaluated(671 + k) for k in range(10)]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert not any(hasattr(body, "_plan") or hasattr(body, "_candidates") or hasattr(body, "_cones") for body in bodies)
        assert held / len(bodies) <= 16e3

    def test_lockstep_round_at_the_largest_stored_plan(self):
        # C(14, 7) = 3432 subsets, the most that SUBSET_BLOCK lets a plan keep at the largest n: building the plan
        # and one round of five starts peak below the 26.2 MB of that round when every round built its own blocks
        u = sample_unit_sphere(7, RandomSource(7), count=14)
        t = RandomSource(8).generator().uniform(0.5, 1.5, size=(5, 14))
        tracemalloc.start()
        try:
            plan = _SlabPlan(u)
            _volume_derivatives(plan, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert plan.stored and not _SlabPlan(np.vstack([u, u[:1]])).stored
        assert peak <= 26.2e6


def cube_with_redundant_slab() -> SymmetricHPolytope:
    """The unit cube in R^3 and the slab ``|x_1 + x_2| / sqrt(2) <= 2``, which no point of the cube reaches."""
    return SymmetricHPolytope(np.vstack([np.eye(3), [math.sqrt(0.5), math.sqrt(0.5), 0.0]]), np.array([1.0, 1.0, 1.0, 2.0]))


class TestColdPath:
    @pytest.mark.parametrize(
        "make",
        [
            cube_with_redundant_slab,
            lambda: random_symmetric_polytope(4, 9, RandomSource(672)),
            lambda: random_symmetric_polytope(6, 16, RandomSource(673)),  # C(16, 6) = 8008 subsets: streamed
        ],
        ids=["cube-redundant", "random-4-9", "streamed-6-16"],
    )
    def test_vertices_and_facets_after_the_volume_are_those_of_a_fresh_body(self, make):
        # the vertices enumerate over a plan of their own, whatever the body has read before
        body = make()
        body.volume
        fresh = SymmetricHPolytope(body.directions, body.offsets)
        assert np.array_equal(body.vertices.points, fresh.vertices.points)
        for field, array in vars(body.facets).items():
            assert np.array_equal(array, getattr(fresh.facets, field)), field


class TestTransforms:
    def test_affine_image_volume_scales_by_det(self):
        body = random_symmetric_polytope(3, 6, RandomSource(46))
        mat = np.array([[2.0, 0.3, 0.0], [0.0, 1.0, -0.2], [0.1, 0.0, 0.5]])
        image = body.affine_image(mat)
        assert image.volume == pytest.approx(abs(np.linalg.det(mat)) * body.volume, rel=1e-9)

    @pytest.mark.parametrize("s", [1e-5, 1e5])
    def test_affine_image_of_a_scaled_identity(self, s):
        # a multiple of the identity is perfectly conditioned at any scale
        body = random_symmetric_polytope(3, 6, RandomSource(46))
        assert body.affine_image(s * np.eye(3)).volume == pytest.approx(s**3 * body.volume, rel=1e-9)

    @pytest.mark.parametrize("s", [1e-5, 1.0, 1e5])
    def test_rank_deficient_transform_rejected_at_every_scale(self, s):
        body = random_symmetric_polytope(3, 6, RandomSource(46))
        rows = np.array([[0.3, 0.7, 1.1], [0.9, 0.1, 0.7]])
        mat = s * np.vstack([rows, rows[0] / 3.0 + 2.0 * rows[1] / 3.0])  # its rounded determinant is 0.087 at s = 1e5
        with pytest.raises(ValueError, match="transform is numerically singular"):
            body.affine_image(mat)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_volume_invariant_under_rotation(self, seed):
        body = random_symmetric_polytope(3, 6, RandomSource(47))
        q = random_orthogonal(3, RandomSource(seed).generator())
        assert body.affine_image(q).volume == pytest.approx(body.volume, rel=1e-9)

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    @pytest.mark.parametrize("n,m,seed", [(2, 5, 48), (3, 7, 49), (4, 9, 50), (5, 9, 51)])
    def test_volume_and_shadows_scale_with_the_body(self, n, m, seed, scale):
        # ROADMAP item 5 probe (a): at scale 1e-6 the absolute tolerances
        # merged vertices and read every facet as negligible (volume 0.0)
        body = random_symmetric_polytope(n, m, RandomSource(seed))
        scaled = SymmetricHPolytope(body.directions, scale * body.offsets)
        thetas = sample_unit_sphere(n, RandomSource(seed + 100), count=12)
        assert len(scaled.vertices) == len(body.vertices)
        assert scaled.volume == pytest.approx(scale**n * body.volume, rel=1e-9)
        assert np.allclose(scaled.shadow_areas(thetas), scale ** (n - 1) * body.shadow_areas(thetas), rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("e", [530, -530, -565, -660])
    def test_an_image_under_a_power_of_two_scales_every_bit(self, e):
        # the image's normals A^-T u_j are normalised in their power-of-two frame: at 2^e their squares over- or
        # underflow a double, and the normals were refused as not unit
        body = random_symmetric_polytope(3, 6, RandomSource(46))
        mat = np.array([[2.0, 0.3, 0.0], [0.0, 1.0, -0.2], [0.1, 0.0, 0.5]])
        image, scaled = body.affine_image(mat), body.affine_image(np.ldexp(mat, e))
        assert np.array_equal(scaled.directions, image.directions)
        assert np.array_equal(scaled.offsets, np.ldexp(image.offsets, e))

    def test_the_image_of_a_square_below_1e_300_is_measured(self):
        # A^-T u_j reads 1e155 and 1e150, whose squares overflow: the normals were refused as not unit
        image = SymmetricHPolytope(np.eye(2), np.ones(2)).affine_image(np.diag([1e-155, 1e-150]))
        assert image.volume == pytest.approx(4e-305, rel=1e-13, abs=0.0)
        assert image.surface_area == pytest.approx(4e-155 + 4e-150, rel=1e-13, abs=0.0)

    def test_support_and_contains(self):
        body = cube(3)
        assert body.support(np.array([1.0, 1.0, 1.0])) == pytest.approx(3.0, rel=1e-12)
        inside = body.contains(np.array([[0.5, 0.5, 0.5], [1.5, 0.0, 0.0]]))
        assert inside.tolist() == [True, False]

    def test_contains_a_small_body(self):
        # the corner of five times the cube of half-width 1e-10 is outside it
        body = SymmetricHPolytope(np.eye(3), np.full(3, 1e-10))
        assert body.contains(np.array([[5e-10, 5e-10, 5e-10], [1e-10, -1e-10, 0.0]])).tolist() == [False, True]

    @pytest.mark.parametrize("s", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_contains_agrees_at_every_scale(self, s):
        # points on the boundary, 1e-10 relative inside the tolerance and 1e-7 relative past it
        body = random_symmetric_polytope(3, 7, RandomSource(47))
        verts = body.vertices.points
        points = np.vstack([verts, verts * (1.0 + 1e-10), verts * (1.0 + 1e-7), 0.5 * verts])
        expected = body.contains(points)
        assert expected.tolist() == ([True] * (2 * len(verts)) + [False] * len(verts) + [True] * len(verts))
        scaled = SymmetricHPolytope(body.directions, s * body.offsets)
        assert np.array_equal(scaled.contains(s * points), expected)


def frame_sweep_body(n: int) -> SymmetricHPolytope:
    return random_symmetric_polytope(n, n + 4, RandomSource(1500 + n))


class TestScaleFrame:
    # a body is measured in its power-of-two frame, the offsets scaled so that the largest lies in [1, 2), and mapped
    # back exactly: the triple by 2^(ne), 2^((n-1)e) and 2^((n-2)e), the vertices by 2^e (ROADMAP item 24)
    @pytest.mark.parametrize("e", [-60, -7, 3, 60])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_a_power_of_two_scales_every_bit(self, n, e):
        unit = frame_sweep_body(n)
        body = SymmetricHPolytope(unit.directions, np.ldexp(unit.offsets, e))
        (volume, gradient, hessian), (v, g, h) = body._measures, unit._measures
        assert volume == np.ldexp(v, n * e)
        assert np.array_equal(gradient, np.ldexp(g, (n - 1) * e)) and np.array_equal(hessian, np.ldexp(h, (n - 2) * e))
        assert np.array_equal(body.vertices.points, np.ldexp(unit.vertices.points, e))

    @pytest.mark.parametrize("k", [-40, -20, -5, 5, 20, 40])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_a_power_of_ten_scales_within_the_rounding_of_the_offsets(self, n, k):
        # the offsets times 10^k are rounded, so the results move: measured at most 2.4e-14 (volume), 2.8e-14
        # (gradient), 3.6e-14 (Hessian) and 1.8e-15 (points), relative to the largest entry
        unit, s = frame_sweep_body(n), 10.0**k
        body = SymmetricHPolytope(unit.directions, s * unit.offsets)
        for mine, ref, power in zip(body._measures, unit._measures, (n, n - 1, n - 2)):
            assert np.abs(mine / s**power - ref).max() <= 2e-13 * np.abs(ref).max()
        points, ref = body.vertices.points, unit.vertices.points
        assert points.shape == ref.shape and np.abs(points / s - ref).max() <= 2e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("m", [10, 15])
    def test_a_volume_near_the_largest_double_is_measured(self, m):
        # at s = 1e51 the Lawrence terms h^6 of the body itself overflow (a RuntimeWarning, an error here); in the frame
        # they do not, and the volume 8.3e307 (m = 10) is mapped back within 2.4e-15 and 1.9e-14 of s^6 |K|
        unit, s = random_symmetric_polytope(6, m, RandomSource(5)), 1e51
        body = SymmetricHPolytope(unit.directions, s * unit.offsets)
        assert body.volume == pytest.approx(s**6 * unit.volume, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("s, cause", [(2.0**170, "overflows"), (1e-55, "underflows")])
    def test_a_volume_outside_the_double_range_is_refused_by_its_cause(self, s, cause):
        # the true volumes, 83.14 * 2^1020 and 8.3e-329, lie past the largest double and below the least subnormal
        unit = random_symmetric_polytope(6, 10, RandomSource(5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=cause):
                SymmetricHPolytope(unit.directions, s * unit.offsets).volume

    @pytest.mark.parametrize(
        "volume, gradient, cause",
        [(np.inf, [4.0, 4.0, 4.0], "overflows"), (8.0, [4.0, np.nan, 4.0], "overflows"), (1e-310, [1e-310, 1e-310, 1e-310], "underflows")],
    )
    def test_a_seeded_triple_past_the_double_range_is_refused_by_its_cause(self, volume, gradient, cause):
        # an underflowed volume is told from a wrong one by Euler's relation n V = sum_j t_j dV/dt_j
        body = cube(3)
        with pytest.raises(ValueError, match=cause):
            polytope._seed_measures(body, volume, np.array(gradient), np.zeros((3, 3)))
        assert "_measures" not in vars(body)

    @pytest.mark.parametrize("n, m", [(4, 8), (6, 15)])
    def test_a_stack_across_binades_is_the_same_bits_as_alone(self, n, m):
        # the rows' largest offsets lie in different binades, so each row has a frame of its own; (6, 15) walks
        body = random_symmetric_polytope(n, m, RandomSource(1520 + n))
        factors = np.array([1.0, 3.7, 0.013, 1.3 * 2.0**40, 0.77 * 2.0**-40])
        t = body.offsets * factors[:, None]
        assert len(set(kernel.binary_exponent(t, axis=1).tolist())) == len(factors)
        assert_stack_is_its_bodies_alone(body.directions, t)


class TestCertainlyWrongMeasures:
    @pytest.mark.parametrize("kappa, n, k", [(1e3, 6, 1), (1e3, 6, 2), (1e3, 6, 4), (1e4, 5, 0), (1e4, 5, 4)])
    def test_a_negative_volume_or_facet_measure_is_refused(self, kappa, n, k):
        # A = Q_1 diag(1, ..., 1, 1/kappa) Q_2 crowds the image's slab normals together, and every subset determinant
        # lies near or below _DET_TOL, so subsets that hold vertices are dropped as singular: the cone pass reads a
        # volume more than 10 % off |det A| |K|, and a facet measure between -0.21 and -7.8 times the largest
        body = random_symmetric_polytope(n, n + 4, RandomSource(700 + 10 * n + k))
        squash = np.diag(np.r_[np.ones(n - 1), 1.0 / kappa])
        a = random_orthogonal(n, np.random.default_rng(k)) @ squash @ random_orthogonal(n, np.random.default_rng(50 + k))
        image = body.affine_image(a)
        (volume,), (gradient,), _ = _volume_derivatives(_SlabPlan(image.directions), image.offsets[None])
        assert abs(volume - abs(np.linalg.det(a)) * body.volume) > 0.1 * abs(np.linalg.det(a)) * body.volume
        assert gradient.min() < -0.2 * gradient.max()
        with pytest.raises(ValueError, match="reads negative"):
            image.volume
        with pytest.raises(ValueError, match="reads negative"):
            image.shadow_areas(np.eye(n))

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 27: a slab that cuts a vertex by less than _TIE_TOL reads a wrong volume")
    def test_a_slab_that_cuts_a_vertex_by_less_than_the_tie_tolerance_gives_the_base_volume_or_a_refusal(self):
        # the slab theta at offset h(theta) (1 - 3e-13) cuts off a cap below 1e-30 of the volume, so the base's volume is
        # the reference; the (5, 9) body reads 60.767 against 68.008, and the (3, 7) one 4.45079 against 4.45667
        for n, k in [(5, 4), (3, 9)]:
            base = random_symmetric_polytope(n, n + 3, RandomSource(3000 + 10 * n + k))
            theta = sample_unit_sphere(n, RandomSource(4000 + 10 * n + k))
            body = SymmetricHPolytope(np.vstack([base.directions, theta]), np.r_[base.offsets, base.support(theta) * (1.0 - 3e-13)])
            try:
                volume = body.volume
            except ValueError:
                continue
            assert volume == pytest.approx(base.volume, rel=1e-9)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 17: a thin body's volume is off by more than rounding")
    def test_a_thin_rectangle_gives_its_area_or_a_refusal(self):
        # item 17's thin-body class in its smallest form: the area reads -9.7e-11, 3.2e-10 and -2.0e-6 relative off 4 r,
        # while the perimeter, from the facet measures, is exact
        for r in [1e-8, 1e-10, 1e-12]:
            body = SymmetricHPolytope(np.eye(2), np.array([1.0, r]))
            assert body.surface_area == 4.0 + 4.0 * r
            try:
                area = body.volume
            except ValueError:
                continue
            assert area == pytest.approx(4.0 * r, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("volume, gradient", [(8.0, [4.0, 4.0, -1e-8]), (0.0, [4.0, 4.0, 4.0]), (-8.0, [4.0, 4.0, 4.0])])
    def test_a_seeded_triple_is_refused_by_the_same_check(self, volume, gradient):
        # the family solver and the linear-image map seed their bodies through _seed_measures, the check of a cone pass
        body = cube(3)
        with pytest.raises(ValueError, match="reads negative"):
            polytope._seed_measures(body, volume, np.array(gradient), np.zeros((3, 3)))
        assert "_measures" not in vars(body)


class TestDegenerateShadows:
    # each body's shadows, in 5 sampled directions, and surface area against an oracle that does not read the
    # library's facet measures
    @pytest.mark.parametrize(
        "index, name",
        [pytest.param(i, name, id=name) for i, (name, body) in enumerate(named_degenerate_bodies().items()) if body.dim == 3],
    )
    def test_shadows_and_surface_area_in_r3_match_cauchy_over_the_exact_facets(self, index, name):
        # Cauchy's formula over the exact facet areas of the rounded input, which merges no vertices, so it sees the
        # near-coincident wedges that the hull misses.  Below eps = _DET_TOL the slab's own vertices are not formed and
        # the 1e-13 body reads as the cube, off by wedges of measure about eps (8e-14 relative on its shadows)
        body = degenerate_bodies()[index]
        exact = exact_facet_areas(body.directions, body.offsets)
        thetas = sample_unit_sphere(3, RandomSource(690 + index), count=5)
        rel = 1e-12 if name == "near-coincident-1e-13" else 1e-14
        assert body.shadow_areas(thetas) == pytest.approx(np.abs(thetas @ body.directions.T) @ exact, rel=rel)
        assert body.surface_area == pytest.approx(2.0 * exact.sum(), rel=rel)

    # qhull refuses the floor-offset bodies of n = 4, 5, which are 2e-9 thick ("QH6154 initial simplex is flat"), so
    # they are left out; test_floor_offset_facet_matches_hull checks their floor facet in a chart of its own
    @pytest.mark.parametrize(
        "index",
        [
            pytest.param(i, id=name)
            for i, (name, body) in enumerate(named_degenerate_bodies().items())
            if body.dim != 3 and body.offsets.min() > OFFSET_FLOOR
        ],
    )
    def test_shadows_and_surface_area_match_the_hull(self, index):
        body = degenerate_bodies()[index]
        points = intersection_vertices(body.directions, body.offsets)
        thetas = sample_unit_sphere(body.dim, RandomSource(690 + index), count=5)
        ref = [shadow_area_oracle(points, theta) for theta in thetas]
        assert body.shadow_areas(thetas) == pytest.approx(ref, rel=1e-12)
        assert body.surface_area == pytest.approx(hull_surface_area(points), rel=1e-12)


class TestShadowProperties:
    @given(st.integers(min_value=0, max_value=10**6))
    def test_shadow_symmetric_in_theta(self, seed):
        body = random_symmetric_polytope(3, 6, RandomSource(48))
        theta = sample_unit_sphere(3, RandomSource(seed))
        assert body.shadow_area(theta) == pytest.approx(body.shadow_area(-theta), rel=1e-12)

    def test_batch_matches_single(self):
        body = random_symmetric_polytope(4, 7, RandomSource(49))
        thetas = sample_unit_sphere(4, RandomSource(50), count=16)
        batch = body.shadow_areas(thetas)
        for k in range(16):
            assert batch[k] == pytest.approx(body.shadow_area(thetas[k]), rel=1e-12)


    @pytest.mark.parametrize("thetas", [np.tile(np.eye(3), (2, 1, 1)), np.eye(4)[:2], np.ones((3, 1))])
    def test_batch_rejects_wrong_shape(self, thetas):
        with pytest.raises(ValueError, match="directions have wrong shape"):
            cube(3).shadow_areas(thetas)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_direction_is_refused(self, bad):
        theta = np.array([bad, 0.0, 0.0])
        with pytest.raises(ValueError, match="unit vectors"):
            cube(3).shadow_area(theta)
        with pytest.raises(ValueError, match="unit vectors"):
            cube(3).shadow_areas(np.vstack([np.eye(3), theta]))


class TestCauchyFormula:
    def test_square_converges(self):
        rep = cauchy_surface_check(cube(2), RandomSource(51), samples=100_000)
        assert rep.surface_area == pytest.approx(8.0, rel=1e-12)
        assert rep.relative_error <= 1e-2

    def test_cube_converges(self):
        rep = cauchy_surface_check(cube(3), RandomSource(52), samples=100_000)
        assert rep.surface_area == pytest.approx(24.0, rel=1e-12)
        assert rep.relative_error <= 1e-2

    def test_sample_count_guard(self):
        with pytest.raises(ValueError):
            cauchy_surface_check(cube(2), RandomSource(53), samples=0)


class TestCapacityGuards:
    def test_dimension_guard(self):
        body = SymmetricHPolytope(np.eye(8), np.ones(8))
        with pytest.raises(CapacityError, match="guard"):
            _ = body.volume

    def test_slab_guard(self):
        gen = RandomSource(54).generator()
        u = gen.standard_normal((25, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        body = SymmetricHPolytope(u, np.ones(25))
        with pytest.raises(CapacityError, match="guard"):
            _ = body.vertices

    def test_dimension_guard_comes_before_the_sign_patterns(self, monkeypatch):
        # at n = 8 the cofactor table refuses the body before 2^(n-1) sign patterns are formed
        def refuse(n):
            raise AssertionError(f"sign patterns formed at n = {n}")

        monkeypatch.setattr(polytope, "_sign_patterns", refuse)
        with pytest.raises(CapacityError, match="guard"):
            _ = SymmetricHPolytope(np.eye(8), np.ones(8)).vertices
