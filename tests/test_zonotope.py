"""Zonotopes, projection bodies, mixed volumes, and the dominance chain."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import cofactor_oracle, shadow_area_oracle, zonotope_shadow_chart, zonotope_vertex_cloud, zonotope_volume_oracle
from shadowgeom.kernel import CapacityError, RandomSource, cofactor_table, sample_unit_sphere
from shadowgeom.polytope import SymmetricHPolytope, random_symmetric_polytope
from shadowgeom.zonotope import (
    WeightedDirections,
    Zonotope,
    dominance_volume_bound,
    minkowski_inequality_check,
    mixed_volume_vn1,
    projection_body,
    random_weighted_directions,
    random_zonotope,
    volume_formula_check,
    zonotope_volume_floor,
)


def cube(n: int) -> SymmetricHPolytope:
    return SymmetricHPolytope(np.eye(n), np.ones(n))


class TestZonotopeBasics:
    def test_cube_from_axis_generators(self):
        z = Zonotope(np.eye(3))
        assert z.volume == pytest.approx(8.0, rel=1e-12)
        assert z.support(np.array([1.0, 1.0, 1.0])) == pytest.approx(3.0, rel=1e-12)

    def test_drops_negligible_generators(self):
        z = Zonotope(np.array([[1.0, 0.0], [0.0, 1.0], [1e-15, 0.0]]))
        assert z.num_generators == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Zonotope(np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_generators(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Zonotope(np.array([[1.0, 0.0], [bad, 1.0]]))

    def test_floor_is_relative_to_the_largest_generator(self):
        assert Zonotope(np.array([[1e-15, 0.0]])).num_generators == 1
        assert Zonotope(np.array([[1e6, 0.0], [0.0, 1e6], [1e-7, 0.0]])).num_generators == 2

    def test_support_is_sum_of_absolute_inner_products(self):
        gen = RandomSource(60).generator()
        g = gen.standard_normal((5, 3))
        z = Zonotope(g)
        theta = sample_unit_sphere(3, RandomSource(61))
        assert z.support(theta) == pytest.approx(float(np.sum(np.abs(g @ theta))), rel=1e-12)


class TestVolumeAgainstOracles:
    @pytest.mark.parametrize("seed", range(8))
    def test_volume_matches_hull_of_sign_cloud(self, seed):
        n = 2 + seed % 3
        m = n + 1 + seed % 4
        z = random_zonotope(n, m, RandomSource(70 + seed))
        assert z.volume == pytest.approx(zonotope_volume_oracle(z.generators), rel=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_double_entry_formula(self, seed):
        n = 2 + seed % 4
        z = random_zonotope(n, n + 2 + seed % 3, RandomSource(80 + seed))
        rep = volume_formula_check(z)
        assert rep.relative_gap <= 1e-9

    @pytest.mark.parametrize("s, reads", [(1e-30, "0.0 and 0.0"), (1e10, "inf and inf")])
    def test_a_volume_that_is_not_finite_and_positive_is_refused(self, s, reads):
        # the projection body of a (6, 10) body whose offsets are scaled by s: its volume scales as s^30
        body = random_symmetric_polytope(6, 10, RandomSource(5))
        z = projection_body(SymmetricHPolytope(body.directions, s * body.offsets))
        with pytest.raises(ValueError, match=f"the volumes read {reads}: they under- or overflow a float"):
            volume_formula_check(z)

    def test_capacity_guard(self):
        gen = RandomSource(81).generator()
        z = Zonotope(gen.standard_normal((25, 3)))
        with pytest.raises(CapacityError):
            _ = z.volume


class TestShadows:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_chart_recursion(self, n):
        for k in range(3):
            z = random_zonotope(n, n + 1 + 2 * k, RandomSource(120 + 10 * n + k))
            thetas = np.vstack([z.unit_directions, sample_unit_sphere(n, RandomSource(121 + 10 * n + k), count=5)])
            ref = [zonotope_shadow_chart(z.generators, theta) for theta in thetas]
            assert np.allclose(z.shadow_areas(thetas), ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_projected_hull_of_sign_cloud(self, n):
        z = random_zonotope(n, n + 3, RandomSource(150 + n))
        cloud = zonotope_vertex_cloud(z.generators)
        for theta in sample_unit_sphere(n, RandomSource(151 + n), count=4):
            assert z.shadow_area(theta) == pytest.approx(shadow_area_oracle(cloud, theta), rel=1e-9)

    def test_batch_matches_single(self):
        z = random_zonotope(4, 7, RandomSource(160))
        thetas = sample_unit_sphere(4, RandomSource(161), count=6)
        batch = z.shadow_areas(thetas)
        for k, theta in enumerate(thetas):
            assert z.shadow_area(theta) == pytest.approx(batch[k], rel=1e-12)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_direction_is_refused(self, bad):
        z = random_zonotope(3, 5, RandomSource(162))
        theta = np.array([bad, 0.0, 0.0])
        with pytest.raises(ValueError, match="unit vectors"):
            z.shadow_area(theta)
        with pytest.raises(ValueError, match="unit vectors"):
            z.shadow_areas(np.vstack([np.eye(3), theta]))

    def test_dimension_one_shadow_is_a_point_of_measure_one(self):
        z = Zonotope(np.array([[2.0], [-0.5]]))
        assert z.shadow_area(np.array([1.0])) == 1.0
        assert z.shadow_areas(np.array([[1.0], [-1.0]])).tolist() == [1.0, 1.0]

    def test_dimension_one_is_under_the_guard(self):
        # the n = 1 shadow reads the cofactor table (1,) like every other dimension, so its guard applies too
        with pytest.raises(CapacityError, match="guard"):
            Zonotope(np.ones((25, 1))).shadow_area(np.array([1.0]))

    def test_non_spanning_zonotope_has_no_shadow_across_its_span(self):
        # generators in the plane x_3 = 0: shadows along the plane vanish, the one along e_3 is the area
        gens = np.array([[1.0, 0.5, 0.0], [-0.3, 1.0, 0.0], [0.7, 0.2, 0.0], [0.0, 1.0, 0.0]])
        z = Zonotope(gens)
        angles = np.linspace(0.0, math.pi, 7)
        in_span = np.stack([np.cos(angles), np.sin(angles), np.zeros(7)], axis=1)
        assert np.all(z.shadow_areas(in_span) == 0.0)
        assert z.shadow_area(np.array([0.0, 0.0, 1.0])) == pytest.approx(zonotope_volume_oracle(gens[:, :2]), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e3, 1e6])
    def test_shadow_scales_as_the_power_n_minus_one(self, n, scale):
        z = random_zonotope(n, n + 3, RandomSource(170 + n))
        thetas = sample_unit_sphere(n, RandomSource(171 + n), count=5)
        scaled = Zonotope(scale * z.generators)
        assert np.allclose(scaled.shadow_areas(thetas), scale ** (n - 1) * z.shadow_areas(thetas), rtol=1e-12, atol=0.0)

    def test_rejects_bad_directions(self):
        z = random_zonotope(3, 5, RandomSource(180))
        with pytest.raises(ValueError, match="shape"):
            z.shadow_areas(np.ones((2, 2)))
        with pytest.raises(ValueError, match="unit"):
            z.shadow_areas(np.ones((2, 3)))
        with pytest.raises(ValueError, match="unit"):
            z.shadow_area(np.ones(3))

    def test_capacity_guard(self):
        z = Zonotope(RandomSource(181).generator().standard_normal((25, 3)))
        with pytest.raises(CapacityError):
            z.shadow_area(np.array([1.0, 0.0, 0.0]))


class TestCofactors:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_lexicographic_table_of_lu_cofactors(self, n):
        gens = random_zonotope(n, n + 4, RandomSource(190 + n)).generators
        assert np.abs(cofactor_table(gens) - cofactor_oracle(gens)).max() <= 1e-13

    def test_edge_shapes(self):
        assert cofactor_table(np.ones((3, 1))).tolist() == [[1.0]]  # n = 1: the one empty subset
        assert cofactor_table(np.ones((2, 4))).shape == (0, 4)  # fewer than n - 1 generators
        assert cofactor_table(np.eye(3)[:2]).tolist() == [[0.0, 0.0, 1.0]]


class TestVolumeFloor:
    def test_orthonormal_unit_equality(self):
        frame = WeightedDirections(np.eye(3), np.ones(3))
        rep = zonotope_volume_floor(frame, np.ones(3))
        assert abs(rep.ratio - 1.0) <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_random_isotropic_instances_respect_floor(self, seed):
        n = 2 + seed % 3
        wd = random_weighted_directions(n, RandomSource(90 + seed), bases=2)
        alphas = RandomSource(91 + seed).generator().uniform(0.5, 1.5, size=len(wd.weights))
        rep = zonotope_volume_floor(wd, alphas)
        assert rep.ratio >= 1.0 - 1e-9

    def test_rejects_nonpositive_scales(self):
        frame = WeightedDirections(np.eye(2), np.ones(2))
        with pytest.raises(ValueError):
            zonotope_volume_floor(frame, np.array([1.0, 0.0]))

    def test_rejects_perturbed_weights(self):
        wd = WeightedDirections(np.eye(3), np.array([1.0, 1.0, 1.001]))
        with pytest.raises(ValueError, match="identity"):
            zonotope_volume_floor(wd, np.ones(3))


class TestWeightedDirections:
    def test_random_frames_are_exactly_isotropic(self):
        wd = random_weighted_directions(4, RandomSource(92), bases=3)
        frob, gap = wd.residuals()
        assert frob <= 1e-12
        assert abs(gap) <= 1e-12
        wd.validate()

    def test_perturbation_reported_linearly(self):
        wd = WeightedDirections(np.eye(3), np.array([1.0, 1.0, 1.0 + 1e-3]))
        frob, gap = wd.residuals()
        assert frob == pytest.approx(1e-3, rel=1e-9)
        assert gap == pytest.approx(1e-3, rel=1e-9)

    def test_from_dict_normalizes_and_keeps_perturbed_weights(self):
        doc = {"n": 2, "directions": [[1.0 + 5e-7, 0.0], [0.0, 1.0]], "weights": [1.0, 1.5]}
        wd = WeightedDirections.from_dict(doc)
        assert np.allclose(np.linalg.norm(wd.directions, axis=1), 1.0, atol=1e-15)
        assert wd.weights.tolist() == [1.0, 1.5]
        with pytest.raises(ValueError, match="identity"):
            wd.validate()

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"n": 2, "directions": [[1, 0], [0, 1]]}, "missing keys"),
            ({"n": True, "directions": [[1]], "weights": [1]}, "positive integer"),
            ({"n": 2, "directions": [[1, 0, 0]], "weights": [1]}, "length-2"),
            ({"n": 2, "directions": [[0, 0], [0, 1]], "weights": [1, 1]}, "zero"),
            ({"n": 2, "directions": [[1.1, 0], [0, 1]], "weights": [1, 1]}, "norm"),
        ],
        ids=["missing", "bool-n", "width", "zero", "norm"],
    )
    def test_from_dict_rejects(self, doc, message):
        with pytest.raises(ValueError, match=message):
            WeightedDirections.from_dict(doc)


class TestProjectionBody:
    def test_cube_projection_body_is_scaled_cube(self):
        # one generator per antipodal facet pair; its magnitude must make the
        # support along e_i equal the axis shadow area 4
        z = projection_body(cube(3))
        assert z.num_generators == 3
        assert np.allclose(np.sort(z.alphas), 4.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_support_equals_shadow_area(self, seed):
        n = 2 + seed % 3
        body = random_symmetric_polytope(n, n + 3, RandomSource(93 + seed))
        z = projection_body(body)
        thetas = sample_unit_sphere(n, RandomSource(94 + seed), count=20)
        for theta in thetas:
            assert z.support(theta) == pytest.approx(body.shadow_area(theta), rel=1e-10)


class TestMixedVolume:
    def test_segment_case_reduces_to_shadow(self):
        body = random_symmetric_polytope(3, 6, RandomSource(95))
        e1 = np.array([1.0, 0.0, 0.0])
        z = Zonotope(e1[None, :])
        assert mixed_volume_vn1(body, z) == pytest.approx(
            (2.0 / 3.0) * body.shadow_area(e1), rel=1e-12
        )

    def test_linear_in_zonotope_scale(self):
        body = random_symmetric_polytope(3, 6, RandomSource(96))
        z = random_zonotope(3, 5, RandomSource(97))
        a = mixed_volume_vn1(body, z)
        b = mixed_volume_vn1(body, Zonotope(2.5 * z.generators))
        assert b == pytest.approx(2.5 * a, rel=1e-12)

    def test_self_mixed_volume_of_cube(self):
        # v_{n-1}(C, C) = |C| when C is the cube generated by its own segments
        body = cube(3)
        z = Zonotope(np.eye(3))
        assert mixed_volume_vn1(body, z) == pytest.approx(body.volume, rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_minkowski_inequality(self, seed):
        n = 2 + seed % 3
        body = random_symmetric_polytope(n, n + 3, RandomSource(98 + seed))
        z = random_zonotope(n, n + 2, RandomSource(99 + seed))
        rep = minkowski_inequality_check(body, z)
        assert rep.rhs >= rep.lhs - 1e-9 * rep.lhs

    @given(st.integers(min_value=0, max_value=10**6))
    def test_mixed_volume_from_volume_expansion(self, seed):
        # n v_{n-1}(C, Z) is the derivative of |C + tZ| at t=0; check by
        # secant against the hull volume of the sampled sum at small t.
        body = random_symmetric_polytope(2, 4, RandomSource(100))
        z = random_zonotope(2, 3, RandomSource(seed))
        t = 1e-5
        verts = body.vertices.points
        cloud = (verts[:, None, :] + t * zonotope_vertex_cloud(z.generators)[None, :, :]).reshape(-1, 2)
        from oracles import hull_volume

        grown = hull_volume(cloud)
        derivative = (grown - body.volume) / t
        assert derivative == pytest.approx(2.0 * mixed_volume_vn1(body, z), rel=1e-3)


class TestDominanceBound:
    def test_cube_chain_is_tight(self):
        body = cube(3)
        z = Zonotope(np.eye(3))
        shadows = body.shadow_areas(np.eye(3))
        bound = dominance_volume_bound(body, z, shadows)
        assert bound == pytest.approx(body.volume, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_bound_covers_dominated_shrunken_body(self, seed):
        n = 2 + seed % 3
        body = random_symmetric_polytope(n, n + 3, RandomSource(110 + seed))
        lam = 0.4 + 0.05 * seed
        dominated = body.affine_image(lam * np.eye(n))
        z = random_zonotope(n, n + 2, RandomSource(111 + seed))
        # shrink Z until it sits inside the body
        scale = 0.9 * min(
            body.support(v / np.linalg.norm(v)) / z.support(v / np.linalg.norm(v))
            for v in body.vertices.points
        )
        z_in = Zonotope(min(scale, 1.0) * 0.2 * z.generators)
        shadows = dominated.shadow_areas(z_in.unit_directions)
        bound = dominance_volume_bound(body, z_in, shadows)
        assert bound >= dominated.volume - 1e-9 * dominated.volume

    @staticmethod
    def touching_zonotope() -> tuple[SymmetricHPolytope, Zonotope]:
        """20 generators, past the reach of any vertex enumeration, scaled so that h_Z(u_i) <= t_i with equality on one slab."""
        body = random_symmetric_polytope(3, 7, RandomSource(114))
        raw = random_zonotope(3, 20, RandomSource(115))
        return body, Zonotope(raw.generators * np.min(body.offsets / raw.supports(body.directions)))

    def test_twenty_generators_inside_get_a_bound(self):
        body, z = self.touching_zonotope()
        shadows = body.shadow_areas(z.unit_directions)
        bound = dominance_volume_bound(body, z, shadows)
        # D = C: the shadow side is v_{n-1}(C, Z)^{n/(n-1)} |Z|^{-1/(n-1)}, at least |C| by Minkowski's inequality
        assert bound == pytest.approx(mixed_volume_vn1(body, z) ** 1.5 / z.volume**0.5, rel=1e-12)
        assert bound >= body.volume * (1.0 - 1e-12)

    def test_twenty_generators_past_one_slab_raise(self):
        body, z = self.touching_zonotope()
        pushed = Zonotope(z.generators * (1.0 + 1e-6))  # the touching slab's support passes its offset by about 1e-6
        with pytest.raises(ValueError, match="containment"):
            dominance_volume_bound(body, pushed, body.shadow_areas(pushed.unit_directions))

    def test_containment_violation_raises(self):
        body = cube(2)
        z = Zonotope(3.0 * np.eye(2))
        with pytest.raises(ValueError, match="containment"):
            dominance_volume_bound(body, z, np.array([2.0, 2.0]))

    def test_small_body_containment_is_checked_at_its_scale(self):
        # Z is five times C along every axis; an absolute tolerance of 1e-9 would pass it
        body = SymmetricHPolytope(np.eye(3), np.full(3, 1e-10))
        z = Zonotope(5e-10 * np.eye(3))
        with pytest.raises(ValueError, match="containment"):
            dominance_volume_bound(body, z, body.shadow_areas(np.eye(3)))

    @pytest.mark.parametrize("s", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_containment_decision_is_scale_free(self, s):
        body, z = self.touching_zonotope()
        inside = Zonotope(s * z.generators * (1.0 - 1e-10))
        outside = Zonotope(s * z.generators * (1.0 + 1e-7))
        scaled = SymmetricHPolytope(body.directions, s * body.offsets)
        assert dominance_volume_bound(scaled, inside, scaled.shadow_areas(inside.unit_directions)) > 0.0
        with pytest.raises(ValueError, match="containment"):
            dominance_volume_bound(scaled, outside, scaled.shadow_areas(outside.unit_directions))

    def test_dimension_one_is_refused(self):
        # the bound's exponents n/(n-1) and 1/(n-1) have no value at n = 1
        body = SymmetricHPolytope([[1.0]], [2.0])
        with pytest.raises(ValueError, match="n >= 2"):
            dominance_volume_bound(body, Zonotope([[1.0]]), np.array([1.0]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_shadow_values_must_be_finite_and_nonnegative(self, bad):
        with pytest.raises(ValueError, match="shadow values"):
            dominance_volume_bound(cube(3), Zonotope(0.5 * np.eye(3)), np.array([4.0, bad, 4.0]))
