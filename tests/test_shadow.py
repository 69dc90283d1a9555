"""Shadow minimization, repositioning pipeline, product inequality, ball ratio."""

import functools
import math
import warnings

import numpy as np
import pytest

from oracles import support_minimum_reference, support_minimum_sampled
from shadowgeom import ellipsoid, polytope
from shadowgeom.kernel import CapacityError, RandomSource, random_orthogonal, sample_unit_sphere
from shadowgeom.polytope import MEASURE_FLOOR, SymmetricHPolytope, _mapped_image, random_symmetric_polytope
from shadowgeom.shadow import (
    ball_shadow_ratio,
    loomis_whitney_check,
    min_shadow_direction,
    minimize_support,
    polar_vertices,
    shadow_position,
    verify_product_inequality,
    zonotope_facet_normals,
)
from shadowgeom.zonotope import WeightedDirections, Zonotope, projection_body, random_zonotope


def cube(n: int) -> SymmetricHPolytope:
    return SymmetricHPolytope(np.eye(n), np.ones(n))


def hexagon() -> SymmetricHPolytope:
    angles = np.array([0.0, math.pi / 3.0, 2.0 * math.pi / 3.0])
    u = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return SymmetricHPolytope(u, np.ones(3))


class TestFacetNormals:
    def test_cube_zonotope_normals_are_axes(self):
        normals = zonotope_facet_normals(Zonotope(np.eye(3)))
        assert normals.shape == (3, 3)
        assert np.allclose(np.sort(np.abs(normals).sum(axis=1)), 1.0)

    def test_normals_support_touches_facets(self):
        z = random_zonotope(3, 6, RandomSource(700))
        normals = zonotope_facet_normals(z)
        heights = z.supports(normals)
        assert np.all(heights > 0.0)

    @pytest.mark.parametrize("gens", [[[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]])
    def test_generators_spanning_less_than_a_hyperplane_are_rejected(self, gens):
        with pytest.raises(ValueError, match="no facet normals"):
            zonotope_facet_normals(Zonotope(np.array(gens)))

    def test_capacity_guard(self):
        gen = RandomSource(701).generator()
        with pytest.raises(CapacityError):
            zonotope_facet_normals(Zonotope(gen.standard_normal((25, 3))))


class TestPolarVertices:
    def test_cube_projection_body_polar_is_cross_polytope(self):
        pv = polar_vertices(projection_body(cube(3)))
        # the cube's shadow norm ball: vertices +-e_i / 4
        assert len(pv) == 6
        assert np.allclose(np.sort(np.linalg.norm(pv, axis=1)), 0.25)

    def test_vertices_on_unit_shadow_sphere(self):
        z = random_zonotope(3, 5, RandomSource(702))
        pv = polar_vertices(z)
        assert np.allclose(z.supports(pv), 1.0, atol=1e-9)

    def test_closed_under_negation(self):
        z = random_zonotope(2, 4, RandomSource(703))
        pv = polar_vertices(z)
        for p in pv:
            assert np.min(np.linalg.norm(pv + p, axis=1)) <= 1e-12


class TestMinimizeSupport:
    def test_cube_minimum_is_axis_shadow(self):
        rep = min_shadow_direction(cube(3))
        assert rep.value == pytest.approx(4.0, rel=1e-12)
        assert np.max(np.abs(rep.direction)) == pytest.approx(1.0, abs=1e-9)

    def test_hexagon_minimum_width(self):
        rep = min_shadow_direction(hexagon())
        assert rep.value == pytest.approx(2.0, rel=1e-12)

    def test_reported_value_is_attained_and_global(self):
        body = random_symmetric_polytope(3, 6, RandomSource(706))
        rep = min_shadow_direction(body)
        assert body.shadow_area(rep.direction) == pytest.approx(rep.value, rel=1e-9)
        sampled = float(
            np.min(body.shadow_areas(sample_unit_sphere(3, RandomSource(708), count=20_000)))
        )
        assert rep.value <= sampled + 1e-9

    def test_estimate_upper_bounds_sampled_oracle(self):
        gens = RandomSource(711).generator().standard_normal((6, 3))
        z = Zonotope(gens)
        rep = minimize_support(z)
        oracle = support_minimum_sampled(gens, RandomSource(713).generator())
        assert rep.value <= oracle + 1e-9


def assert_matches_exhaustive_minimum(gens: np.ndarray, seed: int) -> None:
    z = Zonotope(gens)
    rep = minimize_support(z)
    starts = sample_unit_sphere(z.dim, RandomSource(seed + 1), count=50)
    _, ref = support_minimum_reference(z.generators, starts)
    scale = float(np.sum(np.linalg.norm(z.generators, axis=1)))
    assert abs(rep.value - ref) <= 1e-12 * max(ref, 1e-3 * scale)
    assert float(np.linalg.norm(rep.direction)) == pytest.approx(1.0, abs=1e-12)
    assert abs(z.support(rep.direction) - rep.value) <= 1e-12 * max(rep.value, 1e-3 * scale)


class TestMinimumSupportOracle:
    """The facet-normal minimum against the exhaustive search it replaced."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_random_zonotopes(self, n):
        for m in range(n, 17):
            gens = RandomSource(900 + 20 * n + m).generator().standard_normal((m, n))
            assert_matches_exhaustive_minimum(gens, 1000 + m)

    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("m", range(17, 21))
    def test_up_to_the_facet_normal_guard(self, n, m):
        gens = RandomSource(900 + 20 * n + m).generator().standard_normal((m, n))
        assert_matches_exhaustive_minimum(gens, 1000 + m)

    @pytest.mark.parametrize(("n", "m"), [(3, 21), (5, 24), (7, 24)])
    def test_up_to_the_generator_guard(self, n, m):
        # past the facet-normal enumeration's old 20-generator limit, up to the zonotope's 24
        gens = RandomSource(900 + 20 * n + m).generator().standard_normal((m, n))
        assert_matches_exhaustive_minimum(gens, 1000 + m)

    def test_cube(self):
        assert_matches_exhaustive_minimum(np.eye(4), 1)
        assert minimize_support(Zonotope(np.eye(4))).value == pytest.approx(1.0, rel=1e-15)

    def test_hexagon(self):
        angles = np.array([0.0, math.pi / 3.0, 2.0 * math.pi / 3.0])
        gens = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        assert_matches_exhaustive_minimum(gens, 2)
        assert minimize_support(Zonotope(gens)).value == pytest.approx(math.sqrt(3.0), rel=1e-15)

    def test_parallel_and_repeated_generators(self):
        base = RandomSource(930).generator().standard_normal((5, 3))
        gens = np.vstack([base, 2.0 * base[0], -base[1], base[2], base[2]])
        assert_matches_exhaustive_minimum(gens, 3)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_rank_deficient_zonotope_has_zero_minimum(self, n):
        # generators in a hyperplane: the normal of the hyperplane supports 0
        gen = RandomSource(940 + n).generator()
        gens = gen.standard_normal((n + 3, n))
        normal = gen.standard_normal(n)
        normal /= np.linalg.norm(normal)
        gens -= np.outer(gens @ normal, normal)
        assert_matches_exhaustive_minimum(gens, 4)
        rep = minimize_support(Zonotope(gens))
        assert rep.value <= 1e-12 * float(np.sum(np.abs(gens)))
        assert abs(float(rep.direction @ normal)) == pytest.approx(1.0, abs=1e-12)


SKEW = np.array([[1.0, 0.7, 0.0], [0.0, 1.0, -0.4], [0.0, 0.0, 1.0]])


class TestShadowPosition:
    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_cube_is_fixed_point(self, n):
        rep = shadow_position(cube(n))
        assert rep.ok
        assert rep.ratio == pytest.approx(1.0, abs=1e-9)
        assert rep.volume == pytest.approx(2.0**n, rel=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_bodies_reach_the_floor(self, seed):
        n = 3 + seed % 2
        body = random_symmetric_polytope(n, n + 3 + seed, RandomSource(730 + seed))
        rep = shadow_position(body)
        assert rep.ok
        assert rep.ratio >= 1.0 - 1e-4
        assert rep.branch == "exact"
        assert abs(abs(np.linalg.det(rep.transform)) - 1.0) <= 1e-9
        assert rep.body.volume == pytest.approx(body.volume, rel=1e-9)

    def test_john_residuals_within_contract(self):
        body = random_symmetric_polytope(3, 7, RandomSource(750))
        rep = shadow_position(body)
        assert rep.residuals["john_frobenius"] <= 1e-6
        assert abs(rep.residuals["john_trace_gap"]) <= 1e-8

    def test_john_weights_sum_to_the_dimension(self):
        # the weights' one linear solve missed n by -1.2e-12 on this body
        rep = shadow_position(random_symmetric_polytope(6, 7, RandomSource(3)))
        assert abs(rep.john.weights.sum() - 6.0) <= 1e-14

    def test_contact_directions_attain_minimum(self):
        body = random_symmetric_polytope(3, 6, RandomSource(752))
        rep = shadow_position(body)
        # a body of the same slabs measures itself: the report's body holds the input body's measures, mapped
        shadows = SymmetricHPolytope(rep.body.directions, rep.body.offsets).shadow_areas(rep.john.contacts)
        assert np.max(np.abs(shadows - rep.min_shadow)) <= 1e-6 * rep.min_shadow

    def test_affine_invariance_of_result(self):
        body = random_symmetric_polytope(3, 6, RandomSource(754))
        rep_a = shadow_position(body)
        rep_b = shadow_position(body.affine_image(SKEW))
        assert rep_b.ratio == pytest.approx(rep_a.ratio, rel=1e-6)

    def test_thin_rotated_box_whose_active_point_reads_above_the_bound(self):
        # an active point with g = 3.00000004 above the bound 3 (1 + 1e-8) used to enter the design again,
        # leaving two support points and a ValueError from the contact decomposition
        body = SymmetricHPolytope(random_orthogonal(3, np.random.default_rng(3)), np.array([1.0, 1.0, 1e-4]))
        rep = shadow_position(body)
        assert rep.ok
        assert rep.ratio >= 1.0 - 1e-4
        assert len(rep.john.weights) == 3
        assert abs(rep.john.weights.sum() - 3.0) <= 1e-14

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("thickness", [1e-5, 1e-6])
    def test_thin_rotated_boxes_return(self, monkeypatch, n, thickness):
        # at the optimal uniform start cond(M) is about 2e10 (1e-5) or 2e12 (1e-6), and g rounds above n (1 + 1e-8):
        # a stopping test below the rounding of g runs the Newton solve to MAX_MVEE_ITERATIONS, which the cap makes quick
        monkeypatch.setattr(ellipsoid, "MAX_MVEE_ITERATIONS", 1000)
        body = SymmetricHPolytope(random_orthogonal(n, np.random.default_rng(3)), np.array([1.0] * (n - 1) + [thickness]))
        rep = shadow_position(body)
        assert rep.ok
        assert len(rep.john.weights) == n

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_kappa_range_lies_within_the_width_the_solve_stopped_at(self, n):
        # on these boxes the rounding of g widens eps (1e-8) to 4e-4..9e-4, and the kappa range lies 2e-5..5e-5 from n
        body = SymmetricHPolytope(random_orthogonal(n, np.random.default_rng(3)), np.array([1.0] * (n - 1) + [1e-6]))
        rep = shadow_position(body)
        assert rep.kappa_tol > 1e-8
        assert n * (1.0 - rep.kappa_tol) <= rep.kappa_min <= rep.kappa_max <= n * (1.0 + rep.kappa_tol)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("thickness", [1e-8, 1e-9])
    def test_a_singular_ellipsoid_is_refused_before_the_transform(self, n, thickness):
        # at the uniform start the rounding of g widens eps past 1 (to 3.4..6.4 at 1e-8), or tr(M^-1) reads negative,
        # or the design does not invert: g has no correct digit, so the MVEE refuses all six with one message
        body = SymmetricHPolytope(random_orthogonal(n, np.random.default_rng(3)), np.array([1.0] * (n - 1) + [thickness]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="the MVEE cannot decide the design"):
                shadow_position(body)

    @pytest.mark.parametrize("k", range(-1, 5))
    def test_the_transform_is_the_unimodular_root_of_the_ellipsoid(self, k):
        # the cube(3) at k = -1, then random bodies: T is symmetric and T T = H / det(H)^(1/n), with H the shape
        # of the MVEE of the canonical polar vertices
        body = cube(3) if k < 0 else random_symmetric_polytope(3 + k % 4, 7 + k, RandomSource(790 + k))
        pv = polar_vertices(projection_body(body))
        h = ellipsoid.mvee_symmetric(pv[: len(pv) // 2]).ellipsoid.shape
        t = shadow_position(body).transform
        assert np.array_equal(t, t.T)
        expected = h / np.linalg.det(h) ** (1.0 / body.dim)
        assert np.max(np.abs(t @ t - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_body_with_more_than_twenty_facet_pairs(self):
        # 24 slabs, 21 of them facets: past the facet-normal enumeration's old 20-generator guard
        body = random_symmetric_polytope(5, 24, RandomSource(4))
        assert len(projection_body(body).generators) > 20
        rep = shadow_position(body)
        assert rep.ok
        assert rep.ratio >= 1.0 - 1e-4
        assert rep.branch == "exact"


CERTIFICATE_BODIES = {
    **{f"cube-{n}": functools.partial(cube, n) for n in (2, 3, 4, 7)},
    **{f"random-{n}": functools.partial(random_symmetric_polytope, n, n + 3, RandomSource(760 + n)) for n in range(3, 7)},
    "skewed": lambda: random_symmetric_polytope(3, 6, RandomSource(754)).affine_image(SKEW),
}


class TestCertificateOracle:
    """The report's certificate against a fresh enumeration of the repositioned body."""

    @pytest.mark.parametrize("name", CERTIFICATE_BODIES)
    def test_fields_match_a_fresh_enumeration(self, name):
        body = CERTIFICATE_BODIES[name]()
        rep = shadow_position(body)
        # the certificate comes from the cone rows of the input body; neither body is enumerated unless asked
        for b in (body, rep.body):
            assert "vertices" not in b.__dict__ and "facets" not in b.__dict__
        # the report's body holds the input body's measures, mapped; a body of the same slabs measures itself
        image = SymmetricHPolytope(rep.body.directions, rep.body.offsets)
        fresh = min_shadow_direction(image)
        assert rep.volume == pytest.approx(image.volume, rel=1e-12)
        assert rep.min_shadow == pytest.approx(fresh.value, rel=1e-12)
        gap = min(np.linalg.norm(rep.min_direction - fresh.direction), np.linalg.norm(rep.min_direction + fresh.direction))
        assert gap <= 1e-12


def mapped_triple(body: SymmetricHPolytope, a: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """The chain rule written out: ``|det A|`` times V, ``r_j dV/dt_j`` and ``r_j r_k d2V/dt_j dt_k``, ``r_j = |A^-T u_j|``."""
    volume, gradient, hessian = body._measures
    r = np.linalg.norm(np.linalg.solve(a.T, body.directions.T).T, axis=1)
    scale = abs(float(np.linalg.det(a)))
    return scale * volume, scale * r * gradient, scale * np.outer(r, r) * hessian


def counted_derivative_calls(monkeypatch) -> list[int]:
    """Patch ``polytope._volume_derivatives``, which every cone pass of a body's measures calls, to count its calls."""
    calls = []
    derivatives = polytope._volume_derivatives
    monkeypatch.setattr(polytope, "_volume_derivatives", lambda plan, t: (calls.append(len(t)), derivatives(plan, t))[1])
    return calls


#: position-shaped bodies: n = 4..6, m = n + 3..14, two bodies a shape
POSITION_BODIES = [(n, m, 900 + 100 * k + 10 * n + m) for k in range(2) for n in (4, 5, 6) for m in range(n + 3, 15)]


class TestMappedMeasures:
    """The report's body TC holds C's measure triple mapped by the chain rule, and is measured by no cone pass of its own."""

    @pytest.mark.parametrize("name", CERTIFICATE_BODIES)
    def test_the_report_body_holds_the_mapped_triple(self, monkeypatch, name):
        body = CERTIFICATE_BODIES[name]()
        rep = shadow_position(body)
        calls = counted_derivative_calls(monkeypatch)
        volume, gradient, hessian = mapped_triple(body, rep.transform)
        assert rep.body.volume == rep.volume == volume
        assert np.array_equal(rep.body._measures[1], gradient)
        floor = MEASURE_FLOOR * rep.body._scale ** (body.dim - 1)
        assert np.array_equal(rep.body._facet_measures, np.where(0.5 * gradient < floor, 0.0, 0.5 * gradient))
        assert np.array_equal(rep.body.volume_hessian, hessian) and np.array_equal(hessian, hessian.T)
        assert calls == []

    def test_the_mapped_triple_agrees_with_a_fresh_body(self):
        # in multiples of eps cond(T), the worst of 210 bodies (seeds 900 + 100 k + 10 n + m for k < 2 and 5000 + ... for
        # k < 8, cond(T) <= 21.9) read 222 (volume), 2902 and 45770 (gradient and Hessian, of their largest entries);
        # these 42 read 120, 277 and 1819
        eps = np.finfo(float).eps
        for n, m, seed in POSITION_BODIES:
            rep = shadow_position(random_symmetric_polytope(n, m, RandomSource(seed)))
            fresh = SymmetricHPolytope(rep.body.directions, rep.body.offsets)
            unit = eps * np.linalg.cond(rep.transform)
            assert abs(rep.body.volume - fresh.volume) <= 1e3 * unit * fresh.volume
            for mapped, own, bound in zip(rep.body._measures[1:], fresh._measures[1:], (1e4, 1e5)):
                assert np.max(np.abs(mapped - own)) <= bound * unit * np.max(np.abs(own))

    def test_a_general_map_carries_the_triple(self, monkeypatch):
        # the transforms of shadow_position are symmetric; SKEW is not
        body = random_symmetric_polytope(3, 6, RandomSource(754))
        plain = body.affine_image(SKEW)
        calls = counted_derivative_calls(monkeypatch)
        image = _mapped_image(body, SKEW)
        assert len(calls) == 1  # the source's own pass, none for the image
        assert np.array_equal(image.directions, plain.directions) and np.array_equal(image.offsets, plain.offsets)
        volume, gradient, hessian = mapped_triple(body, SKEW)
        assert image.volume == volume and np.array_equal(image._measures[1], gradient)
        assert np.array_equal(image.volume_hessian, hessian) and np.array_equal(hessian, hessian.T)
        assert len(calls) == 1
        assert image.volume == pytest.approx(plain.volume, rel=1e-12)  # plain makes a pass of its own
        assert np.allclose(image.volume_hessian, plain.volume_hessian, rtol=0.0, atol=1e-12 * np.max(np.abs(plain.volume_hessian)))

    def test_affine_image_measures_its_image_afresh(self, monkeypatch):
        # even from a measured source: a carried triple would make the image's last bits depend on the order of calls
        body = random_symmetric_polytope(3, 6, RandomSource(754))
        body.volume
        calls = counted_derivative_calls(monkeypatch)
        image = body.affine_image(SKEW)
        assert "_measures" not in vars(image)
        image.volume
        assert calls == [1]


class TestTiedMinima:
    """Minima that tie to rounding resolve by candidate order, never by their last bits."""

    def test_ulp_perturbed_cube_zonotope(self):
        gen = np.random.default_rng(11)
        directions = set()
        for _ in range(20):
            gens = 4.0 * np.eye(3) * (1.0 + 1e-15 * gen.standard_normal(3))
            directions.add(tuple(minimize_support(Zonotope(gens)).direction))
        assert len(directions) == 1

    def test_ulp_perturbed_box_position(self):
        gen = np.random.default_rng(12)
        directions = set()
        for _ in range(20):
            rep = shadow_position(SymmetricHPolytope(np.eye(3), 1.0 + 1e-15 * gen.standard_normal(3)))
            directions.add(tuple(np.round(rep.min_direction, 12)))
        assert len(directions) == 1


@functools.lru_cache(maxsize=None)
def unit_scale_results(n: int, m: int):
    body = random_symmetric_polytope(n, m, RandomSource(3))
    return body, shadow_position(body), min_shadow_direction(body).value, projection_body(body).volume


class TestScaleInvariance:
    """The shadow position is scale-free; shadows scale as s^(n-1), the projection body's volume as s^(n(n-1))."""

    @pytest.mark.parametrize("s", [1e-6, 1e-3, 1e3, 1e6])
    @pytest.mark.parametrize("extra", [1, 3])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_scaled_body(self, n, extra, s):
        body, ref, ref_min, ref_volume = unit_scale_results(n, n + extra)
        scaled = SymmetricHPolytope(body.directions, s * body.offsets)
        rep = shadow_position(scaled)
        assert abs(rep.ratio - ref.ratio) <= 1e-9
        assert np.max(np.abs(rep.transform - ref.transform)) <= 1e-8 * np.max(np.abs(ref.transform))
        assert min_shadow_direction(scaled).value == pytest.approx(s ** (n - 1) * ref_min, rel=1e-9)
        assert projection_body(scaled).volume == pytest.approx(s ** (n * (n - 1)) * ref_volume, rel=1e-9)

    @pytest.mark.parametrize("s", [1e-6, 1e-3, 1e3, 1e6])
    @pytest.mark.parametrize("n", range(3, 7))
    def test_product_inequality_ratio(self, n, s):
        # the repositioned body against its own contact decomposition
        _, ref, _, _ = unit_scale_results(n, n + 3)
        scaled = SymmetricHPolytope(ref.body.directions, s * ref.body.offsets)
        ratio = verify_product_inequality(ref.body, ref.john).ratio
        assert verify_product_inequality(scaled, ref.john).ratio == pytest.approx(ratio, rel=1e-12)


class TestProductInequality:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_pairs_respect_inequality(self, seed):
        n = 2 + seed % 3
        body = random_symmetric_polytope(n, n + 3, RandomSource(760 + seed))
        from shadowgeom.zonotope import random_weighted_directions

        dec = random_weighted_directions(n, RandomSource(770 + seed), bases=2)
        rep = verify_product_inequality(body, dec)
        assert rep.ratio >= 1.0 - 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_box_orthonormal_equality(self, n):
        gen = RandomSource(780 + n).generator()
        half_widths = gen.uniform(0.5, 2.0, size=n)
        body = SymmetricHPolytope(np.eye(n), half_widths)
        rep = loomis_whitney_check(body)
        assert abs(rep.ratio - 1.0) <= 1e-9

    def test_a_side_that_overflows_is_refused(self):
        # ROADMAP item 24: at offsets x 1e10 the logs of the sides read 712.9 and 718.2, past log(max float) = 709.8;
        # at offsets x 1e-30 they read -2050.2 and -2044.9, below log(least normal float) = -708.4, where both sides
        # would report 0.0 while the ratio, read from the logs, reads 202.7
        from shadowgeom.zonotope import random_weighted_directions

        body = random_symmetric_polytope(6, 10, RandomSource(5))
        dec = random_weighted_directions(6, RandomSource(1), bases=2)
        for s, logs in [(1e10, "log lhs 712.878, log rhs 718.19"), (1e-30, "log lhs -2050.22, log rhs -2044.91")]:
            scaled = SymmetricHPolytope(body.directions, s * body.offsets)
            with pytest.raises(ValueError, match=f"under- or overflows a float: {logs}"):
                verify_product_inequality(scaled, dec)
            with pytest.raises(ValueError, match="under- or overflows a float"):
                loomis_whitney_check(scaled)
        # at unit scale the ratio, read from the logs, keeps its bits
        assert verify_product_inequality(body, dec).ratio == float.fromhex("0x1.95644b46a0a39p+7")
        assert loomis_whitney_check(body).ratio == float.fromhex("0x1.76e0605c522b9p+7")

    def test_perturbed_decomposition_rejected(self):
        dec = WeightedDirections(np.eye(3), np.array([1.0, 1.0, 1.001]))
        with pytest.raises(ValueError):
            verify_product_inequality(cube(3), dec)

    def test_dimension_mismatch_rejected(self):
        dec = WeightedDirections(np.eye(2), np.ones(2))
        with pytest.raises(ValueError, match="dimension"):
            verify_product_inequality(cube(3), dec)


class TestBallShadowRatio:
    def test_plane_value(self):
        assert ball_shadow_ratio(2) == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-15)

    def test_space_value(self):
        # pi r^2 over (4/3 pi r^3)^(2/3) at r=1
        expected = math.pi / (4.0 * math.pi / 3.0) ** (2.0 / 3.0)
        assert ball_shadow_ratio(3) == pytest.approx(expected, rel=1e-14)
        assert ball_shadow_ratio(3) == pytest.approx(1.20900, abs=1e-5)

    def test_strictly_increasing(self):
        values = [ball_shadow_ratio(n) for n in range(2, 201)]
        assert np.all(np.diff(values) > 0.0)

    def test_large_dimension_approach_to_limit(self):
        value = ball_shadow_ratio(200)
        assert value == pytest.approx(1.6243995015984385, rel=1e-12)
        gap = (math.sqrt(math.e) - value) / math.sqrt(math.e)
        assert 0.0 < gap <= 1.49e-2

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            ball_shadow_ratio(1)
        with pytest.raises(ValueError):
            ball_shadow_ratio(201)
