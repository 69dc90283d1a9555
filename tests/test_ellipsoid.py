"""Minimal enclosing ellipsoids and contact-point decompositions."""

import math
import re

import numpy as np
import pytest

import shadowgeom.ellipsoid as ellipsoid_mod
from oracles import kappa_range, mvee_reference
from shadowgeom.ellipsoid import (
    Ellipsoid,
    extract_john_decomposition,
    mvee_symmetric,
)
from shadowgeom.kernel import CapacityError, RandomSource, WeightedDirections, hyperplane_basis, random_orthogonal, unit_ball_volume
from shadowgeom.polytope import random_symmetric_polytope
from shadowgeom.shadow import polar_vertices
from shadowgeom.zonotope import projection_body


def cube_vertices(n: int) -> np.ndarray:
    from itertools import product

    return np.array(list(product((-1.0, 1.0), repeat=n)))


class TestEllipsoid:
    def test_ball_volume(self):
        ball = Ellipsoid(np.eye(3))
        assert ball.volume == pytest.approx(unit_ball_volume(3), rel=1e-12)

    def test_rejects_indefinite_shape(self):
        with pytest.raises(ValueError):
            Ellipsoid(np.diag([1.0, -1.0]))

    def test_contains(self):
        e = Ellipsoid(np.diag([1.0, 4.0]))
        inside = e.contains(np.array([[0.9, 0.0], [0.0, 0.6]]))
        assert inside.tolist() == [True, False]


class TestMveeFixtures:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cube_vertices_give_sqrt_n_ball(self, n):
        result = mvee_symmetric(cube_vertices(n), eps=1e-9)
        # by symmetry the MVEE of the cube's vertices is the ball of radius sqrt(n)
        assert np.allclose(result.ellipsoid.shape, np.eye(n) / n, atol=1e-7)

    def test_cross_polytope_vertices_give_unit_ball(self):
        pts = np.vstack([np.eye(3), -np.eye(3)])
        result = mvee_symmetric(pts, eps=1e-10)
        assert np.allclose(result.ellipsoid.shape, np.eye(3), atol=1e-8)

    def test_anisotropic_box(self):
        pts = cube_vertices(2) * np.array([3.0, 0.5])
        result = mvee_symmetric(pts, eps=1e-10)
        assert np.allclose(result.ellipsoid.shape, np.diag([1.0 / 18.0, 2.0]), atol=1e-7)


class TestMveeProperties:
    @pytest.mark.parametrize("seed", range(6))
    def test_all_points_enclosed_within_certificate(self, seed):
        n = 2 + seed % 3
        pts = random_symmetric_polytope(n, n + 3, RandomSource(500 + seed)).vertices.points
        result = mvee_symmetric(pts, eps=1e-8)
        quad = np.einsum("ij,jk,ik->i", pts, result.ellipsoid.shape, pts)
        assert float(quad.max()) <= 1.0 + 1e-7
        assert result.kappa_max <= (1.0 + 1e-8) * result.ellipsoid.dim + 1e-12

    def test_affine_covariance(self):
        pts = random_symmetric_polytope(3, 6, RandomSource(510)).vertices.points
        mat = np.array([[1.5, 0.2, 0.0], [0.0, 0.8, 0.4], [0.0, 0.0, 1.2]])
        base = mvee_symmetric(pts, eps=1e-10).ellipsoid.shape
        mapped = mvee_symmetric(pts @ mat.T, eps=1e-10).ellipsoid.shape
        inv = np.linalg.inv(mat)
        assert np.allclose(mapped, inv.T @ base @ inv, atol=1e-6)

    def test_rotation_only_rotates(self):
        pts = random_symmetric_polytope(3, 6, RandomSource(511)).vertices.points
        q = random_orthogonal(3, RandomSource(512).generator())
        base = mvee_symmetric(pts, eps=1e-10)
        rotated = mvee_symmetric(pts @ q.T, eps=1e-10)
        assert rotated.ellipsoid.volume == pytest.approx(base.ellipsoid.volume, rel=1e-8)

    def test_local_minimality_of_volume(self):
        # tightening any axis yields a strictly smaller enclosing candidate,
        # so minimality demands that some point escapes it
        pts = random_symmetric_polytope(3, 6, RandomSource(513)).vertices.points
        result = mvee_symmetric(pts, eps=1e-10)
        for k in range(3):
            scale = np.ones(3)
            scale[k] = 0.98
            h = result.ellipsoid.shape / scale[:, None] / scale[None, :]
            quad = np.einsum("ij,jk,ik->i", pts, h, pts)
            assert float(quad.max()) > 1.0, f"axis {k} tightening kept all points: not minimal"


def symmetric_cloud(n: int, seed: int) -> np.ndarray:
    gen = RandomSource(seed).generator()
    pts = gen.standard_normal((30 * n, n)) * gen.uniform(0.2, 3.0, size=n)
    return np.vstack([pts, -pts])


def polar_cloud(n: int, m: int, seed: int) -> np.ndarray:
    return polar_vertices(projection_body(random_symmetric_polytope(n, m, RandomSource(seed))))


class TestMveeAgainstReference:
    """Active-set Newton against Wolfe-Atwood run to eps = 1e-12, and the certificate read back."""

    def check(self, pts: np.ndarray, eps: float = 1e-8) -> None:
        result = mvee_symmetric(pts, eps)
        n = result.ellipsoid.dim
        shape = mvee_reference(result.points, 1e-12)
        assert np.max(np.abs(result.ellipsoid.shape - shape)) <= 1e-10 * np.max(np.abs(shape))
        k_min, k_max = kappa_range(result.points, result.weights)
        assert n * (1.0 - eps) <= k_min and k_max <= n * (1.0 + eps)
        assert result.kappa_min == pytest.approx(k_min, rel=1e-12)
        assert result.kappa_max == pytest.approx(k_max, rel=1e-12)
        # every point of the input, not only the canonical ones, is enclosed
        quad = np.einsum("ij,jk,ik->i", pts, result.ellipsoid.shape, pts)
        assert float(quad.max()) <= 1.0 + eps * (1.0 + 1e-6)
        dec = extract_john_decomposition(result)
        dec.validate()
        frob, gap = dec.residuals()
        assert frob <= 1e-12 and abs(gap) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 7))
    def test_random_symmetric_clouds(self, n):
        self.check(symmetric_cloud(n, 540 + n))

    @pytest.mark.parametrize("n,m,seed", [(3, 7, 550), (4, 10, 551), (5, 12, 552), (6, 14, 553)])
    def test_polar_vertices_of_projection_bodies(self, n, m, seed):
        self.check(polar_cloud(n, m, seed))

    @pytest.mark.parametrize("n,m,seed", [(2, 0, 560), (4, 9, 561), (6, 12, 562)])
    def test_capacity_error_carries_exact_kappa_range(self, monkeypatch, n, m, seed):
        pts = symmetric_cloud(n, seed) if m == 0 else polar_cloud(n, m, seed)
        cap = 3 if m == 0 else 5  # the n = 2 cloud converges in 4 Newton steps
        monkeypatch.setattr(ellipsoid_mod, "MAX_MVEE_ITERATIONS", cap)
        with pytest.raises(CapacityError) as info:
            mvee_symmetric(pts)
        best = info.value.best
        assert best.iterations == cap
        k_min, k_max = kappa_range(best.points, best.weights)
        assert best.kappa_min == pytest.approx(k_min, rel=1e-12)
        assert best.kappa_max == pytest.approx(k_max, rel=1e-12)
        assert not (k_max <= n * (1.0 + best.eps) and k_min >= n * (1.0 - best.eps))


class TestMveeNewtonSolve:
    """Step counts, scale invariance and input checks of the active-set Newton solve."""

    @pytest.mark.parametrize("seed", range(60))
    def test_step_bound_on_heavy_tailed_sets(self, seed):
        # first-order step counts on these sets are heavy-tailed: 6104 Wolfe-Atwood steps at seed 29
        pts = polar_cloud(5, 8, seed)
        result = mvee_symmetric(pts)
        assert result.iterations <= 100
        k_min, k_max = kappa_range(result.points, result.weights)
        assert 5 * (1.0 - result.eps) <= k_min and k_max <= 5 * (1.0 + result.eps)
        assert result.kappa_min == pytest.approx(k_min, rel=1e-12)
        assert result.kappa_max == pytest.approx(k_max, rel=1e-12)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_scaling_the_points_scales_the_shape(self, n):
        pts = polar_cloud(n, n + 3, 3)
        base = mvee_symmetric(pts)
        for s in 10.0 ** np.arange(-12, 13, 3):
            scaled = mvee_symmetric(s * pts)
            expected = base.ellipsoid.shape / s**2
            assert np.max(np.abs(scaled.ellipsoid.shape - expected)) <= 1e-9 * np.max(np.abs(expected)), s
            assert scaled.iterations == base.iterations, s

    @pytest.mark.parametrize("k", [-500, -40, -3, 3, 40, 500])
    def test_a_power_of_two_scales_every_bit(self, k):
        # 2^+-500 is about 3e+-150, near the ends of the range where M and its inverse are finite
        pts = polar_cloud(4, 9, 3)
        base, scaled = mvee_symmetric(pts), mvee_symmetric(2.0**k * pts)
        assert np.array_equal(scaled.points, 2.0**k * base.points) and np.array_equal(scaled.weights, base.weights)
        assert np.array_equal(scaled.ellipsoid.shape, base.ellipsoid.shape * 2.0 ** (-2 * k))
        assert scaled.iterations == base.iterations

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_a_spanning_cloud_is_solved_near_the_ends_of_the_range(self, scale):
        pts = RandomSource(3).generator().standard_normal((12, 4))
        base, scaled = mvee_symmetric(pts), mvee_symmetric(scale * pts)
        expected = base.ellipsoid.shape / scale**2
        assert np.max(np.abs(scaled.ellipsoid.shape - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert scaled.iterations == base.iterations

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_a_spanning_cloud_past_the_range_is_refused_by_its_scale(self, scale):
        # the rows' norms, the zero-row and duplicate tolerances and the pivots of the core set are read off the points
        # scaled by a power of two, so the cloud is not taken for zero rows (the norms of the raw rows overflow at
        # 1e160) nor refused as not spanning; its design M, of entries about scale^2, or the inverse overflows
        pts = RandomSource(3).generator().standard_normal((12, 4))
        v = ellipsoid_mod._canonicalize_symmetric(pts)
        assert np.array_equal(ellipsoid_mod._canonicalize_symmetric(scale * pts), scale * v)
        largest = scale * np.linalg.norm(v, axis=1).max()
        with pytest.raises(ValueError, match=re.escape(f"not finite at the points' scale (largest norm {largest:.3g})")):
            mvee_symmetric(scale * pts)

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("seed", range(3))
    def test_either_half_of_a_symmetric_cloud_gives_the_same_design(self, n, seed):
        # polar_vertices returns v then -v; the MVEE of {+/- v} is the same set from either
        pts = polar_cloud(n, n + 3 + 2 * seed, 590 + 10 * n + seed)
        full, half = mvee_symmetric(pts), mvee_symmetric(pts[: len(pts) // 2])
        assert np.array_equal(half.points, full.points)
        assert np.array_equal(half.ellipsoid.shape, full.ellipsoid.shape)
        assert np.array_equal(half.weights, full.weights)
        assert half.iterations == full.iterations

    def test_newton_steps_on_the_position_pool(self):
        # the polar vertices of 63 bodies at the shapes of the position workload, one of each pair as
        # shadow_position passes them; every solve converges (mvee_symmetric raises CapacityError otherwise)
        steps = 0
        for n in range(4, 7):
            for m in range(n + 3, 15):
                for k in range(3):
                    pv = polar_vertices(projection_body(random_symmetric_polytope(n, m, RandomSource(1000 * n + 50 * m + k))))
                    steps += mvee_symmetric(pv[: len(pv) // 2]).iterations
        assert steps == 812

    def test_an_active_point_never_enters_again(self):
        v = ellipsoid_mod._canonicalize_symmetric(polar_cloud(4, 9, 581))
        n = v.shape[1]
        active = ellipsoid_mod._spanning_basis(v, 0.0)
        lam = np.full(n, 1.0 / n)
        inv = np.linalg.inv((v[active].T * lam) @ v[active])
        g = np.einsum("ij,jk,ik->i", v, inv, v)
        g[active[0]] = 2.0 * n  # an active point that reads above the bound, as rounding can make it
        grown, weights = ellipsoid_mod._add_violators(v, g, inv, active, lam, n * (1.0 + 1e-8))
        assert len(np.unique(grown)) == len(grown) == len(weights)
        assert np.array_equal(grown[:n], active)
        assert weights.sum() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_points(self, bad):
        pts = polar_cloud(3, 6, 3).copy()
        pts[4, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            mvee_symmetric(pts)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("noise", [0.0, 1e-13])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_points_in_a_hyperplane_are_refused(self, n, noise, scale):
        # 3n points in a random hyperplane and their negatives, within `noise` of it: no pivot of the core set lies
        # farther than 1e-10 of the largest norm from the span of those before it
        gen = RandomSource(620 + n).generator()
        normal = random_orthogonal(n, gen)[0]
        pts = gen.standard_normal((3 * n, n))
        pts -= np.outer(pts @ normal, normal)
        pts += noise * gen.standard_normal(pts.shape)
        with pytest.raises(ValueError, match="points do not span R\\^n: the MVEE is degenerate"):
            mvee_symmetric(scale * np.vstack([pts, -pts]))

    def test_zero_points_are_refused(self):
        with pytest.raises(ValueError, match="no nonzero points given"):
            mvee_symmetric(np.zeros((4, 3)))

    @pytest.mark.parametrize("thickness", [1e-7, 1e-8, 1e-9])
    def test_a_design_whose_g_has_no_correct_digit_is_refused(self, thickness):
        # on (e_1, thickness e_2) the uniform start has tr(M) tr(M^-1) = 1 / thickness^2 to rounding: the rounding
        # of g widens eps to 0.022 at 1e-7, which the solve still decides, and to 2.2 and 222 below it
        pts = np.array([[1.0, 0.0], [0.0, thickness]])
        if thickness > 1e-8:
            assert mvee_symmetric(pts).tol == pytest.approx(np.finfo(float).eps / thickness**2, rel=1e-6)
        else:
            with pytest.raises(ValueError, match="the MVEE cannot decide the design"):
                mvee_symmetric(pts)


class TestClosedForms:
    """The MVEE inverts M once per iterate: the Newton step, the Frank-Wolfe entries and the shape read that inverse."""

    def test_singular_newton_step_is_the_minimum_norm_bordered_solution(self):
        # the outer products of the 16 cube vertices in R^5 span 11 dimensions, so k * k is singular
        v = ellipsoid_mod._canonicalize_symmetric(cube_vertices(5))
        lam = np.full(16, 1.0 / 16.0) * (1.0 + 0.2 * RandomSource(575).generator().uniform(-1.0, 1.0, 16))
        lam /= lam.sum()
        mat = (v.T * lam) @ v
        k = v @ np.linalg.inv(mat) @ v.T
        assert np.linalg.matrix_rank(k * k) == 11
        new, delta = ellipsoid_mod._newton_step(k, lam)
        assert new.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.slogdet((v.T * new) @ v)[1] > np.linalg.slogdet(mat)[1]
        # the bordered system [[k * k, 1], [1, 0]] (d, mu) = (diag k, 0), solved by least squares
        kkt = np.ones((17, 17))
        kkt[:16, :16], kkt[16, 16] = k * k, 0.0
        d = np.linalg.lstsq(kkt, np.append(np.diag(k), 0.0), rcond=None)[0][:16]
        assert delta == pytest.approx(math.sqrt(d @ (k * k) @ d), rel=1e-9)
        # no weight reaches 0 in this step, so it is the whole damped step
        assert np.max(np.abs((new - lam) * (1.0 + delta) - d)) <= 1e-9

    def test_slice_basis_is_one_read_only_array_per_size(self):
        for s in range(1, 26):
            basis = ellipsoid_mod._slice_basis(s)
            assert basis is ellipsoid_mod._slice_basis(s)
            assert not basis.flags.writeable
            assert np.array_equal(basis, hyperplane_basis(np.ones(s)))

    def test_newton_step_in_the_cached_basis_is_the_step_in_a_fresh_one(self, monkeypatch):
        v = ellipsoid_mod._canonicalize_symmetric(cube_vertices(5))
        lam = np.full(16, 1.0 / 16.0) * (1.0 + 0.2 * RandomSource(575).generator().uniform(-1.0, 1.0, 16))
        lam /= lam.sum()
        k = v @ np.linalg.inv((v.T * lam) @ v) @ v.T
        cached, cached_delta = ellipsoid_mod._newton_step(k, lam)
        monkeypatch.setattr(ellipsoid_mod, "_slice_basis", lambda s: hyperplane_basis(np.ones(s)))
        fresh, fresh_delta = ellipsoid_mod._newton_step(k, lam)
        assert np.array_equal(cached, fresh)
        assert cached_delta == fresh_delta

    def test_frank_wolfe_entries_update_the_inverse_by_rank_one(self):
        # the entries the solver makes from its first design, each candidate once, every candidate kept in `cross`
        v = ellipsoid_mod._canonicalize_symmetric(polar_cloud(5, 10, 577))
        n = v.shape[1]
        active = ellipsoid_mod._spanning_basis(v, 0.0)
        lam = np.full(n, 1.0 / n)
        inv = np.linalg.inv((v[active].T * lam) @ v[active])
        worst = np.argsort(np.einsum("ij,jk,ik->i", v, inv, v))[::-1][:n]
        cross = v[worst] @ inv @ v[worst].T
        entered = []
        while True:
            g = np.where(np.isin(np.arange(n), entered), -np.inf, cross.diagonal())
            i = int(np.argmax(g))
            if g[i] <= n * (1.0 + 1e-8):
                break
            beta, cross = ellipsoid_mod._frank_wolfe_entry(cross, i, n)
            active, lam = np.append(active, worst[i]), np.append(lam * (1.0 - beta), beta)
            fresh = v[worst] @ np.linalg.inv((v[active].T * lam) @ v[active]) @ v[worst].T
            assert np.max(np.abs(cross - fresh)) <= 1e-12 * np.max(np.abs(fresh))
            assert cross[i, i] == pytest.approx(n, rel=1e-12)
            entered.append(i)
        assert len(entered) >= 3

    @pytest.mark.parametrize("n,m,seed", [(4, 9, 577), (5, 11, 578), (6, 13, 579)])
    def test_shape_is_the_inverse_the_kappa_range_was_certified_with(self, n, m, seed):
        result = mvee_symmetric(polar_cloud(n, m, seed))
        g = n * np.einsum("ij,jk,ik->i", result.points, result.ellipsoid.shape, result.points)
        assert float(g.max()) == pytest.approx(result.kappa_max, rel=1e-14)
        assert float(g[result.weights > 0.0].min()) == pytest.approx(result.kappa_min, rel=1e-14)


class TestJohnDecomposition:
    @pytest.mark.parametrize("seed", range(8))
    def test_residuals_within_contract(self, seed):
        n = 2 + seed % 4
        pts = random_symmetric_polytope(n, n + 3, RandomSource(520 + seed)).vertices.points
        dec = extract_john_decomposition(mvee_symmetric(pts, eps=1e-8))
        frob, gap = dec.residuals()
        assert frob <= 1e-6
        assert abs(gap) <= 1e-8
        dec.validate()

    def test_contacts_are_unit_and_on_sphere_of_whitened_points(self):
        pts = cube_vertices(3)
        dec = extract_john_decomposition(mvee_symmetric(pts, eps=1e-9))
        assert np.allclose(np.linalg.norm(dec.contacts, axis=1), 1.0, atol=1e-9)

    def test_cube_contacts_align_with_diagonals(self):
        pts = cube_vertices(2)
        dec = extract_john_decomposition(mvee_symmetric(pts, eps=1e-10))
        expected = np.abs(np.full((len(dec.contacts), 2), 1.0 / math.sqrt(2.0)))
        assert np.allclose(np.abs(dec.contacts), expected, atol=1e-6)

    def test_john_residual_report(self):
        pts = random_symmetric_polytope(3, 6, RandomSource(530)).vertices.points
        dec = extract_john_decomposition(mvee_symmetric(pts, eps=1e-9))
        frob, gap = dec.residuals()
        assert frob <= 1e-6
        assert abs(gap) <= 1e-8

    def test_perturbed_weight_reports_trace_gap(self):
        dec = WeightedDirections(np.eye(3), np.array([1.0, 1.0, 1.0 + 1e-3]))
        frob, gap = dec.residuals()
        assert gap == pytest.approx(1e-3, rel=1e-9)
        with pytest.raises(ValueError):
            dec.validate()

    def test_validate_rejects_non_unit_contacts(self):
        dec = WeightedDirections(1.1 * np.eye(3), np.ones(3))
        with pytest.raises(ValueError, match="unit"):
            dec.validate()
