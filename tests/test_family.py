"""Slab-family volume maximization, certified floors, pathological bodies."""

import math
from functools import cached_property

import numpy as np
import pytest

from oracles import fd_gradient
from shadowgeom.family import (
    FloorViolationError,
    SlabFamilySpec,
    construct_pathological,
    direction_spread,
    kkt_report,
    maximize_volume_details,
    maximize_volume_in_family,
    shephard_demonstration,
    unit_body_volume_floor,
    verify_projection_identity,
)
from shadowgeom.kernel import CapacityError, RandomSource, sample_unit_sphere
from shadowgeom.polytope import SymmetricHPolytope
from shadowgeom.shadow import ball_shadow_ratio


def hexagon_spec() -> SlabFamilySpec:
    angles = np.array([0.0, math.pi / 3.0, 2.0 * math.pi / 3.0])
    u = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return SlabFamilySpec(u, np.full(3, 1.0 / 3.0))


def random_spec(seed: int, n: int = 3, m: int = 6) -> SlabFamilySpec:
    src = RandomSource(seed)
    u = sample_unit_sphere(n, src.fork(1), count=m)
    w = src.fork(2).generator().uniform(0.5, 2.0, size=m)
    return SlabFamilySpec(u, w / w.sum())


class TestSlabFamilySpec:
    def test_rejects_non_unit_directions(self):
        with pytest.raises(ValueError, match="unit"):
            SlabFamilySpec(2.0 * np.eye(2), np.ones(2))

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError, match="positive"):
            SlabFamilySpec(np.eye(2), np.array([1.0, 0.0]))

    def test_rejects_directions_its_member_bodies_refuse(self):
        # 1e-10 off unit length: every member body refuses these directions, so the spec must
        spec = hexagon_spec()
        with pytest.raises(ValueError, match="unit"):
            SlabFamilySpec(spec.directions * (1.0 + 1e-10), spec.weights)

    def test_rejects_non_spanning(self):
        u = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="span"):
            SlabFamilySpec(u, np.ones(2))

    def test_uniform_offsets_meet_budget(self):
        spec = random_spec(4100)
        t = spec.uniform_offsets()
        assert float(spec.weights @ t) == pytest.approx(1.0, abs=1e-12)
        assert np.all(t == t[0])

    def test_body_builds_with_offsets(self):
        spec = hexagon_spec()
        body = spec.body(np.ones(3))
        assert body.volume == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-12)


class TestSolverFixtures:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cube_family_optimum(self, n):
        spec = SlabFamilySpec(np.eye(n), np.full(n, 1.0 / n))
        details = maximize_volume_details(spec, tol=1e-8, rng=RandomSource(4110 + n))
        assert details.converged
        assert details.volume == pytest.approx(2.0**n, rel=1e-9)
        assert np.allclose(details.offsets, 1.0, atol=1e-7)
        assert details.volume_agreement <= 1e-10

    def test_hexagon_optimum(self):
        details = maximize_volume_details(hexagon_spec(), tol=1e-8, rng=RandomSource(4115))
        assert details.converged
        assert details.volume == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-9)
        assert np.allclose(details.offsets, 1.0, atol=1e-7)

    def test_wrapper_returns_body(self):
        body = maximize_volume_in_family(hexagon_spec(), tol=1e-8, rng=RandomSource(4116))
        assert body.volume == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-9)

    def test_tol_domain_guard(self):
        with pytest.raises(ValueError, match="tol"):
            maximize_volume_details(hexagon_spec(), tol=1e-2)
        with pytest.raises(ValueError, match="tol"):
            maximize_volume_details(hexagon_spec(), tol=1e-11)

    @pytest.mark.parametrize("seed", [4200, 4201, 4204])
    def test_random_instances_certify(self, seed):
        spec = random_spec(seed)
        details = maximize_volume_details(spec, tol=1e-8, rng=RandomSource(seed).fork(3))
        assert details.converged
        kkt = kkt_report(details.body, spec)
        assert kkt.max_relative_residual <= 1e-6
        assert kkt.multiplier == pytest.approx(3.0 * details.volume, rel=1e-12)
        ident = verify_projection_identity(
            details.body, spec, sample_count=1000, rng=RandomSource(seed).fork(4)
        )
        assert ident.max_relative_error <= 1e-6
        assert details.volume_agreement <= 1e-10


class TestCoincidingSlabs:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_pair_with_unequal_weights(self, sign):
        # u_1 = +-u_0 is one slab bounded by the smaller offset, so the
        # maximizer gives both the same offset and the facet's measure is
        # split between them by weight
        u = np.array(sample_unit_sphere(3, RandomSource(555), count=6))
        u[1] = sign * u[0]
        w = np.array([1.0, 2.0, 1.0, 1.0, 1.0, 1.0]) / 7.0
        spec = SlabFamilySpec(u, w)
        details = maximize_volume_details(spec)
        assert details.converged
        assert details.offsets[0] == details.offsets[1]
        assert kkt_report(details.body, spec).max_relative_residual <= 1e-6
        ident = verify_projection_identity(details.body, spec, sample_count=500, rng=RandomSource(557))
        assert ident.max_relative_error <= 1e-6
        assert details.volume_agreement <= 1e-10
        single = SlabFamilySpec(np.delete(u, 1, axis=0), np.r_[w[0] + w[1], w[2:]])
        assert details.volume == pytest.approx(maximize_volume_details(single).volume, rel=1e-12)


class TestDiagnostics:
    def test_per_start_counters(self, monkeypatch):
        builds = []
        facets = SymmetricHPolytope.__dict__["facets"]

        def counted(body):
            builds.append(body)
            return facets.func(body)

        traced = cached_property(counted)
        traced.__set_name__(SymmetricHPolytope, "facets")
        monkeypatch.setattr(SymmetricHPolytope, "facets", traced)
        details = maximize_volume_details(random_spec(4200), starts=4, rng=RandomSource(4201))
        record = details.to_dict()
        assert record["start_iterations"] == list(details.start_iterations)
        assert record["start_volume_evals"] == list(details.start_volume_evals)
        assert len(details.start_iterations) == len(details.start_volume_evals) == 4
        assert details.iterations in details.start_iterations
        # one evaluation per Newton iterate plus the start's, each a build of the facets
        assert all(e > i >= 1 for e, i in zip(details.start_volume_evals, details.start_iterations))
        assert len(builds) == sum(details.start_volume_evals)


class TestGradient:
    def test_matches_finite_differences_at_interior_point(self):
        spec = random_spec(4120)
        t = spec.uniform_offsets() * np.linspace(0.8, 1.3, spec.count)
        from shadowgeom.family import _volume_gradient

        grad = _volume_gradient(spec.body(t), spec.weights)
        ref = fd_gradient(lambda x: spec.body(x).volume, t, h=1e-5)
        # a slab can be redundant at this point (both gradients zero), so
        # normalize by the gradient's overall scale
        assert np.max(np.abs(grad - ref)) <= 1e-2 * np.max(np.abs(ref))

    def test_matches_finite_differences_at_optimum(self):
        spec = random_spec(4121)
        details = maximize_volume_details(spec, tol=1e-8, rng=RandomSource(4122))
        from shadowgeom.family import _volume_gradient

        grad = _volume_gradient(details.body, spec.weights)
        ref = fd_gradient(lambda x: spec.body(x).volume, details.offsets, h=1e-5)
        assert np.max(np.abs(grad - ref) / np.abs(ref)) <= 1e-2


class TestProjectionIdentity:
    def test_hexagon_identity_at_axis(self):
        spec = hexagon_spec()
        details = maximize_volume_details(spec, tol=1e-8, rng=RandomSource(4130))
        e1 = np.array([1.0, 0.0])
        lhs = details.body.shadow_area(e1)
        rhs = (2.0 * details.volume / 2.0) * float(
            spec.weights @ np.abs(spec.directions @ e1)
        )
        assert lhs == pytest.approx(4.0 * math.sqrt(3.0) / 3.0, rel=1e-8)
        assert rhs == pytest.approx(lhs, rel=1e-8)

    def test_identity_fails_off_optimum(self):
        # the identity is a certificate of optimality: a non-optimal member
        # of the family must violate it
        spec = random_spec(4131)
        t = spec.uniform_offsets() * np.linspace(0.5, 1.6, spec.count)
        t = t / (spec.weights @ t)
        rep = verify_projection_identity(spec.body(t), spec, sample_count=500, rng=RandomSource(4132))
        assert rep.max_relative_error > 1e-3


class TestDirectionSpread:
    def test_orthonormal_plane_frame(self):
        rep = direction_spread(np.eye(2))
        assert rep.branch == "exact"
        assert rep.value == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_doubled_frame_doubles(self):
        rep = direction_spread(np.vstack([np.eye(2), np.eye(2)]))
        assert rep.value == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_non_spanning_set_is_zero(self):
        u = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        rep = direction_spread(u)
        assert rep.value == 0.0
        assert rep.branch == "exact"
        assert np.allclose(u @ rep.direction, 0.0, atol=1e-12)

    def test_random_directions_in_four_dimensions(self):
        u = sample_unit_sphere(4, RandomSource(99).fork(1), count=8)
        rep = direction_spread(u)
        assert rep.branch == "exact"
        assert rep.value == pytest.approx(0.9348148444080459, rel=1e-12)


class TestVolumeFloor:
    def test_orthonormal_equality(self):
        rep = unit_body_volume_floor(np.eye(3))
        assert rep.vol_nth_root == pytest.approx(2.0, rel=1e-12)
        assert rep.floor == pytest.approx(2.0, rel=1e-12)
        assert rep.satisfied

    def test_hexagon_floor(self):
        angles = np.array([0.0, math.pi / 3.0, 2.0 * math.pi / 3.0])
        u = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        rep = unit_body_volume_floor(u)
        assert rep.vol_nth_root == pytest.approx(math.sqrt(2.0 * math.sqrt(3.0)), rel=1e-12)
        assert rep.floor == pytest.approx(2.0 * math.sqrt(2.0 / 3.0), rel=1e-12)
        assert rep.satisfied


class TestPathological:
    def test_plane_construction_matches_frozen_run(self):
        rep = construct_pathological(2, rng=RandomSource(7000 + 64 * 2))
        assert rep.vol_nth_root == pytest.approx(1.940839, abs=1e-5)
        assert rep.ratio == pytest.approx(0.818936, abs=1e-5)
        assert rep.floor == pytest.approx(0.596727, abs=1e-5)
        assert rep.spread_branch == "exact"
        assert rep.min_shadow_branch == "exact"
        assert rep.vol_nth_root >= math.sqrt(2.0) - 1e-9
        assert rep.ratio >= rep.floor - 1e-6

    def test_duplicate_direction_pair_still_clears_floors(self):
        u = sample_unit_sphere(3, RandomSource(555), count=6)
        u = np.array(u)
        u[1] = u[0]
        rep = construct_pathological(3, rng=RandomSource(556), directions=u)
        assert rep.vol_nth_root == pytest.approx(2.688970, abs=1e-5)
        assert rep.ratio == pytest.approx(0.544889, abs=1e-5)
        assert rep.floor == pytest.approx(0.286574, abs=1e-5)

    def test_report_dict_round_trip(self):
        rep = construct_pathological(2, rng=RandomSource(7200))
        d = rep.to_dict()
        assert d["n"] == 2
        assert d["ratio"] >= d["floor"] - 1e-6

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            construct_pathological(1)
        with pytest.raises(ValueError):
            construct_pathological(7)


class TestShephard:
    def test_cube_ratio_is_reciprocal_ball_ratio(self):
        from shadowgeom.polytope import SymmetricHPolytope

        cube = SymmetricHPolytope(np.eye(3), np.ones(3))
        rep = shephard_demonstration(3, rng=RandomSource(808), body=cube)
        assert rep.shadow_ratio == pytest.approx(1.0 / ball_shadow_ratio(3), rel=1e-9)
        assert rep.ball_ratio == pytest.approx(ball_shadow_ratio(3), rel=1e-15)

    def test_ball_shadow_internally_consistent(self):
        rep = shephard_demonstration(2, rng=RandomSource(809))
        radius = (rep.volume / math.pi) ** 0.5
        assert rep.ball_shadow == pytest.approx(2.0 * radius, rel=1e-12)
        assert rep.shadow_ratio == pytest.approx(rep.min_shadow / rep.ball_shadow, rel=1e-12)


def test_capacity_error_carries_best_body():
    spec = random_spec(4150)
    with pytest.raises(CapacityError) as info:
        maximize_volume_details(spec, tol=1e-10, rng=RandomSource(4151), max_iterations=2)
    assert info.value.best is not None
    assert info.value.best.volume > 0.0
