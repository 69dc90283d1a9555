"""Slab-family volume maximization, certified floors, pathological bodies."""

import math
import tracemalloc

import numpy as np
import pytest

from oracles import fd_gradient
from shadowgeom import family, polytope
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
from shadowgeom.kernel import CURVATURE_FLOOR, CapacityError, RandomSource, hyperplane_basis, newton_on_slice, sample_unit_sphere
from shadowgeom.polytope import SymmetricHPolytope, _volume_derivatives
from shadowgeom.shadow import ball_shadow_ratio, minimize_support
from shadowgeom.zonotope import Zonotope


def hexagon_spec() -> SlabFamilySpec:
    angles = np.array([0.0, math.pi / 3.0, 2.0 * math.pi / 3.0])
    u = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return SlabFamilySpec(u, np.full(3, 1.0 / 3.0))


def random_spec(seed: int, n: int = 3, m: int = 6) -> SlabFamilySpec:
    src = RandomSource(seed)
    u = sample_unit_sphere(n, src.fork(1), count=m)
    w = src.fork(2).generator().uniform(0.5, 2.0, size=m)
    return SlabFamilySpec(u, w / w.sum())


def counted_rounds(monkeypatch) -> list[int]:
    """Patch ``family._volume_derivatives``, one call per lockstep round, to record the stack size of each round."""
    rounds = []
    derivatives = family._volume_derivatives
    monkeypatch.setattr(family, "_volume_derivatives", lambda plan, t: (rounds.append(len(t)), derivatives(plan, t))[1])
    return rounds


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


def counted_cone_passes(monkeypatch) -> list[int]:
    """Patch ``polytope._cones``, through which every vertex-cone pass goes, to record the stack size of each call."""
    calls = []
    cones = polytope._cones
    monkeypatch.setattr(polytope, "_cones", lambda plan, t: (calls.append(len(t)), cones(plan, t))[1])
    return calls


class TestSolvedBodyCones:
    @pytest.mark.parametrize("n", [3, 4])
    def test_the_certificates_read_the_measures_of_the_last_round(self, monkeypatch, n):
        spec = random_spec(4300 + n, n=n, m=2 * n)
        calls = counted_cone_passes(monkeypatch)
        details = maximize_volume_details(spec, rng=RandomSource(4310 + n))
        # one pass per lockstep round: the starts' evaluations are its rows
        assert len(calls) == max(details.start_volume_evals) and sum(calls) == sum(details.start_volume_evals)
        kkt = kkt_report(details.body, spec)
        ident = verify_projection_identity(details.body, spec, sample_count=500, rng=RandomSource(4320))
        assert len(calls) == max(details.start_volume_evals)  # and none for the certificates
        assert kkt.max_relative_residual <= 1e-6 and ident.max_relative_error <= 1e-6
        body, fresh = details.body, SymmetricHPolytope(spec.directions, details.offsets)
        assert body.volume == fresh.volume == details.volume
        assert np.array_equal(body._measures[1], fresh._measures[1])
        assert np.array_equal(body._facet_measures, fresh._facet_measures)
        assert np.array_equal(body.volume_hessian, fresh.volume_hessian)

    def test_the_seeded_gradient_and_hessian_are_read_only_copies(self, monkeypatch):
        returned = []

        def recorded(plan, t):
            returned.append(_volume_derivatives(plan, t))
            return returned[-1]

        monkeypatch.setattr(family, "_volume_derivatives", recorded)
        spec = random_spec(4330, n=4, m=8)
        body = maximize_volume_details(spec, rng=RandomSource(4331)).body
        _, gradient, hessian = vars(body)["_measures"]  # seeded by the solve, before any measure is read
        for array in (gradient, hessian):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
            # the body holds its own copy, not the arrays of the lockstep round that evaluated its point
            assert not any(np.shares_memory(array, out) for round_ in returned for out in round_)

    def test_a_solve_over_merged_slabs_leaves_its_body_unseeded(self, monkeypatch):
        # the solve ran over the merged family, whose measures are not those of the reported body
        u = np.array(sample_unit_sphere(3, RandomSource(555), count=6))
        u[1] = -u[0]
        spec = SlabFamilySpec(u, np.array([1.0, 2.0, 1.0, 1.0, 1.0, 1.0]) / 7.0)
        calls = counted_cone_passes(monkeypatch)
        details = maximize_volume_details(spec)
        rounds = len(calls)
        assert kkt_report(details.body, spec).max_relative_residual <= 1e-6
        assert verify_projection_identity(details.body, spec, sample_count=500, rng=RandomSource(557)).max_relative_error <= 1e-6
        assert calls[rounds:] == [1]


class TestDiagnostics:
    def test_per_start_counters(self, monkeypatch):
        rounds = counted_rounds(monkeypatch)
        details = maximize_volume_details(random_spec(4200), starts=4, rng=RandomSource(4201))
        assert len(details.start_iterations) == len(details.start_volume_evals) == 4
        assert details.iterations in details.start_iterations
        # one evaluation per Newton iterate plus the start's, each a row of one lockstep round
        assert all(e > i >= 1 for e, i in zip(details.start_volume_evals, details.start_iterations))
        assert sum(rounds) == sum(details.start_volume_evals)
        assert len(rounds) == max(details.start_volume_evals)
        assert rounds[0] == 4 and rounds == sorted(rounds, reverse=True)

    def test_fewer_starts_are_a_prefix_of_more(self):
        # the starts run in lockstep, but each makes the trials it would make alone
        spec = random_spec(4202, n=4, m=8)
        three = maximize_volume_details(spec, starts=3, rng=RandomSource(4203))
        five = maximize_volume_details(spec, starts=5, rng=RandomSource(4203))
        assert three.start_offsets == five.start_offsets[:3]
        assert three.start_iterations == five.start_iterations[:3]
        assert three.start_volume_evals == five.start_volume_evals[:3]
        assert three.start_volumes == five.start_volumes[:3]

    def test_reported_start_does_not_move_with_last_bit_ties(self):
        # the starts' optima agree to about 1e-15, so a few ulps in one
        # direction used to switch which of them is reported
        spec = random_spec(4123)
        picks = set()
        for ulps in range(4):
            u = spec.directions.copy()
            for _ in range(ulps):
                u[0] = np.nextafter(u[0], np.inf)
            details = maximize_volume_details(SlabFamilySpec(u, spec.weights), rng=RandomSource(4123).fork(3))
            k = details.start_offsets.index(tuple(details.offsets))
            assert details.iterations == details.start_iterations[k]
            picks.add((k, details.iterations))
        assert len(picks) == 1


def nearly_parallel_spec(seed: int, angle: float, n: int = 3) -> SlabFamilySpec:
    """2n slabs of uniform weight whose second direction is the first turned by about ``angle``."""
    src = RandomSource(seed)
    u = np.array(sample_unit_sphere(n, src.fork(1), count=2 * n))
    u[1] = u[0] + angle * src.fork(2).generator().standard_normal(n)
    u[1] /= np.linalg.norm(u[1])
    return SlabFamilySpec(u, np.full(2 * n, 1.0 / (2 * n)))


def is_negative_definite(curvature: np.ndarray) -> bool:
    """Every eigenvalue below the clamp of ``newton_on_slice``, so that the clamp leaves them alone."""
    lam = np.linalg.eigvalsh(curvature)
    return bool(lam.max() < -CURVATURE_FLOOR * np.abs(lam).max())


class TestAscentStep:
    def test_no_trial_takes_an_offset_past_half_its_distance_to_the_floor(self):
        # scripted (V, g, H) with g in the slice and H = -V I / 10: V's Newton step is
        # 10 g / V, (-10, 5, 5) here, so only alpha <= 1/32 keeps t_0 above half its
        # distance to the floor; the second and the fourth trial are refused
        spec = hexagon_spec()
        t, push = spec.uniform_offsets(), np.array([-1.0, 0.5, 0.5])
        step = 10.0 * push
        answers = [(1.0, push, -0.1 * np.eye(3)), (0.5, push, -0.1 * np.eye(3)), (2.0, 2.0 * push, -0.2 * np.eye(3)),
                   (1.0, push, -0.1 * np.eye(3)), (4.0, np.zeros(3), -np.eye(3))]
        ascent = family._ascent(spec, t, 1e-8, family.MAX_ASCENT_ITERATIONS)
        point = next(ascent)
        current, volume = point, answers[0][0]
        trials = []
        with pytest.raises(StopIteration) as done:
            for answer in answers:
                if answer[0] > volume:  # the ascent's acceptance test: log V increases
                    current, volume = point, answer[0]
                point = ascent.send(answer)
                trials.append((current, point))
        result = done.value.value
        assert len(trials) == 4 and result.converged and result.volume == 4.0
        assert np.array_equal(result.offsets, trials[3][1])
        assert trials[0][1] == pytest.approx(t + step / 32.0, rel=1e-14)
        assert trials[1][1] == pytest.approx(t + step / 64.0, rel=1e-14)
        assert trials[2][1] == pytest.approx(trials[1][1] + step / 32.0, rel=1e-14)
        for current, trial in trials:
            assert np.all(trial - family.OFFSET_FLOOR >= 0.5 * (current - family.OFFSET_FLOOR))

    @pytest.mark.parametrize("n", [3, 4])
    def test_the_log_volume_step_is_the_volume_step_shortened(self, monkeypatch, n):
        # where H/V is negative definite on the slice, Sherman-Morrison makes the Newton step
        # of log V (curvature H/V - g g^T / V^2) V's step divided by 1 + lambda^2, where
        # lambda^2 is the gain V's step predicts
        points = []

        def recorded(plan, t):
            out = _volume_derivatives(plan, t)
            points.extend(zip(t, *out))
            return out

        monkeypatch.setattr(family, "_volume_derivatives", recorded)
        spec = random_spec(4400 + n, n=n, m=2 * n)
        maximize_volume_details(spec, rng=RandomSource(4410 + n))
        steps = []
        monkeypatch.setattr(family, "newton_on_slice", lambda *args: steps.append(newton_on_slice(*args)) or steps[-1])
        basis = hyperplane_basis(spec.weights)
        checked = 0
        for t, volume, grad, hess in points:
            slope, curvature = basis.T @ grad / volume, basis.T @ hess @ basis / volume
            log_curvature = curvature - np.outer(slope, slope)
            if not (is_negative_definite(curvature) and is_negative_definite(log_curvature)):
                continue
            # tol 0 makes the ascent step from every point, converged or not
            ascent = family._ascent(spec, t, 0.0, family.MAX_ASCENT_ITERATIONS)
            next(ascent)
            ascent.send((float(volume), grad, hess))
            step, gain = steps[-1]
            log_step, _ = newton_on_slice(basis, slope, log_curvature)
            assert np.linalg.norm(log_step * (1.0 + gain) - step) <= 1e-13 * np.linalg.norm(step)
            checked += 1
        assert checked >= 20


class TestRoundBudget:
    SWEEP = [(seed, n) for seed in range(4600, 4612) for n in (3, 4)]

    def test_rounds_of_a_fixed_sweep(self, monkeypatch):
        rounds = counted_rounds(monkeypatch)
        for seed, n in self.SWEEP:
            maximize_volume_details(random_spec(seed, n=n, m=2 * n), tol=1e-8)
        # the Newton step of log V with only the floor kept by halving took 273
        assert len(rounds) == 184

    def test_a_tighter_tolerance_reads_the_same_volume(self):
        # so that rounds are not bought by stopping earlier
        for seed, n in self.SWEEP:
            spec = random_spec(seed, n=n, m=2 * n)
            loose = maximize_volume_details(spec, tol=1e-8).volume
            assert maximize_volume_details(spec, tol=1e-10).volume == pytest.approx(loose, rel=1e-12)


class TestCrowdedDirections:
    # ROADMAP item 19's nearly parallel pair: its rounds are erratic (CHANGES.md), its optimum is not
    @pytest.mark.parametrize("angle", [1e-2, 1e-3, 1e-4])
    @pytest.mark.parametrize("seed", [4700, 4701])
    def test_every_start_converges_to_one_optimum(self, seed, angle):
        spec = nearly_parallel_spec(seed, angle)
        details = maximize_volume_details(spec)
        # a start that stops below the cap stops converged
        assert max(details.start_iterations) < family.MAX_ASCENT_ITERATIONS
        assert details.volume_agreement <= 1e-12
        assert kkt_report(details.body, spec).max_relative_residual <= 1e-6


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

    def test_shared_facet_is_split_by_weight(self):
        # slab 2 repeats slab 0: the two facets x1 = +-1, of length 2 each, are split 1 : 3
        body = SymmetricHPolytope(np.vstack([np.eye(2), np.eye(2)[:1]]), np.ones(3))
        from shadowgeom.family import _volume_gradient

        assert _volume_gradient(body, np.array([1.0, 1.0, 3.0])) == pytest.approx([1.0, 4.0, 3.0], rel=1e-15)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_thin_body_gives_each_slab_twice_its_facet(self, n):
        # the bodies of test_floor_offset_facet_matches_hull: 2e-9 thick, so every vertex lies
        # within FEASIBILITY_TOL of the floor slab 0, which is no reason to give it the side facets
        from shadowgeom.family import OFFSET_FLOOR, _volume_gradient
        from shadowgeom.polytope import random_symmetric_polytope

        base = random_symmetric_polytope(n, n + 3, RandomSource(70 + 10 * n))
        body = SymmetricHPolytope(base.directions, np.r_[OFFSET_FLOOR, base.offsets[1:]])
        grad = _volume_gradient(body, np.ones(body.num_slabs))
        facets = body.facets
        for j in range(1, body.num_slabs):
            own = [f.measure for f in facets if np.array_equal(f.normal, body.directions[j])]
            assert grad[j] == pytest.approx(2.0 * sum(own), rel=1e-12, abs=1e-12 * OFFSET_FLOOR)

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


class TestFamilyMembership:
    """The certificates refuse a body that is not a member of the family they are asked about."""

    @pytest.mark.parametrize(
        "directions",
        [
            np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.6, 0.8]]),  # same shape, other directions
            np.vstack([np.eye(3), [[0.0, 0.6, 0.8]]]),  # one slab more
            np.eye(2),  # another dimension
        ],
        ids=["other-directions", "other-count", "other-dimension"],
    )
    def test_certificates_reject_a_body_of_another_family(self, directions):
        spec = SlabFamilySpec(np.eye(3), np.full(3, 1.0 / 3.0))
        body = SymmetricHPolytope(directions, np.full(len(directions), 1.0))
        with pytest.raises(ValueError, match="family"):
            kkt_report(body, spec)
        with pytest.raises(ValueError, match="family"):
            verify_projection_identity(body, spec, sample_count=10)


class TestDirectionSpread:
    def test_orthonormal_plane_frame(self):
        rep = direction_spread(np.eye(2))
        assert rep.value == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_doubled_frame_doubles(self):
        rep = direction_spread(np.vstack([np.eye(2), np.eye(2)]))
        assert rep.value == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_non_spanning_set_is_zero(self):
        u = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        rep = direction_spread(u)
        assert rep.value == 0.0 and rep.candidates_checked == 0
        assert np.allclose(u @ rep.direction, 0.0, atol=1e-12)

    def test_too_many_directions_are_refused_before_any_m_by_m_matrix(self):
        # 3000 directions in R^3: the full U of their SVD alone would take 72 MB before the zonotope's guard refuses
        u = sample_unit_sphere(3, RandomSource(98), count=3000)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="guard exceeded"):
                direction_spread(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1e6

    def test_random_directions_in_four_dimensions(self):
        u = sample_unit_sphere(4, RandomSource(99).fork(1), count=8)
        rep = direction_spread(u)
        assert rep.value == pytest.approx(0.9348148444080459, rel=1e-12)
        # the least support of the zonotope of the directions, over its C(8, 3) facet normals, divided by sqrt(n)
        least = minimize_support(Zonotope(u))
        assert rep.value == least.value / 2.0 and np.array_equal(rep.direction, least.direction)
        assert rep.candidates_checked == least.candidates_checked == 56


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

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            construct_pathological(1)
        with pytest.raises(ValueError):
            construct_pathological(7)

    def test_directions_of_another_dimension_are_refused(self):
        # eight rows in R^4 used to give a 4-dimensional body certified with n = 3
        u = sample_unit_sphere(4, RandomSource(557), count=8)
        with pytest.raises(ValueError, match="R\\^3"):
            construct_pathological(3, rng=RandomSource(558), directions=u)


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

    def test_a_body_of_another_dimension_is_refused(self):
        # a 4-cube given for n = 3 used to mix its 4-d volume and shadow with the 3-d ball's (shadow_ratio 1.042)
        with pytest.raises(ValueError, match="dimension 4, not n = 3"):
            shephard_demonstration(3, body=SymmetricHPolytope(np.eye(4), np.ones(4)))


def test_capacity_error_carries_best_body(monkeypatch):
    spec = random_spec(4150)
    monkeypatch.setattr(family, "MAX_ASCENT_ITERATIONS", 2)
    with pytest.raises(CapacityError) as info:
        maximize_volume_details(spec, tol=1e-10, rng=RandomSource(4151))
    assert info.value.best is not None
    assert info.value.best.volume > 0.0
