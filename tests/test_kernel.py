"""Numerical kernel: randomness, eigensolvers, subset blocks, charts, canonical forms."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import canonical_sign_reference, dedup_rows_reference
from shadowgeom import kernel
from shadowgeom.kernel import (
    CapacityError,
    RandomSource,
    WeightedDirections,
    canonical_signs,
    dedup_rows,
    hyperplane_basis,
    jacobi_eigh,
    psd_sqrt,
    random_orthogonal,
    sample_unit_sphere,
    subset_blocks,
    unit_ball_volume,
)
from shadowgeom.polytope import SymmetricHPolytope, random_symmetric_polytope
from shadowgeom.shadow import zonotope_facet_normals
from shadowgeom.zonotope import projection_body


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(123).generator().standard_normal(8)
        b = RandomSource(123).generator().standard_normal(8)
        assert np.array_equal(a, b)

    def test_generator_is_fresh_each_call(self):
        src = RandomSource(9)
        assert np.array_equal(src.generator().standard_normal(4), src.generator().standard_normal(4))

    def test_forks_are_decorrelated_and_reproducible(self):
        src = RandomSource(77)
        a = src.fork(1).generator().standard_normal(6)
        b = src.fork(2).generator().standard_normal(6)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, RandomSource(77).fork(1).generator().standard_normal(6))

    def test_seed_range_enforced(self):
        with pytest.raises(ValueError):
            RandomSource(-1)
        with pytest.raises(ValueError):
            RandomSource(2**64)
        RandomSource(2**64 - 1)

    def test_algorithm_pinned(self):
        with pytest.raises(ValueError):
            RandomSource(0, algorithm="mt19937")


class TestJacobiEigh:
    def test_matches_numpy_on_random_symmetric(self):
        gen = RandomSource(10).generator()
        for k in range(10):
            a = gen.standard_normal((5, 5))
            sym = 0.5 * (a + a.T)
            vals, vecs = jacobi_eigh(sym)
            ref = np.sort(np.linalg.eigvalsh(sym))
            assert np.allclose(np.sort(vals), ref, atol=1e-12)
            assert np.allclose(vecs @ np.diag(vals) @ vecs.T, sym, atol=1e-12)
            assert np.allclose(vecs.T @ vecs, np.eye(5), atol=1e-12)

    def test_identity(self):
        vals, vecs = jacobi_eigh(np.eye(3))
        assert np.allclose(vals, 1.0)
        assert np.allclose(vecs @ vecs.T, np.eye(3), atol=1e-14)


class TestSubsetBlocks:
    def test_blocks_list_every_subset_in_order(self, monkeypatch):
        monkeypatch.setattr(kernel, "SUBSET_BLOCK", 7)
        blocks = list(subset_blocks(9, 4))
        assert [len(b) for b in blocks] == [7] * 18
        assert np.vstack(blocks).tolist() == [list(c) for c in itertools.combinations(range(9), 4)]

    def test_block_boundaries_leave_results_bit_identical(self, monkeypatch):
        # C(16, 6) = 8008 vertex subsets: two blocks at the default size, 1144 at size 7
        body = random_symmetric_polytope(6, 16, RandomSource(13))

        def run():
            fresh = SymmetricHPolytope(body.directions, body.offsets)
            zono = projection_body(fresh)
            return fresh.vertices.points, zono.volume, zonotope_facet_normals(zono)

        points, volume, normals = run()
        monkeypatch.setattr(kernel, "SUBSET_BLOCK", 7)
        small_points, small_volume, small_normals = run()
        assert np.array_equal(small_points, points)
        assert small_volume == volume
        assert np.array_equal(small_normals, normals)


class TestPsdSqrt:
    def test_square_of_root_recovers_matrix(self):
        gen = RandomSource(11).generator()
        a = gen.standard_normal((4, 4))
        mat = a @ a.T + 0.1 * np.eye(4)
        root = psd_sqrt(mat)
        assert np.allclose(root @ root, mat, atol=1e-10)
        assert np.allclose(root, root.T, atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            psd_sqrt(np.diag([1.0, -1.0]))


class TestSphereSampling:
    def test_unit_norms_and_shape(self):
        pts = sample_unit_sphere(4, RandomSource(5), count=100)
        assert pts.shape == (100, 4)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    def test_single_sample(self):
        v = sample_unit_sphere(3, RandomSource(5))
        assert v.shape == (3,)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


class TestUnitBallVolume:
    def test_known_values(self):
        assert unit_ball_volume(1) == pytest.approx(2.0, abs=1e-15)
        assert unit_ball_volume(2) == pytest.approx(math.pi, abs=1e-14)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, abs=1e-14)
        assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2.0, abs=1e-14)

    def test_recurrence(self):
        # v_n = v_{n-1} * Beta-ratio recurrence: v_n = v_{n-1} * sqrt(pi) * G((n+1)/2)/G(n/2+1)
        for n in range(2, 30):
            ratio = unit_ball_volume(n) / unit_ball_volume(n - 1)
            expected = math.sqrt(math.pi) * math.exp(math.lgamma((n + 1) / 2) - math.lgamma(n / 2 + 1))
            assert ratio == pytest.approx(expected, rel=1e-13)


class TestCharts:
    def test_hyperplane_basis_orthonormal_and_orthogonal(self):
        gen = RandomSource(12).generator()
        for _ in range(20):
            v = gen.standard_normal(5)
            basis = hyperplane_basis(v)
            assert basis.shape == (5, 4)
            assert np.allclose(basis.T @ basis, np.eye(4), atol=1e-12)
            assert np.allclose(basis.T @ v, 0.0, atol=1e-10 * np.linalg.norm(v))

    def test_random_orthogonal(self):
        gen = RandomSource(13).generator()
        q = random_orthogonal(4, gen)
        assert np.allclose(q @ q.T, np.eye(4), atol=1e-12)


class TestCanonicalForms:
    def test_canonical_sign_flips_consistently(self):
        v = np.array([0.0, -2.0, 1.0])
        assert canonical_signs(np.array([v, -v, np.zeros(3)])).tolist() == [-1.0, 1.0, 1.0]
        assert canonical_signs(v).tolist() == [-1.0]

    @pytest.mark.parametrize("tol", [1e-12, 1e-9])
    def test_canonical_signs_match_row_by_row_reference(self, tol):
        gen = RandomSource(17).generator()
        rows = gen.standard_normal((400, 5))
        # zero out, or shrink to around tol, a random set of leading entries
        rows[gen.random(rows.shape) < 0.5] = 0.0
        small = gen.random(rows.shape) < 0.2
        rows[small] *= tol * gen.choice([0.5, 2.0], size=int(small.sum()))
        expected = [canonical_sign_reference(r, tol) for r in rows]
        assert canonical_signs(rows, tol).tolist() == expected

    def test_canonical_signs_pair_antipodes(self):
        # a row decided by its first coordinate stays decided, whatever its
        # later coordinates and whatever the other rows
        rows = np.array([[0.0, 1.0], [1.0, -0.5], [-1.0, 0.5]])
        canon = rows * canonical_signs(rows, 1e-9)[:, None]
        assert canon.tolist() == [[0.0, 1.0], [1.0, -0.5], [1.0, -0.5]]

    def test_dedup_rows_merges_near_duplicates(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [1.0 + 1e-10, 1.0], [2.0, 0.0]])
        out = dedup_rows(pts, tol=1e-8)
        assert len(out) == 3

    @pytest.mark.parametrize("k", [0, 1, 2, 30, 500, 4000])
    @pytest.mark.parametrize("n", [2, 5])
    def test_dedup_rows_matches_reference_scan(self, k, n):
        tol = 1e-8
        gen = RandomSource(k + n).generator()
        base = gen.standard_normal((k, n))
        if k:
            pick = gen.integers(0, k, size=k // 3 + 1)
            # planted near-duplicates, some chained within tol of each other
            near = base[pick] + gen.uniform(-0.4, 0.4, size=(len(pick), n)) * tol / math.sqrt(n)
            chain = near + gen.uniform(-0.4, 0.4, size=near.shape) * tol / math.sqrt(n)
            # pairs straddling a grid cell boundary (cell size tol / 16)
            cell = tol / 16.0
            edge = (np.floor(base[pick] / cell) + 0.5) * cell
            straddle = np.vstack([edge - 1e-3 * cell, edge + 1e-3 * cell])
            # pairs just outside tol, which must both stay
            apart = base[pick] + np.eye(n)[0] * tol * 1.001
            pts = np.vstack([base, near, chain, straddle, apart])
            pts = pts[gen.permutation(len(pts))]
        else:
            pts = base
        assert np.array_equal(dedup_rows(pts, tol), dedup_rows_reference(pts, tol))

    @given(st.integers(min_value=0, max_value=2**32))
    def test_dedup_idempotent(self, seed):
        pts = RandomSource(seed).generator().standard_normal((12, 3))
        once = dedup_rows(pts, tol=1e-8)
        twice = dedup_rows(once, tol=1e-8)
        assert np.array_equal(once, twice)

    @pytest.mark.parametrize("scale", [1e6, 1e7, 1e8, 1e9])
    def test_dedup_rows_matches_reference_at_large_magnitude(self, scale):
        # |x| / tol up to 1e21: far past where a grid of tol-sized cells fits in int64
        tol = 1e-12
        pts = RandomSource(31).generator().standard_normal((50, 6)) * scale
        pts = np.vstack([pts, pts[:5]])
        out = dedup_rows(pts, tol)
        assert len(out) == 50
        assert np.array_equal(out, dedup_rows_reference(pts, tol))


class TestIsotropyResiduals:
    def test_orthonormal_frame_is_exact(self):
        frob, gap = WeightedDirections(np.eye(4), np.ones(4)).residuals()
        assert frob <= 1e-15
        assert abs(gap) <= 1e-15

    def test_perturbed_weight_reports_linearly(self):
        w = np.ones(3)
        w[2] += 1e-3
        frob, gap = WeightedDirections(np.eye(3), w).residuals()
        assert frob == pytest.approx(1e-3, rel=1e-9)
        assert gap == pytest.approx(1e-3, rel=1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_validate_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="weights"):
            WeightedDirections(np.eye(2), np.array([bad, 1.0])).validate()

    def test_validate_rejects_nan_direction(self):
        with pytest.raises(ValueError, match="unit"):
            WeightedDirections(np.array([[math.nan, 0.0], [0.0, 1.0]]), np.ones(2)).validate()

    @pytest.mark.parametrize("key,value", [
        ("weights", [math.nan, 1.0]), ("weights", [1.0, -math.inf]),
        ("directions", [[math.nan, 0.0], [0.0, 1.0]]), ("directions", [[math.inf, 0.0], [0.0, 1.0]]),
    ])
    def test_reader_rejects_non_finite_entries(self, key, value):
        doc = {"n": 2, "directions": [[1.0, 0.0], [0.0, 1.0]], "weights": [1.0, 1.0], key: value}
        with pytest.raises(ValueError, match="finite"):
            WeightedDirections.from_dict(doc)


def test_capacity_error_carries_best():
    err = CapacityError("limit reached", best={"volume": 1.0})
    assert err.best == {"volume": 1.0}
    assert isinstance(err, RuntimeError)
