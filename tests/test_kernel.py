"""Numerical kernel: randomness, eigensolvers, subset blocks, charts, canonical forms."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import canonical_sign_reference, cofactor_oracle, dedup_rows_reference, lex_ranks
from shadowgeom import kernel, polytope
from shadowgeom.kernel import (
    CapacityError,
    RandomSource,
    WeightedDirections,
    canonical_signs,
    cofactor_table,
    dedup_rows,
    hyperplane_basis,
    jacobi_eigh,
    newton_on_slice,
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


class TestSignPatterns:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_itertools_product_with_a_leading_plus(self, k):
        ref = [(1.0,) + rest for rest in itertools.product((1.0, -1.0), repeat=k - 1)]
        table = kernel.sign_patterns(k)
        assert table.dtype == np.float64
        assert table.tolist() == [list(row) for row in ref]


class TestSubsetBlocks:
    def test_blocks_list_every_subset_in_order(self, monkeypatch):
        monkeypatch.setattr(kernel, "SUBSET_BLOCK", 7)
        rows = [b for b, _ in subset_blocks(9, 4)]
        assert [len(b) for b in rows] == [7] * 18
        assert np.vstack(rows).tolist() == [list(c) for c in itertools.combinations(range(9), 4)]

    @pytest.mark.parametrize("m, k", [(25, 3), (10, 8)])
    def test_guard_raises_at_the_call(self, m, k):
        # before any block is built or the first one is asked for
        with pytest.raises(CapacityError, match=f"subset enumeration guard exceeded: m={m} \\(max 24\\), n={k} \\(max 7\\)"):
            subset_blocks(m, k)

    def test_block_boundaries_leave_results_bit_identical(self, monkeypatch):
        # C(16, 6) = 8008 vertex subsets: two blocks at the default size, 1144 at size 7
        body = random_symmetric_polytope(6, 16, RandomSource(13))

        def run():
            fresh = SymmetricHPolytope(body.directions, body.offsets)
            zono = projection_body(fresh)
            return fresh.vertices.points, zono.volume, zonotope_facet_normals(zono), zono.shadow_areas(zono.unit_directions)

        points, volume, normals, shadows = run()
        monkeypatch.setattr(kernel, "SUBSET_BLOCK", 7)
        small_points, small_volume, small_normals, small_shadows = run()
        assert np.array_equal(small_points, points)
        assert small_volume == volume
        assert np.array_equal(small_normals, normals)
        assert np.array_equal(small_shadows, shadows)


def streamed(monkeypatch) -> None:
    """Make every shape build its blocks one at a time, as those over the bound do."""
    monkeypatch.setattr(kernel, "INDEX_PLAN_SUBSETS", 0)


class TestLattice:
    def test_rows_and_ranks_of_every_sliced_shape(self):
        # every (m, k), k >= 1, inside the guard whose lattice is sliced, m < k included
        shapes = [(m, k) for k in range(1, kernel.MAX_DIM + 1) for m in range(kernel.MAX_ROWS + 1)]
        for m, k in (shape for shape in shapes if math.comb(*shape) <= kernel.INDEX_PLAN_SUBSETS):
            rows, ranks = kernel._lattice(m, k)
            ref = np.array(list(itertools.combinations(range(m), k)), dtype=np.intp).reshape(-1, k)
            assert rows.dtype.itemsize == 1 and ranks.dtype.itemsize <= 2
            assert rows.shape == ref.shape and np.array_equal(rows, ref)
            assert ranks.tolist() == lex_ranks(ref, m)
        assert len(kernel._lattice(3, 5)[0]) == 0 and kernel._lattice(5, 1)[1].tolist() == [[0]] * 5
        assert kernel._lattice(4, 0)[0].shape == (1, 0)

    @pytest.mark.parametrize("m, k", [(24, 7), (20, 7), (24, 6)])
    def test_streamed_blocks_at_the_first_middle_and_last(self, m, k):
        count = -(-math.comb(m, k) // kernel.SUBSET_BLOCK)
        picked = {0: None, count // 2: None, count - 1: None}
        for at, (rows, ranks) in enumerate(subset_blocks(m, k)):
            if at in picked:
                picked[at] = rows, ranks
        assert at == count - 1
        for at, (rows, ranks) in picked.items():
            lo = at * kernel.SUBSET_BLOCK
            ref = list(itertools.islice(itertools.combinations(range(m), k), lo, lo + kernel.SUBSET_BLOCK))
            assert rows.dtype == ranks.dtype == np.intp
            assert rows.tolist() == [list(c) for c in ref]
            assert ranks.tolist() == lex_ranks(rows, m)

    @pytest.mark.parametrize("m, k", [(5, 1), (9, 4), (16, 6), (20, 7), (24, 7), (7, 7)])
    def test_closed_form_ranks_are_those_of_the_blocks(self, m, k):
        # each shape's first block (the whole shape where it fits in one), then 50 random subsets
        rows, ranks = next(subset_blocks(m, k))
        mine, without = kernel.subset_ranks(rows, m)
        assert np.array_equal(mine, np.arange(len(rows))) and np.array_equal(without, ranks)
        picked = np.sort(np.random.default_rng(m + k).random((50, m)).argsort(axis=1)[:, :k], axis=1)
        mine, without = kernel.subset_ranks(picked, m)
        lex = {c: r for r, c in enumerate(itertools.combinations(range(m), k))}
        assert mine.tolist() == [lex[tuple(row)] for row in picked.tolist()] and without.tolist() == lex_ranks(picked, m)

    def test_lattices_are_read_only(self):
        for array in kernel._lattice(9, 4):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_a_shape_over_the_bound_caches_only_the_lattices_below_it(self):
        assert math.comb(17, 6) > kernel.INDEX_PLAN_SUBSETS
        kernel._lattice.cache_clear()
        blocks = list(subset_blocks(17, 6))
        # (17, 0) ... (17, 5), and not (17, 6)
        assert kernel._lattice.cache_info().currsize == 6
        rows, ranks = (np.vstack(field) for field in zip(*blocks))
        assert len(rows) == len(ranks) == math.comb(17, 6) and rows.dtype == ranks.dtype == np.intp

    @pytest.mark.parametrize("m, k", [(25, 3), (10, 8), (25, 1)])
    def test_guard_raises_before_any_lattice(self, m, k):
        kernel._lattice.cache_clear()
        with pytest.raises(CapacityError, match="subset enumeration guard exceeded"):
            subset_blocks(m, k)
        assert kernel._lattice.cache_info().currsize == 0

    def test_blocks_are_the_same_streamed_cold_and_warm(self, monkeypatch):
        monkeypatch.setattr(kernel, "SUBSET_BLOCK", 7)

        def blocks():
            # each block's rows and ranks, in turn
            return [[field for block in subset_blocks(m, k) for field in block] for m, k in [(9, 4), (5, 2), (16, 6)]]

        kernel._lattice.cache_clear()
        cold, warm = blocks(), blocks()
        with monkeypatch.context() as patch:
            streamed(patch)
            ref = blocks()
        for a, b, c in zip(cold, warm, ref):
            # sliced blocks keep the lattice's unsigned types, streamed ones are intp
            assert [x.dtype.kind for x in a] == [x.dtype.kind for x in b] == ["u"] * len(c)
            assert [x.dtype for x in c] == [np.intp] * len(c)
            assert all(np.array_equal(x, y) and np.array_equal(x, z) for x, y, z in zip(a, b, c, strict=True))

    def test_results_are_bit_identical_streamed_cold_and_warm(self, monkeypatch):
        # C(16, 6) = 8008 vertex subsets in blocks of 7: the body's plan streams, and so does every block of rows
        body = random_symmetric_polytope(6, 16, RandomSource(13))

        def run():
            fresh = SymmetricHPolytope(body.directions, body.offsets)
            zono = projection_body(fresh)
            return fresh.vertices.points, zono.volume, zonotope_facet_normals(zono), zono.shadow_areas(zono.unit_directions)

        monkeypatch.setattr(kernel, "SUBSET_BLOCK", 7)
        kernel._lattice.cache_clear()
        cold, warm = run(), run()
        streamed(monkeypatch)
        ref = run()
        for a, b, c in zip(cold, warm, ref, strict=True):
            assert np.array_equal(a, c) and np.array_equal(b, c)

    def test_the_workloads_cache_at_most_a_megabyte(self):
        # every (n, m) of the benchmark's measure and position workloads, through both sides of the zonotope volume
        shapes = {(n, m) for n in (3, 4, 5, 6) for m in range(n + 2, min(16, 2 * n + 4) + 1)}
        shapes |= {(n, m) for n in (4, 5, 6) for m in range(n + 3, 15)}
        kernel._lattice.cache_clear()
        kernel._binomials.cache_clear()
        for n, m in sorted(shapes):
            body = random_symmetric_polytope(n, m, RandomSource(10 * n + m))
            body.volume, projection_body(body).volume
        # a projection body drops the slabs without a facet, so the runs cached shapes among these only:
        # each lattice of n-subsets with those below it, the cofactor tables' row and column subsets among them
        fewer = {(rows, k) for n, m in shapes for rows in range(n, m + 1) for k in range(n + 1)}
        total = sum(array.nbytes for shape in fewer for array in kernel._lattice(*shape))
        assert kernel._lattice.cache_info().currsize == len(fewer)
        # and the first-pass slabs of each vertex shape, at most four bytes per n-subset
        total += sum(kernel._outside(m, n, min(polytope._FIRST_PASS_SLABS, m - n)).nbytes for n, m in shapes)
        # and the binomial table of each shape whose lone bodies walk their vertex graph, those that stream
        walked = {(m, n) for n, m in shapes if math.comb(m, n) > kernel.SUBSET_BLOCK}
        assert kernel._binomials.cache_info().currsize == len(walked) == 2
        total += sum(kernel._binomials(*shape).nbytes for shape in walked)
        assert total <= 1e6


class TestFirstOutside:
    """J(S), the first slabs outside each n-subset S, that the vertex enumeration tests every sign pattern of S against first."""

    @pytest.mark.parametrize("m, k, count", [(16, 6, 4), (9, 4, 4), (7, 4, 3), (6, 5, 1), (5, 5, 0), (12, 1, 4), (17, 6, 4)])
    def test_the_first_elements_outside_each_subset(self, m, k, count):
        # (17, 6) is past INDEX_PLAN_SUBSETS, where subset_blocks builds its blocks one at a time: a plan stored at that
        # shape (SUBSET_BLOCK raised) reads its table off the lattice all the same
        rows = np.vstack([rows for rows, _ in subset_blocks(m, k)])
        table = kernel._outside(m, k, count)
        assert table.shape == (len(rows), count)
        assert table.tolist() == [[j for j in range(m) if j not in row][:count] for row in rows.tolist()]
        assert not np.any(table[:, :, None] == rows[:, None, :])  # never a slab of S

    def test_the_table_is_read_only_in_the_smallest_unsigned_type(self):
        table = kernel._outside(16, 6, 4)
        assert table.dtype == np.min_scalar_type(16) == np.uint8 and table.shape == (math.comb(16, 6), 4)
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0


def unit_rows(m: int, n: int, seed: int) -> np.ndarray:
    """m random unit rows of width n (none when m = 0)."""
    return sample_unit_sphere(n, RandomSource(seed), count=max(m, 1))[:m]


class TestCofactorTable:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_lu_minors(self, n):
        # m from n - 1 up to the guard, (24, 7) included
        for m in sorted({n - 1, *range(n, 25, 4), 24}):
            rows = unit_rows(m, n, 700 + 30 * n + m)
            table = cofactor_table(rows)
            assert table.shape == (math.comb(m, n - 1), n)
            assert np.abs(table - cofactor_oracle(rows)).max(initial=0.0) <= 1e-14

    @pytest.mark.parametrize("n", range(3, 8))
    def test_rows_of_rank_below_n_minus_one_give_zero_rows(self, n):
        # rows in the span of the first n - 2 coordinates: every (n-1)-minor has a zero column, and reads exactly 0
        rows = np.zeros((n + 4, n))
        rows[:, : n - 2] = unit_rows(n + 4, n - 2, 740 + n)
        assert np.all(cofactor_table(rows) == 0.0)
        rotated = rows @ random_orthogonal(n, RandomSource(750 + n).generator()).T
        assert np.abs(cofactor_table(rotated)).max() <= 1e-14

    @pytest.mark.parametrize("n", [2, 4, 7])
    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e3, 1e6])
    def test_scales_as_the_power_n_minus_one(self, n, scale):
        rows = unit_rows(n + 5, n, 760 + n)
        ref = scale ** (n - 1) * cofactor_table(rows)
        assert np.allclose(cofactor_table(scale * rows), ref, rtol=1e-13, atol=1e-14 * scale ** (n - 1))

    @pytest.mark.parametrize("m, n", [(25, 3), (10, 8), (25, 1)])
    def test_guard_raises_before_any_lattice(self, m, n):
        kernel._lattice.cache_clear()
        with pytest.raises(CapacityError, match="subset enumeration guard exceeded"):
            cofactor_table(unit_rows(m, n, 790 + m + n))
        assert kernel._lattice.cache_info().currsize == 0

    def test_block_boundaries_leave_the_table_bit_identical(self, monkeypatch):
        rows = unit_rows(16, 6, 770)
        table = cofactor_table(rows)
        monkeypatch.setattr(kernel, "SUBSET_BLOCK", 7)
        assert np.array_equal(cofactor_table(rows), table)

    @pytest.mark.parametrize("n, m", [(1, 4), (2, 5), (3, 7), (5, 9), (7, 11)])
    def test_ranks_index_each_subset_without_one_element(self, n, m):
        for subsets, ranks in subset_blocks(m, n):
            assert ranks.tolist() == lex_ranks(subsets, m)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_first_row_expansion_is_the_determinant(self, n):
        rows = unit_rows(n + 3, n, 780 + n)
        ((subsets, ranks),) = subset_blocks(n + 3, n)
        laplace = np.sum(rows[subsets[:, 0]] * cofactor_table(rows)[ranks[:, 0]], axis=1)
        assert np.abs(laplace - np.linalg.det(rows[subsets])).max() <= 1e-14


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


class TestNewtonOnSlice:
    def test_exact_step_of_a_concave_quadratic(self):
        # f(x) = c.x - x.A.x / 2 on {sum x = 0}: one Newton step lands on the maximizer
        gen = RandomSource(14).generator()
        a = gen.standard_normal((5, 5))
        a = a @ a.T + np.eye(5)
        c = gen.standard_normal(5)
        basis = hyperplane_basis(np.ones(5))
        step, gain = newton_on_slice(basis, basis.T @ c, -basis.T @ a @ basis)
        expected = basis @ np.linalg.solve(basis.T @ a @ basis, basis.T @ c)
        assert np.allclose(step, expected, rtol=0.0, atol=1e-12 * np.abs(expected).max())
        assert abs(step.sum()) <= 1e-12
        assert gain == pytest.approx(float(c @ expected), rel=1e-12)

    def test_clamped_curvature_still_ascends(self):
        # a convex direction is taken with the floor's curvature, so the step goes uphill along it
        basis = np.eye(2)
        step, gain = newton_on_slice(basis, np.array([1.0, 1.0]), np.diag([-2.0, 3.0]))
        assert step[0] == pytest.approx(0.5, rel=1e-15)
        assert step[1] == pytest.approx(1.0 / (kernel.CURVATURE_FLOOR * 3.0), rel=1e-15)
        assert gain == pytest.approx(step.sum(), rel=1e-15) and gain > 0.0

    def test_empty_slice_gives_a_zero_step(self):
        step, gain = newton_on_slice(hyperplane_basis(np.ones(1)), np.zeros(0), np.zeros((0, 0)))
        assert step.tolist() == [0.0] and gain == 0.0


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

    @pytest.mark.parametrize("tol", [1e-20, 1e-8])
    def test_dedup_rows_drops_copies_behind_a_row_of_equal_projection(self, tol):
        # the one sort is by projection: a distinct row of bitwise-equal projection can sit between two copies
        d = np.sqrt(np.arange(1.0, 4.0))
        unit = d / np.linalg.norm(d)
        a = RandomSource(41).generator().standard_normal(3)
        # a distinct row a few ulps from a, between its copies
        steps = (a + np.array(k) * np.spacing(a) for k in itertools.product(range(-3, 4), repeat=3))
        candidates = (np.array([a, b, a, b, a]) for b in steps)
        pts = next(p for p in candidates if not np.array_equal(p[0], p[1]) and len(set(p @ unit)) == 1)
        out = dedup_rows(pts, tol)
        assert np.array_equal(out, dedup_rows_reference(pts, tol))
        assert len(out) == (2 if tol < np.linalg.norm(pts[0] - pts[1]) else 1)

    def test_dedup_rows_merges_rows_equal_up_to_signed_zeros(self):
        pts = np.array([[0.0, 1.0, -0.0], [-0.0, 1.0, 0.0], [2.0, -0.0, 1.0], [0.0, 1.0, 0.0], [2.0, 0.0, 1.0]])
        out = dedup_rows(pts, 1e-12)
        expected = dedup_rows_reference(pts, 1e-12)
        assert len(out) == 2
        assert np.array_equal(out, expected)
        assert np.array_equal(np.signbit(out), np.signbit(expected))  # the first copy is the one kept

    @pytest.mark.parametrize("n", [3, 6])
    def test_dedup_rows_collapses_antipodal_copies_after_canonical_signs(self, n):
        # as the MVEE canonicalises a symmetric set: every row and its negative, several times over
        gen = RandomSource(43 + n).generator()
        v = gen.standard_normal((60, n)) * 10.0 ** gen.uniform(-3.0, 3.0, (60, 1))
        pts = np.vstack([v, -v] * 4)[gen.permutation(480)]
        tol = 1e-12 * float(np.linalg.norm(pts, axis=1).max())
        canon = pts * canonical_signs(pts, tol)[:, None]
        out = dedup_rows(canon, tol)
        assert len(out) == 60
        assert np.array_equal(out, dedup_rows_reference(canon, tol))


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
