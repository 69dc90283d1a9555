"""Deterministic numeric kernel shared by the geometry modules.

Everything here is a pure function of its inputs.  The only object carrying
state is :class:`RandomSource`, which owns a seed and hands out freshly
seeded generators, so any computation that received the same source replays
bit-identically.  :class:`WeightedDirections` is the one type for an
isotropic decomposition (the MVEE's contact points included), and
``_read_unit_rows`` the one validator for the JSON documents that carry
unit direction rows.  The eigensolver, the Newton step on a slice, the sign
table, the slab-direction check, and the subset enumerator and cofactor table
of polytopes and zonotopes with the one capacity guard they apply have one
implementation each, here.  Every subset index of the last two, and the rank
of every subset without one of its elements, comes from one cached lattice of
the k-subsets in lexicographic order, each level built from the one below,
and so do the first elements outside each subset, which the vertex
enumeration tests its sign patterns against first (:func:`_first_outside`).
A block holds no stack: a streamed slab plan enumerates one body at a time,
where its walk is not certified (``polytope._kept_rows``).  The walk, which
visits a few subsets out of all of them, reads the same ranks in closed form
(:func:`subset_ranks`).

A set that does not span R^n is refused in two places only: slab
directions here, by :func:`check_slab_directions`, which every constructor
that takes them calls, and the MVEE's points by the pivots of its core set
(``ellipsoid._spanning_basis``).  There is no matrix square root here: the
shadow position takes its one root from the eigendecomposition of the MVEE's
shape, which ``Ellipsoid`` has already checked.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CapacityError",
    "RandomSource",
    "WeightedDirections",
    "canonical_signs",
    "dedup_rows",
    "hyperplane_basis",
    "jacobi_eigh",
    "random_orthogonal",
    "sample_unit_sphere",
    "unit_ball_volume",
]

_UINT64_MAX = 2**64 - 1


class CapacityError(RuntimeError):
    """A desk-scale guard was exceeded (combinatorial size or iteration cap).

    When an iterative solver hits its cap, ``best`` carries the best iterate
    found so far; for combinatorial guards it stays ``None``.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


MAX_ROWS = 24  # slabs or generators in any subset enumeration
MAX_DIM = 7
#: Rows per block, and the most subsets a slab plan keeps between evaluations.  At n = 6, m = 16 the
#: largest temporary is a vertex block's first-pass slab-pattern products (4.2 MB); then come its inverses
#: U_S^-1 (1.2 MB), the X_S of its first-pass survivors and the U_S^-1 gathered for them (0.9 MB each), its
#: first-pass rows and the rows u_J they are formed from (0.8 MB each) and its survivors' slacks on every
#: slab (0.4 MB).  A body of that shape walks its vertex graph instead and builds no block: one volume's
#: traced peak (random_symmetric_polytope(6, 16, RandomSource(5)), in a fresh process) is 3.7 MB when it
#: builds the shape's lattice and 2.5 MB once the lattice is cached, against 9.4 and 9.1 MB through the
#: blocks, which only a body whose walk is not certified still builds, alone.
SUBSET_BLOCK = 4096
#: The most k-subsets that :func:`subset_blocks` slices from the cached :func:`_lattice`: C(16, 6), the
#: largest shape a workload of the benchmark measures.  Larger shapes build their blocks one at a time,
#: each from the cached lattice of the (k-1)-subsets.
INDEX_PLAN_SUBSETS = math.comb(16, 6)
CURVATURE_FLOOR = 1e-6

#: (-1)^k for k < MAX_DIM, the signs of a cofactor vector and of the adjugate's columns
_ALTERNATING = (-1.0) ** np.arange(MAX_DIM)


def check_capacity(m: int, n: int) -> None:
    """Raise CapacityError unless ``m <= MAX_ROWS`` and ``n <= MAX_DIM``: the guard of every subset enumeration."""
    if m > MAX_ROWS or n > MAX_DIM:
        raise CapacityError(f"subset enumeration guard exceeded: m={m} (max {MAX_ROWS}), n={n} (max {MAX_DIM})")


def subset_blocks(m: int, k: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The k-subsets of ``range(m)`` as index rows in lexicographic order, ``SUBSET_BLOCK`` rows at a time.

    Each block comes as ``(rows, ranks)``: at ``[r, i]`` of ``ranks`` the
    row of :func:`cofactor_table` that holds subset r without its i-th
    element.  A shape of at most ``INDEX_PLAN_SUBSETS`` subsets is sliced
    from its cached :func:`_lattice`, in its unsigned types; a larger one
    builds each block when it is asked for (:func:`_extend`), as ``intp``,
    so that peak memory is one block whatever C(m, k) is.  The block size is
    read at the call, and the capacity guard is applied there, before any
    block or lattice is built.
    """
    check_capacity(m, k)
    size, total = SUBSET_BLOCK, math.comb(m, k)
    if total <= INDEX_PLAN_SUBSETS:
        rows, ranks = _lattice(m, k)
        return ((rows[lo : lo + size], ranks[lo : lo + size]) for lo in range(0, total, size))
    return (_extend(m, k, lo, min(lo + size, total)) for lo in range(0, total, size))


@functools.lru_cache(maxsize=None)
def _lattice(m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every k-subset of ``range(m)`` as a row, in lexicographic order, and its ranks as :func:`subset_blocks` gives them; read-only.

    Both depend on the shape alone, and are stored in the smallest unsigned
    types that hold them (one byte per entry of the rows, and at most two
    per rank at the shapes that :func:`subset_blocks` slices).  The one
    0-subset is the empty row; every other lattice is built from the one
    below it (:func:`_extend`).
    """
    rows, ranks = _extend(m, k, 0, math.comb(m, k)) if k else (np.empty((1, 0)), np.empty((1, 0)))
    rows, ranks = rows.astype(np.min_scalar_type(m)), ranks.astype(np.min_scalar_type(math.comb(m, max(k - 1, 0))))
    rows.setflags(write=False)
    ranks.setflags(write=False)
    return rows, ranks


def subset_ranks(rows: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The ranks of the increasing k-element rows among the subsets of ``range(m)``, as :func:`subset_blocks` gives them.

    Per row S, its rank among the k-subsets in lexicographic order, and at
    ``[r, i]`` the rank of S without its i-th element among the
    (k-1)-subsets.  In closed form, a subset's rank is ``C(m, k) - 1 - sum_i
    C(m - 1 - s_i, k - i)``: the subsets after it in that order, counted by
    their first element that differs, are subtracted from the last rank.
    """
    k = rows.shape[1]
    table = _binomials(m, k)
    below = m - 1 - np.asarray(rows, dtype=np.intp)
    terms = table[below, np.arange(k, 0, -1)]
    # without s_i, the elements before it keep their place and those after it move one down
    kept = table[below, np.arange(k - 1, -1, -1)]
    before, after = np.cumsum(kept, axis=1) - kept, terms.sum(axis=1, keepdims=True) - np.cumsum(terms, axis=1)
    return math.comb(m, k) - 1 - terms.sum(axis=1), math.comb(m, k - 1) - 1 - before - after


@functools.lru_cache(maxsize=None)
def _binomials(m: int, k: int) -> np.ndarray:
    """``C(a, b)`` at ``[a, b]`` for ``a < m`` and ``b <= k``, read-only."""
    table = np.array([[math.comb(a, b) for b in range(k + 1)] for a in range(m)], dtype=np.intp)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=None)
def _outside(m: int, k: int, count: int) -> np.ndarray:
    """:func:`_first_outside` of every row of the cached :func:`_lattice` ``(m, k)``, read-only: a stored slab plan's J(S)."""
    table = _first_outside(_lattice(m, k)[0], m, count)
    table.setflags(write=False)
    return table


def _first_outside(rows: np.ndarray, m: int, count: int) -> np.ndarray:
    """The first `count` elements of ``range(m)`` outside each increasing row.

    The j-th of them is j plus the number of i with ``rows[i] - i <= j``,
    which does not decrease along a row.
    """
    lows = rows.astype(np.intp) - np.arange(rows.shape[1])
    j = np.arange(count)
    return (j + (lows[:, None, :] <= j[:, None]).sum(axis=2)).astype(np.min_scalar_type(m))


def _extend(m: int, k: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``lo:hi`` of :func:`_lattice` ``(m, k)``, k >= 1, as ``intp``, from the cached lattice of the (k-1)-subsets.

    The k-subset of rank r is its first element a over one of the last
    C(m-1-a, k-1) (k-1)-subsets, its rest, in order.  Dropping a leaves that
    rest; dropping the i-th element, i > 0, leaves a over the rest without
    its (i-1)-th, whose rank is that of the rest's own smaller subset
    shifted by a constant per a.
    """
    below, below_ranks = _lattice(m, k - 1)
    # at [a, j]: the rank of the first j-subset of range(m) whose elements are all a or more
    starts = np.array([[math.comb(m, j) - math.comb(m - a, j) for j in range(k + 1)] for a in range(m + 1)])
    r = np.arange(lo, hi)
    first = np.searchsorted(starts[:, k], r, side="right") - 1
    rest = r - starts[first, k] + starts[first + 1, k - 1]
    # the (k-1)-subsets that start at a begin at starts[a, k-1], the (k-2)-subsets above a at starts[a+1, k-2]
    shift = starts[first, k - 1] - starts[first + 1, max(k - 2, 0)]
    return np.column_stack([first, below[rest]]), np.column_stack([rest, below_ranks[rest] + shift[:, None]])


def cofactor_table(rows: np.ndarray) -> np.ndarray:
    """The cofactor vector of every (n-1)-subset S of the (m, n) `rows`, as (C(m, n-1), n) in lexicographic subset order.

    Row S holds ``c_S[k] = (-1)^k det(W_S without column k)``, so that
    ``det(theta, W_S) = <c_S, theta>`` and ``det U = <u_0, c_(U without u_0)>``
    for n rows U.  The k x k minors of all row and column k-subsets come
    from the (k-1) x (k-1) ones by Laplace expansion along their first row,
    one vectorised step per k in blocks of ``SUBSET_BLOCK`` row subsets:
    the row subsets and the column subsets are read from :func:`_lattice`,
    each with the rank of its rest and of itself without each element.
    Every entry is the same sequence of products and sums whatever the
    block size.  At n = 1 the one (empty) subset has the cofactor vector
    (1,); the table is empty when m < n-1.  The capacity guard is applied
    before any lattice is built.
    """
    w = np.asarray(rows, dtype=float)
    m, n = w.shape
    check_capacity(m, n)
    # one row per column subset, one column per row subset: the 1 x 1 minors are the entries
    minors = w.T if n > 1 else np.ones((1, 1))
    for k in range(2, n):
        subsets, ranks = _lattice(m, k)
        first, rests = subsets[:, 0], ranks[:, 0]
        cols, without = (array.T for array in _lattice(n, k))
        level = np.empty((cols.shape[1], len(first)))
        for lo in range(0, len(first), SUBSET_BLOCK):
            block = slice(lo, lo + SUBSET_BLOCK)
            # the gathers by np.take, the same values as by fancy indexing, and faster on these index arrays
            tails, heads = np.take(minors, rests[block], axis=1), np.take(w, first[block], axis=0).T
            # term by term with the signs (-1)^p, so no entry depends on the block's length
            out = level[:, block]
            np.multiply(np.take(tails, without[0], axis=0), np.take(heads, cols[0], axis=0), out=out)
            for p in range(1, len(cols)):
                term = np.take(tails, without[p], axis=0) * np.take(heads, cols[p], axis=0)
                if p % 2:
                    out -= term
                else:
                    out += term
        minors = level
    # the (n-1)-subsets of the columns, in lexicographic order, leave out column n-1, n-2, ..., 0
    return (minors[::-1] * _ALTERNATING[:n, None]).T


def sign_patterns(k: int) -> np.ndarray:
    """The 2^(k-1) sign vectors of length k with first entry +1, the rest in ``itertools.product`` order.

    Row r holds ``1 - 2 * bit`` for the bits of r, most significant first.
    """
    return 1.0 - 2.0 * ((np.arange(1 << (k - 1))[:, None] >> np.arange(k - 1, -1, -1)) & 1)


def unit_directions(thetas: np.ndarray, dim: int) -> np.ndarray:
    """The rows of ``thetas`` (or the one direction) as an (k, dim) float array of unit vectors.

    Raise ValueError on a wrong shape, or unless every row is unit within
    1e-9; the unit test is written so that NaN fails it.
    """
    th = np.atleast_2d(np.asarray(thetas, dtype=float))
    if th.ndim != 2 or th.shape[1] != dim:
        raise ValueError("directions have wrong shape")
    if not np.all(np.abs(np.linalg.norm(th, axis=1) - 1.0) <= 1e-9):
        raise ValueError("directions must be unit vectors (within 1e-9)")
    return th


def check_slab_directions(directions: np.ndarray) -> None:
    """Raise ValueError unless the rows are finite, unit within 1e-12 and span R^n; NaN fails each test."""
    u = np.asarray(directions, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError("directions must be finite")
    if not np.all(np.abs(np.linalg.norm(u, axis=1) - 1.0) <= 1e-12):
        raise ValueError("directions must be unit vectors (within 1e-12)")
    if not np.linalg.matrix_rank(u, tol=1e-10) >= u.shape[1]:
        raise ValueError("directions do not span R^n: the body is unbounded")


@dataclass(frozen=True)
class RandomSource:
    """Explicit randomness: the same seed always yields the same PCG64 stream."""

    seed: int

    def __post_init__(self):
        if not (0 <= int(self.seed) <= _UINT64_MAX):
            raise ValueError("seed must fit in an unsigned 64-bit integer")

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this source's stream."""
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))

    def fork(self, key: int) -> "RandomSource":
        """Derive an independent child source.  Distinct keys give decorrelated streams."""
        state = np.random.SeedSequence(self.seed, spawn_key=(int(key),)).generate_state(1, np.uint64)
        return RandomSource(int(state[0]))


#: Symmetric eigendecomposition by LAPACK: ``(w, V)``, ``matrix = V @ diag(w) @ V.T``, w ascending.  numpy
#: refuses a matrix that is not square with ``LinAlgError``, a ValueError.  The name outlives the Jacobi sweep
#: it once ran because the benchmark's tracer (``shadowbench/tracing.py``) wraps the eigensolver by this name.
jacobi_eigh = np.linalg.eigh


def sample_unit_sphere(n: int, rng: RandomSource, count: int | None = None) -> np.ndarray:
    """Uniform points on the unit sphere in R^n (Gaussian direction method).

    Returns shape ``(n,)`` for ``count is None``, else ``(count, n)``.
    """
    if n < 1:
        raise ValueError("sphere dimension must be at least 1")
    gen = rng.generator()
    k = 1 if count is None else int(count)
    if k < 1:
        raise ValueError("count must be positive")
    out = np.empty((k, n))
    need = np.arange(k)
    while len(need):
        g = gen.standard_normal((len(need), n))
        norms = np.linalg.norm(g, axis=1)
        ok = norms > 1e-12
        out[need[ok]] = g[ok] / norms[ok, None]
        need = need[~ok]
    return out[0] if count is None else out


def log_unit_ball_volume(n: int) -> float:
    """``log v_n``, the log-volume of the Euclidean unit ball in R^n, by log-gamma."""
    return 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0)


def unit_ball_volume(n: int) -> float:
    """Volume of the Euclidean unit ball in R^n, computed in log space."""
    if not (1 <= int(n) <= 200):
        raise ValueError("dimension must lie in [1, 200]")
    return math.exp(log_unit_ball_volume(int(n)))


def random_orthogonal(n: int, gen: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix via sign-fixed QR of a Gaussian matrix."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    g = gen.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def hyperplane_basis(direction: np.ndarray) -> np.ndarray:
    """Orthonormal ``n x (n-1)`` basis of the hyperplane orthogonal to `direction`.

    Built from the Householder reflector that sends e_1 to the direction, so
    the chart is a deterministic function of the input.
    """
    u = np.asarray(direction, dtype=float)
    norm = float(np.linalg.norm(u))
    if norm <= 1e-12:
        raise ValueError("direction is numerically zero")
    u = u / norm
    n = u.shape[0]
    if n == 1:
        return np.zeros((1, 0))
    w = u.copy()
    w[0] += math.copysign(1.0, u[0]) if u[0] != 0.0 else 1.0
    h = np.eye(n) - 2.0 * np.outer(w, w) / float(w @ w)
    return h[:, 1:]


def newton_on_slice(basis: np.ndarray, slope: np.ndarray, curvature: np.ndarray) -> tuple[np.ndarray, float]:
    """Newton step of a concave function on a slice, in ambient coordinates, and the first-order gain it predicts.

    `slope` and `curvature` are the gradient and Hessian in the orthonormal `basis`
    of the slice.  Curvature eigenvalues are clamped at ``-CURVATURE_FLOOR`` times
    the largest magnitude so the step ascends, also where the function is not
    concave on the slice, as a slab family's volume is not; an empty slice gives
    a zero step.
    """
    lam, vecs = np.linalg.eigh(curvature)
    lam = np.minimum(lam, -CURVATURE_FLOOR * float(np.abs(lam).max(initial=0.0)))
    delta = vecs @ ((vecs.T @ slope) / -lam)
    return basis @ delta, float(slope @ delta)


def canonical_signs(rows: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Per row, the sign (+1.0 / -1.0) that makes its first coordinate above `tol` in magnitude positive.

    Rows with no such coordinate get +1.0.
    """
    a = np.atleast_2d(np.asarray(rows, dtype=float))
    significant = np.abs(a) > tol
    lead = a[np.arange(len(a)), np.argmax(significant, axis=1)]
    return np.where(significant.any(axis=1) & (lead < 0.0), -1.0, 1.0)


def dedup_rows(points: np.ndarray, tol: float) -> np.ndarray:
    """Merge rows closer than `tol`, keeping the first occurrence in input order.

    A row is dropped when it lies within `tol` of an earlier kept row.  One
    stable sort of the rows along a fixed direction serves both passes:
    exact duplicates, which project equally, are collapsed where they are
    neighbours in that order, and the remaining close pairs are found by
    testing only neighbours inside a `tol` window of it.  A copy that the
    first pass misses (a distinct row of the same projection between two
    copies) is at distance 0 from its first copy, so the second pass drops
    it.  Nothing is rounded to a grid, so the result holds at any magnitude
    of the rows.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        return pts.copy()
    # |<d, p - q>| <= |p - q| for a unit d, so every close pair shares a window
    d = np.sqrt(np.arange(1.0, pts.shape[1] + 1.0))
    proj = pts @ (d / np.linalg.norm(d))
    by_proj = np.argsort(proj, kind="stable")  # each run of equal rows is led by its first copy
    rows = pts[by_proj]
    fresh = np.ones(len(rows), dtype=bool)
    fresh[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    first = by_proj[fresh]  # the rows left by the exact pass, by projection
    sproj = proj[first]
    slack = 4.0 * np.finfo(float).eps * (np.abs(sproj) + np.abs(rows[fresh]).sum(axis=1))
    hi = np.searchsorted(sproj, sproj + tol + slack, side="right")
    width = hi - np.arange(len(sproj)) - 1
    a = np.repeat(np.arange(len(sproj)), width)
    b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(width) - width, width)
    i, j = first[a], first[b]
    close = np.sum((pts[i] - pts[j]) ** 2, axis=1) <= tol * tol
    lo, hi_row = np.minimum(i, j)[close], np.maximum(i, j)[close]
    keep = np.zeros(len(pts), dtype=bool)
    keep[first] = True
    # in input order: a row with a close earlier row survives only if none of those was kept
    by_row = np.lexsort((lo, hi_row))
    for row, earlier in zip(hi_row[by_row], lo[by_row]):
        if keep[earlier]:
            keep[row] = False
    return pts[keep]


#: The isotropy tolerances of :meth:`WeightedDirections.validate`, on its two :meth:`~WeightedDirections.residuals`.
ISOTROPY_FROBENIUS_TOL = 1e-6
ISOTROPY_TRACE_TOL = 1e-8


@dataclass(frozen=True)
class WeightedDirections:
    """Unit directions with positive weights resolving the identity matrix.

    The defining invariant ``sum c_i u_i (x) u_i = I`` (and hence
    ``sum c_i = n``) is checked by :meth:`validate`, not at construction, so
    deliberately perturbed instances can be built for fault-injection tests.
    A contact decomposition of an MVEE is one of these, with its contact
    points as the directions (also readable as ``contacts``).
    """

    directions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        u = np.array(self.directions, dtype=float)
        c = np.array(self.weights, dtype=float)
        if u.ndim != 2:
            raise ValueError("directions must be a 2-d array (m, n)")
        if c.shape != (len(u),):
            raise ValueError("need one weight per direction")
        u.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "directions", u)
        object.__setattr__(self, "weights", c)

    @property
    def contacts(self) -> np.ndarray:
        return self.directions

    @property
    def dim(self) -> int:
        return self.directions.shape[1]

    def residuals(self) -> tuple[float, float]:
        """``(frobenius, trace_gap)``: ``|sum_i c_i u_i u_i^T - I|_F`` and ``sum_i c_i - n``."""
        u, c = self.directions, self.weights
        outer = (u * c[:, None]).T @ u
        return float(np.linalg.norm(outer - np.eye(self.dim))), float(c.sum() - self.dim)

    def validate(self) -> None:
        """Raise ValueError unless the isotropy invariants hold within ``ISOTROPY_FROBENIUS_TOL`` and ``ISOTROPY_TRACE_TOL``."""
        # every test is written so that NaN fails it
        norms = np.linalg.norm(self.directions, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-8):
            raise ValueError("directions must be unit vectors (within 1e-8)")
        if not np.all((self.weights > 0.0) & np.isfinite(self.weights)):
            raise ValueError("weights must be finite and strictly positive")
        frob, gap = self.residuals()
        if not frob <= ISOTROPY_FROBENIUS_TOL:
            raise ValueError(f"weighted directions do not resolve the identity: residual {frob:.3e} > {ISOTROPY_FROBENIUS_TOL:.1e}")
        if not abs(gap) <= ISOTROPY_TRACE_TOL:
            raise ValueError(f"weights do not sum to the dimension: gap {gap:.3e} > {ISOTROPY_TRACE_TOL:.1e}")

    @classmethod
    def from_dict(cls, data: dict) -> "WeightedDirections":
        """Read ``{"n", "directions", "weights"}``, checking shapes and unit rows only.

        The isotropy invariants are left to :meth:`validate`, so a perturbed
        document still loads.
        """
        return cls(*_read_unit_rows(data, "decomposition", "weights"))


def _read_unit_rows(data: dict, kind: str, values_key: str) -> tuple[np.ndarray, np.ndarray]:
    """Check a ``{"n", "directions", values_key}`` document; return (unit rows, values).

    ``n`` must be a positive integer (not a boolean) and every direction a
    nonzero row of width n within 1e-6 of unit length; the rows come back
    normalised.  Every entry, values included, must be finite (Python's
    ``json`` reads ``NaN`` and ``Infinity``); the values are returned as a
    float array for the caller to check otherwise.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{kind} document must be a JSON object")
    keys = {"n", "directions", values_key}
    missing = keys - set(data)
    if missing:
        raise ValueError(f"{kind} document is missing keys: {sorted(missing)}")
    extra = set(data) - keys
    if extra:
        raise ValueError(f"{kind} document has unknown keys: {sorted(extra)}")
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("'n' must be a positive integer")
    u = np.asarray(data["directions"], dtype=float)
    if u.ndim != 2 or u.shape[1] != n:
        raise ValueError(f"'directions' must be a list of length-{n} vectors")
    values = np.asarray(data[values_key], dtype=float)
    for key, arr in (("directions", u), (values_key, values)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{key!r} must be finite numbers")
    norms = np.linalg.norm(u, axis=1)
    if np.any(norms <= 1e-12):
        raise ValueError("'directions' contains a zero vector")
    if np.any(np.abs(norms - 1.0) > 1e-6):
        bad = int(np.argmax(np.abs(norms - 1.0)))
        raise ValueError(f"direction {bad} has norm {norms[bad]:.8f}; expected unit within 1e-6")
    return u / norms[:, None], values
