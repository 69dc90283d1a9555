"""Deterministic numeric kernel shared by the geometry modules.

Everything here is a pure function of its inputs.  The only object carrying
state is :class:`RandomSource`, which owns a seed and hands out freshly
seeded generators, so any computation that received the same source replays
bit-identically.  :class:`WeightedDirections` is the one type for an
isotropic decomposition (the MVEE's contact points included), and
``_read_unit_rows`` the one validator for the JSON documents that carry
unit direction rows.  The eigensolver, the capacity guard, subset enumerator
and sign table of polytopes and zonotopes, and the slab-direction check
have one implementation each, here.
"""

from __future__ import annotations

import itertools
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
    "psd_sqrt",
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
#: Rows per block; a vertex block's candidate-slab products take 16.8 MB at n = 6, m = 16.
SUBSET_BLOCK = 4096


def check_capacity(m: int, n: int, what: str) -> None:
    """Raise CapacityError unless ``m <= MAX_ROWS`` and ``n <= MAX_DIM``; `what` names the enumeration."""
    if m > MAX_ROWS or n > MAX_DIM:
        raise CapacityError(f"{what} guard exceeded: m={m} (max {MAX_ROWS}), n={n} (max {MAX_DIM})")


def subset_blocks(m: int, k: int) -> Iterator[np.ndarray]:
    """The k-subsets of ``range(m)`` as index rows in lexicographic order, ``SUBSET_BLOCK`` rows at a time.

    Peak memory is one block, whatever C(m, k) is.
    """
    combos = itertools.combinations(range(m), k)
    while True:
        block = np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, SUBSET_BLOCK)), dtype=np.intp)
        if block.size == 0:
            return
        yield block.reshape(-1, k)


def sign_patterns(k: int) -> np.ndarray:
    """The 2^(k-1) sign vectors of length k with first entry +1, the rest in ``itertools.product`` order."""
    rest = np.array(list(itertools.product([1.0, -1.0], repeat=k - 1)))
    return np.hstack([np.ones((len(rest), 1)), rest])


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
    """Explicit randomness: the same (seed, algorithm) always yields the same stream."""

    seed: int
    algorithm: str = "pcg64"

    def __post_init__(self):
        if not (0 <= int(self.seed) <= _UINT64_MAX):
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.algorithm != "pcg64":
            raise ValueError(f"unsupported rng algorithm: {self.algorithm!r}")

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this source's stream."""
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))

    def fork(self, key: int) -> "RandomSource":
        """Derive an independent child source.  Distinct keys give decorrelated streams."""
        state = np.random.SeedSequence(self.seed, spawn_key=(int(key),)).generate_state(1, np.uint64)
        return RandomSource(int(state[0]), self.algorithm)


def jacobi_eigh(matrix: np.ndarray):
    """Symmetric eigendecomposition by LAPACK: ``(w, V)``, ``matrix = V @ diag(w) @ V.T``, w ascending.

    The name outlives the Jacobi sweep it once ran because the benchmark's
    tracer (``shadowbench/tracing.py``) wraps this function by name.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    return np.linalg.eigh(a)


def psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root: R with R @ R = matrix.

    Rejects non-symmetric or indefinite input.  Eigenvalues within round-off
    of zero are clamped to zero before the root is formed.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(1.0, float(np.abs(m).max()) if m.size else 1.0)
    if float(np.abs(m - m.T).max()) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    sym = 0.5 * (m + m.T)
    w, v = jacobi_eigh(sym)
    wscale = max(float(np.abs(w).max()), 1e-300)
    if w[0] < -1e-10 * wscale:
        raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {w[0]:.3e})")
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return 0.5 * (root + root.T)


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

    A row is dropped when it lies within `tol` of an earlier kept row.  Two
    passes: exact duplicates are collapsed by one lexicographic sort, then
    the remaining close pairs are found by sorting the rows along one fixed
    direction and testing only neighbours inside a `tol` window.  Nothing is
    rounded to a grid, so the result holds at any magnitude of the rows.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        return pts.copy()
    by_row = np.lexsort(pts.T[::-1])  # stable: each distinct row's first copy leads its run
    rows = pts[by_row]
    fresh = np.ones(len(rows), dtype=bool)
    fresh[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    survivors = pts[np.sort(by_row[fresh])]
    # |<d, p - q>| <= |p - q| for a unit d, so every close pair shares a window
    d = np.sqrt(np.arange(1.0, pts.shape[1] + 1.0))
    proj = survivors @ (d / np.linalg.norm(d))
    order = np.argsort(proj, kind="stable")
    sproj = proj[order]
    slack = 4.0 * np.finfo(float).eps * (np.abs(sproj) + np.abs(survivors).sum(axis=1)[order])
    hi = np.searchsorted(sproj, sproj + tol + slack, side="right")
    width = hi - np.arange(len(sproj)) - 1
    a = np.repeat(np.arange(len(sproj)), width)
    b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(width) - width, width)
    i, j = order[a], order[b]
    close = np.sum((survivors[i] - survivors[j]) ** 2, axis=1) <= tol * tol
    lo, hi_row = np.minimum(i, j)[close], np.maximum(i, j)[close]
    keep = np.ones(len(survivors), dtype=bool)
    # in input order: a row with a close earlier row survives only if none of those was kept
    by_row = np.lexsort((lo, hi_row))
    for row, earlier in zip(hi_row[by_row], lo[by_row]):
        if keep[earlier]:
            keep[row] = False
    return survivors[keep]


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

    def validate(self, frobenius_tol: float = 1e-6, trace_tol: float = 1e-8) -> None:
        """Raise ValueError unless the isotropy invariants hold at tolerance."""
        # every test is written so that NaN fails it
        norms = np.linalg.norm(self.directions, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-8):
            raise ValueError("directions must be unit vectors (within 1e-8)")
        if not np.all((self.weights > 0.0) & np.isfinite(self.weights)):
            raise ValueError("weights must be finite and strictly positive")
        frob, gap = self.residuals()
        if not frob <= frobenius_tol:
            raise ValueError(f"weighted directions do not resolve the identity: residual {frob:.3e} > {frobenius_tol:.1e}")
        if not abs(gap) <= trace_tol:
            raise ValueError(f"weights do not sum to the dimension: gap {gap:.3e} > {trace_tol:.1e}")

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
