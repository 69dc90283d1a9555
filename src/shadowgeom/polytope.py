"""Origin-symmetric polytopes given as slab intersections.

A body is the set ``{x : |<x, u_i>| <= t_i, i = 1..m}`` for unit directions
``u_i`` and positive offsets ``t_i``.  All derived data (vertices, facets,
volume, shadows) is computed by explicit geometry, in two halves:

* the half that depends on the directions alone, a plan
  (:class:`_SlabPlan`): one Laplace table of the cofactors of the
  (n-1)-subsets, from which ``|det U_S|`` and ``U_S^-1`` of an invertible
  ``n``-subset S are read (no subset is factorised), the nearly parallel
  pairs, each one slab in every body (:meth:`_SlabPlan.hidden`), and, up to
  ``SUBSET_BLOCK`` subsets, one block of every invertible S, built with the
  plan, with the first-pass slabs J(S), the first four slabs not in S, and
  their rows ``u_j U_S^-1``, and, for each subset that holds a kept vertex cone,
  ``U_S^-T c`` for every candidate direction c of the cone formulas with
  the share of their rounding estimate that does not depend on t;
* the half that scales the plan by the offsets t, one row source
  (:func:`_kept_rows`): by brute force over the block, each subset's
  2^(n-1) sign patterns p filtered by feasibility of ``x = X_S p``, with
  ``X_S = U_S^-1 diag(t_S)``, in two passes, the slabs J(S) for every
  pattern and every slab for the survivors, whose X_S alone is formed; or,
  for each body of a plan with no block, the same rows found by walking its
  vertex graph, one simplex pivot per edge (:func:`_walk`), which refuses
  the body where it reaches a singular subset, at its start or across an
  edge;
  then the volume, the facet measures and the Hessian of the volume in the
  offsets in closed form over the vertex cones of the feasible (subset,
  pattern) pairs (Lawrence's formula and its derivatives), whose ``gamma =
  p * U_S^-T c`` the plan holds, the ties of non-simple vertices broken by
  one lexicographic perturbation, which the walk pivots by.

Every cone pass is made by one function, :func:`_volume_derivatives`, which
reads the volume, its gradient and its Hessian in the offsets off the vertex
cones of a stack of bodies; the cone rows never leave this module.  A lone
body is a stack of one and keeps that triple, not the cones or the plan they
were found over; the family solver keeps one plan per slab family and
evaluates the stacked offsets of all its live starts over it in every round,
each body getting the bits it gets alone, and hands the solved body the
triple of its last round; a linear image made by :func:`_mapped_image` holds
its source's triple mapped by the chain rule.  Slab j's two facets F, -F of
normals ``+-u_j`` each measure half the volume's derivative in t_j, one
per-slab array (:attr:`SymmetricHPolytope._facet_measures`), and a shadow is
Cauchy's formula with one term per antipodal pair, ``sum_j |<theta, u_j>|
|F_j|``.  The merged vertex set, the points of the same kept rows over a plan
of its own, and the facet record are built on request.

The cone pass and the vertex set measure a body in its frame, its offsets
scaled by the power of two that brings the largest into [1, 2), where the
enumeration's tolerances are given, and map back exactly (see ``_scale``).
The enumeration cost is combinatorial, so the one guard of the kernel,
which zonotopes share, rejects ``m > 24`` slabs or dimension ``n > 7``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import kernel
from .kernel import _ALTERNATING, RandomSource, _read_unit_rows, canonical_signs, check_slab_directions, unit_directions
from .kernel import cofactor_table, dedup_rows, sample_unit_sphere, sign_patterns, unit_ball_volume

__all__ = [
    "FacetData",
    "Facets",
    "SymmetricHPolytope",
    "VertexSet",
    "cauchy_surface_check",
    "random_symmetric_polytope",
]

FEASIBILITY_TOL = 1e-9
VERTEX_MERGE_TOL = 1e-8
MEASURE_FLOOR = 1e-12
#: a facet measure below this times the largest one is refused as certainly wrong (correct bodies read >= -1.5e-16)
NEGATIVE_MEASURE_TOL = 1e-9
_DET_TOL = 1e-12
#: a pair of normals at distance min(|u_i - u_j|, |u_i + u_j|) within this is one slab, in each body the one of
#: smaller offset (:meth:`_SlabPlan.hidden`)
_ONE_SLAB_TOL = 1.75e-12
#: how many slabs outside its subset S every (subset, sign pattern) candidate is tested against before X_S is
#: formed (all m - n of them when there are fewer); at (6, 14) about 1.6 % of the candidates pass them
_FIRST_PASS_SLABS = 4
#: candidates within this of each other, at unit scale, are one vertex, and their slabs tie there
_TIE_TOL = 1e-12
#: the candidates for the direction c of the vertex-cone formulas: their number, and the seed they are drawn from
_DIRECTIONS = 64
_DIRECTION_SEED = 0x1A3C


@dataclass(frozen=True)
class VertexSet:
    """Vertices of a symmetric polytope, closed under negation, in canonical order."""

    points: np.ndarray

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class FacetData:
    """One row of :class:`Facets`: outward unit normal, offset, (n-1)-measure, vertex indices.

    ``owners`` lists by slab the (slab index, sign) pairs whose constraint
    hyperplane supports this facet; several only where slabs coincide.
    """

    normal: np.ndarray
    offset: float
    measure: float
    vertex_indices: tuple[int, ...]
    owners: tuple[tuple[int, int], ...]


@dataclass(frozen=True, eq=False)
class Facets(Sequence):
    """The facets as arrays, one row per facet; indexing builds a :class:`FacetData`.

    Rows come in pairs F, -F, F on the positive side of the slab it lies on
    (the lowest of coinciding slabs), the pairs ordered by that slab.
    ``signs`` (facets x m, int8) is +-1 where that side of a slab supports
    the facet, else 0; ``incidence`` (facets x vertices) its vertices.
    """

    normals: np.ndarray
    offsets: np.ndarray
    measures: np.ndarray
    signs: np.ndarray
    incidence: np.ndarray

    def __len__(self) -> int:
        return len(self.measures)

    def __getitem__(self, index: int) -> FacetData:
        i = range(len(self))[operator.index(index)]  # negative indices and IndexError as for a tuple
        owners = tuple((int(j), int(self.signs[i, j])) for j in np.flatnonzero(self.signs[i]))
        vertex_indices = tuple(np.flatnonzero(self.incidence[i]).tolist())
        return FacetData(self.normals[i], float(self.offsets[i]), float(self.measures[i]), vertex_indices, owners)


@lru_cache(maxsize=None)
def _sign_patterns(n: int) -> np.ndarray:
    """The sign patterns of the n-subsets' vertices (:func:`sign_patterns`), read-only."""
    table = sign_patterns(n)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _direction_table(n: int) -> np.ndarray:
    """The fixed candidates for the direction c of the cone formulas: unit vectors, one per column."""
    table = RandomSource(_DIRECTION_SEED).fork(n).generator().standard_normal((n, _DIRECTIONS))
    table /= np.linalg.norm(table, axis=0)
    table.setflags(write=False)
    return table


def _cluster_labels(body: np.ndarray, points: np.ndarray) -> np.ndarray:
    """One label per row, shared by rows of one body that chain within ``_TIE_TOL`` of each other in every coordinate.

    Rows of one body within ``_TIE_TOL`` (at unit scale) of each other always
    share a label.  When the sort along the first coordinate already
    separates every row from its neighbours, each row is its own label.
    """
    ids = np.empty((len(points), points.shape[1] + 1), dtype=np.intp)
    ids[:, 0] = body
    for d in range(points.shape[1]):
        order = np.lexsort((points[:, d], body))
        x = points[order, d]
        gap = np.empty(len(order), dtype=bool)
        gap[:1] = True
        # a change of body is a gap too: rows of two bodies never share a label, and a stack's rows pass the test below
        gap[1:] = (x[1:] - x[:-1] > _TIE_TOL) | (body[order[1:]] != body[order[:-1]])
        if d == 0 and gap.all():
            return np.arange(len(points))
        ids[order, d + 1] = np.cumsum(gap)
    order = np.lexsort(ids.T[::-1])
    fresh = np.ones(len(ids), dtype=bool)
    fresh[1:] = np.any(ids[order[1:]] != ids[order[:-1]], axis=1)
    labels = np.empty(len(ids), dtype=np.intp)
    labels[order] = np.cumsum(fresh) - 1
    return labels


class _SubsetBlock(NamedTuple):
    """The offset-free data of a block of nonsingular n-subsets S of the directions, one row per subset.

    ``keys`` is the row of S in the rows the block was built from, singular
    rows counted (in a stored plan's block, the rank of S among all n-subsets
    in lexicographic order), ``dets`` holds ``|det U_S|`` and ``inverses``
    holds ``U_S^-1`` in C order.
    """

    keys: np.ndarray
    subsets: np.ndarray
    dets: np.ndarray
    inverses: np.ndarray


def _subset_block(u: np.ndarray, cofactors: np.ndarray, subsets: np.ndarray, ranks: np.ndarray) -> _SubsetBlock:
    """The nonsingular ones of the n-subsets `subsets`, with their determinants and inverses.

    No subset is factorised: from the cofactor table of the (n-1)-subsets
    (:func:`cofactor_table`) and the `ranks` of each ``S without s_i`` in it
    (as :func:`kernel.subset_ranks` gives them), ``det U_S = <u_(s_0),
    c_(S without s_0)>`` and column i of ``U_S^-1`` is ``(-1)^i c_(S without
    s_i) / det U_S``.  Subsets with ``|det U_S| <= _DET_TOL`` are left out.
    """
    n = u.shape[1]
    # rows are gathered by np.take, the same values as by fancy indexing, and faster on these arrays
    det = (np.take(u, subsets[:, 0], axis=0)[:, None, :] @ np.take(cofactors, ranks[:, 0], axis=0)[:, :, None])[:, 0, 0]  # along the first row
    keep = np.abs(det) > _DET_TOL
    if not keep.all():
        subsets, det, ranks = subsets[keep], det[keep], ranks[keep]
    subsets = subsets.astype(np.intp, copy=False)
    # C order, one component of the cofactors gathered at a time: with transposed strides a stacked body rounds differently
    inverses = np.empty((len(ranks), n, n))
    for k, component in enumerate(cofactors.T):
        np.take(component, ranks, out=inverses[:, k], mode="clip")  # the ranks are in range; "clip" writes unbuffered
    inverses *= (_ALTERNATING[:n] / det[:, None])[:, None, :]
    return _SubsetBlock(np.flatnonzero(keep), subsets, np.abs(det), inverses)


def _cone_terms(inverses: np.ndarray, dets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per subset, what the cone formulas read for every column c of :func:`_direction_table`; none of it depends on t.

    ``products`` (rows, n, D) holds ``g = U_S^-T c``, from which a cone
    reads ``gamma = p * g``.  Of the rounding estimate of the cone formulas,
    ``cond`` (rows, D) is the condition ``sum_i |U_S^-1 e_i| / |g_i|`` that
    the gammas add to a cone's term, and ``scale`` (rows, D) is
    ``1 / (|det U_S| prod |g|)``.
    """
    n = inverses.shape[1]
    products = (inverses.transpose(0, 2, 1).reshape(-1, n) @ _direction_table(n)).reshape(len(inverses), n, _DIRECTIONS)
    size = np.abs(products)
    cols = np.linalg.norm(inverses, axis=1)
    cond = sum(cols[:, i, None] / size[:, i] for i in range(n))
    return cond, 1.0 / (dets[:, None] * np.prod(size, axis=1)), products


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.setflags(write=False)


class _SlabPlan:
    """The half of the vertex enumeration and of the cone formulas that depends on the directions alone.

    The nonsingular n-subsets S with ``|det U_S|`` and ``U_S^-1``
    (:class:`_SubsetBlock`) and the first-pass rows do not depend on the
    offsets t, and neither do the terms of :func:`_cone_terms`: ``X_S =
    U_S^-1 diag(t_S)`` scales the columns of ``U_S^-1``, the first-pass
    slacks, the points and ``h`` are linear in t, and ``gamma`` and the tie
    coefficients read ``U_S^-1`` alone.  So a plan is built from the
    directions, and every evaluation over offsets (:func:`_candidates`,
    :func:`_cones`) only scales it by t.

    Its cofactor table and nearly parallel pairs, found at construction
    (where the capacity guard applies), serve the block and every walk.  Up
    to ``SUBSET_BLOCK`` subsets, the plan is stored: at construction it builds
    its one ``block`` of every nonsingular subset, the first-pass slabs J(S)
    (``outside``) and their rows ``u_J U_S^-1`` (``first_rows``), and it keeps
    the cone terms of each subset from the first evaluation that keeps a cone
    of it, all read-only; otherwise it builds no block, each body walks
    (:func:`_kept_rows`) and each evaluation computes the cone terms of the
    kept rows.  A family solve keeps its plan, a lone body drops it.
    """

    def __init__(self, directions: np.ndarray):
        self.directions = directions
        self.cofactors = cofactor_table(directions)
        m, n = directions.shape
        subsets = math.comb(m, n)
        self.stored = subsets <= kernel.SUBSET_BLOCK
        # by key, the row of each subset's cone terms, -1 until a cone of it is kept
        self._slots = np.full(subsets if self.stored else 0, -1)
        self._terms = (np.empty((0, _DIRECTIONS)), np.empty((0, _DIRECTIONS)), np.empty((0, n, _DIRECTIONS)))
        # the pairs (i < j) within _ONE_SLAB_TOL, of those whose |<u_i, u_j>| = 1 - d^2 / 2 at distance d is near 1
        gram = np.abs(directions @ directions.T)
        gram.flat[:: m + 1] = 0.0
        self.pairs = np.empty((0, 2), dtype=np.intp)
        if gram.max() > 1.0 - 1e-12:  # rare, so a plan without such a pair pays for this test alone
            i, j = np.nonzero(np.triu(gram > 1.0 - 1e-12))
            gaps = np.minimum(*(np.linalg.norm(directions[i] + sign * directions[j], axis=1) for sign in (1.0, -1.0)))
            self.pairs = np.column_stack([i, j])[gaps <= _ONE_SLAB_TOL]
        _read_only(self.cofactors, self._slots, self.pairs, *self._terms)
        if self.stored:
            # built last: built before the arrays above, the same operations left the (6, 14) ops of the `measure`
            # benchmark about 25 % slower on a 2-core x86-64 host, most likely through the heap's layout
            self.block = _subset_block(directions, self.cofactors, *kernel._lattice(m, n))
            self.outside = kernel._outside(m, n, min(_FIRST_PASS_SLABS, m - n))[self.block.keys]
            self.first_rows = np.take(directions, self.outside, axis=0) @ self.block.inverses
            _read_only(*self.block, self.outside, self.first_rows)

    def hidden(self, t: np.ndarray) -> np.ndarray:
        """Per body of a (K, m) stack, the slabs another stands for, held by no kept row: of each pair, the one of larger offset, or the higher on a tie."""
        hidden = np.zeros(t.shape, dtype=bool)
        for i, j in self.pairs:
            looser = t[:, j] >= t[:, i]
            hidden[looser, j] = hidden[~looser, i] = True
        return hidden

    def cone_terms(self, keys: np.ndarray, inverses: np.ndarray, dets: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """:func:`_cone_terms` of the subsets of the rows (block rows ``keys``, ``U_S^-1``, ``|det U_S|``), and the row of each in them.

        A stored plan computes the terms of each subset once, the first
        time a cone of it is kept.
        """
        if not self.stored:
            return _cone_terms(inverses, dets), np.arange(len(keys))
        at = self._slots[keys]
        new = at < 0
        if new.any():
            fresh, where = np.unique(keys[new], return_index=True)
            rows = np.flatnonzero(new)[where]
            slots = self._slots.copy()
            slots[fresh] = len(self._terms[0]) + np.arange(len(fresh))
            self._slots = slots
            self._terms = tuple(np.concatenate(pair) for pair in zip(self._terms, _cone_terms(inverses[rows], dets[rows])))
            _read_only(self._slots, *self._terms)
            at = self._slots[keys]
        return self._terms, at


def _refined_points(u: np.ndarray, own: np.ndarray, x: np.ndarray, patterns: np.ndarray, t_own: np.ndarray) -> np.ndarray:
    """The points ``X_S p`` of the rows (subsets `own`, ``X_S``, patterns, ``t_S``), after one step of iterative refinement.

    The step is taken against the subset's rows ``u_i / t_i``.  Every row is
    the same bits whichever rows it is computed with.
    """
    points = np.einsum("rij,rj->ri", x, patterns)
    points += np.einsum("rij,rj->ri", x, patterns - np.einsum("rij,rj->ri", u[own], points) / t_own)
    return points


def _candidates(plan: _SlabPlan, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """The feasible (subset S, sign pattern p) pairs of each body of a stack over the directions of a stored `plan`.

    `t` holds one row of offsets per body.  Arrays (bodies, subsets,
    patterns, ``U_S^-1``, points ``X_S p``, ``|det U_S|``, subset keys), one
    row per pair, by body and, within a body, in the order of a body
    enumerated alone, so each body's rows are the same bits inside a stack
    as alone.  ``X_S = U_S^-1 diag(t_S)`` scales the plan's inverses, which
    are in C order, so that the products with it are the same bits in a
    stack as alone.  The first sign of p is +1.  Every pair is first
    tested against the first-pass slabs J(S) of its subset at once, by the
    plan's first-pass rows scaled by ``t_S``: a subset's own slabs always
    pass, so it is the slabs outside it that filter.  X_S is formed for the
    survivors only, and ``X_S p`` is tested against every slab, the
    subset's own read as exactly tight, unless J(S) already holds every
    slab outside S (``m - n <= _FIRST_PASS_SLABS``); both passes use the
    bound ``t + FEASIBILITY_TOL`` at unit scale.  The kept points take one
    step of iterative refinement: where U_S is ill-conditioned,
    ``X_S p`` cancels large entries, and its slack on them is off by about
    eps cond(U_S) (1e-9 at cond 1e8).  The stack is cut into runs of
    ``SUBSET_BLOCK // len(block)`` whole bodies (one at least), each tested
    over the whole block, so a run holds ``SUBSET_BLOCK`` (subset, body)
    rows at most, and its rows already come by body.
    """
    u = plan.directions
    m, n = u.shape
    # J(S) holds every slab outside S when m - n <= _FIRST_PASS_SLABS: the first pass is then the whole test
    whole = m - n <= _FIRST_PASS_SLABS
    patterns = _sign_patterns(n)  # (P, n)
    bound = t + FEASIBILITY_TOL
    keys, subsets, dets, inverses = plan.block
    size, first = plan.outside.shape
    bodies = max(1, kernel.SUBSET_BLOCK // max(size, 1))  # a block whose subsets are all singular is empty
    found = []
    for lo in range(0, len(t), bodies):
        run, limit = t[lo : lo + bodies], bound[lo : lo + bodies]
        count = len(run)
        # the large gathers by np.take, the same values as by fancy indexing, and faster on these arrays
        ts = np.take(run, subsets, axis=1)  # (K, B, n)
        # the first-pass rows of X_S, by slab of J(S)
        rows = plan.first_rows.transpose(1, 0, 2)[:, None] * ts
        # explicit sizes, for an empty block
        dots = (rows.reshape(first, count * size, n) @ patterns.T).reshape(first, count, size, len(patterns))
        ok = (np.abs(dots, out=dots) <= np.take(limit, plan.outside, axis=1).transpose(2, 0, 1)[..., None]).all(axis=0)
        del dots  # the run's largest temporary, freed before the survivors' slacks are formed
        row, pat = np.divmod(np.flatnonzero(ok), len(patterns))  # row = body * size + subset
        body, sub = np.divmod(row, size)
        ts = ts.reshape(count * size, n)
        if not whole:
            # X_S = U_S^-1 diag(t_S) of the first-pass survivors, in blocks of rows, so it and their slacks stay small
            good = np.empty(len(row), dtype=bool)
            for at in range(0, len(row), kernel.SUBSET_BLOCK):
                part = slice(at, at + kernel.SUBSET_BLOCK)
                x = np.take(inverses, sub[part], axis=0) * np.take(ts, row[part], axis=0)[:, None, :]
                dots = np.einsum("rij,rj->ri", x, np.take(patterns, pat[part], axis=0)) @ u.T
                dots[np.arange(len(dots))[:, None], np.take(subsets, sub[part], axis=0)] = 0.0  # the subset's own slabs are tight, so they pass
                good[part] = (np.abs(dots) <= np.take(limit, body[part], axis=0)).all(axis=1)
            row, body, sub, pat = row[good], body[good], sub[good], pat[good]
        own = subsets[sub]
        cand = _refined_points(u, own, inverses[sub] * ts[row][:, None, :], patterns[pat], run[body[:, None], own])
        found.append((lo + body, own, patterns[pat], inverses[sub], cand, dets[sub], keys[sub]))
    return tuple(np.concatenate(field) for field in zip(*found))


def _ratio_test(t: np.ndarray, dots: np.ndarray, rate: np.ndarray, perturbation) -> tuple[np.ndarray, ...]:
    """Per line (row of `rate`), the slab it meets first, the step and the side; an infinite step where it meets none.

    Line r moves the dots ``dots[r]`` of its point at ``rate[r]``, so it meets slab k at ``(t_k - sign(rate) dots) /
    |rate|``.  Slabs whose slack at the least step is within ``_TIE_TOL`` tie, and the least step of the body perturbed as in
    :func:`_kept` wins, the dots' coefficients in the perturbation ``perturbation(r, k)`` read from the highest slab down.
    """
    size = np.abs(rate)
    with np.errstate(divide="ignore", invalid="ignore"):
        steps = ((t - np.sign(rate) * dots) / size).reshape(-1, len(t))  # t / 0 = inf where rate is 0
        rate, size = rate.reshape(steps.shape), size.reshape(steps.shape)
        lines = np.arange(len(steps))
        j = np.argmin(steps, axis=1)
        step = steps[lines, j]
        tied = (steps - step[:, None]) * size <= _TIE_TOL
    # a line that meets a slab ties at least with itself, so only a count above that calls for the tie rule
    if np.count_nonzero(tied) > np.count_nonzero(step < np.inf):
        for line in np.flatnonzero(np.count_nonzero(tied, axis=1) > 1):
            k = np.flatnonzero(tied[line])
            coefficients = (np.eye(len(t))[k] - np.sign(rate[line, k, None]) * perturbation(line, k)) / size[line, k, None]
            floor = _TIE_TOL * max(np.abs(coefficients).max(), 1.0)  # within this of the line's largest (or of 1), equal
            for c in range(len(t) - 1, -1, -1):
                keep = coefficients[:, c] <= coefficients[:, c].min() + floor
                k, coefficients = k[keep], coefficients[keep]
                if len(k) == 1:
                    break
            j[line] = k[0]
    return j, steps[lines, j], np.sign(rate[lines, j])


def _walk(plan: _SlabPlan, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """The rows of :func:`_candidates` that :func:`_kept` keeps for a lone body (`t` one row of offsets), by walking its vertex graph.

    The walk visits the canonical vertices (p_0 = +1) of the body perturbed as in :func:`_kept`.  A ray from the
    origin along column 0 of :func:`_direction_table`, followed inside the face found so far, reaches a first vertex.
    Edge i of (S, p) leaves slab s_i along ``-p_i U_S^-1 e_i``, and its ratio test (:func:`_ratio_test`) names the
    neighbour.  A slab that another stands for (:meth:`_SlabPlan.hidden`) is never met.  On a slab outside S tight at
    the vertex, a rate within ``_TIE_TOL`` of its tableau column's largest entry (or of 1) is 0, as in :func:`_kept`.
    Each layer, the start's one row and then the neighbours across every edge of the layer before, is keyed by (rank
    of S, pattern index), and the rows not seen before take the brute force's bits from one :func:`_subset_block`
    call and :func:`_refined_points`; a singular one, at the start or across an edge, refuses the body.  The perturbed
    body is simple, its vertices are the kept rows, and its graph is connected (Balinski 1961), so the lexicographic
    pivots (Avis and Fukuda 1992) visit every kept row, in O(vertices) memory besides the cofactor table.
    """
    u = plan.directions
    m, n = u.shape
    (hidden,), (t,) = plan.hidden(t), t

    def start_perturbation(line: int, k: np.ndarray) -> np.ndarray:
        # the start point's coefficients in the perturbation of each slab's offset, from its moves, dotted with u_k
        coefficients = np.zeros((n, m))
        for d, j, side, size in moves:
            coefficients += np.outer(d, (np.eye(m)[j] - side * (u[j] @ coefficients)) / size)
        return u[k] @ coefficients

    # the start: a ray from the origin, followed inside the face of the slabs it has met; every ray meets a slab, since
    # the directions span R^n with singular values above 1e-10 (:func:`check_slab_directions`), far above _TIE_TOL
    c, x, moves, tight, sides = _direction_table(n)[:, 0], np.zeros(n), [], [], []
    for _ in range(n):
        d = c
        if tight:
            q = np.linalg.qr(u[tight].T)[0]
            d = c - q @ (q.T @ c)
        rate = u @ d
        rate[np.abs(rate) <= _TIE_TOL * np.linalg.norm(d)] = 0.0
        rate[tight] = rate[hidden] = 0.0
        (j,), (step,), (side,) = _ratio_test(t, u @ x, rate[None], start_perturbation)
        moves.append((d, j, side, abs(rate[j])))
        x, tight, sides = x + step * d, tight + [j], sides + [side]
    # the (S, p) rows the walk has reached, and the keys seen, sorted, over a sentinel above every key
    subsets, signs, seen, found, rows = np.array([tight]), np.array([sides]), np.array([np.iinfo(np.intp).max]), [], np.arange(n)
    while True:
        # the rows made canonical (S increasing, p_0 = +1), keyed by (rank of S, pattern index), with S's ranks without each s_i
        order = np.argsort(subsets, axis=1)
        subsets, signs = np.take_along_axis(subsets, order, axis=1), np.take_along_axis(signs, order, axis=1)
        signs *= signs[:, :1]
        ranks, without = kernel.subset_ranks(subsets, m)
        unique, index = np.unique(ranks << (n - 1) | ((signs[:, 1:] < 0.0) @ (1 << np.arange(n - 2, -1, -1))), return_index=True)
        place = np.searchsorted(seen, unique)
        new = np.flatnonzero(seen[place] != unique)
        if not len(new):
            break
        keys, index = unique[new], index[new]
        block = _subset_block(u, plan.cofactors, subsets[index], without[index])
        if len(block.keys) < len(new):
            raise ValueError("the walk meets a singular subset; body is numerically degenerate")
        seen = np.insert(seen, place[new], keys)
        subsets, signs, inverses, dets = block.subsets, signs[index], block.inverses, block.dets
        ts = t[subsets]
        points = _refined_points(u, subsets, inverses * ts[:, None, :], signs, ts)
        found.append((keys, subsets, signs, inverses, points, dets))
        at = np.arange(len(subsets))[:, None]
        # the tableau (u_k U_S^-1)_i of every slab k, by vertex and i, in one product, exact on S: (F, n, m)
        tableau = (inverses.transpose(0, 2, 1).reshape(-1, n) @ u.T).reshape(len(subsets), n, m)
        tableau[at[:, :, None], rows[:, None], subsets[:, None, :]] = rows[:, None] == rows
        # edge i moves u_k . x at the rate -p_i (u_k U_S^-1)_i: on S exactly 0, but -p_i on s_i, whose far side it meets
        rate = -signs[:, :, None] * tableau
        rate[:, :, hidden] = 0.0
        dots = points @ u.T
        dots[at, subsets] = signs * ts
        slack = t - np.abs(dots)
        slack[at, subsets] = np.inf
        if len((fk := np.nonzero(slack <= _TIE_TOL))[0]):
            column = np.abs(tableau[fk[0], :, fk[1]])
            rate[fk[0], :, fk[1]] *= column > _TIE_TOL * np.maximum(column.max(axis=1, keepdims=True), 1.0)

        def perturbation(f: int, k: np.ndarray) -> np.ndarray:
            out = np.zeros((len(k), m))  # slab k's dot at vertex f moves with the offset of s_l by (u_k U_S^-1)_l p_l
            out[:, subsets[f]] = (tableau[f][:, k] * signs[f, :, None]).T
            return out

        # every edge meets the far side of its own slab, so every ratio test finds a slab; the neighbour across edge i
        # holds the slab met in place of s_i, on the side it is met
        j, _, side = _ratio_test(t, dots[:, None, :], rate, lambda r, k: perturbation(r // n, k))
        edges = np.arange(len(subsets) * n)
        f, i = np.divmod(edges, n)
        subsets, signs = subsets[f], signs[f]
        subsets[edges, i], signs[edges, i] = j, side
    keys, *fields = (np.concatenate(field) for field in zip(*found))
    order = np.argsort(keys)
    return (np.zeros(len(keys), dtype=np.intp), *(field[order] for field in fields), keys[order] >> (n - 1))


def _kept(plan: _SlabPlan, t: np.ndarray, candidates: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """Of the candidate rows of a stack (the fields of :func:`_candidates`), those whose vertex cones are kept.

    Candidates of one body in canonical sign within ``_TIE_TOL`` (at unit
    scale) of each other are one vertex, whose tight set is the union of
    their subsets.  A candidate (S, p) is kept when the exact sign of its slack
    admits it on every slab outside that set, and the perturbation ``t_j +
    eps^(m - j)`` on every slab j of the set outside S: the slack that adds,
    ``sum_i a_i eps^(m - S_i) - eps^(m - j)`` with ``a = q p * (U_S^-T
    u_j)`` on side q of slab j, must have a negative coefficient at its
    highest index whose coefficient is above ``_TIE_TOL`` relative.  So ties
    are decided once per vertex, and the lowest of coinciding slabs owns
    their facet.  The tie rule runs only when some vertex of the stack has
    two or more candidates; on a body without one it finds no tied slab.
    A slab that another stands for (:meth:`_SlabPlan.hidden`) is not read,
    and no candidate on it is kept.
    """
    bound = t
    if len(plan.pairs):
        hidden = plan.hidden(t)
        candidates = tuple(field[~hidden[candidates[0][:, None], candidates[1]].any(axis=1)] for field in candidates)
        bound = np.where(hidden, np.inf, t)
    body, sub, pat, inverses, pts, dets, keys = candidates
    u = plan.directions
    m, n = u.shape
    dots = pts @ u.T
    labels = _cluster_labels(body, pts * canonical_signs(pts, 1e-9)[:, None])
    rows = np.arange(len(pts))[:, None]
    loose = np.abs(dots) > bound[body]
    loose[rows, sub] = False  # the subset's own slabs
    ok = ~loose.any(axis=1)
    if labels.max(initial=-1) + 1 < len(labels):  # some vertex holds two or more candidates: break their ties
        tied = np.zeros((len(pts), m), dtype=bool)
        tied[labels[:, None], sub] = True
        tied = tied[labels]
        tied[rows, sub] = False
        ok = ~np.any(loose & ~tied, axis=1)
        k, j = np.nonzero(tied)
        a = np.einsum("rij,ri->rj", inverses[k], u[j]) * pat[k] * np.sign(dots[k, j])[:, None]
        lead = (np.abs(a) > _TIE_TOL * np.maximum(np.abs(a).max(axis=1), 1.0)[:, None]) & (sub[k] > j[:, None])
        last = n - 1 - np.argmax(lead[:, ::-1], axis=1)
        ok[k[lead.any(axis=1) & (a[np.arange(len(k)), last] > 0.0)]] = False
    if np.any(np.bincount(body[ok], minlength=len(t)) == 0):
        raise ValueError("no vertex cone kept; body is numerically degenerate")
    return candidates if ok.all() else tuple(field[ok] for field in candidates)


def _kept_rows(plan: _SlabPlan, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """The rows of :func:`_candidates` that :func:`_kept` keeps, for each body of a stack: what the cones and vertex set read.

    A stored plan enumerates the stack by brute force; a larger plan walks
    each body alone (:func:`_walk`) to the same rows.
    """
    if plan.stored:
        return _kept(plan, t, _candidates(plan, t))
    found = [_walk(plan, alone) for alone in t[:, None]]
    bodies = np.repeat(np.arange(len(t)), [len(rows[0]) for rows in found])
    return bodies, *(np.concatenate(field) for field in list(zip(*found))[1:])


def _cones(plan: _SlabPlan, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """The kept vertex cones of each lexicographically perturbed body of a stack, as (bodies, subsets, h, gamma, weight).

    The cones are those of the rows of :func:`_kept_rows`.  For a direction
    c, ``h = <c, x>``, ``gamma = p * (U_S^-T c)`` and ``weight = 1 / (|det
    U_S| prod(gamma))``, and the volume is
    ``2 sum h^n weight / n!`` (Lawrence, "Polytope volume computation",
    Math. Comp. 57, 1991), the 2 counting each cone's mirror -x.  Each
    body's c is the column of :func:`_direction_table` with the least
    estimated rounding error of its sum; the plan supplies the half of that
    estimate that does not depend on t, and ``U_S^-T c`` for every column
    (:meth:`_SlabPlan.cone_terms`), from which gamma is read.
    """
    body, sub, pat, inverses, pts, dets, keys = _kept_rows(plan, t)
    n = sub.shape[1]
    (cond, scale, products), at = plan.cone_terms(keys, inverses, dets)
    hc = pts @ _direction_table(n)
    size = np.abs(hc)
    # a term's rounding error is about |term| times its condition: n |x| / |h| from h^n and
    # |U_S^-1 e_i| / |gamma_i| from each gamma_i (the table's columns are unit vectors)
    error = size**n * scale[at] * (n * np.linalg.norm(pts, axis=1)[:, None] / size + cond[at])
    # each body's c, from the sums over its run of rows
    best = np.argmin(np.add.reduceat(error, np.searchsorted(body, np.arange(len(t))), axis=0), axis=1)[body]
    gamma = pat * products[at, :, best]
    return body, sub, hc[np.arange(len(pts)), best], gamma, 1.0 / (dets * np.prod(gamma, axis=1))


def _volume_derivatives(plan: _SlabPlan, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The volumes (K,), their gradients (K, m) and Hessians (K, m, m) in the offsets of a (K, m) stack of bodies.

    In each body's frame (:attr:`SymmetricHPolytope._scale`), the offsets
    ``2^-e t``, one pass of vertex cones (:func:`_cones`) over the stack,
    over the directions of `plan`, read as sums over each body's cones, and
    mapped back by ``2^(ne)``, ``2^((n-1)e)`` and ``2^((n-2)e)``:

    * the volume ``2 sum h^n weight / n!``, one dot product over the body's
      run of rows;
    * the gradient in t_j, twice slab j's one-sided facet measure ``sum
      h^(n-1) gamma_j weight / (n-1)!`` over the cones holding j;
    * the Hessian entry (j, k), ``2 n (n-1) / n! sum h^(n-2) gamma_j gamma_k
      weight`` over the cones holding j and k, exactly symmetric: entries
      (j, k) and (k, j) sum the same products in the same order.

    The directions are taken as checked and the offsets as positive.  Each
    body's values are the same bits inside a stack as alone, and the same
    whether the plan was used before or not.  The cone rows do not outlive
    the call.  A value past the largest double maps back to inf, which
    :func:`_seed_measures` refuses.
    """
    count, m = t.shape
    e = kernel.binary_exponent(t, axis=1) - 1
    body, sub, h, gamma, weight = _cones(plan, np.ldexp(t, -e[:, None]))
    n = sub.shape[1]
    powers = h**n
    ends = np.searchsorted(body, np.arange(count + 1))
    volumes = np.array([2.0 * float(powers[a:b] @ weight[a:b]) / math.factorial(n) for a, b in zip(ends[:-1], ends[1:])])
    terms = (h ** (n - 1) * weight / math.factorial(n - 1))[:, None] * gamma
    keys = body[:, None] * m + sub
    measures = np.bincount(keys.ravel(), weights=terms.ravel(), minlength=count * m).reshape(count, m)
    scale = 2.0 * n * (n - 1) / math.factorial(n) * h ** (n - 2) * weight
    keys = (body[:, None, None] * m + sub[:, :, None]) * m + sub[:, None, :]
    terms = scale[:, None, None] * (gamma[:, :, None] * gamma[:, None, :])
    hessians = np.bincount(keys.ravel(), weights=terms.ravel(), minlength=count * m * m).reshape(count, m, m)
    with np.errstate(over="ignore"):
        return np.ldexp(volumes, n * e), np.ldexp(2.0 * measures, (n - 1) * e[:, None]), np.ldexp(hessians, (n - 2) * e[:, None, None])


def _seed_measures(body: SymmetricHPolytope, volume: float, gradient: np.ndarray, hessian: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Give ``body`` its (volume, gradient, Hessian) triple, read-only, unless the check of :attr:`~SymmetricHPolytope._measures` refuses it."""
    if not (np.isfinite(volume) and np.isfinite(gradient).all() and np.isfinite(hessian).all()):
        raise ValueError("the volume or a facet measure overflows a float; the body is too large to measure")
    negative, tiny = gradient.min() < -NEGATIVE_MEASURE_TOL * gradient.max(), np.finfo(float).tiny
    # a volume below the least normal float has underflowed when the facet measures agree, by n V = sum_j t_j dV/dt_j
    if volume < tiny and not negative and body.offsets @ gradient < body.dim * tiny:
        raise ValueError(f"the volume underflows a float (below {tiny:.3g}); the body is too small to measure")
    if not volume > 0.0 or negative:
        raise ValueError("the volume or a facet measure reads negative; body is numerically degenerate")
    _read_only(gradient, hessian)
    vars(body)["_measures"] = triple = (float(volume), gradient, hessian)
    return triple


def _mapped_image(body: SymmetricHPolytope, matrix: np.ndarray) -> SymmetricHPolytope:
    """``body.affine_image(matrix)`` holding the body's triple mapped by the chain rule, so that it makes no cone pass.

    With ``r_j = |A^-T u_j|``, the image's offsets are ``t_j / r_j`` and its
    triple is ``|det A|`` times ``V``, ``r_j dV/dt_j`` and ``r_j r_k
    d2V/dt_j dt_k``.
    """
    image, r = body._image(matrix)
    scale = abs(float(np.linalg.det(matrix)))
    volume, gradient, hessian = body._measures
    _seed_measures(image, scale * volume, scale * r * gradient, scale * np.outer(r, r) * hessian)
    return image


class SymmetricHPolytope:
    """Intersection of symmetric slabs ``|<x, u_i>| <= t_i``.

    Directions must be unit vectors (within 1e-12) spanning R^n — otherwise
    the body would be unbounded and construction is rejected.  Offsets must
    be finite and strictly positive.  Instances are immutable; the measures
    (the volume with its gradient and Hessian in the offsets), vertices and
    facets are computed on first use and cached, but not the vertex cones,
    nor the plan and candidates that the cones are found over.
    """

    def __init__(self, directions: np.ndarray, offsets: np.ndarray):
        u = np.array(directions, dtype=float)
        t = np.array(offsets, dtype=float)
        if u.ndim != 2:
            raise ValueError("directions must be a 2-d array (m, n)")
        m, n = u.shape
        if n < 1:
            raise ValueError("dimension must be at least 1")
        if t.shape != (m,):
            raise ValueError("offsets must have one entry per direction")
        if m < n:
            raise ValueError(f"need at least n={n} slabs to bound the body, got {m}")
        check_slab_directions(u)
        if not np.all((t > 0.0) & np.isfinite(t)):
            raise ValueError("offsets must be finite and strictly positive")
        u.setflags(write=False)
        t.setflags(write=False)
        self._directions = u
        self._offsets = t

    # -- basic accessors -------------------------------------------------

    @property
    def directions(self) -> np.ndarray:
        return self._directions

    @property
    def offsets(self) -> np.ndarray:
        return self._offsets

    @property
    def dim(self) -> int:
        return self._directions.shape[1]

    @property
    def num_slabs(self) -> int:
        return self._directions.shape[0]

    def __repr__(self) -> str:
        return f"SymmetricHPolytope(n={self.dim}, m={self.num_slabs})"

    @cached_property
    def _scale(self) -> float:
        """The largest offset rounded down to a power of two, 2^e: the body's frame is its offsets times ``2^-e``.

        The cone pass and the vertex set measure in the frame and map back
        exactly; the tolerances that compare with the caller's coordinates
        (:meth:`contains`, :attr:`facets`, the measure floor by its (n-1)-th
        power) are multiplied by 2^e instead.
        """
        return float(np.ldexp(1.0, kernel.binary_exponent(self._offsets) - 1))

    # -- membership / support --------------------------------------------

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask: which of the given points satisfy every slab constraint.

        The tolerance is ``FEASIBILITY_TOL`` at unit scale, multiplied by the
        body's scale (:attr:`_scale`), so the decision does not change when
        the body and the points are scaled together.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.all(np.abs(pts @ self._directions.T) <= self._offsets + FEASIBILITY_TOL * self._scale, axis=1)

    def support(self, theta: np.ndarray) -> float:
        """Support function ``max_{x in P} <x, theta>`` (via the vertex set)."""
        return float(np.max(self.vertices.points @ np.asarray(theta, dtype=float)))

    # -- vertex enumeration ----------------------------------------------

    @cached_property
    def vertices(self) -> VertexSet:
        """All vertices: the points of the kept rows (:func:`_kept_rows`) over a plan of its own, merged within ``VERTEX_MERGE_TOL * scale``.

        Found and merged in the body's frame (:attr:`_scale`): the offsets
        divided by 2^e and the points multiplied by it, both exactly.
        Mirrored solutions are added after the merge, so the set is exactly
        closed under negation.
        """
        raw, s = _kept_rows(_SlabPlan(self._directions), self._offsets[None] / self._scale)[4], self._scale
        # canonicalise sign so each antipodal pair is represented once
        canon = dedup_rows(raw * canonical_signs(raw, 1e-9)[:, None], VERTEX_MERGE_TOL)
        both = np.concatenate([canon, -canon])
        pts = both[np.lexsort(both.T[::-1])] * s
        pts.setflags(write=False)
        return VertexSet(pts)

    # -- vertex cones --------------------------------------------------------

    @cached_property
    def _measures(self) -> tuple[float, np.ndarray, np.ndarray]:
        """The volume and its gradient and Hessian in the offsets: :func:`_volume_derivatives` of this body as a stack of one.

        Unless the body was seeded: by the family solver, the same bits, or,
        as a linear image TC, by :func:`_mapped_image` with C's triple mapped
        by the chain rule, so TC is enumerated only when asked for its
        vertices or facets.  The arrays are read-only.  A volume that is not
        positive, or a facet measure below ``-NEGATIVE_MEASURE_TOL`` times the
        largest, is certainly wrong, and raises ``ValueError`` however the
        triple came (:func:`_seed_measures`).
        """
        (volume,), (gradient,), (hessian,) = _volume_derivatives(_SlabPlan(self._directions), self._offsets[None])
        return _seed_measures(self, volume, gradient, hessian)

    @cached_property
    def _facet_measures(self) -> np.ndarray:
        """Per slab j, the measure of each of its facets F, -F: half the volume's gradient in t_j (:attr:`_measures`).

        Entries below ``MEASURE_FLOOR`` at unit scale are 0: that slab has
        no facet.  Every shadow quantity, and the rows of :attr:`facets`,
        read this one array.
        """
        measures = 0.5 * self._measures[1]
        measures[measures < MEASURE_FLOOR * self._scale ** (self.dim - 1)] = 0.0
        measures.setflags(write=False)
        return measures

    # -- facet record ------------------------------------------------------

    @cached_property
    def facets(self) -> Facets:
        """Geometric facets with their (n-1)-measures, as one record of arrays, built only on request.

        Two rows F, -F of normals +-u_j per slab j with a facet
        (:attr:`_facet_measures`), by slab; the record adds what needs the
        vertex set.  A facet's vertices are those tight on its slab's
        hyperplane, and its owners the signed slabs tight on all of them,
        all within ``FEASIBILITY_TOL * scale``.
        """
        slabs = np.flatnonzero(self._facet_measures)
        first, side = np.repeat(slabs, 2), np.tile(np.array([1, -1], dtype=np.int8), len(slabs))
        verts = self.vertices.points
        u, t, s, m = self._directions, self._offsets, self._scale, self.num_slabs
        dots = verts @ u.T
        tight = np.hstack([np.abs(dots - t) <= FEASIBILITY_TOL * s, np.abs(dots + t) <= FEASIBILITY_TOL * s])
        owned = ~(tight.T[slabs] @ ~tight)  # the signed slabs tight on every vertex of the facet
        owners = owned[:, :m].astype(np.int8) - owned[:, m:]
        signs = side[:, None] * np.repeat(owners, 2, axis=0)
        record = Facets(side[:, None] * u[first], t[first], self._facet_measures[first], signs, tight.T[first + m * (side < 0)])
        _read_only(*vars(record).values())
        return record

    # -- measures ----------------------------------------------------------

    @property
    def volume(self) -> float:
        """Lebesgue volume, ``2 sum h^n weight / n!`` over the kept vertex cones (:attr:`_measures`).

        This equals ``sum offset * measure / n``, but is better conditioned: a
        nearly singular cone puts large, opposite terms into the measures of
        its two nearly parallel facets.
        """
        return self._measures[0]

    @property
    def volume_hessian(self) -> np.ndarray:
        """The (m, m) Hessian of the volume in the offsets, from the vertex cones (:attr:`_measures`).

        Entry (j, k) is ``2 n (n-1) / n! sum h^(n-2) gamma_j gamma_k weight``
        over the kept cones whose subset holds j and k, the second
        derivative of Lawrence's formula.  Where the combinatorial type
        changes, or slabs coincide, the volume is not twice differentiable,
        and this is the Hessian of the lexicographically perturbed body.
        """
        return self._measures[2]

    @property
    def surface_area(self) -> float:
        """Total (n-1)-measure of the facets, ``2 sum`` of :attr:`_facet_measures`."""
        return 2.0 * float(self._facet_measures.sum())

    def shadow_area(self, theta: np.ndarray) -> float:
        """(n-1)-volume of the orthogonal projection onto the hyperplane theta^perp."""
        th = np.asarray(theta, dtype=float)
        if th.shape != (self.dim,):
            raise ValueError("direction has wrong shape")
        return float(self.shadow_areas(th[None, :])[0])

    def shadow_areas(self, thetas: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`shadow_area` over rows of unit directions: Cauchy's ``sum_j |<theta, u_j>| |F_j|`` over :attr:`_facet_measures`."""
        th = unit_directions(thetas, self.dim)
        return np.abs(th @ self._directions.T) @ self._facet_measures

    # -- transforms ---------------------------------------------------------

    def affine_image(self, matrix: np.ndarray) -> "SymmetricHPolytope":
        """The body ``A P`` for an invertible matrix A.

        Slab normals map by the inverse transpose and are re-normalised;
        offsets are rescaled accordingly.  A is refused as singular when its
        smallest singular value is at most 1e-12 times its largest, a test
        that does not depend on the scale of A.  The image is measured afresh:
        carrying P's measures would make its bits depend on the call order.
        """
        return self._image(matrix)[0]

    def _image(self, matrix: np.ndarray) -> tuple["SymmetricHPolytope", np.ndarray]:
        """:meth:`affine_image`, and the norms ``r_j = |A^-T u_j|`` its slab normals were divided by."""
        a = np.asarray(matrix, dtype=float)
        if a.shape != (self.dim, self.dim):
            raise ValueError("transform has wrong shape")
        if not np.all(np.isfinite(a)):
            raise ValueError("transform must be finite")
        sv = np.linalg.svd(a, compute_uv=False)
        if not sv[-1] > 1e-12 * sv[0]:
            raise ValueError("transform is numerically singular")
        w = np.linalg.solve(a.T, self._directions.T).T  # rows A^{-T} u_i
        norms = np.ldexp(*kernel.row_norms(w))
        return SymmetricHPolytope(w / norms[:, None], self._offsets / norms), norms

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n": self.dim,
            "directions": self._directions.tolist(),
            "offsets": self._offsets.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SymmetricHPolytope":
        """Read ``{"n", "directions", "offsets"}``; rows within 1e-6 of unit length are normalised."""
        return cls(*_read_unit_rows(data, "body", "offsets"))


def random_symmetric_polytope(n: int, m: int, rng: RandomSource) -> SymmetricHPolytope:
    """Random slab body: uniform sphere directions, offsets uniform in [0.5, 1.5).

    The directions are drawn once; the constructor refuses them if they do
    not span R^n, which m >= n Gaussian rows do with probability one.
    """
    gen = rng.generator()
    u = gen.standard_normal((m, n))
    u /= np.linalg.norm(u, axis=1)[:, None]
    t = gen.uniform(0.5, 1.5, size=m)
    return SymmetricHPolytope(u, t)


@dataclass(frozen=True)
class CauchySurfaceCheck:
    surface_area: float
    estimate: float
    relative_error: float
    constant: float
    samples: int


def cauchy_surface_check(body: SymmetricHPolytope, rng: RandomSource, samples: int = 100_000) -> CauchySurfaceCheck:
    """Monte Carlo cross-check of the surface area against averaged shadows.

    The mean shadow area over uniform directions, scaled by
    ``n * v_n / v_{n-1}``, reproduces the surface area.  Returns the measured
    relative error; no assertion is made here.
    """
    n = body.dim
    if samples < 1:
        raise ValueError("need at least one sample")
    thetas = sample_unit_sphere(n, rng, count=samples)
    mean_shadow = float(np.mean(body.shadow_areas(thetas)))
    constant = n * unit_ball_volume(n) / unit_ball_volume(n - 1) if n > 1 else 2.0
    estimate = constant * mean_shadow
    exact = body.surface_area
    return CauchySurfaceCheck(exact, estimate, abs(estimate - exact) / exact, constant, samples)
