"""Origin-symmetric polytopes given as slab intersections.

A body is the set ``{x : |<x, u_i>| <= t_i, i = 1..m}`` for unit directions
``u_i`` and positive offsets ``t_i``.  All derived data (vertices, facets,
volume, shadows) is computed by explicit brute-force geometry, in two
halves:

* the half that depends on the directions alone, a plan
  (:class:`_SlabPlan`): the invertible ``n``-subsets S of the slab normals
  with ``|det U_S|`` and ``U_S^-1``, read from one Laplace table of the
  cofactors of the (n-1)-subsets (no subset is factorised), the
  first-pass slabs J(S), the first four slabs not in S, with their rows
  ``u_j U_S^-1``, and, for each subset that holds a kept vertex cone,
  ``U_S^-T c`` for every candidate direction c of the cone formulas with
  the share of their rounding estimate that does not depend on t;
* the half that scales the plan by the offsets t: each subset's 2^(n-1)
  sign patterns p filtered by feasibility of ``x = X_S p``, with
  ``X_S = U_S^-1 diag(t_S)``, in two passes, the slabs J(S) for every
  pattern and every slab for the survivors, whose X_S alone is formed;
  then the volume, the facet measures and the Hessian of the volume in the
  offsets in closed form over the vertex cones of the surviving (subset,
  pattern) pairs (Lawrence's formula and its derivatives), whose ``gamma =
  p * U_S^-T c`` the plan holds, the ties of non-simple vertices broken by
  one lexicographic perturbation decided once per vertex.

Every body is measured by one function, :func:`_volume_derivatives`, which
reads the volume, its gradient and its Hessian in the offsets off the vertex
cones of a stack of bodies; the cone rows never leave this module.  A lone
body is a stack of one and keeps that triple, not the cones or the plan they
were found over; the family solver keeps one plan per slab family and
evaluates the stacked offsets of all its live starts over it in every round,
each body getting the bits it gets alone, and hands the solved body the
triple of its last round.  Slab j's two facets F, -F of normals ``+-u_j``
each measure half the volume's derivative in t_j, one per-slab array
(:attr:`SymmetricHPolytope._facet_measures`), and a shadow is Cauchy's
formula with one term per antipodal pair, ``sum_j |<theta, u_j>| |F_j|``.
The merged vertex set, over a plan of its own, and the facet record are
built on request.

The feasibility, merge and sign tolerances and the negligible-facet floor
are given at unit scale and scaled with the body (see ``_scale``), and so is
the tolerance of :meth:`SymmetricHPolytope.contains`.  The enumeration cost
is combinatorial, so the one guard of the kernel, which zonotopes share,
rejects ``m > 24`` slabs or dimension ``n > 7``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

import numpy as np

from . import kernel
from .kernel import _ALTERNATING, RandomSource, _read_unit_rows, canonical_signs, check_slab_directions, unit_directions
from .kernel import cofactor_table, dedup_rows, outside_blocks, sample_unit_sphere, sign_patterns, subset_blocks, unit_ball_volume

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
#: how many slabs outside its subset S every (subset, sign pattern) candidate is tested against before X_S is
#: formed (all m - n of them when there are fewer); at (6, 16) about 2.5 % of the candidates pass them
_FIRST_PASS_SLABS = 4
#: candidates within this (times the scale) of each other are one vertex, and their slabs tie there
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


def _scales(t: np.ndarray) -> np.ndarray:
    """Per body of the (K, m) offset stack, its largest offset rounded down to a power of two."""
    return np.ldexp(1.0, np.frexp(t.max(axis=1))[1] - 1)


def _cluster_labels(body: np.ndarray, points: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """One label per row, shared by rows of one body that chain within its `tol` of each other in every coordinate.

    Rows of one body within its `tol` (one entry per row) of each other
    always share a label.  When the sort along the first coordinate already
    separates every row from its neighbours, each row is its own label.
    """
    ids = np.empty((len(points), points.shape[1] + 1), dtype=np.intp)
    ids[:, 0] = body
    for d in range(points.shape[1]):
        order = np.lexsort((points[:, d], body))
        x = points[order, d]
        gap = np.empty(len(order), dtype=bool)
        gap[0] = True
        # a change of body is a gap too: rows of two bodies never share a label, and a stack's rows pass the test below
        gap[1:] = (x[1:] - x[:-1] > tol[order[1:]]) | (body[order[1:]] != body[order[:-1]])
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

    ``keys`` is the row of S in its block of :func:`subset_blocks`, singular
    rows counted (in a stored plan's one block, the rank of S among all
    n-subsets in lexicographic order), and ``dets`` holds ``|det U_S|``.
    ``inverses`` holds ``U_S^-1`` in C order, ``outside`` the first-pass
    slabs J(S), the first ``min(_FIRST_PASS_SLABS, m - n)`` slabs not in S
    (:func:`outside_blocks`), and ``first_rows`` their rows ``u_J U_S^-1``.
    """

    keys: np.ndarray
    subsets: np.ndarray
    dets: np.ndarray
    inverses: np.ndarray
    outside: np.ndarray
    first_rows: np.ndarray


def _subset_block(u: np.ndarray, cofactors: np.ndarray, block: tuple[np.ndarray, np.ndarray], outside: np.ndarray) -> _SubsetBlock:
    """The nonsingular subsets of a block of :func:`subset_blocks` with their determinants, inverses and first-pass rows.

    No subset is factorised: from the cofactor table of the (n-1)-subsets
    (:func:`cofactor_table`) and the block's ranks of each ``S without s_i``
    in it, ``det U_S = <u_(s_0), c_(S without s_0)>`` and column i of
    ``U_S^-1`` is ``(-1)^i c_(S without s_i) / det U_S``.  Subsets with
    ``|det U_S| <= _DET_TOL`` are left out.  `outside` is the block's
    first-pass slabs, of :func:`outside_blocks`.
    """
    n = u.shape[1]
    subsets, ranks = block
    # rows are gathered by np.take, the same values as by fancy indexing, and faster on these arrays
    det = (np.take(u, subsets[:, 0], axis=0)[:, None, :] @ np.take(cofactors, ranks[:, 0], axis=0)[:, :, None])[:, 0, 0]  # along the first row
    keep = np.abs(det) > _DET_TOL
    if not keep.all():
        subsets, det, ranks, outside = subsets[keep], det[keep], ranks[keep], outside[keep]
    subsets = subsets.astype(np.intp, copy=False)
    # C order, one component of the cofactors gathered at a time: with transposed strides a stacked body rounds differently
    inverses = np.empty((len(ranks), n, n))
    for k, component in enumerate(cofactors.T):
        np.take(component, ranks, out=inverses[:, k], mode="clip")  # the ranks are in range; "clip" writes unbuffered
    inverses *= (_ALTERNATING[:n] / det[:, None])[:, None, :]
    return _SubsetBlock(np.flatnonzero(keep), subsets, np.abs(det), inverses, outside, np.take(u, outside, axis=0) @ inverses)


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

    The nonsingular n-subsets S, ``|det U_S|``, ``U_S^-1`` and the
    first-pass rows (:class:`_SubsetBlock`) do not depend on the offsets t,
    and neither do the terms of :func:`_cone_terms`: ``X_S = U_S^-1
    diag(t_S)`` scales the columns of ``U_S^-1``, the first-pass slacks, the
    points and ``h`` are linear in t, and ``gamma`` and the tie
    coefficients read ``U_S^-1`` alone.  So a plan is built from the
    directions, and every evaluation over offsets (:func:`_candidates`,
    :func:`_cones`) only scales it by t.

    When there are at most ``SUBSET_BLOCK`` subsets, the plan keeps its one
    block from the first evaluation on, and the cone terms of each subset
    from the first evaluation that keeps a cone of it; every array it keeps
    is read-only.  Otherwise each evaluation streams its blocks, built from
    one cofactor table, and computes the cone terms of the kept rows, so
    that it holds one block at a time.  A family solve keeps its plan over
    its rounds; a lone body drops its plan once its measures are read.
    """

    def __init__(self, directions: np.ndarray):
        self.directions = directions
        m, n = directions.shape
        subsets = math.comb(m, n)
        self.stored = subsets <= kernel.SUBSET_BLOCK
        self._block: _SubsetBlock | None = None
        # by key, the row of each subset's cone terms, -1 until a cone of it is kept
        self._slots = np.full(subsets if self.stored else 0, -1)
        self._terms = (np.empty((0, _DIRECTIONS)), np.empty((0, _DIRECTIONS)), np.empty((0, n, _DIRECTIONS)))
        _read_only(self._slots, *self._terms)

    def blocks(self, stack: int) -> Iterator[_SubsetBlock]:
        """The nonsingular subsets in lexicographic order, ``SUBSET_BLOCK // stack`` subsets at a time.

        The capacity guard is applied at the call, before any block is built.
        """
        u = self.directions
        m, n = u.shape
        if self._block is None:
            cofactors = cofactor_table(u)  # first: it applies the capacity guard
            first = min(_FIRST_PASS_SLABS, m - n)
            if not self.stored:
                # by map, so that no block's index rows outlive the call that reads them
                return map(partial(_subset_block, u, cofactors), subset_blocks(m, n, stack), outside_blocks(m, n, first, stack))
            ((block,), (outside,)) = subset_blocks(m, n), outside_blocks(m, n, first)
            self._block = _subset_block(u, cofactors, block, outside)
            _read_only(*self._block)
        rows = max(1, kernel.SUBSET_BLOCK // stack)
        return (_SubsetBlock._make(field[lo : lo + rows] for field in self._block) for lo in range(0, len(self._block.keys), rows))

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


def _candidates(plan: _SlabPlan, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """The feasible (subset S, sign pattern p) pairs of each body of a stack over the directions of `plan`.

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
    bound ``t + FEASIBILITY_TOL * scale`` of their body.  The kept points take
    one step of iterative refinement: where U_S is ill-conditioned,
    ``X_S p`` cancels large entries, and its slack on them is off by about
    eps cond(U_S) (1e-9 at cond 1e8).  The bodies share each block of
    subsets, so a block holds ``SUBSET_BLOCK`` (subset, body) rows at
    most.
    """
    u = plan.directions
    count = len(t)
    blocks = plan.blocks(count)  # first: it applies the capacity guard before 2^(n-1) patterns are formed
    m, n = u.shape
    # J(S) holds every slab outside S when m - n <= _FIRST_PASS_SLABS: the first pass is then the whole test
    whole = m - n <= _FIRST_PASS_SLABS
    patterns = _sign_patterns(n)  # (P, n)
    bound = t + FEASIBILITY_TOL * _scales(t)[:, None]
    found: list[tuple[np.ndarray, ...]] = []
    for keys, subsets, dets, inverses, outside, first_rows in blocks:
        size, first = outside.shape
        # the large gathers by np.take, the same values as by fancy indexing, and faster on these arrays
        ts = np.take(t, subsets, axis=1)  # (K, B, n)
        # the first-pass rows of X_S, by slab of J(S)
        rows = first_rows.transpose(1, 0, 2)[:, None] * ts
        # explicit sizes: a block whose subsets are all singular is empty
        dots = (rows.reshape(first, count * size, n) @ patterns.T).reshape(first, count, size, len(patterns))
        ok = (np.abs(dots, out=dots) <= np.take(bound, outside, axis=1).transpose(2, 0, 1)[..., None]).all(axis=0)
        del dots  # the block's largest temporary, freed before the survivors' slacks are formed
        row, pat = np.divmod(np.flatnonzero(ok), len(patterns))  # row = body * size + subset
        body, sub = np.divmod(row, size)
        ts = ts.reshape(count * size, n)
        # X_S = U_S^-1 diag(t_S) of the first-pass survivors, in blocks of rows, so it and their slacks stay small
        cand, good = np.empty((len(row), n)), np.full(len(row), whole)
        for lo in range(0, len(row), kernel.SUBSET_BLOCK):
            part = slice(lo, lo + kernel.SUBSET_BLOCK)
            x = np.take(inverses, sub[part], axis=0) * np.take(ts, row[part], axis=0)[:, None, :]
            cand[part] = np.einsum("rij,rj->ri", x, np.take(patterns, pat[part], axis=0))
            if whole:
                continue
            dots = cand[part] @ u.T
            dots[np.arange(len(dots))[:, None], np.take(subsets, sub[part], axis=0)] = 0.0  # the subset's own slabs are tight, so they pass
            good[part] = (np.abs(dots) <= np.take(bound, body[part], axis=0)).all(axis=1)
        row, body, sub, pat, cand = row[good], body[good], sub[good], pat[good], cand[good]
        own = subsets[sub]
        # one step of iterative refinement against the subset's rows u_i / t_i
        residual = patterns[pat] - np.einsum("rij,rj->ri", u[own], cand) / t[body[:, None], own]
        cand += np.einsum("rij,rj->ri", inverses[sub] * ts[row][:, None, :], residual)
        found.append((body, own, patterns[pat], inverses[sub], cand, dets[sub], keys[sub]))
    if not found or np.any(np.bincount(np.concatenate([block[0] for block in found]), minlength=count) == 0):
        raise ValueError("no vertices found; body is numerically degenerate")
    if len(found) == 1:  # one block's rows already come by body
        return found[0]
    fields = [np.concatenate(field) for field in zip(*found)]
    order = np.argsort(fields[0], kind="stable")
    return tuple(field[order] for field in fields)


def _cones(plan: _SlabPlan, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """The kept vertex cones of each lexicographically perturbed body of a stack, as (bodies, subsets, h, gamma, weight).

    Candidates of one body (:func:`_candidates`) in canonical sign within
    ``_TIE_TOL * scale`` of each other are one vertex, whose tight set is the
    union of their subsets.  A candidate (S, p) is kept when the exact sign
    of its slack admits it on every slab outside that set, and the
    perturbation ``t_j + eps^(m - j)`` on every slab j of the set outside S:
    the slack that adds, ``sum_i a_i eps^(m - S_i) - eps^(m - j)`` with
    ``a = q p * (U_S^-T u_j)`` on side q of slab j, must have a negative
    coefficient at its highest index whose coefficient is above
    ``_TIE_TOL`` relative.  So ties are decided once per vertex, and the
    lowest of coinciding slabs owns their facet.

    For a direction c, ``h = <c, x>``, ``gamma = p * (U_S^-T c)`` and
    ``weight = 1 / (|det U_S| prod(gamma))``, and the volume is
    ``2 sum h^n weight / n!`` (Lawrence, "Polytope volume computation",
    Math. Comp. 57, 1991), the 2 counting each cone's mirror -x.  Each
    body's c is the column of :func:`_direction_table` with the least
    estimated rounding error of its sum; the plan supplies the half of that
    estimate that does not depend on t, and ``U_S^-T c`` for every column
    (:meth:`_SlabPlan.cone_terms`), from which gamma is read.  The tie rule
    runs only when some vertex of the stack has two or more candidates; on
    a body without one it finds no tied slab.
    """
    body, sub, pat, inverses, pts, dets, keys = _candidates(plan, t)
    u = plan.directions
    m, n = u.shape
    s = _scales(t)[body]
    dots = pts @ u.T
    labels = _cluster_labels(body, pts * canonical_signs(pts, 1e-9 * s[:, None])[:, None], _TIE_TOL * s)
    rows = np.arange(len(pts))[:, None]
    loose = np.abs(dots) > t[body]
    loose[rows, sub] = False  # the subset's own slabs
    ok = ~loose.any(axis=1)
    if labels.max() + 1 < len(labels):  # some vertex holds two or more candidates: break their ties
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
    if not ok.all():
        body, sub, pat, inverses, pts, dets, keys = (field[ok] for field in (body, sub, pat, inverses, pts, dets, keys))
        if np.any(np.bincount(body, minlength=len(t)) == 0):
            raise ValueError("no vertex cone kept; body is numerically degenerate")
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

    One pass of vertex cones (:func:`_cones`) over the stack, over the
    directions of `plan`, read as sums over each body's cones:

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
    the call.
    """
    count, m = t.shape
    body, sub, h, gamma, weight = _cones(plan, t)
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
    return volumes, 2.0 * measures, hessians


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
        """The largest offset rounded down to a power of two.

        The vertex and facet tolerances are multiplied by it (the measure
        floor by its (n-1)-th power), so that they scale with the body; a
        power of two scales them without rounding, and bodies whose largest
        offset lies in [1, 2) keep the unscaled tolerances.
        """
        return float(_scales(self._offsets[None])[0])

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
        """All vertices: the feasible candidates (:func:`_candidates`) over a plan of its own, merged within ``VERTEX_MERGE_TOL * scale``.

        Mirrored solutions are added after the merge, so the set is exactly
        closed under negation.
        """
        raw, s = _candidates(_SlabPlan(self._directions), self._offsets[None])[4], self._scale
        # canonicalise sign so each antipodal pair is represented once
        canon = dedup_rows(raw * canonical_signs(raw, 1e-9 * s)[:, None], VERTEX_MERGE_TOL * s)
        both = np.concatenate([canon, -canon])
        pts = both[np.lexsort(both.T[::-1])]
        pts.setflags(write=False)
        return VertexSet(pts)

    # -- vertex cones --------------------------------------------------------

    @cached_property
    def _measures(self) -> tuple[float, np.ndarray, np.ndarray]:
        """The volume and its gradient and Hessian in the offsets: :func:`_volume_derivatives` of this body as a stack of one.

        The plan and the cones are dropped once the triple is read.  The
        family solver seeds the body it reports with the triple of its last
        round, the same bits.  The arrays are read-only.  A volume that is
        not positive, or a facet measure below ``-NEGATIVE_MEASURE_TOL``
        times the largest, is certainly wrong, and raises ``ValueError``.
        """
        (volume,), (gradient,), (hessian,) = _volume_derivatives(_SlabPlan(self._directions), self._offsets[None])
        if not volume > 0.0 or gradient.min() < -NEGATIVE_MEASURE_TOL * gradient.max():
            raise ValueError("the volume or a facet measure reads negative; body is numerically degenerate")
        _read_only(gradient, hessian)
        return float(volume), gradient, hessian

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
        that does not depend on the scale of A.
        """
        a = np.asarray(matrix, dtype=float)
        if a.shape != (self.dim, self.dim):
            raise ValueError("transform has wrong shape")
        if not np.all(np.isfinite(a)):
            raise ValueError("transform must be finite")
        sv = np.linalg.svd(a, compute_uv=False)
        if not sv[-1] > 1e-12 * sv[0]:
            raise ValueError("transform is numerically singular")
        w = np.linalg.solve(a.T, self._directions.T).T  # rows A^{-T} u_i
        norms = np.linalg.norm(w, axis=1)
        return SymmetricHPolytope(w / norms[:, None], self._offsets / norms)

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
