"""Volume maximization over slab families with a shared offset budget.

A slab family fixes m unit directions u_i spanning R^n and positive budget
weights g_i; its members are the symmetric bodies {x : |<x, u_i>| <= t_i}
with positive offsets constrained by sum_i g_i t_i = 1.  Because the
n-th root of the volume is concave in the offsets (Brunn-Minkowski applied
to the Minkowski-additive slab description), log-volume is concave too,
so a stationary point on the budget slice is the global maximum; a Newton
ascent of the volume itself on the slice, its curvature clamped where the
volume is not concave, reaches it.  Its starts run in lockstep over one
plan of the family's directions, the offset-free half of the vertex
enumeration (the subsets, their inverses and the offset-free terms of the
cone formulas), built once per solve; each round only scales that plan by the offsets, taking the volume,
the gradient and the Hessian of every live start's trial point from one
pass of vertex cones over their stacked offsets; the reported body keeps
the volume, gradient and Hessian of its last round.  At that maximum each
facet measure is proportional to its budget weight, which makes every
shadow of the optimal body a fixed multiple of a weighted direction sum;
the verifiers below check the stationarity certificate and that
projection identity directly.

On top of the solver this module builds the large-shadow construction: with
2n random directions and uniform budget weights, the optimal body has
volume^(1/n) at least sqrt(2) while every shadow is bounded below by an
explicit multiple of the direction spread, so its minimal shadow exceeds
the isoperimetric baseline by a dimension-dependent factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kernel import CapacityError, RandomSource, check_slab_directions, hyperplane_basis, newton_on_slice, sample_unit_sphere
from .kernel import unit_ball_volume, unit_directions
from .polytope import FEASIBILITY_TOL, SymmetricHPolytope, _seed_measures, _SlabPlan, _volume_derivatives
from .shadow import TIE_TOLERANCE, MinShadowReport, ball_shadow_ratio, min_shadow_direction, minimize_support
from .zonotope import Zonotope

__all__ = [
    "FamilyOptimumReport",
    "FloorViolationError",
    "KKTReport",
    "PathologicalReport",
    "ProjectionIdentityReport",
    "ShephardReport",
    "SlabFamilySpec",
    "SlabVolumeFloorReport",
    "construct_pathological",
    "direction_spread",
    "kkt_report",
    "maximize_volume_details",
    "maximize_volume_in_family",
    "shephard_demonstration",
    "unit_body_volume_floor",
    "verify_projection_identity",
]

OFFSET_FLOOR = 1e-9
MAX_ASCENT_ITERATIONS = 600
_COINCIDENCE_TOL = 1e-12
#: A gain in log-volume below this is lost in its rounding.
_LOG_ROUNDING = 1e-13
_START_SEED = 0xFA417_0001
_IDENTITY_SEED = 0xFA417_0002
_PATHOLOGY_SEED = 0xFA7A_0001
_MIN_TOL = 1e-10
_MAX_TOL = 1e-3
#: Rounding slacks of the volume floor and the shadow-ratio floor that :func:`construct_pathological` certifies.
VOLUME_FLOOR_SLACK = 1e-9
RATIO_FLOOR_SLACK = 1e-6


class FloorViolationError(RuntimeError):
    """A theorem-backed lower bound failed numerically; never ignorable."""


@dataclass(frozen=True)
class SlabFamilySpec:
    """Directions and budget weights defining a family of slab bodies.

    ``directions`` holds m unit rows spanning R^n (checked as every member
    body checks them); ``weights`` holds the m positive budget weights.
    Family members are the bodies with offsets t, ``weights @ t = 1``, t > 0.
    """

    directions: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        u = np.array(self.directions, dtype=float)
        w = np.array(self.weights, dtype=float)
        if u.ndim != 2:
            raise ValueError("directions must be a 2-d array (m, n)")
        if w.shape != (len(u),):
            raise ValueError("weights must be a vector of length m")
        check_slab_directions(u)
        if not np.all((w > 0.0) & np.isfinite(w)):
            raise ValueError("budget weights must be finite and positive")
        if float(w.sum()) * OFFSET_FLOOR >= 1.0:
            raise ValueError("budget weights leave no room above the offset floor")
        u.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "directions", u)
        object.__setattr__(self, "weights", w)

    @property
    def count(self) -> int:
        return self.directions.shape[0]

    @property
    def dim(self) -> int:
        return self.directions.shape[1]

    def body(self, offsets: np.ndarray) -> SymmetricHPolytope:
        """The family member with the given positive offsets."""
        return SymmetricHPolytope(self.directions, np.asarray(offsets, dtype=float))

    def uniform_offsets(self) -> np.ndarray:
        """The budget-feasible point with all offsets equal."""
        return np.full(self.count, 1.0 / float(self.weights.sum()))


def _volume_gradient(body: SymmetricHPolytope, weights: np.ndarray) -> np.ndarray:
    """d(volume)/d(offsets): twice each slab's facet measure, the gradient of the body's measures.

    The cones give a facet of coinciding slabs (``|u_i . u_j| >= 1 - 1e-12``)
    whose offsets tie within ``FEASIBILITY_TOL`` at the body's scale to one
    of them; it is split among them in proportion to their budget weights,
    the split under which the maximizer is stationary.
    """
    grad = body._measures[1]
    u, t = body.directions, body.offsets
    tied = (np.abs(u @ u.T) >= 1.0 - _COINCIDENCE_TOL) & (np.abs(t[:, None] - t) <= FEASIBILITY_TOL * body._scale)
    shared = tied.sum(axis=1) > 1
    return np.where(shared, weights * (tied @ grad) / (tied @ weights), grad)


def _merge_coinciding(spec: SlabFamilySpec) -> tuple[SlabFamilySpec, np.ndarray]:
    """The family with each set of coinciding slabs as one slab of their summed weight.

    Slabs coincide when ``|u_i . u_j| >= 1 - 1e-12``.  Only the smaller of
    their offsets bounds the body, so every maximizer gives them equal
    offsets: the merged family's, read back through the returned index of
    each slab's merged slab.
    """
    u = spec.directions
    first = np.argmax(np.abs(u @ u.T) >= 1.0 - _COINCIDENCE_TOL, axis=1)
    kept, index = np.unique(first, return_inverse=True)
    if len(kept) == spec.count:
        return spec, index
    return SlabFamilySpec(u[kept], np.bincount(index, weights=spec.weights)), index


@dataclass(frozen=True)
class _AscentResult:
    offsets: np.ndarray
    volume: float
    gradient: np.ndarray
    hessian: np.ndarray
    iterations: int
    gradient_norm: float
    converged: bool
    volume_evals: int


def _ascent(spec: SlabFamilySpec, start: np.ndarray, tol: float, cap: int):
    """Newton ascent of the volume over the budget slice {weights @ t = 1}, one start.

    A generator: it yields each offset vector it needs evaluated, is sent
    back that point's volume V, gradient g and Hessian H in the offsets, and
    returns an :class:`_AscentResult`.  The step is V's own Newton step on
    the slice, the KKT Newton step of max V subject to weights @ t = 1: in
    an orthonormal basis of the slice, slope g/V and curvature H/V, whose
    eigenvalues :func:`newton_on_slice` clamps below zero, so the step
    ascends where V is not concave.  Where H/V is negative definite on the
    slice, the Newton step of log V (curvature H/V - g g^T / V^2) is this
    step shortened by 1/(1 + lambda^2), lambda^2 the gain it predicts
    (Sherman-Morrison): a hidden damping, which V's step drops.  log V is
    concave and tends to -inf as any offset tends to 0, so the maximizer is
    interior and a trial that nearly empties an offset is always refused:
    the step is first halved until every offset keeps at least half its
    distance to ``OFFSET_FLOOR`` (the fraction-to-the-boundary rule of
    interior-point methods, Nocedal and Wright, *Numerical Optimization*,
    section 19.2), then halved until log V increases, and is taken whole
    once the gain it predicts is below the rounding of log V.  On the
    ``family`` benchmark pool a solve takes 7.75 lockstep rounds, against
    11.75 with the log-V step and the floor alone kept by halving.
    Converged when the gradient's component in the slice is at most
    ``tol * V``, and stops unconverged after ``cap`` Newton steps.  The
    result holds the V, g and H of the point it returns.
    """
    basis = hyperplane_basis(spec.weights)
    t = start
    volume, grad, hess = yield t
    evals = 1
    iterations = 0
    while True:
        projected = basis.T @ grad
        gradient_norm = float(np.linalg.norm(projected))
        if gradient_norm <= tol * volume or iterations == cap:
            break
        iterations += 1
        curvature = basis.T @ hess @ basis / volume
        step, gain = newton_on_slice(basis, projected / volume, curvature)
        alpha = 1.0
        while np.any(t + alpha * step < OFFSET_FLOOR + 0.5 * (t - OFFSET_FLOOR)):
            alpha *= 0.5
        log_volume = math.log(volume)
        while True:
            trial = t + alpha * step
            trial_volume, trial_grad, trial_hess = yield trial
            evals += 1
            if trial_volume > 0.0 and (alpha * gain <= _LOG_ROUNDING or math.log(trial_volume) > log_volume):
                break
            alpha *= 0.5
        t, volume, grad, hess = trial, trial_volume, trial_grad, trial_hess
    return _AscentResult(t, volume, grad, hess, iterations, gradient_norm, gradient_norm <= tol * volume, evals)


def _lockstep(spec: SlabFamilySpec, starts: list[np.ndarray], tol: float) -> list[_AscentResult]:
    """Run the ascents of all starts in lockstep, one vertex-cone pass per round.

    The offset-free half of the enumeration, one plan of the directions
    (:class:`_SlabPlan`), is built once; each round evaluates the pending
    point of every live start in one call of :func:`_volume_derivatives` on
    that plan over their stacked offsets, whose values for each body are
    those of that body evaluated alone; so each start makes exactly the
    trials it would make on its own.  A start leaves when it converges or
    reaches ``MAX_ASCENT_ITERATIONS`` Newton steps, read at the call.
    Returns each start's result, whose gradient and Hessian are rows of the
    arrays of the round that evaluated its point.
    """
    plan = _SlabPlan(spec.directions)
    ascents = [_ascent(spec, start, tol, MAX_ASCENT_ITERATIONS) for start in starts]
    pending = {k: next(ascent) for k, ascent in enumerate(ascents)}
    results = {}
    while pending:
        live, trials = zip(*pending.items())
        volumes, grads, hessians = _volume_derivatives(plan, np.array(trials))
        pending = {}
        for k, volume, grad, hess in zip(live, volumes, grads, hessians):
            try:
                pending[k] = ascents[k].send((float(volume), grad, hess))
            except StopIteration as done:
                results[k] = done.value
    return [results[k] for k in range(len(ascents))]


@dataclass(frozen=True)
class FamilyOptimumReport:
    """Best family member found, with the multistart agreement evidence.

    ``iterations`` counts the Newton steps of the best start;
    ``start_iterations`` and ``start_volume_evals`` count, for every start,
    its Newton steps and its volume evaluations (vertex-cone evaluations).
    """

    body: SymmetricHPolytope
    offsets: np.ndarray
    volume: float
    gradient_norm: float
    iterations: int
    converged: bool
    start_volumes: tuple[float, ...]
    start_offsets: tuple[tuple[float, ...], ...]
    start_iterations: tuple[int, ...]
    start_volume_evals: tuple[int, ...]

    @property
    def volume_agreement(self) -> float:
        """Largest relative volume gap between multistart optima."""
        top = max(self.start_volumes)
        return (top - min(self.start_volumes)) / top

    @property
    def offset_agreement(self) -> float:
        """Largest sorted-offset deviation between multistart optima."""
        sorted_offsets = [np.sort(np.array(o)) for o in self.start_offsets]
        reference = sorted_offsets[0]
        worst = 0.0
        for other in sorted_offsets[1:]:
            worst = max(worst, float(np.abs(other - reference).max()))
        return worst


def maximize_volume_details(
    spec: SlabFamilySpec,
    tol: float = 1e-8,
    starts: int = 5,
    rng: RandomSource | None = None,
) -> FamilyOptimumReport:
    """Multistart Newton ascent of the volume with full diagnostics.

    Concavity of volume^(1/n) in the offsets makes every converged start a
    global maximizer; the multistart spread is reported as the uniqueness
    evidence.  The first converged start within ``TIE_TOLERANCE`` relative
    of the largest volume is reported, so the last bits of the volumes do
    not choose it.  Coinciding slabs are solved as one slab of their summed
    weight and get equal offsets.  Each start takes V's own clamped Newton
    steps on the budget slice, each capped to keep half of every offset's
    distance to the floor (:func:`_ascent`), about 8 lockstep rounds a solve
    for 2n random slabs at n = 3..5.  ``MAX_ASCENT_ITERATIONS`` caps the Newton
    steps of each start.  Unless slabs were merged, the reported body carries
    the volume, gradient and Hessian of its start's last lockstep round, as
    read-only copies, the bits it would find alone, so its measures and
    certificates make no cone pass of their own.
    Raises :class:`CapacityError` carrying the best body found when no start
    converges within that cap.
    """
    if not (_MIN_TOL <= tol <= _MAX_TOL):
        raise ValueError(f"tol must lie in [{_MIN_TOL}, {_MAX_TOL}]")
    if starts < 1:
        raise ValueError("at least one start is required")
    if rng is None:
        rng = RandomSource(_START_SEED)
    merged, index = _merge_coinciding(spec)
    points = []
    for k in range(starts):
        start = merged.uniform_offsets()
        if k > 0:
            # a positive rescale onto the budget keeps every start interior
            start = start * rng.fork(_START_SEED + k).generator().uniform(0.25, 4.0, size=merged.count)
            start = start / float(merged.weights @ start)
        points.append(start)
    results = _lockstep(merged, points, tol)
    converged = [r for r in results if r.converged]
    if not converged:
        fallback = max(results, key=lambda r: r.volume)
        raise CapacityError(
            "Newton ascent of the volume hit the iteration cap before reaching stationarity",
            best=spec.body(fallback.offsets[index]),
        )
    top = max(r.volume for r in converged)
    k = next(k for k, r in enumerate(results) if r.converged and r.volume >= (1.0 - TIE_TOLERANCE) * top)
    best, body = results[k], spec.body(results[k].offsets[index])
    if merged is spec:
        # the measures of the point the start returned, the bits a lone body of its offsets finds again;
        # copied, so that the body does not hold the arrays of the whole round
        _seed_measures(body, best.volume, best.gradient.copy(), best.hessian.copy())
    return FamilyOptimumReport(
        body=body,
        offsets=best.offsets[index],
        volume=best.volume,
        gradient_norm=best.gradient_norm,
        iterations=best.iterations,
        converged=best.converged,
        start_volumes=tuple(r.volume for r in results),
        start_offsets=tuple(tuple(float(v) for v in r.offsets[index]) for r in results),
        start_iterations=tuple(r.iterations for r in results),
        start_volume_evals=tuple(r.volume_evals for r in results),
    )


def maximize_volume_in_family(
    spec: SlabFamilySpec,
    tol: float = 1e-8,
    starts: int = 5,
    rng: RandomSource | None = None,
) -> SymmetricHPolytope:
    """The family member of maximal volume (unique by strict concavity)."""
    return maximize_volume_details(spec, tol=tol, starts=starts, rng=rng).body


@dataclass(frozen=True)
class KKTReport:
    """Stationarity certificate: facet measures proportional to weights."""

    multiplier: float
    relative_residuals: np.ndarray
    max_relative_residual: float


def kkt_report(body: SymmetricHPolytope, spec: SlabFamilySpec) -> KKTReport:
    """Stationarity residuals of a family member.

    At an interior maximum the volume gradient (twice the one-sided facet
    measure per slab) equals the multiplier n*volume times the budget
    weight.  Residuals are reported relative to that target, skipping
    floor-active coordinates where the bound is one-sided.  Raises
    ValueError unless the body has the family's slab directions.
    """
    if not np.array_equal(body.directions, spec.directions):
        raise ValueError("the body's slab directions are not those of the family")
    offsets = body.offsets
    grad = _volume_gradient(body, spec.weights)
    multiplier = body.dim * body.volume
    target = multiplier * spec.weights
    residual = np.abs(grad - target) / target
    free = offsets > OFFSET_FLOOR * (1.0 + 1e-6)
    residual = np.where(free, residual, 0.0)
    residual.setflags(write=False)
    return KKTReport(multiplier, residual, float(residual.max()))


@dataclass(frozen=True)
class ProjectionIdentityReport:
    """Worst shadow-vs-weighted-sum deviation of a solved family member."""

    max_relative_error: float
    sample_count: int
    worst_direction: np.ndarray


def verify_projection_identity(
    body: SymmetricHPolytope,
    spec: SlabFamilySpec,
    sample_count: int = 1000,
    rng: RandomSource | None = None,
) -> ProjectionIdentityReport:
    """Check that every shadow equals the weighted direction sum.

    For the volume maximizer, the shadow in direction theta equals
    ``(n*volume/2) * sum_i weights_i * |<u_i, theta>|``: the facet measures
    are proportional to the weights, and the shadow is half the measure-
    weighted sum of |normal . theta| over all facets.  Raises ValueError
    unless the body has the family's slab directions.
    """
    if not np.array_equal(body.directions, spec.directions):
        raise ValueError("the body's slab directions are not those of the family")
    if rng is None:
        rng = RandomSource(_IDENTITY_SEED)
    thetas = sample_unit_sphere(spec.dim, rng, count=sample_count)
    shadows = body.shadow_areas(thetas)
    scale = body.dim * body.volume / 2.0
    predicted = scale * (np.abs(thetas @ spec.directions.T) @ spec.weights)
    relative = np.abs(shadows - predicted) / shadows
    worst = int(np.argmax(relative))
    return ProjectionIdentityReport(float(relative[worst]), sample_count, thetas[worst].copy())


def direction_spread(directions: np.ndarray) -> MinShadowReport:
    """Worst-case weighted alignment of a direction set, ``min_theta sum_i |<theta, u_i>| / sqrt(n)``.

    The minimized sum is the support function of the zonotope generated by
    the directions, so :func:`minimize_support` gives it exactly over the
    zonotope's facet normals, for at most 24 directions and n <= 7 (the
    zonotope's capacity guard).  Duplicated directions count with
    multiplicity.  A non-spanning set has spread zero (witnessed by a
    normal direction, with no candidate checked).
    """
    u = np.array(directions, dtype=float)
    if u.ndim != 2:
        raise ValueError("directions must be a 2-d array (m, n)")
    n = u.shape[1]
    unit_directions(u, n)
    # only a set of fewer than n directions needs the full V, for its witness normal to their span; U is never full
    _, sv, vt = np.linalg.svd(u, full_matrices=len(u) < n)
    if len(sv) < n or not sv[-1] > 1e-10:  # the rank test of check_slab_directions, and its witness
        return MinShadowReport(vt[-1].copy(), 0.0, 0)
    report = minimize_support(Zonotope(u))
    return replace(report, value=report.value / math.sqrt(n))


@dataclass(frozen=True)
class SlabVolumeFloorReport:
    """Volume of a unit-offset slab body against its 2*sqrt(n/m) floor."""

    vol_nth_root: float
    floor: float

    @property
    def satisfied(self) -> bool:
        return self.vol_nth_root >= self.floor - VOLUME_FLOOR_SLACK


def unit_body_volume_floor(directions: np.ndarray) -> SlabVolumeFloorReport:
    """Volume floor for the body with every slab offset equal to one.

    Whatever the m unit directions, the body {x : |<x,u_i>| <= 1} has
    volume^(1/n) at least 2*sqrt(n/m), with equality at the coordinate
    cube (m = n).
    """
    u = np.asarray(directions, dtype=float)
    body = SymmetricHPolytope(u, np.ones(u.shape[0]))
    m, n = u.shape
    floor = 2.0 * math.sqrt(n / m)
    return SlabVolumeFloorReport(body.volume ** (1.0 / n), floor)


@dataclass(frozen=True)
class PathologicalReport:
    """A body whose every shadow is provably large for its volume.

    ``ratio`` is the minimal shadow divided by volume^((n-1)/n); ``floor``
    is the certified lower bound delta_hat * sqrt(n) / (2*sqrt(2)).  Both
    floor checks are theorems, so construction fails loudly if either is
    violated numerically.
    """

    body: SymmetricHPolytope
    delta_hat: float
    vol_nth_root: float
    min_shadow: float
    ratio: float
    floor: float


def construct_pathological(
    n: int,
    rng: RandomSource | None = None,
    directions: np.ndarray | None = None,
) -> PathologicalReport:
    """Build the large-shadow body in dimension n and certify its floors.

    Directions default to 2n independent uniform sphere samples with
    uniform budget weights 1/(2n).  The volume maximizer then satisfies
    volume^(1/n) >= sqrt(2) (the unit-offset body is feasible and obeys its
    own floor) and, via the projection identity, every shadow ratio is at
    least delta_hat * sqrt(n) / (2*sqrt(2)).  Violations raise
    :class:`FloorViolationError`; directions not in R^n raise ValueError.
    """
    if not 2 <= n <= 6:
        raise ValueError("dimension must lie in [2, 6] for exact verification")
    if rng is None:
        rng = RandomSource(_PATHOLOGY_SEED)
    if directions is None:
        directions = sample_unit_sphere(n, rng.fork(0xD14), count=2 * n)  # the spec checks that they span
    u = np.asarray(directions, dtype=float)
    if u.ndim != 2 or u.shape[1] != n:
        raise ValueError(f"directions must be rows in R^{n}")
    m = u.shape[0]
    spec = SlabFamilySpec(u, np.full(m, 1.0 / m))
    details = maximize_volume_details(spec, tol=1e-8, rng=rng.fork(0x501))
    body = details.body
    volume = details.volume
    spread = direction_spread(u)
    shadow = min_shadow_direction(body)
    vol_nth_root = volume ** (1.0 / n)
    ratio = shadow.value / volume ** ((n - 1.0) / n)
    floor = spread.value * math.sqrt(n) / (2.0 * math.sqrt(2.0))
    vol_floor = 2.0 * math.sqrt(n / m)
    if not vol_nth_root >= vol_floor - VOLUME_FLOOR_SLACK:
        raise FloorViolationError(
            f"volume floor violated: vol^(1/n)={vol_nth_root!r} < {vol_floor!r}"
        )
    if not ratio >= floor - RATIO_FLOOR_SLACK:
        raise FloorViolationError(
            f"shadow ratio floor violated: ratio={ratio!r} < floor={floor!r}"
        )
    return PathologicalReport(
        body=body,
        delta_hat=spread.value,
        vol_nth_root=vol_nth_root,
        min_shadow=shadow.value,
        ratio=ratio,
        floor=floor,
    )


@dataclass(frozen=True)
class ShephardReport:
    """Minimal shadow of a body against the equal-volume ball's shadow."""

    n: int
    volume: float
    min_shadow: float
    ball_shadow: float
    shadow_ratio: float
    ball_ratio: float


def shephard_demonstration(
    n: int,
    rng: RandomSource | None = None,
    body: SymmetricHPolytope | None = None,
) -> ShephardReport:
    """Compare a large-shadow body's minimal shadow with the ball's shadow.

    The ball of equal volume has every shadow equal to
    ``ball_shadow_ratio(n) * volume^((n-1)/n)``; the report carries both
    that value (computed from the ball's radius) and the body's minimal
    shadow, whose quotient shows bodies can out-shadow the ball at equal
    volume.  No threshold is asserted: the separation is asymptotic.
    """
    if rng is None:
        rng = RandomSource(_PATHOLOGY_SEED + 1)
    if body is None:
        body = construct_pathological(n, rng=rng.fork(0xB0D)).body
    elif body.dim != n:
        raise ValueError(f"body has dimension {body.dim}, not n = {n}")
    volume = body.volume
    radius = (volume / unit_ball_volume(n)) ** (1.0 / n)
    ball_shadow = unit_ball_volume(n - 1) * radius ** (n - 1)
    shadow = min_shadow_direction(body)
    return ShephardReport(
        n=n,
        volume=volume,
        min_shadow=shadow.value,
        ball_shadow=ball_shadow,
        shadow_ratio=shadow.value / ball_shadow,
        ball_ratio=ball_shadow_ratio(n),
    )
