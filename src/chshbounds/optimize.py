"""Maximization of the three CHSH-type expressions over their admissible domains.

The classical track is an exact enumeration of the 16 deterministic
strategies (mixtures are convex, so they cannot beat the deterministic
maximum).  The quantum and vector-valued tracks run a derivative-free
coordinate search over spherical angles (plus the two b-side magnitude
coefficients for the vector track) from seeded random restarts; both recover
the 2*sqrt(2) ceiling and the canonical attainment geometry.  A probe
recomputes only the chart vector it moves and that vector's two pair terms,
by the same float operations and summed in the same order as a full
recompute, so every value and the evaluation count are bit-identical to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from . import rng
from .geometry import Configuration, Vec3, dot, planar_vector, spherical_vector
from .lhv import (
    CLASSICAL_BOUND,
    LhvModel,
    all_deterministic_strategies,
    chsh_classical_value,
    classical_correlations,
)
from .quantum import TSIRELSON_BOUND, _chsh_value_from_vectors, _correlation_from_vectors
from .vector_values import ResponseCoefficients, _chsh_vector_from_dots

__all__ = [
    "OptimizationResult",
    "maximize_classical",
    "maximize_quantum",
    "maximize_ga",
    "sweep_coplanar_family",
]

INITIAL_STEP = 0.3
STEP_SHRINK = 0.5
MIN_STEP = 1e-8
DEFAULT_RESTARTS = 32

# Safety valve only: a sweep level ends as soon as a full pass yields no
# improvement, which in practice happens after a handful of passes.
_MAX_SWEEPS_PER_LEVEL = 1000


def _chart_vectors(t: Sequence[float]) -> tuple[Vec3, Vec3, Vec3, Vec3]:
    """Directions a, a', b, b' from the first 8 chart angles; no validation."""
    return tuple(spherical_vector(t[2 * j], t[2 * j + 1]) for j in range(4))


# Term k pairs chart vectors _PAIRS[k]; chart vector j feeds terms _TERMS_OF_VECTOR[j].
_PAIRS = ((0, 2), (0, 3), (1, 2), (1, 3))
_TERMS_OF_VECTOR = ((0, 1), (2, 3), (0, 2), (1, 3))
_PairTerm = Callable[[Vec3, Vec3], float]
_Combine = Callable[[list[float], list[float]], float]


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one maximization run.

    ``history`` records global-best improvements as (evaluation index,
    value); ``iterations`` counts every objective evaluation, so
    ``best_value`` is the maximum over all of them.
    """

    track: str
    best_value: float
    bound: float
    iterations: int
    history: tuple[tuple[int, float], ...]
    best_configuration: Configuration | None = None
    best_coefficients: ResponseCoefficients | None = None
    best_strategy: tuple[float, float, float, float] | None = None
    restarts: int | None = None
    seed: int | None = None
    maximizer_count: int | None = None
    distinct_maximizing_correlations: int | None = None
    note: str | None = None


class _SearchState:
    """Evaluation counter plus the global best across restarts."""

    __slots__ = ("evaluations", "best_value", "best_point", "history")

    def __init__(self):
        self.evaluations = 0
        self.best_value = -math.inf
        self.best_point: tuple[float, ...] | None = None
        self.history: list[tuple[int, float]] = []

    def record(self, point: Sequence[float], value: float) -> None:
        self.evaluations += 1
        if value > self.best_value:
            self.best_value = value
            self.best_point = tuple(point)
            self.history.append((self.evaluations, value))


def _coordinate_ascent(
    pair_term: _PairTerm, combine: _Combine, start: Sequence[float], state: _SearchState
) -> None:
    """Coordinate search with shrinking steps.

    From ``start``, each coordinate is probed at +/-step, a coefficient
    clamped to [-1, 1]; improvements are accepted greedily, and the step
    shrinks by ``STEP_SHRINK`` once a full pass stalls, terminating below
    ``MIN_STEP``.  A point's value is ``combine(terms, point)``, term k being
    ``pair_term`` of chart vectors ``_PAIRS[k]``.  The current point's
    vectors and terms are cached: a probe of angle i recomputes vector i // 2
    and its two terms, a probe of a coefficient reuses all four, and an
    accepted probe replaces the cache.  Each term is the same float operations
    on the same inputs as in a full recompute and ``combine`` sums the terms
    in a fixed order, so every value and the evaluation count match a full
    recompute bit for bit.  Every evaluation is recorded in ``state``.
    """
    x = list(start)
    vectors = list(_chart_vectors(x))
    terms = [pair_term(vectors[p], vectors[q]) for p, q in _PAIRS]
    current = combine(terms, x)
    state.record(x, current)
    step = INITIAL_STEP
    while step >= MIN_STEP:
        for _ in range(_MAX_SWEEPS_PER_LEVEL):
            improved = False
            for i in range(len(x)):
                for delta in (step, -step):
                    old = x[i]
                    candidate = old + delta
                    if i >= 8:
                        candidate = min(1.0, max(-1.0, candidate))
                        if candidate == old:
                            continue
                    x[i] = candidate
                    trial_vectors, trial_terms = list(vectors), list(terms)
                    if i < 8:
                        j = i // 2
                        trial_vectors[j] = spherical_vector(x[2 * j], x[2 * j + 1])
                        for k in _TERMS_OF_VECTOR[j]:
                            p, q = _PAIRS[k]
                            trial_terms[k] = pair_term(trial_vectors[p], trial_vectors[q])
                    value = combine(trial_terms, x)
                    state.record(x, value)
                    if value > current:
                        vectors, terms, current = trial_vectors, trial_terms, value
                        improved = True
                    else:
                        x[i] = old
            if not improved:
                break
        step *= STEP_SHRINK


def _require_restarts(restarts: int) -> None:
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")


def _multistart(
    pair_term: _PairTerm, combine: _Combine, restarts: int, seed: int, coefficients: int
) -> _SearchState:
    """Coordinate search from ``restarts`` seeded random starts.

    A point is the 8-angle chart of :func:`_chart_vectors` followed by
    ``coefficients`` parameters bounded to [-1, 1].  Restart ``index`` draws
    its start from the stream ``derive_seed(seed, index)``: uniform-on-sphere
    angles for a, a', b, b', then the coefficients uniform on [-1, 1).  Each
    restart runs :func:`_coordinate_ascent`, which evaluates probes incrementally.
    """
    _require_restarts(restarts)
    state = _SearchState()
    for index in range(restarts):
        stream = rng.CounterStream(rng.derive_seed(seed, index))
        start = []
        for _ in range(4):
            start.append(math.acos(2.0 * stream.u01() - 1.0))
            start.append(rng.TWO_PI * stream.u01())
        start += [stream.uniform(-1.0, 1.0) for _ in range(coefficients)]
        _coordinate_ascent(pair_term, combine, start, state)
    return state


def maximize_classical() -> OptimizationResult:
    """Exact maximum of the CHSH statistic over local models.

    Enumerates all 16 deterministic +/-1 strategies; by convexity no mixture
    can exceed the deterministic maximum, so the enumeration is exhaustive
    over the extreme points of the model polytope.  The maximum is exactly 2.
    """
    strategies = all_deterministic_strategies()
    history = []
    best_value = -math.inf
    best_strategy = None
    values = []
    correlation_sets = []
    for i, strategy in enumerate(strategies):
        model = LhvModel.deterministic(*strategy)
        correlations = classical_correlations(model)
        value = chsh_classical_value(correlations)
        values.append(value)
        correlation_sets.append(correlations.as_tuple())
        if value > best_value:
            best_value = value
            best_strategy = strategy
            history.append((i + 1, value))
    maximizer_count = sum(1 for v in values if v == best_value)
    distinct = len(
        {cs for cs, v in zip(correlation_sets, values) if v == best_value}
    )
    return OptimizationResult(
        track="classical",
        best_value=best_value,
        bound=CLASSICAL_BOUND,
        iterations=len(strategies),
        history=tuple(history),
        best_strategy=best_strategy,
        maximizer_count=maximizer_count,
        distinct_maximizing_correlations=distinct,
        note=(
            "mixtures are convex combinations of deterministic strategies, so the "
            "mixed-model supremum equals the deterministic maximum"
        ),
    )


def maximize_quantum(restarts: int = DEFAULT_RESTARTS, seed: int = 0) -> OptimizationResult:
    """Maximize the quantum CHSH value over measurement configurations.

    Coordinate search over the 8-angle chart from ``restarts`` seeded random
    starts; recovers 2*sqrt(2) well within 1e-6.
    """
    state = _multistart(
        _correlation_from_vectors, lambda t, _: abs(t[0] + t[1] + t[2] - t[3]), restarts, seed, 0
    )
    return OptimizationResult(
        track="quantum",
        best_value=state.best_value,
        bound=TSIRELSON_BOUND,
        iterations=state.evaluations,
        history=tuple(state.history),
        best_configuration=Configuration.from_vectors(*_chart_vectors(state.best_point)),
        restarts=restarts,
        seed=seed,
    )


def maximize_ga(restarts: int = DEFAULT_RESTARTS, seed: int = 0) -> OptimizationResult:
    """Maximize the vector-valued CHSH expression.

    Searches the 8-angle chart plus the two b-side magnitude coefficients
    (10 parameters; the a-side coefficients only scale the two absolute
    terms, so their optimum is pinned at magnitude 1 and they are held
    fixed).  Recovers 2*sqrt(2) with |alpha_b| = |alpha_b'| = 1 and
    b perpendicular to b'.
    """
    state = _multistart(
        dot, lambda t, x: _chsh_vector_from_dots(*t, 1.0, 1.0, x[8], x[9]), restarts, seed, 2
    )
    best = state.best_point
    return OptimizationResult(
        track="ga",
        best_value=state.best_value,
        bound=TSIRELSON_BOUND,
        iterations=state.evaluations,
        history=tuple(state.history),
        best_configuration=Configuration.from_vectors(*_chart_vectors(best)),
        best_coefficients=ResponseCoefficients(1.0, 1.0, best[8], best[9]),
        restarts=restarts,
        seed=seed,
    )


def sweep_coplanar_family(steps: int) -> list[tuple[float, float]]:
    """Quantum CHSH value along the coplanar family a=0, a'=pi/2, b=theta, b'=-theta.

    Returns (theta, value) pairs on the uniform grid over [0, pi]; the value
    follows the closed form 2*sqrt(2)*|sin(theta + pi/4)|, giving 2 at the
    endpoints and the 2*sqrt(2) peak at theta = pi/4.
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    a, a_prime = planar_vector(0.0), planar_vector(0.5 * math.pi)
    rows = []
    for i in range(steps):
        theta = math.pi * i / (steps - 1)
        value = _chsh_value_from_vectors(a, a_prime, planar_vector(theta), planar_vector(-theta))
        rows.append((theta, value))
    return rows

