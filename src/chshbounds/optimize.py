"""Maximization of the three CHSH-type expressions over their admissible domains.

The classical track is an exact enumeration of the 16 deterministic
strategies (mixtures are convex, so they cannot beat the deterministic
maximum).  The quantum and vector-valued tracks alternate exact best
responses (a "see-saw") from seeded random restarts: each objective is
linear in a, a' for fixed b, b' and vice versa, so a round sets the a side,
then the b side, to its closed-form best unit vectors and records the value
at the new point.  A restart stops at the first round that does not strictly
raise its value.  Both recover the 2*sqrt(2) ceiling and its geometry.

All three maximizers score an ordered stream of (point, value) pairs and
report it through one rule, :func:`_best`.
"""

from __future__ import annotations

import math
from typing import Iterator

from . import rng
from ._value import Value
from .geometry import Configuration, Vec3, add, normalized, planar_vector, scale, sub
from .lhv import (
    CLASSICAL_BOUND,
    LhvModel,
    all_deterministic_strategies,
    chsh_classical_value,
    classical_correlations,
)
from .quantum import TSIRELSON_BOUND, _chsh_value_from_vectors, _correlation_from_vectors
from .vector_values import ResponseCoefficients, _chsh_vector

__all__ = [
    "OptimizationResult",
    "maximize_classical",
    "maximize_quantum",
    "maximize_ga",
    "sweep_coplanar_family",
]

DEFAULT_RESTARTS = 32

# Safety valve only: a restart stops at the first round that does not raise
# its value, which in practice happens within five rounds.
_MAX_ROUNDS = 100

_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


class OptimizationResult(Value):
    """Outcome of one maximization run.

    ``history`` records global-best improvements as (evaluation index,
    value); ``iterations`` counts every objective evaluation, so
    ``best_value`` is the maximum over all of them.
    """

    _fields = (
        "track", "best_value", "bound", "iterations", "history", "best_configuration",
        "best_coefficients", "best_strategy", "restarts", "seed", "maximizer_count",
        "distinct_maximizing_correlations", "note",
    )

    def __init__(
        self, track: str, best_value: float, bound: float, iterations: int,
        history: tuple[tuple[int, float], ...],
        best_configuration: Configuration | None = None,
        best_coefficients: ResponseCoefficients | None = None,
        best_strategy: tuple[float, float, float, float] | None = None,
        restarts: int | None = None, seed: int | None = None,
        maximizer_count: int | None = None, distinct_maximizing_correlations: int | None = None,
        note: str | None = None,
    ) -> None:
        self.__dict__.update(
            track=track, best_value=best_value, bound=bound, iterations=iterations,
            history=history, best_configuration=best_configuration,
            best_coefficients=best_coefficients, best_strategy=best_strategy,
            restarts=restarts, seed=seed, maximizer_count=maximizer_count,
            distinct_maximizing_correlations=distinct_maximizing_correlations, note=note,
        )


def _best(scored) -> tuple[float, tuple | None, tuple[tuple[int, float], ...], int]:
    """Best value, its first point, history and evaluation count of a (point, value) stream.

    The history holds (1-based evaluation index, value) for each strict
    improvement, so a tie keeps the earlier point and a NaN value is counted
    but never becomes the best.
    """
    best_value, best_point, history, count = -math.inf, None, [], 0
    for count, (point, value) in enumerate(scored, 1):
        if value > best_value:
            best_value, best_point = value, point
            history.append((count, value))
    return best_value, best_point, tuple(history), count


def _best_pair(p: Vec3, q: Vec3, x: Vec3, x_prime: Vec3) -> tuple[Vec3, Vec3]:
    """p + q and p - q normalized: the unit pair maximizing x.(p + q) + x'.(p - q).

    A zero vector (from a = +/-a', b = +/-b' or zero coefficients) makes
    every direction equally good; the current ``x`` or ``x_prime`` is kept.
    """
    u, w = add(p, q), sub(p, q)
    zero = (0.0, 0.0, 0.0)
    return (x if u == zero else normalized(u), x_prime if w == zero else normalized(w))


def _quantum_value(point: tuple) -> float:
    return _chsh_value_from_vectors(*point)


def _quantum_round(point: tuple) -> tuple:
    """Best a, a' for the current b, b', then best b, b' for the new a, a'.

    The objective is |a.u + a'.w| with u_i = E(e_i, b) + E(e_i, b') and
    w_i = E(e_i, b) - E(e_i, b'), each E a singlet correlation on an axis,
    so a = u/|u| and a' = w/|w| attain |u| + |w|.  The b side is symmetric.
    """
    a, a_prime, b, b_prime = point
    a, a_prime = _best_pair(
        [_correlation_from_vectors(e, b) for e in _AXES],
        [_correlation_from_vectors(e, b_prime) for e in _AXES], a, a_prime,
    )
    b, b_prime = _best_pair(
        [_correlation_from_vectors(a, e) for e in _AXES],
        [_correlation_from_vectors(a_prime, e) for e in _AXES], b, b_prime,
    )
    return a, a_prime, b, b_prime


def _ga_value(point: tuple) -> float:
    a, a_prime, b, b_prime, alpha_b, alpha_b_prime = point
    return _chsh_vector(a, a_prime, b, b_prime, 1.0, 1.0, alpha_b, alpha_b_prime)


def _ga_round(point: tuple) -> tuple:
    """Best a, a' for the current b side, then the best b side for the new a, a'.

    The objective is |a.(alpha_b b + alpha_b' b')| + |a'.(alpha_b b - alpha_b' b')|.
    For fixed a, a' every sign pattern of the two absolute values is at most
    |a + a'| + |a - a'|, attained by b, b' along a +/- a' with unit alphas.
    """
    a, a_prime, b, b_prime, alpha_b, alpha_b_prime = point
    a, a_prime = _best_pair(scale(b, alpha_b), scale(b_prime, alpha_b_prime), a, a_prime)
    b, b_prime = _best_pair(a, a_prime, b, b_prime)
    return a, a_prime, b, b_prime, 1.0, 1.0


def _see_saw(round_, value, start: tuple):
    """Yields (point, value) at ``start`` and after each round.

    Stops after the first round that does not strictly raise the value, or
    after ``_MAX_ROUNDS`` rounds.
    """
    point, current = start, value(start)
    yield point, current
    for _ in range(_MAX_ROUNDS):
        trial = round_(point)
        trial_value = value(trial)
        yield trial, trial_value
        if not trial_value > current:
            return
        point, current = trial, trial_value


def _require_restarts(restarts: int) -> None:
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")


def _multistart(
    track: str, round_, value, restarts: int, seed: int, coefficients: int
) -> OptimizationResult:
    """The see-saw from ``restarts`` seeded random starts; the best point is reported.

    Restart ``index`` starts at the directions of ``random_configuration(seed,
    index)``: a, a', b, b' are the first four ``unit_vector()`` draws of the
    stream ``derive_seed(seed, index)``, then ``coefficients`` values follow
    from the same stream, uniform on [-1, 1).  No configuration is built for
    a start.
    """
    _require_restarts(restarts)

    def start(index: int) -> tuple:
        stream = rng.CounterStream(rng.derive_seed(seed, index))
        directions = [stream.unit_vector() for _ in range(4)]
        return (*directions, *(stream.uniform(-1.0, 1.0) for _ in range(coefficients)))

    best_value, best, history, evaluations = _best(
        scored for index in range(restarts) for scored in _see_saw(round_, value, start(index))
    )
    return OptimizationResult(
        track=track,
        best_value=best_value,
        bound=TSIRELSON_BOUND,
        iterations=evaluations,
        history=history,
        best_configuration=Configuration.from_vectors(*best[:4]),
        best_coefficients=ResponseCoefficients(1.0, 1.0, *best[4:]) if coefficients else None,
        restarts=restarts,
        seed=seed,
    )


def maximize_classical() -> OptimizationResult:
    """Exact maximum of the CHSH statistic over local models.

    Enumerates all 16 deterministic +/-1 strategies; by convexity no mixture
    can exceed the deterministic maximum, so the enumeration is exhaustive
    over the extreme points of the model polytope.  The maximum is exactly 2.
    """
    strategies = all_deterministic_strategies()
    correlation_sets = [
        classical_correlations(LhvModel.deterministic(*strategy)) for strategy in strategies
    ]
    values = [chsh_classical_value(correlations) for correlations in correlation_sets]
    best_value, best_strategy, history, evaluations = _best(zip(strategies, values))
    maximizing = [cs.as_tuple() for cs, v in zip(correlation_sets, values) if v == best_value]
    return OptimizationResult(
        track="classical",
        best_value=best_value,
        bound=CLASSICAL_BOUND,
        iterations=evaluations,
        history=history,
        best_strategy=best_strategy,
        maximizer_count=len(maximizing),
        distinct_maximizing_correlations=len(set(maximizing)),
        note=(
            "mixtures are convex combinations of deterministic strategies, so the "
            "mixed-model supremum equals the deterministic maximum"
        ),
    )


def maximize_quantum(restarts: int = DEFAULT_RESTARTS, seed: int = 0) -> OptimizationResult:
    """Maximize the quantum CHSH value over measurement configurations.

    Alternating exact best responses from ``restarts`` seeded random starts:
    a, a' along E(e_i, b) +/- E(e_i, b') (singlet correlations on the axes),
    then b, b' likewise for the new a, a'.  A restart stops at the first
    round that does not raise its value.  Recovers 2*sqrt(2) well within 1e-6.
    """
    return _multistart("quantum", _quantum_round, _quantum_value, restarts, seed, 0)


def maximize_ga(restarts: int = DEFAULT_RESTARTS, seed: int = 0) -> OptimizationResult:
    """Maximize the vector-valued CHSH expression.

    Alternating exact best responses over a, a', b, b' and the two b-side
    magnitude coefficients (the a-side ones only scale the two absolute
    terms, so they are held at 1): a, a' along alpha_b b +/- alpha_b' b', then
    b, b' along a +/- a' with alpha_b = alpha_b' = 1.  A restart stops at the
    first round that does not raise its value.  Recovers 2*sqrt(2) with
    |alpha_b| = |alpha_b'| = 1 and b perpendicular to b'.
    """
    return _multistart("ga", _ga_round, _ga_value, restarts, seed, 2)


def sweep_coplanar_family(steps: int) -> Iterator[tuple[float, float]]:
    """Quantum CHSH value along the coplanar family a=0, a'=pi/2, b=theta, b'=-theta.

    Yields (theta, value) pairs on the uniform grid over [0, pi], one at a
    time; the value follows the closed form 2*sqrt(2)*|sin(theta + pi/4)|,
    giving 2 at the endpoints and the 2*sqrt(2) peak at theta = pi/4.
    ``steps`` is checked when the first pair is drawn.
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    a, a_prime = planar_vector(0.0), planar_vector(0.5 * math.pi)
    for i in range(steps):
        theta = math.pi * i / (steps - 1)
        b, b_prime = planar_vector(theta), planar_vector(-theta)
        yield theta, _chsh_value_from_vectors(a, a_prime, b, b_prime)
