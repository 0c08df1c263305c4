"""Local hidden-variable models and the classical CHSH bound.

A model is a finite mixture of hidden states; each state carries a weight
and four bounded response values (E(a), E(a'), E(b), E(b')) in [-1, 1].
Locality enters as factorization: the pair correlation conditioned on a
state is the product of the two single-side responses.  Every such model
obeys |c(a,b) + c(a,b') + c(a',b) - c(a',b')| <= 2, tight on deterministic
+/-1 strategies.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from . import _kernels, rng
from .geometry import require_bounded

__all__ = [
    "CLASSICAL_BOUND",
    "HiddenState",
    "LhvModel",
    "CorrelationSet",
    "all_deterministic_strategies",
    "classical_correlations",
    "chsh_classical_value",
    "per_state_chsh_value",
    "scalar_pair_bound_holds",
    "MonteCarloEstimate",
    "monte_carlo_correlations",
    "random_model",
]

CLASSICAL_BOUND = 2.0

WEIGHT_SUM_TOLERANCE = 1e-12

# Fixed Monte Carlo block size: estimates are merged block-by-block in index
# order, so any partitioning of whole blocks across workers reproduces the
# single-worker result bit for bit.
MC_BLOCK = 4096


@dataclass(frozen=True)
class HiddenState:
    """One hidden state: a weight and the four response values (a, a', b, b').

    Responses within 1e-12 of [-1, 1] are accepted and stored as floats
    clamped to [-1, 1], so every product of two responses, and every
    weighted average of such products, lies in [-1, 1] as well.
    """

    weight: float
    responses: tuple[float, float, float, float]

    def __post_init__(self):
        weight = float(self.weight)
        if not 0.0 <= weight < math.inf:
            raise ValueError(f"state weight must be >= 0, got {self.weight!r}")
        object.__setattr__(self, "weight", weight)
        if len(self.responses) != 4:
            raise ValueError("each hidden state needs exactly 4 responses")
        clamped = tuple(
            min(1.0, max(-1.0, require_bounded(r, "response"))) for r in self.responses
        )
        object.__setattr__(self, "responses", clamped)


@dataclass(frozen=True)
class LhvModel:
    """Finite weighted mixture of hidden states; weights sum to 1.

    ``states`` is stored as a tuple whatever sequence is passed, so that a
    model is hashable and equal to its tuple form.  Each entry must be a
    :class:`HiddenState`, which has validated itself.
    """

    states: tuple[HiddenState, ...]

    def __post_init__(self):
        if not self.states:
            raise ValueError("model needs at least one hidden state")
        if type(self.states) is not tuple:
            object.__setattr__(self, "states", tuple(self.states))
        for state in self.states:
            if not isinstance(state, HiddenState):
                raise TypeError(f"model states must be HiddenState, not {type(state).__name__}")
        total = sum(s.weight for s in self.states)
        if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
            raise ValueError(f"state weights must sum to 1, got {total!r}")

    @classmethod
    def from_pairs(
        cls, pairs: Sequence[tuple[float, Sequence[float]]]
    ) -> "LhvModel":
        return cls(tuple(HiddenState(w, tuple(rs)) for w, rs in pairs))

    @classmethod
    def deterministic(cls, ra: float, ra_prime: float, rb: float, rb_prime: float) -> "LhvModel":
        """Single-state model with +/-1 responses."""
        responses = (float(ra), float(ra_prime), float(rb), float(rb_prime))
        if any(r not in (-1.0, 1.0) for r in responses):
            raise ValueError(f"deterministic responses must be +/-1, got {responses!r}")
        return cls((HiddenState(1.0, responses),))


@dataclass(frozen=True)
class CorrelationSet:
    """The four pair correlations c(a,b), c(a,b'), c(a',b), c(a',b')."""

    c_ab: float
    c_ab_prime: float
    c_aprime_b: float
    c_aprime_bprime: float

    def __post_init__(self):
        for label in ("c_ab", "c_ab_prime", "c_aprime_b", "c_aprime_bprime"):
            object.__setattr__(self, label, require_bounded(getattr(self, label), label))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.c_ab, self.c_ab_prime, self.c_aprime_b, self.c_aprime_bprime)


def all_deterministic_strategies() -> tuple[tuple[float, float, float, float], ...]:
    """All 16 deterministic +/-1 response assignments (a, a', b, b')."""
    return tuple(itertools.product((-1.0, 1.0), repeat=4))


def classical_correlations(model: LhvModel) -> CorrelationSet:
    """Exact model correlations: weight-averaged products of single-side responses."""
    c1 = c2 = c3 = c4 = 0.0
    for state in model.states:
        w = state.weight
        ra, rap, rb, rbp = state.responses
        c1 += w * (ra * rb)
        c2 += w * (ra * rbp)
        c3 += w * (rap * rb)
        c4 += w * (rap * rbp)
    return CorrelationSet(c1, c2, c3, c4)


def chsh_classical_value(correlations: CorrelationSet) -> float:
    """|c(a,b) + c(a,b') + c(a',b) - c(a',b')|, the CHSH statistic."""
    return abs(
        correlations.c_ab
        + correlations.c_ab_prime
        + correlations.c_aprime_b
        - correlations.c_aprime_bprime
    )


def per_state_chsh_value(responses: Sequence[float]) -> float:
    """CHSH statistic |E_a E_b + E_a E_b'| + |E_a' E_b - E_a' E_b'| of one hidden state.

    Factorization plus |x + y| + |x - y| <= 2 on [-1, 1] caps this at 2 for
    every admissible response tuple.
    """
    if len(responses) != 4:
        raise ValueError("expected 4 responses (a, a', b, b')")
    ra, rap, rb, rbp = (require_bounded(r, "response") for r in responses)
    return abs(ra * rb + ra * rbp) + abs(rap * rb - rap * rbp)


def scalar_pair_bound_holds(x: float, y: float) -> bool:
    """Whether |x + y| + |x - y| <= 2 for x, y in [-1, 1] (always true).

    This one-line fact is the entire algebraic content of the classical
    bound; inputs outside [-1, 1] are rejected.
    """
    vx = require_bounded(x, "x")
    vy = require_bounded(y, "y")
    return abs(vx + vy) + abs(vx - vy) <= 2.0 + 1e-12


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sampled correlations with their standard errors."""

    correlations: CorrelationSet
    std_errors: tuple[float, float, float, float]
    samples: int
    seed: int


def monte_carlo_correlations(model: LhvModel, samples: int, seed: int) -> MonteCarloEstimate:
    """Unbiased sampled estimate of :func:`classical_correlations`.

    One uniform draw per sample selects a hidden state by inverse CDF; the
    per-state response products are then deterministic, so the estimator's
    only randomness is the state choice.  Draws come from the counter-based
    stream of ``seed`` and are consumed in fixed blocks merged in index
    order, making the result independent of how the index range might be
    partitioned across workers.  Standard errors use the unbiased sample
    variance (reported as 0 when samples < 2).
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if samples >= 2**63:
        # Draw indices are 64-bit signed integers in both kernels.
        raise ValueError(f"samples must be < 2**63, got a {samples.bit_length()}-bit integer")
    cum_weights = []
    acc = 0.0
    for state in model.states:
        acc += state.weight
        cum_weights.append(acc)
    products = []
    for state in model.states:
        ra, rap, rb, rbp = state.responses
        products.extend((ra * rb, ra * rbp, rap * rb, rap * rbp))

    totals = [0.0] * 8
    for start in range(0, samples, MC_BLOCK):
        stop = min(start + MC_BLOCK, samples)
        block = _kernels.lhv_mc_sums(cum_weights, products, seed, start, stop)
        for i in range(8):
            totals[i] += block[i]

    n = float(samples)
    means = [totals[i] / n for i in range(4)]
    if samples < 2:
        errors = (0.0, 0.0, 0.0, 0.0)
    else:
        errors = tuple(
            math.sqrt(max(0.0, (totals[4 + i] - n * means[i] * means[i]) / (n - 1.0)) / n)
            for i in range(4)
        )
    return MonteCarloEstimate(
        correlations=CorrelationSet(*means),
        std_errors=errors,
        samples=samples,
        seed=seed,
    )


def random_model(seed: int, index: int) -> LhvModel:
    """The ``index``-th random mixed model of stream ``seed``.

    Uses an independent sub-stream per model: 1 to 4 hidden states,
    positive weights normalized to 1, responses uniform in [-1, 1).
    """
    stream = rng.CounterStream(rng.derive_seed(seed, index))
    n_states = 1 + stream.below(4)
    raw_weights = [0.05 + stream.u01() for _ in range(n_states)]
    total = sum(raw_weights)
    states = []
    for i in range(n_states):
        responses = tuple(2.0 * stream.u01() - 1.0 for _ in range(4))
        states.append(HiddenState(raw_weights[i] / total, responses))
    return LhvModel(tuple(states))
