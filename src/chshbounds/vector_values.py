"""Vector-valued response functions and their CHSH-type bound chain.

Measurement responses are modeled as scaled unit vectors alpha*x with
|alpha| <= 1, and the pair response of two sides is the factorized scalar
alpha*beta*(x.y).  The CHSH-type combination of these pair values is capped
not by 2 but by

    |alpha_b * b + alpha_b' * b'| + |alpha_b * b - alpha_b' * b'|
        <= |b + b'| + |b - b'|  <=  2*sqrt(2),

with the middle step split into sign cases of alpha*beta and the last step
an instance of the parallelogram law.  The chain reproduces the quantum
2*sqrt(2) ceiling from purely vector-algebraic assumptions: the minimum 2 of
the coefficient-free expression occurs exactly at b = +/-b', and the maximum
2*sqrt(2) exactly at b perpendicular to b'.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from ._value import Value
from .geometry import (
    Configuration,
    Vec3,
    add,
    angle_between,
    dot,
    magnitude,
    require_bounded,
    require_unit,
    scale,
    sub,
)

__all__ = [
    "ResponseCoefficients",
    "response_vector",
    "pair_value",
    "chsh_vector_value",
    "vector_bound_expression",
    "case_inequality_holds",
    "EqualityCondition",
    "equality_condition_check",
]

class ResponseCoefficients(Value):
    """Magnitude coefficients of the four vector-valued responses, each in [-1, 1]."""

    _fields = ("alpha_a", "alpha_a_prime", "alpha_b", "alpha_b_prime")

    def __init__(
        self, alpha_a: float, alpha_a_prime: float, alpha_b: float, alpha_b_prime: float
    ) -> None:
        d = self.__dict__
        d["alpha_a"] = require_bounded(alpha_a, "alpha_a")
        d["alpha_a_prime"] = require_bounded(alpha_a_prime, "alpha_a_prime")
        d["alpha_b"] = require_bounded(alpha_b, "alpha_b")
        d["alpha_b_prime"] = require_bounded(alpha_b_prime, "alpha_b_prime")

    @classmethod
    def ones(cls) -> "ResponseCoefficients":
        return cls(1.0, 1.0, 1.0, 1.0)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.alpha_a, self.alpha_a_prime, self.alpha_b, self.alpha_b_prime)


def response_vector(direction: Sequence[float], alpha: float) -> Vec3:
    """Single-side vector response alpha*direction for a unit direction (within
    1e-12); magnitude |alpha| <= 1."""
    unit = require_unit(direction, label="direction")
    return scale(unit, require_bounded(alpha, "alpha"))


def pair_value(
    x: Sequence[float], y: Sequence[float], alpha: float, beta: float
) -> float:
    """Factorized scalar pair response alpha*beta*(x.y) for unit x, y (within 1e-12).

    At alpha = 1, beta = -1 this equals -x.y, the singlet correlation, which
    is the correspondence making the vector-valued chain quantum-relevant.
    """
    ux, uy = require_unit(x, label="x"), require_unit(y, label="y")
    return require_bounded(alpha, "alpha") * require_bounded(beta, "beta") * dot(ux, uy)


def _chsh_vector(
    a: Vec3, a_prime: Vec3, b: Vec3, b_prime: Vec3,
    aa: float, aap: float, ab: float, abp: float,
) -> float:
    """:func:`chsh_vector_value` on plain vectors and coefficients (alpha_a,
    alpha_a', alpha_b, alpha_b'), without the input checks."""
    return abs(aa * ab * dot(a, b) + aa * abp * dot(a, b_prime)) + abs(
        aap * ab * dot(a_prime, b) - aap * abp * dot(a_prime, b_prime)
    )


def chsh_vector_value(cfg: Configuration, co: ResponseCoefficients) -> float:
    """CHSH-type combination of factorized pair values.

    |P(a,b) + P(a,b')| + |P(a',b) - P(a',b')| with P the scalar pair
    response; bounded by 2*sqrt(2) for every configuration and coefficient
    choice, attained at the canonical configuration with unit coefficients.
    """
    return _chsh_vector(*cfg.vectors(), *co.as_tuple())


def vector_bound_expression(
    b: Sequence[float], b_prime: Sequence[float], alpha: float, beta: float
) -> float:
    """|alpha*b + beta*b'| + |alpha*b - beta*b'| for unit b, b' (within 1e-12).

    Upper-bounds :func:`chsh_vector_value` for matching b-side coefficients
    (the a-side is absorbed by |coefficient| <= 1 and Cauchy-Schwarz), and is
    itself at most 2*sqrt(2).
    """
    ub, ubp = require_unit(b, label="b"), require_unit(b_prime, label="b_prime")
    return _bound_expression(
        ub, ubp, require_bounded(alpha, "alpha"), require_bounded(beta, "beta")
    )


def _bound_expression(
    b: Sequence[float], b_prime: Sequence[float], alpha: float, beta: float
) -> float:
    """:func:`vector_bound_expression` without the input checks."""
    left = scale(b, alpha)
    right = scale(b_prime, beta)
    return magnitude(add(left, right)) + magnitude(sub(left, right))


def case_inequality_holds(
    b: Sequence[float],
    b_prime: Sequence[float],
    alpha: float,
    beta: float,
) -> bool:
    """Check the sign-case step of the bound chain (must always hold).

    For alpha*beta != 0 the coefficiented expression is compared against the
    coefficient-free |b + b'| + |b - b'|; the two nonzero sign cases differ
    only in which coefficient-free term dominates which coefficiented term
    (direct pairing for alpha*beta > 0, swapped pairing for alpha*beta < 0),
    so the comparison of the sums is the same.  For alpha*beta = 0 the
    expression collapses to 2*max(|alpha|, |beta|) and is checked against 2
    directly.  Both comparisons allow 1e-12 for rounding.  b and b' must be
    unit within 1e-12, which the alpha*beta = 0 case relies on.
    """
    ub, ubp = require_unit(b, label="b"), require_unit(b_prime, label="b_prime")
    a = require_bounded(alpha, "alpha")
    bb = require_bounded(beta, "beta")
    lhs = _bound_expression(ub, ubp, a, bb)
    if a * bb == 0.0:
        return lhs <= 2.0 * max(abs(a), abs(bb)) + 1e-12
    rhs = _bound_expression(ub, ubp, 1.0, 1.0)
    return lhs <= rhs + 1e-12


class EqualityCondition(NamedTuple):
    """Result of the equality-case probe for the coefficient-free expression."""

    value: float
    is_two: bool
    is_parallel: bool


def equality_condition_check(
    b: Sequence[float], b_prime: Sequence[float]
) -> EqualityCondition:
    """Probe |b + b'| + |b - b'| = 2 against b = +/-b'.

    ``is_two`` flags a value within 1e-9 of the minimum 2; ``is_parallel``
    flags an angle within 1e-6 of 0 or pi.  Near the minimum the value grows
    linearly in the angular distance, so is_two implies is_parallel with
    three orders of margin; the flags can only disagree for pairs
    deliberately placed inside the (1e-9, 1e-6) angular gap.
    """
    ub = require_unit(b, label="b")
    ubp = require_unit(b_prime, label="b_prime")
    value = _bound_expression(ub, ubp, 1.0, 1.0)
    is_two = abs(value - 2.0) <= 1e-9
    angle = angle_between(ub, ubp)
    is_parallel = min(angle, math.pi - angle) <= 1e-6
    return EqualityCondition(value=value, is_two=is_two, is_parallel=is_parallel)
