"""Unit vectors in R^3 and measurement-direction configurations.

A configuration is the quadruple of unit directions (a, a', b, b') measured
by the two sides of a correlation experiment.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

from . import rng
from ._value import Value

Vec3 = tuple[float, float, float]

UNIT_TOLERANCE = 1e-12
BOUND_TOLERANCE = 1e-12
# Directions supplied from outside the package (spin operators, singlet
# correlations, config-file vectors) may be off unit by this much.
UNIT_GATE_TOLERANCE = 1e-9


def dot(u: Sequence[float], v: Sequence[float]) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def add(u: Sequence[float], v: Sequence[float]) -> Vec3:
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2])


def sub(u: Sequence[float], v: Sequence[float]) -> Vec3:
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def scale(v: Sequence[float], factor: float) -> Vec3:
    return (factor * v[0], factor * v[1], factor * v[2])


def cross(u: Sequence[float], v: Sequence[float]) -> Vec3:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def magnitude(v: Sequence[float]) -> float:
    """Euclidean length of a 3-vector."""
    return math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def normalized(v: Sequence[float]) -> Vec3:
    """Unit vector along v; rejects the zero vector and non-finite input.

    Only when the squared magnitude overflows, or underflows below the
    smallest normal float, is v first divided by its largest |component|;
    every other input is divided by its plain magnitude.
    """
    x, y, z = v[0], v[1], v[2]
    squared = x * x + y * y + z * z
    if not sys.float_info.min <= squared < math.inf:
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise ValueError(f"cannot normalize a non-finite vector: {tuple(v)!r}")
        largest = max(abs(x), abs(y), abs(z))
        if largest == 0.0:
            raise ValueError("cannot normalize the zero vector")
        x, y, z = x / largest, y / largest, z / largest
        squared = x * x + y * y + z * z
    m = math.sqrt(squared)
    return (x / m, y / m, z / m)


def _as_float(value, label: str) -> float:
    """float(value), refusing the str, bytes and bytearray that float() would parse."""
    if isinstance(value, (str, bytes, bytearray)):
        raise TypeError(f"{label} must be a number, not {type(value).__name__}")
    return float(value)


def require_unit(v: Sequence[float], tol: float = UNIT_TOLERANCE, label: str = "vector") -> Vec3:
    """Float triple of a length-3 v whose length is within tol of 1; NaN and inf fail too."""
    if len(v) != 3:
        raise ValueError(f"{label} must have exactly 3 components, got {len(v)}")
    x, y, z = v[0], v[1], v[2]
    if not (type(x) is float and type(y) is float and type(z) is float):
        part = f"{label} component"
        x, y, z = _as_float(x, part), _as_float(y, part), _as_float(z, part)
    deviation = abs(math.sqrt(x * x + y * y + z * z) - 1.0)
    if not deviation <= tol:
        raise ValueError(
            f"{label} must be a unit vector: |norm - 1| = {deviation:.3e} exceeds {tol:.1e}"
        )
    return (x, y, z)


def require_bounded(value: float, label: str) -> float:
    """Coerce to float, rejecting text and |value| > 1 + 1e-12 (NaN and +/-inf included)."""
    v = value if type(value) is float else _as_float(value, label)
    if not abs(v) <= 1.0 + BOUND_TOLERANCE:
        raise ValueError(f"{label} must lie in [-1, 1], got {value!r}")
    return v


def angle_between(u: Sequence[float], v: Sequence[float]) -> float:
    """Angle in [0, pi] between two unit vectors (dot product clamped before acos)."""
    d = dot(u, v)
    if d > 1.0:
        d = 1.0
    elif d < -1.0:
        d = -1.0
    return math.acos(d)


def planar_vector(angle_rad: float) -> Vec3:
    """Unit vector at the given angle in the e1-e2 plane."""
    return (math.cos(angle_rad), math.sin(angle_rad), 0.0)


class Configuration(Value):
    """Measurement directions a, a', b, b', each a unit vector to within 1e-12.

    The vectors are the only stored state.  Construction, directly or via
    :meth:`from_vectors` or :meth:`coplanar`, coerces each one to a float
    triple and rejects input of the wrong length, non-finite input and
    non-unit input.
    """

    _fields = ("a", "a_prime", "b", "b_prime")

    def __init__(
        self, a: Sequence[float], a_prime: Sequence[float], b: Sequence[float],
        b_prime: Sequence[float],
    ) -> None:
        d = self.__dict__
        d["a"] = require_unit(a, UNIT_TOLERANCE, "a")
        d["a_prime"] = require_unit(a_prime, UNIT_TOLERANCE, "a_prime")
        d["b"] = require_unit(b, UNIT_TOLERANCE, "b")
        d["b_prime"] = require_unit(b_prime, UNIT_TOLERANCE, "b_prime")

    @classmethod
    def from_vectors(
        cls,
        a: Sequence[float],
        a_prime: Sequence[float],
        b: Sequence[float],
        b_prime: Sequence[float],
    ) -> "Configuration":
        """Same as ``Configuration(a, a_prime, b, b_prime)``.

        It stays beside the constructor because ``perfbench/certify.py``
        builds its configurations through it, and the traced benchmark run
        counts its ``geometry.configuration`` layer by wrapping it.
        """
        return cls(a, a_prime, b, b_prime)

    @classmethod
    def coplanar(
        cls, phi_a: float, phi_aprime: float, phi_b: float, phi_bprime: float
    ) -> "Configuration":
        """Configuration with all four vectors in the e1-e2 plane, angles in radians."""
        return cls.from_vectors(
            planar_vector(phi_a),
            planar_vector(phi_aprime),
            planar_vector(phi_b),
            planar_vector(phi_bprime),
        )

    def vectors(self) -> tuple[Vec3, Vec3, Vec3, Vec3]:
        return (self.a, self.a_prime, self.b, self.b_prime)


def canonical_configuration() -> Configuration:
    """The maximizing configuration: a = e1, a' = e2, b and b' diagonal in-plane.

    b = -(e1 + e2)/sqrt(2) and b' = (-e1 + e2)/sqrt(2), so that the angles
    satisfy ang(a, a') = ang(b, b') = pi/2 and ang(a', b') = pi/4, b + b' =
    -sqrt(2) e1, and b - b' = -sqrt(2) e2.  Both the quantum and the
    vector-valued CHSH expressions attain 2*sqrt(2) here.
    """
    h = math.sqrt(0.5)
    return Configuration.from_vectors(
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (-h, -h, 0.0),
        (-h, h, 0.0),
    )


def random_configuration(seed: int, index: int) -> Configuration:
    """The ``index``-th random measurement configuration of stream ``seed``.

    Each configuration draws its four directions from an independent
    sub-stream, so configurations can be generated in any order.
    """
    sub = rng.derive_seed(seed, index)
    return Configuration.from_vectors(
        rng.unit_vector_draw(sub, 0),
        rng.unit_vector_draw(sub, 1),
        rng.unit_vector_draw(sub, 2),
        rng.unit_vector_draw(sub, 3),
    )
