"""Geometric algebra over R^3.

Multivectors carry 8 real coefficients over the basis

    1, e1, e2, e3, e12, e13, e23, e123

(scalar | vector | bivector | pseudoscalar).  Basis blades are indexed by
bitmasks (bit i set means the generator e_{i+1} is a factor).
``geometric_product`` spells out the 64 products of coefficients with their
exact signs, which follow from e_i e_j + e_j e_i = 2 delta_ij;
``tests/test_ga.py`` derives the same signs from the blade bitmasks and checks
the product against them and against a matrix model.  It is plain Python, not
a kernel: no CLI command multiplies multivectors.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

from ._value import Value

BLADE_ORDER: tuple[int, ...] = (0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111)
BLADE_NAMES: tuple[str, ...] = ("1", "e1", "e2", "e3", "e12", "e13", "e23", "e123")
BLADE_GRADES: tuple[int, ...] = tuple(bin(mask).count("1") for mask in BLADE_ORDER)


class Multivector(Value):
    """Element of the geometric algebra of R^3.

    ``coefficients`` follows the canonical blade order
    (1, e1, e2, e3, e12, e13, e23, e123); all entries must be finite.  It is
    stored as a tuple of floats whatever sequence of numbers is passed, so
    that equality and hashing compare like with like.
    """

    _fields = ("coefficients",)

    def __init__(self, coefficients: Sequence[float]) -> None:
        if len(coefficients) != 8:
            raise ValueError(f"multivector needs exactly 8 coefficients, got {len(coefficients)}")
        # math.isfinite refuses text, which float() would parse.
        if not all(map(math.isfinite, coefficients)):
            raise ValueError(f"non-finite multivector coefficients: {coefficients!r}")
        self.__dict__["coefficients"] = tuple(map(float, coefficients))

    @classmethod
    def scalar(cls, value: float) -> "Multivector":
        return cls((value, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))

    @classmethod
    def vector(cls, x: float, y: float, z: float) -> "Multivector":
        return cls((0.0, x, y, z, 0.0, 0.0, 0.0, 0.0))

    @classmethod
    def from_vector(cls, v: Sequence[float]) -> "Multivector":
        return cls.vector(v[0], v[1], v[2])

    @property
    def scalar_part(self) -> float:
        return self.coefficients[0]

    def grade(self, k: int) -> "Multivector":
        """Projection onto grade k; grades 0..3 partition the coefficients."""
        if k not in BLADE_GRADES:
            raise ValueError(f"grade must be one of 0..3, got {k}")
        return Multivector(
            tuple(c if g == k else 0.0 for c, g in zip(self.coefficients, BLADE_GRADES))
        )

    def norm(self) -> float:
        """Euclidean norm over the 8 coefficients, squares summed left to right."""
        total = 0.0
        for c in self.coefficients:
            total += c * c
        return math.sqrt(total)

    def __add__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        return Multivector(tuple(map(operator.add, self.coefficients, other.coefficients)))

    def __sub__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        return Multivector(tuple(map(operator.sub, self.coefficients, other.coefficients)))

    def __neg__(self) -> "Multivector":
        return Multivector(tuple(-x for x in self.coefficients))

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        if isinstance(other, (int, float)):
            return Multivector(tuple(other * c for c in self.coefficients))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(tuple(other * c for c in self.coefficients))
        return NotImplemented

    def __str__(self) -> str:
        terms = [
            f"{c:+g}*{name}" if name != "1" else f"{c:+g}"
            for c, name in zip(self.coefficients, BLADE_NAMES)
            if c != 0.0
        ]
        return " ".join(terms) if terms else "0"


E1 = Multivector.vector(1.0, 0.0, 0.0)
E2 = Multivector.vector(0.0, 1.0, 0.0)
E3 = Multivector.vector(0.0, 0.0, 1.0)


def geometric_product(u: Multivector, v: Multivector) -> Multivector:
    """Geometric (Clifford) product of two multivectors.

    Bilinear and associative; for grade-1 inputs the grade-0 part of the
    result is the dot product and the grade-2 part is the wedge product.

    Each coefficient is the sum, from +0.0 and left to right, of its 8 signed
    terms u_i v_j in the order of (i, j).  A round-to-nearest sum is -0.0
    only when both addends are, so no partial sum is ever -0.0 and adding a
    zero term, of either sign, never changes one.  So the sum has the bits
    of the same sum with the zero terms left out, and of any other that adds
    the nonzero terms in the same order, such as a loop over the nonzero
    coefficients alone.
    """
    u0, u1, u2, u3, u4, u5, u6, u7 = u.coefficients
    v0, v1, v2, v3, v4, v5, v6, v7 = v.coefficients
    return Multivector((
        0.0 + u0 * v0 + u1 * v1 + u2 * v2 + u3 * v3 - u4 * v4 - u5 * v5 - u6 * v6 - u7 * v7,
        0.0 + u0 * v1 + u1 * v0 - u2 * v4 - u3 * v5 + u4 * v2 + u5 * v3 - u6 * v7 - u7 * v6,
        0.0 + u0 * v2 + u1 * v4 + u2 * v0 - u3 * v6 - u4 * v1 + u5 * v7 + u6 * v3 + u7 * v5,
        0.0 + u0 * v3 + u1 * v5 + u2 * v6 + u3 * v0 - u4 * v7 - u5 * v1 - u6 * v2 - u7 * v4,
        0.0 + u0 * v4 + u1 * v2 - u2 * v1 + u3 * v7 + u4 * v0 - u5 * v6 + u6 * v5 + u7 * v3,
        0.0 + u0 * v5 + u1 * v3 - u2 * v7 - u3 * v1 + u4 * v6 + u5 * v0 - u6 * v4 - u7 * v2,
        0.0 + u0 * v6 + u1 * v7 + u2 * v3 - u3 * v2 - u4 * v5 + u5 * v4 + u6 * v0 + u7 * v1,
        0.0 + u0 * v7 + u1 * v6 - u2 * v5 + u3 * v4 + u4 * v3 - u5 * v2 + u6 * v1 + u7 * v0,
    ))


def commutator(u: Multivector, v: Multivector) -> Multivector:
    """Commutator uv - vu.

    For unit grade-1 inputs this is twice their wedge bivector: it vanishes
    exactly when the vectors are parallel or antiparallel and is nonzero for
    any other pair, which is the algebraic incompatibility witness used by
    the vector-valued track.
    """
    return geometric_product(u, v) - geometric_product(v, u)
