"""Geometric algebra over R^3.

Multivectors carry 8 real coefficients over the basis

    1, e1, e2, e3, e12, e13, e23, e123

(scalar | vector | bivector | pseudoscalar).  Basis blades are indexed by
bitmasks (bit i set means the generator e_{i+1} is a factor).  The product of
two blades is computed once, from the parity of the transpositions that sort
the concatenated generators and with e_i e_i = +1; the resulting
sign-and-index tables, which encode e_i e_j + e_j e_i = 2 delta_ij with exact
integer signs, drive ``geometric_product``.  It is plain Python, not a
kernel: no CLI command multiplies multivectors.
"""

from __future__ import annotations

import math
from typing import Sequence

from ._value import Value

__all__ = [
    "Multivector",
    "E1",
    "E2",
    "E3",
    "geometric_product",
    "commutator",
]

BLADE_ORDER: tuple[int, ...] = (0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111)
BLADE_NAMES: tuple[str, ...] = ("1", "e1", "e2", "e3", "e12", "e13", "e23", "e123")
BLADE_GRADES: tuple[int, ...] = tuple(bin(mask).count("1") for mask in BLADE_ORDER)
_INDEX_OF_MASK = {mask: i for i, mask in enumerate(BLADE_ORDER)}


def blade_product(mask_left: int, mask_right: int) -> tuple[int, int]:
    """Multiply two basis blades; return (sign, result mask).

    The sign counts the transpositions that sort the concatenated generators,
    one for each pair of a left generator above a right one; e_i e_i = +1
    then cancels the shared ones (Dorst, Fontijne & Mann 2007, section 19.1).
    """
    swaps = 0
    shifted = mask_left >> 1
    while shifted:
        swaps += bin(shifted & mask_right).count("1")
        shifted >>= 1
    return -1 if swaps % 2 else 1, mask_left ^ mask_right


# Flattened 8x8 tables, row-major in the canonical blade order:
# coefficient u_i * v_j contributes PRODUCT_SIGNS[8*i+j] * u_i * v_j to the
# coefficient at PRODUCT_TARGETS[8*i+j].
_PRODUCTS = [blade_product(left, right) for left in BLADE_ORDER for right in BLADE_ORDER]
PRODUCT_SIGNS = tuple(sign for sign, _ in _PRODUCTS)
PRODUCT_TARGETS = tuple(_INDEX_OF_MASK[mask] for _, mask in _PRODUCTS)


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
        if not all(math.isfinite(c) for c in coefficients):
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

    def max_abs_difference(self, other: "Multivector") -> float:
        return max(abs(x - y) for x, y in zip(self.coefficients, other.coefficients))

    def approx_equal(self, other: "Multivector") -> bool:
        """Whether every coefficient agrees to within 1e-12."""
        return self.max_abs_difference(other) <= 1e-12

    def __add__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        return Multivector(
            tuple(x + y for x, y in zip(self.coefficients, other.coefficients))
        )

    def __sub__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        return Multivector(
            tuple(x - y for x, y in zip(self.coefficients, other.coefficients))
        )

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

    Terms with a zero coefficient are skipped, with the same bits as the
    full 64-term sum: every accumulator starts at +0.0, and a
    round-to-nearest sum is -0.0 only when both addends are, so no
    accumulator is ever -0.0 and adding a zero (of either sign) never
    changes one.  A skipped term is a zero times a finite coefficient.
    """
    out = [0.0] * 8
    signs = PRODUCT_SIGNS
    targets = PRODUCT_TARGETS
    v_terms = [(j, vj) for j, vj in enumerate(v.coefficients) if vj]
    for i, ui in enumerate(u.coefficients):
        if ui:
            for j, vj in v_terms:
                k = 8 * i + j
                out[targets[k]] += signs[k] * ui * vj
    return Multivector(tuple(out))


def commutator(u: Multivector, v: Multivector) -> Multivector:
    """Commutator uv - vu.

    For unit grade-1 inputs this is twice their wedge bivector: it vanishes
    exactly when the vectors are parallel or antiparallel and is nonzero for
    any other pair, which is the algebraic incompatibility witness used by
    the vector-valued track.
    """
    return geometric_product(u, v) - geometric_product(v, u)
