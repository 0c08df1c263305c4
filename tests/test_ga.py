"""Geometric-algebra core, checked against an independent matrix model.

Oracle: the algebra embeds in 2x2 complex matrices by sending the three
orthonormal grade-1 generators to the Pauli matrices.  The geometric product
then corresponds to the ordinary matrix product, which gives a full
independent check of the multiplication table.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chshbounds import ga
from chshbounds.ga import E1, E2, E3, Multivector, commutator, geometric_product

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_ID = np.eye(2, dtype=complex)

# matrix image of each basis blade, in table order:
# 1, e1, e2, e3, e12, e13, e23, e123
_BLADE_MATS = (
    _ID,
    _SX,
    _SY,
    _SZ,
    _SX @ _SY,
    _SX @ _SZ,
    _SY @ _SZ,
    _SX @ _SY @ _SZ,
)


def _to_matrix(m: Multivector) -> np.ndarray:
    out = np.zeros((2, 2), dtype=complex)
    for coefficient, blade in zip(m.coefficients, _BLADE_MATS):
        out += coefficient * blade
    return out


def _from_matrix(mat: np.ndarray) -> Multivector:
    # The blade images are orthogonal under <A, B> = tr(A^H B)/2.
    coefficients = tuple(
        float(np.real_if_close(np.trace(blade.conj().T @ mat) / 2.0).real)
        for blade in _BLADE_MATS
    )
    return Multivector(coefficients)


coefficient = st.floats(min_value=-5, max_value=5, allow_nan=False)
multivectors = st.tuples(*([coefficient] * 8)).map(Multivector)
vectors3 = st.tuples(coefficient, coefficient, coefficient).map(Multivector.from_vector)


def test_matrix_model_is_faithful():
    # sanity of the oracle itself: round trip through the matrix picture
    m = Multivector((0.5, 1.0, -2.0, 3.0, 0.25, -0.125, 7.0, -1.5))
    back = _from_matrix(_to_matrix(m))
    assert m.max_abs_difference(back) < 1e-12


@given(multivectors, multivectors)
def test_product_matches_matrix_model(u, v):
    got = _to_matrix(geometric_product(u, v))
    expected = _to_matrix(u) @ _to_matrix(v)
    assert np.max(np.abs(got - expected)) < 1e-9


def test_table_against_hand_cases():
    assert geometric_product(E1, E2).coefficients[4] == 1.0  # e1 e2 = e12
    assert geometric_product(E2, E1).coefficients[4] == -1.0
    e12 = geometric_product(E1, E2)
    assert geometric_product(e12, e12).scalar_part == -1.0  # (e12)^2 = -1
    e123 = geometric_product(e12, E3)
    assert e123.coefficients[7] == 1.0
    assert geometric_product(e123, e123).scalar_part == -1.0
    for e in (E1, E2, E3):
        assert geometric_product(e, e).approx_equal(Multivector.scalar(1.0))


def test_blade_product_function():
    sign, mask = ga.blade_product(0b001, 0b010)  # e1 * e2
    assert (sign, mask) == (1, 0b011)
    sign, mask = ga.blade_product(0b010, 0b001)  # e2 * e1
    assert (sign, mask) == (-1, 0b011)
    sign, mask = ga.blade_product(0b011, 0b011)  # e12 * e12
    assert (sign, mask) == (-1, 0b000)
    assert len(ga.PRODUCT_SIGNS) == 64
    assert len(ga.PRODUCT_TARGETS) == 64


@given(multivectors, multivectors, multivectors)
def test_associativity(u, v, w):
    left = geometric_product(geometric_product(u, v), w)
    right = geometric_product(u, geometric_product(v, w))
    scale = max(1.0, left.norm(), right.norm())
    assert left.max_abs_difference(right) / scale < 1e-12


@given(multivectors, multivectors, multivectors)
def test_distributivity(u, v, w):
    left = geometric_product(u, v + w)
    right = geometric_product(u, v) + geometric_product(u, w)
    scale = max(1.0, left.norm(), right.norm())
    assert left.max_abs_difference(right) / scale < 1e-12


@given(vectors3, vectors3)
def test_vector_product_decomposes_into_dot_plus_wedge(u, v):
    p = geometric_product(u, v)
    ucoef, vcoef = u.coefficients[1:4], v.coefficients[1:4]
    expected_scalar = sum(x * y for x, y in zip(ucoef, vcoef))
    assert abs(p.scalar_part - expected_scalar) < 1e-10
    # grade-2 part is antisymmetric: swapping arguments flips it
    q = geometric_product(v, u)
    for i in range(4, 7):
        assert abs(p.coefficients[i] + q.coefficients[i]) < 1e-10
    # vectors times themselves are pure scalars
    assert all(abs(c) < 1e-10 for c in geometric_product(u, u).coefficients[1:])


@given(vectors3, vectors3)
def test_commutator_is_twice_the_wedge(u, v):
    c = commutator(u, v)
    p = geometric_product(u, v)
    assert abs(c.scalar_part) < 1e-10
    for i in range(4, 7):
        assert abs(c.coefficients[i] - 2.0 * p.coefficients[i]) < 1e-10


def test_commutator_unit_vector_norm_is_twice_sine():
    # for unit vectors, |[u, v]| = 2 sin(angle)
    from chshbounds.geometry import random_unit_vector, angle_between

    for i in range(300):
        u = random_unit_vector(21, 2 * i)
        v = random_unit_vector(21, 2 * i + 1)
        c = commutator(Multivector.from_vector(u), Multivector.from_vector(v))
        expected = 2.0 * math.sin(angle_between(u, v))
        assert abs(c.norm() - expected) < 1e-12


def test_commutator_vanishes_exactly_at_parallel():
    from chshbounds.geometry import random_unit_vector

    for i in range(50):
        u = Multivector.from_vector(random_unit_vector(33, i))
        assert commutator(u, u).norm() == 0.0
        assert commutator(u, -u).norm() == 0.0


def test_canonical_pair_commutators():
    assert commutator(E1, E2).approx_equal(
        Multivector((0, 0, 0, 0, 2.0, 0, 0, 0))
    )
    h = math.sqrt(0.5)
    b = Multivector.from_vector((-h, -h, 0.0))
    bp = Multivector.from_vector((-h, h, 0.0))
    c = commutator(b, bp)
    assert abs(c.coefficients[4] - (-2.0)) < 1e-15
    assert abs(c.norm() - 2.0) < 1e-15


def test_multivector_validation_and_parts():
    with pytest.raises(ValueError):
        Multivector((1.0,) * 7)
    with pytest.raises(ValueError):
        Multivector((math.nan,) + (0.0,) * 7)
    m = Multivector((1, 2, 3, 4, 5, 6, 7, 8))
    assert m.grade(0).coefficients == (1, 0, 0, 0, 0, 0, 0, 0)
    assert m.grade(1).coefficients == (0, 2, 3, 4, 0, 0, 0, 0)
    assert m.grade(2).coefficients == (0, 0, 0, 0, 5, 6, 7, 0)
    assert m.grade(3).coefficients == (0, 0, 0, 0, 0, 0, 0, 8)
    with pytest.raises(ValueError):
        m.grade(4)
    assert m.scalar_part == 1.0
    assert abs(m.norm() - math.sqrt(sum(x * x for x in range(1, 9)))) < 1e-15


def test_multivector_operators():
    u = Multivector.from_vector((1.0, 2.0, 3.0))
    v = Multivector.from_vector((0.0, 1.0, 0.0))
    assert (u * v).coefficients == geometric_product(u, v).coefficients
    assert (2.0 * u).coefficients[1] == 2.0
    assert (u * 2.0).coefficients[3] == 6.0
    assert (u - u).norm() == 0.0
    assert (-u + u).norm() == 0.0
    assert "e12" in str(geometric_product(u, v))


def test_multivector_str_is_pinned():
    # Zero coefficients (-0.0 included) are left out; all-zero prints "0".
    assert str(Multivector((0.0,) * 8)) == "0"
    assert str(Multivector((-0.0,) * 8)) == "0"
    assert str(E1 * E1) == "+1"
    assert str(geometric_product(E1, E2)) == "+1*e12"
    mixed = Multivector((1.0, 0.0, -2.5, 0.0, 0.5, 0.0, 0.0, 1e-7))
    assert str(mixed) == "+1 -2.5*e2 +0.5*e12 +1e-07*e123"
