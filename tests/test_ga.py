"""Geometric-algebra core, checked against an independent matrix model.

Oracle: the algebra embeds in 2x2 complex matrices by sending the three
orthonormal grade-1 generators to the Pauli matrices.  The geometric product
then corresponds to the ordinary matrix product, which gives a full
independent check of the multiplication table.
"""

import math
import random

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
_INDEX_OF_MASK = {mask: i for i, mask in enumerate(ga.BLADE_ORDER)}
_PRODUCTS = [blade_product(left, right) for left in ga.BLADE_ORDER for right in ga.BLADE_ORDER]
PRODUCT_SIGNS = tuple(sign for sign, _ in _PRODUCTS)
PRODUCT_TARGETS = tuple(_INDEX_OF_MASK[mask] for _, mask in _PRODUCTS)


def test_blade_product_function():
    sign, mask = blade_product(0b001, 0b010)  # e1 * e2
    assert (sign, mask) == (1, 0b011)
    sign, mask = blade_product(0b010, 0b001)  # e2 * e1
    assert (sign, mask) == (-1, 0b011)
    sign, mask = blade_product(0b011, 0b011)  # e12 * e12
    assert (sign, mask) == (-1, 0b000)
    assert len(PRODUCT_SIGNS) == 64
    assert len(PRODUCT_TARGETS) == 64


def _product_of_all_64_terms(u: Multivector, v: Multivector) -> Multivector:
    out = [0.0] * 8
    k = 0
    for ui in u.coefficients:
        for vj in v.coefficients:
            out[PRODUCT_TARGETS[k]] += PRODUCT_SIGNS[k] * ui * vj
            k += 1
    return Multivector(tuple(out))


def _product_skipping_zero_terms(u: Multivector, v: Multivector) -> Multivector:
    """The table-driven product, over the nonzero coefficients only."""
    out = [0.0] * 8
    v_terms = [(j, vj) for j, vj in enumerate(v.coefficients) if vj]
    for i, ui in enumerate(u.coefficients):
        if ui:
            for j, vj in v_terms:
                k = 8 * i + j
                out[PRODUCT_TARGETS[k]] += PRODUCT_SIGNS[k] * ui * vj
    return Multivector(tuple(out))


def test_product_skipping_zero_terms_has_the_bits_of_the_64_term_sum():
    # Zeros of either sign, and magnitudes whose products underflow to a
    # zero or cancel exactly, in every coefficient position.  The spelled-out
    # geometric_product, the table's zero-skipping loop and its full 64-term
    # sum give the same bits.
    r = random.Random(29)
    values = (0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.5, 1e-200, -1e-200, 1e150)
    multivectors = [
        Multivector([r.choice(values + (r.uniform(-1, 1),)) for _ in range(8)])
        for _ in range(20_000)
    ]
    multivectors += [
        Multivector.from_vector([r.choice((0.0, -0.0, r.uniform(-1, 1))) for _ in range(3)])
        for _ in range(4000)
    ]
    multivectors += [Multivector([r.uniform(-1, 1) for _ in range(8)]) for _ in range(2000)]
    for u, v in zip(multivectors[0::2], multivectors[1::2]):
        expected = [c.hex() for c in _product_of_all_64_terms(u, v).coefficients]
        assert [c.hex() for c in _product_skipping_zero_terms(u, v).coefficients] == expected
        assert [c.hex() for c in geometric_product(u, v).coefficients] == expected, (u, v)


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


def test_approx_equal_tolerance_is_inclusive():
    zero = Multivector((0.0,) * 8)
    assert Multivector((1e-12,) + (0.0,) * 7).approx_equal(zero)
    assert not Multivector((math.nextafter(1e-12, 1.0),) + (0.0,) * 7).approx_equal(zero)


def test_multivector_str_is_pinned():
    # Zero coefficients (-0.0 included) are left out; all-zero prints "0".
    assert str(Multivector((0.0,) * 8)) == "0"
    assert str(Multivector((-0.0,) * 8)) == "0"
    assert str(E1 * E1) == "+1"
    assert str(geometric_product(E1, E2)) == "+1*e12"
    mixed = Multivector((1.0, 0.0, -2.5, 0.0, 0.5, 0.0, 0.0, 1e-7))
    assert str(mixed) == "+1 -2.5*e2 +0.5*e12 +1e-07*e123"


def test_multivector_stores_a_tuple_of_floats():
    """Coefficients are kept as a tuple of floats whatever sequence of numbers
    is passed, so a list and a tuple give equal, hash-equal multivectors;
    text, which float() would parse, is refused."""
    listed = Multivector([1.0] + [0.0] * 7)
    tupled = Multivector((1.0,) + (0.0,) * 7)
    assert listed == tupled and hash(listed) == hash(tupled)
    ints = Multivector((1, 0, 0, 0, 0, 0, 0, True))
    assert ints == Multivector((1.0,) + (0.0,) * 6 + (1.0,))
    for mv in (listed, ints, Multivector.scalar(2), Multivector.vector(1, 2, 3)):
        assert type(mv.coefficients) is tuple
        assert all(type(c) is float for c in mv.coefficients)
    for text in ("1", b"1", bytearray(b"1")):
        with pytest.raises(TypeError):
            Multivector((text,) + (0.0,) * 7)
        with pytest.raises(TypeError):
            Multivector.scalar(text)
