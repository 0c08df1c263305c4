import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chshbounds import vector_values
from chshbounds.geometry import (
    canonical_configuration,
    dot,
    random_configuration,
    random_unit_vector,
)
from chshbounds.quantum import TSIRELSON_BOUND, singlet_correlation
from chshbounds.rng import CounterStream
from chshbounds.vector_values import (
    ResponseCoefficients,
    case_inequality_holds,
    chsh_vector_value,
    equality_condition_check,
    pair_value,
    response_vector,
    vector_bound_expression,
)

coefficient = st.floats(min_value=-1, max_value=1, allow_nan=False)


def test_canonical_value_and_bound_expression():
    cfg = canonical_configuration()
    assert abs(chsh_vector_value(cfg, ResponseCoefficients.ones()) - TSIRELSON_BOUND) < 1e-12
    assert abs(vector_bound_expression(cfg.b, cfg.b_prime, 1.0, 1.0) - TSIRELSON_BOUND) < 1e-12


def test_response_vector_scales_direction():
    assert response_vector((0.0, 1.0, 0.0), -0.5) == (0.0, -0.5, 0.0)
    with pytest.raises(ValueError):
        response_vector((1.0, 0.0, 0.0), 1.5)


@pytest.mark.parametrize(
    "direction", [(3.0, 0.0, 0.0), (math.nan, 0.0, 0.0), (1.0 + 1e-11, 0.0, 0.0), (1.0, 0.0)]
)
def test_directions_must_be_unit_vectors(direction):
    """A response's magnitude is |alpha| <= 1 only for a unit direction; a
    scaled, NaN or two-component direction is refused, not multiplied."""
    unit = (1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="^direction "):
        response_vector(direction, 1.0)
    with pytest.raises(ValueError, match="^x "):
        pair_value(direction, unit, 1.0, 1.0)
    with pytest.raises(ValueError, match="^y "):
        pair_value(unit, direction, 1.0, 1.0)
    # Within 1e-12 of unit length, the given components are used as they are.
    nearly = (1.0 + 1e-13, 0.0, 0.0)
    assert response_vector(nearly, -1.0) == (-(1.0 + 1e-13), -0.0, -0.0)
    assert pair_value(nearly, nearly, 1.0, 1.0) == (1.0 + 1e-13) ** 2


def test_pair_value_with_unit_minus_unit_is_singlet_correlation():
    for i in range(300):
        x = random_unit_vector(80, 2 * i)
        y = random_unit_vector(80, 2 * i + 1)
        assert abs(pair_value(x, y, 1.0, -1.0) - singlet_correlation(x, y)) < 1e-12


@given(coefficient, coefficient)
def test_pair_value_factorizes(alpha, beta):
    x = (1.0, 0.0, 0.0)
    y = (0.6, 0.8, 0.0)
    assert abs(pair_value(x, y, alpha, beta) - alpha * beta * 0.6) < 1e-15


def test_coefficients_validated():
    with pytest.raises(ValueError):
        ResponseCoefficients(1.2, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ResponseCoefficients(math.nan, 0.0, 0.0, 0.0)
    assert ResponseCoefficients.ones().as_tuple() == (1.0, 1.0, 1.0, 1.0)


def test_coefficients_stored_as_checked_floats():
    co = ResponseCoefficients(True, 1, -1, 0)
    assert co.as_tuple() == (1.0, 1.0, -1.0, 0.0)
    assert all(type(c) is float for c in co.as_tuple())


@pytest.mark.parametrize("text", ["1", b"1", bytearray(b"1")], ids=["str", "bytes", "bytearray"])
def test_coefficients_refuse_text(text):
    """float() would parse text; a coefficient must be a number."""
    with pytest.raises(TypeError, match="alpha_a must be a number"):
        ResponseCoefficients(text, 0.5, 1, 1)
    with pytest.raises(TypeError, match="alpha_b_prime must be a number"):
        ResponseCoefficients(1, 0.5, 1, text)


def _random_coefficients(stream: CounterStream) -> ResponseCoefficients:
    return ResponseCoefficients(
        stream.uniform(-1.0, 1.0),
        stream.uniform(-1.0, 1.0),
        stream.uniform(-1.0, 1.0),
        stream.uniform(-1.0, 1.0),
    )


def test_value_dominated_by_bound_expression():
    stream = CounterStream(81)
    for i in range(500):
        cfg = random_configuration(82, i)
        co = _random_coefficients(stream)
        value = chsh_vector_value(cfg, co)
        cap = vector_bound_expression(cfg.b, cfg.b_prime, co.alpha_b, co.alpha_b_prime)
        assert value <= cap + 1e-12
        assert cap <= TSIRELSON_BOUND + 1e-12


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
def test_value_never_exceeds_tsirelson(ci, vi):
    cfg = random_configuration(83, vi)
    co = _random_coefficients(CounterStream(ci))
    assert chsh_vector_value(cfg, co) <= TSIRELSON_BOUND + 1e-12


def test_case_inequalities_all_three_sign_cases():
    stream = CounterStream(84)
    for i in range(1000):
        b = random_unit_vector(85, 2 * i)
        bp = random_unit_vector(85, 2 * i + 1)
        alpha = stream.uniform(0.01, 1.0)
        beta = stream.uniform(0.01, 1.0)
        case = i % 3
        if case == 0:
            assert case_inequality_holds(b, bp, alpha, beta)  # alpha*beta > 0
        elif case == 1:
            assert case_inequality_holds(b, bp, alpha, -beta)  # alpha*beta < 0
        else:
            assert case_inequality_holds(b, bp, 0.0, beta)  # alpha*beta = 0
            assert case_inequality_holds(b, bp, -alpha, 0.0)  # alpha*beta = 0, alpha != 0


def test_case_inequality_near_degenerate_pair():
    # nearly antiparallel directions with unequal coefficients: the sum
    # comparison still holds even though |alpha*b + beta*b'| alone can
    # exceed |b + b'|
    b = (1.0, 0.0, 0.0)
    eps = 1e-8
    bp = (-math.cos(eps), math.sin(eps), 0.0)
    alpha, beta = 1.0, 0.3
    lhs_first_term = math.sqrt(sum((alpha * x + beta * y) ** 2 for x, y in zip(b, bp)))
    rhs_first_term = math.sqrt(sum((x + y) ** 2 for x, y in zip(b, bp)))
    assert lhs_first_term > rhs_first_term  # term-by-term comparison fails...
    assert case_inequality_holds(b, bp, alpha, beta)  # ...but the sums obey the cap


def test_case_inequality_tolerance_is_inclusive():
    # With beta = 0 the expression is 2*|alpha*b|; this b (unit to within
    # 5e-13) makes it exactly 2 + 1e-12, on the edge of the allowance.
    b_prime = (0.0, 1.0, 0.0)
    on_edge = (2.0 + 1e-12) / 2
    assert case_inequality_holds((on_edge, 0.0, 0.0), b_prime, 1.0, 0.0)
    beyond = math.nextafter(2.0 + 1e-12, 3.0) / 2
    assert not case_inequality_holds((beyond, 0.0, 0.0), b_prime, 1.0, 0.0)


def test_zero_coefficient_collapse():
    b = random_unit_vector(86, 0)
    bp = random_unit_vector(86, 1)
    assert abs(vector_bound_expression(b, bp, 0.0, 0.7) - 1.4) < 1e-12
    assert abs(vector_bound_expression(b, bp, 0.0, 0.0)) == 0.0


def test_equality_condition_at_parallel_pairs():
    for i in range(50):
        b = random_unit_vector(87, i)
        same = equality_condition_check(b, b)
        flipped = equality_condition_check(b, tuple(-x for x in b))
        for probe in (same, flipped):
            assert abs(probe.value - 2.0) < 1e-12
            assert probe.is_two
            assert probe.is_parallel


def test_equality_condition_at_perpendicular_pair():
    probe = equality_condition_check((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    assert abs(probe.value - TSIRELSON_BOUND) < 1e-15
    assert not probe.is_two
    assert not probe.is_parallel


def test_equality_condition_on_separated_pairs():
    # angular separation in [1e-3, pi - 1e-3]: clearly not parallel, and the
    # value must sit clearly above 2
    for i in range(200):
        b = random_unit_vector(88, i)
        angle = 1e-3 + (math.pi - 2e-3) * (i / 199.0)
        # rotate b by `angle` inside the plane spanned with a helper axis
        helper = random_unit_vector(89, i)
        axis = _orthonormal_to(b, helper)
        bp = tuple(
            math.cos(angle) * x + math.sin(angle) * y for x, y in zip(b, axis)
        )
        probe = equality_condition_check(b, bp)
        assert not probe.is_two
        assert not probe.is_parallel
        assert probe.value > 2.0


def _orthonormal_to(b, helper):
    projection = dot(helper, b)
    residual = tuple(h - projection * x for h, x in zip(helper, b))
    norm = math.sqrt(sum(x * x for x in residual))
    if norm < 1e-6:  # helper happened to align with b; pick a fixed fallback
        helper = (helper[1], helper[2], helper[0])
        return _orthonormal_to(b, helper)
    return tuple(x / norm for x in residual)


def test_is_two_implies_is_parallel():
    # within the detection band the value grows linearly with angle, so a
    # value within 1e-9 of 2 forces an angle well inside the 1e-6 gate
    for i in range(100):
        b = random_unit_vector(90, i)
        helper = random_unit_vector(91, i)
        axis = _orthonormal_to(b, helper)
        angle = 10.0 ** (-12 + 10 * (i / 99.0))  # 1e-12 .. 1e-2 radians
        bp = tuple(
            math.cos(angle) * x + math.sin(angle) * y for x, y in zip(b, axis)
        )
        probe = equality_condition_check(b, bp)
        if probe.is_two:
            assert probe.is_parallel


def test_equality_check_requires_unit_inputs():
    with pytest.raises(ValueError):
        equality_condition_check((2.0, 0.0, 0.0), (1.0, 0.0, 0.0))


@pytest.mark.parametrize(
    "bad",
    [(2.0, 0.0, 0.0), (math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (1.0, 0.0)],
    ids=["non-unit", "nan", "inf", "wrong-length"],
)
def test_bound_functions_require_unit_directions(bad):
    unit = (0.0, 0.0, 1.0)
    for b, b_prime in ((bad, unit), (unit, bad)):
        with pytest.raises(ValueError):
            vector_bound_expression(b, b_prime, 1.0, 1.0)
        with pytest.raises(ValueError):
            case_inequality_holds(b, b_prime, 1.0, 0.0)


def test_bound_functions_unchanged_on_unit_directions():
    stream = CounterStream(88)
    for i in range(200):
        b, b_prime = random_unit_vector(89, 2 * i), random_unit_vector(89, 2 * i + 1)
        alpha, beta = stream.uniform(-1.0, 1.0), stream.uniform(-1.0, 1.0)
        value = vector_values._bound_expression(b, b_prime, alpha, beta)
        assert vector_bound_expression(b, b_prime, alpha, beta) == value
        free = vector_values._bound_expression(b, b_prime, 1.0, 1.0)
        assert case_inequality_holds(b, b_prime, alpha, beta) is (value <= free + 1e-12)
    assert vector_bound_expression((1, 0, 0), (0, 1, 0), 1, 1) == TSIRELSON_BOUND


def test_each_coefficient_checked_once_per_call(monkeypatch):
    b, b_prime = random_unit_vector(83, 0), random_unit_vector(83, 1)
    alpha, beta = 0.75, -0.5
    lhs = vector_bound_expression(b, b_prime, alpha, beta)
    coefficient_free = vector_bound_expression(b, b_prime, 1.0, 1.0)
    labels = []

    def counting(value, label):
        labels.append(label)
        return real(value, label)

    real = vector_values.require_bounded
    monkeypatch.setattr(vector_values, "require_bounded", counting)
    assert case_inequality_holds(b, b_prime, alpha, beta) is (lhs <= coefficient_free + 1e-12)
    assert labels == ["alpha", "beta"]
    labels.clear()
    assert equality_condition_check(b, b_prime).value == coefficient_free
    assert labels == []
