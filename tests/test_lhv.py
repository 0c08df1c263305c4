import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chshbounds.lhv import (
    CLASSICAL_BOUND,
    CorrelationSet,
    HiddenState,
    LhvModel,
    all_deterministic_strategies,
    chsh_classical_value,
    classical_correlations,
    monte_carlo_correlations,
    per_state_chsh_value,
    random_model,
    scalar_pair_bound_holds,
)

response = st.floats(min_value=-1, max_value=1, allow_nan=False)


def test_classical_bound_constant():
    assert CLASSICAL_BOUND == 2.0


def test_sixteen_deterministic_strategies():
    strategies = all_deterministic_strategies()
    assert len(strategies) == 16
    assert len(set(strategies)) == 16
    values = []
    correlation_sets = []
    for s in strategies:
        model = LhvModel.deterministic(*s)
        correlations = classical_correlations(model)
        correlation_sets.append(correlations.as_tuple())
        values.append(chsh_classical_value(correlations))
    # every deterministic strategy attains the bound exactly: the four
    # products are +/-1 with the signed combination always +/-2
    assert values == [2.0] * 16
    assert max(values) == 2.0
    # the 16 strategies induce 8 distinct correlation quadruples (global
    # sign flip of both sides preserves all four products)
    assert len(set(correlation_sets)) == 8


def test_deterministic_correlation_example():
    model = LhvModel.deterministic(1.0, 1.0, -1.0, 1.0)
    c = classical_correlations(model)
    assert c.as_tuple() == (-1.0, 1.0, -1.0, 1.0)


def test_chsh_classical_value_is_plain_combination():
    # pure arithmetic on a correlation quadruple; the non-physical
    # (1,1,1,-1) input shows the function itself does not cap at 2
    c = CorrelationSet(1.0, 1.0, 1.0, -1.0)
    assert chsh_classical_value(c) == 4.0
    assert chsh_classical_value(CorrelationSet(1.0, 1.0, 1.0, 1.0)) == 2.0


def test_per_state_value_example_and_bound():
    assert per_state_chsh_value((1.0, 0.0, 1.0, 0.0)) == 1.0
    assert per_state_chsh_value((1.0, 1.0, 1.0, 1.0)) == 2.0


@given(response, response, response, response)
def test_per_state_value_capped_at_two(ra, rap, rb, rbp):
    assert per_state_chsh_value((ra, rap, rb, rbp)) <= 2.0 + 1e-12


@given(response, response)
def test_scalar_pair_bound(x, y):
    assert scalar_pair_bound_holds(x, y)
    assert abs(abs(x + y) + abs(x - y) - 2.0 * max(abs(x), abs(y))) < 1e-15


def test_scalar_pair_bound_rejects_out_of_range():
    with pytest.raises(ValueError):
        scalar_pair_bound_holds(1.5, 0.0)


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_mixtures_never_violate_bound(index):
    model = random_model(77, index)
    value = chsh_classical_value(classical_correlations(model))
    assert value <= CLASSICAL_BOUND + 1e-12


def test_correlations_are_mixture_linear():
    s1 = (1.0, -1.0, 1.0, 1.0)
    s2 = (-1.0, 1.0, 1.0, -1.0)
    w = 0.3
    mixed = LhvModel.from_pairs([(w, s1), (1.0 - w, s2)])
    c_mixed = classical_correlations(mixed)
    c1 = classical_correlations(LhvModel.deterministic(*s1))
    c2 = classical_correlations(LhvModel.deterministic(*s2))
    for got, x, y in zip(c_mixed.as_tuple(), c1.as_tuple(), c2.as_tuple()):
        assert abs(got - (w * x + (1.0 - w) * y)) < 1e-15


def test_hidden_state_stores_clamped_float_responses():
    state = HiddenState(1.0, (1.0000000000009, -1.0000000000009, 1, -0.0))
    assert state.responses == (1.0, -1.0, 1.0, -0.0)
    assert all(type(r) is float for r in state.responses)
    assert math.copysign(1.0, state.responses[3]) == -1.0
    model = LhvModel((state,))
    assert classical_correlations(model).as_tuple() == (1.0, -0.0, -1.0, 0.0)
    assert monte_carlo_correlations(model, 10, 0).correlations.as_tuple() == (1.0, 0.0, -1.0, 0.0)


def test_model_validation():
    with pytest.raises(ValueError):
        LhvModel(())
    with pytest.raises(ValueError):
        LhvModel.from_pairs([(0.5, (1, 1, 1, 1))])  # weights sum to 0.5
    with pytest.raises(ValueError):
        LhvModel.from_pairs([(1.0, (2.0, 0, 0, 0))])  # response out of range
    with pytest.raises(ValueError):
        HiddenState(-0.1, (0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        LhvModel.deterministic(0.5, 1, 1, 1)
    with pytest.raises(ValueError):
        CorrelationSet(1.5, 0, 0, 0)


def test_model_stores_a_tuple_of_hidden_states():
    """A model built from a list is hashable and equal to its tuple form, and
    an entry that is not a HiddenState is a TypeError, not an AttributeError."""
    state = HiddenState(1.0, (1, 1, 1, 1))
    listed = LhvModel([state])
    assert type(listed.states) is tuple
    assert listed == LhvModel((state,)) and hash(listed) == hash(LhvModel((state,)))
    for bad in (((1.0, (1, 1, 1, 1)),), [state, (0.0, (1, 1, 1, 1))]):
        with pytest.raises(TypeError, match="HiddenState"):
            LhvModel(bad)


@pytest.mark.parametrize("text", ["0.5", b"0.5", bytearray(b"0.5")], ids=["str", "bytes", "bytearray"])
def test_hidden_state_refuses_text(text):
    """float() would parse text; a weight and each response must be numbers."""
    with pytest.raises(TypeError, match="state weight must be a number"):
        HiddenState(text, (1, 1, 1, 1))
    with pytest.raises(TypeError, match="response must be a number"):
        HiddenState(0.5, (1, 1, 1, text))
    with pytest.raises(TypeError, match="response must be a number"):
        LhvModel.deterministic(1, 1, text, 1)


def test_weights_and_correlations_stored_as_checked_floats():
    state = HiddenState(True, (1, 1, 1, 1))
    assert type(state.weight) is float and state.weight == 1.0
    correlations = CorrelationSet(True, 0, -1, 0.5)
    assert correlations.as_tuple() == (1.0, 0.0, -1.0, 0.5)
    assert all(type(c) is float for c in correlations.as_tuple())
    for bad in (math.nan, math.inf, -0.5):
        with pytest.raises(ValueError, match="state weight must be >= 0"):
            HiddenState(bad, (0.0, 0.0, 0.0, 0.0))


def test_monte_carlo_deterministic_model_is_exact():
    model = LhvModel.deterministic(1.0, -1.0, 1.0, 1.0)
    est = monte_carlo_correlations(model, 500, seed=3)
    exact = classical_correlations(model)
    assert est.correlations.as_tuple() == exact.as_tuple()
    assert est.std_errors == (0.0, 0.0, 0.0, 0.0)
    assert est.samples == 500 and est.seed == 3


def test_monte_carlo_is_reproducible():
    model = random_model(5, 0)
    a = monte_carlo_correlations(model, 2000, seed=11)
    b = monte_carlo_correlations(model, 2000, seed=11)
    c = monte_carlo_correlations(model, 2000, seed=12)
    assert a == b
    assert a.correlations.as_tuple() != c.correlations.as_tuple()


def test_monte_carlo_converges_to_exact():
    model = LhvModel.from_pairs(
        [(0.5, (1.0, 1.0, 1.0, 1.0)), (0.5, (1.0, 1.0, -1.0, -1.0))]
    )
    exact = classical_correlations(model)
    est = monte_carlo_correlations(model, 40000, seed=7)
    for got, want, se in zip(est.correlations.as_tuple(), exact.as_tuple(), est.std_errors):
        assert abs(got - want) < 5.0 * max(se, 1e-12) + 1e-9


def test_monte_carlo_error_scales_as_inverse_sqrt():
    # ab product is +/-1 with equal probability: exact sd of the mean
    # is 1/sqrt(n); the reported error must match within a factor of 2
    model = LhvModel.from_pairs(
        [(0.5, (1.0, 1.0, 1.0, 1.0)), (0.5, (-1.0, 1.0, 1.0, 1.0))]
    )
    for n in (1000, 10000, 100000):
        est = monte_carlo_correlations(model, n, seed=13)
        expected = 1.0 / math.sqrt(n)
        assert expected / 2.0 < est.std_errors[0] < expected * 2.0


def test_monte_carlo_bits_are_pinned(backend):
    # A 16-state mixture with two zero-weight states over three full blocks
    # and a partial one.  The hex strings were produced by the linear-search
    # kernel that the bisection kernel replaced; any change of state choice
    # or summation order moves them.
    raw = [0.0 if k in (0, 9) else 1.0 + (7 * k % 16) / 16.0 for k in range(16)]
    model = LhvModel.from_pairs(
        [(w / sum(raw), r) for w, r in zip(raw, all_deterministic_strategies())]
    )
    est = monte_carlo_correlations(model, 3 * 4096 + 17, seed=20201)
    assert [c.hex() for c in est.correlations.as_tuple()] == [
        "-0x1.8f72877008526p-8",
        "-0x1.e9fd21044e799p-10",
        "-0x1.7cf9127421897p-3",
        "-0x1.04f8e7d88df86p-8",
    ]
    assert [e.hex() for e in est.std_errors] == [
        "0x1.2767d4a00f1b4p-7",
        "0x1.27691a6c224eap-7",
        "0x1.22413dd186351p-7",
        "0x1.2768a2be10c2ep-7",
    ]


def test_monte_carlo_bits_are_pinned_for_non_integer_responses(backend):
    # With +/-1 products every partial sum is an exact integer, so any
    # summation order gives the same bits; these products are not, so a
    # reordered sum moves them.  Three full blocks and a partial one; the hex
    # strings were produced by the one-draw-at-a-time bisection kernel.
    model = LhvModel.from_pairs(
        [
            (0.1, (0.3, -0.71, 0.9, -0.45)),
            (0.2, (-0.6, 0.85, -0.15, 1.0)),
            (0.3, (0.25, 0.5, -0.95, 0.35)),
            (0.4, (-1.0, -0.2, 0.65, -0.8)),
        ]
    )
    est = monte_carlo_correlations(model, 3 * 4096 + 17, seed=20202)
    assert [c.hex() for c in est.correlations.as_tuple()] == [
        "-0x1.2728d9da18eb0p-2",
        "0x1.bb765a902373cp-3",
        "-0x1.1f5cbe41e8727p-2",
        "0x1.47a11037246dcp-2",
    ]
    assert [e.hex() for e in est.std_errors] == [
        "0x1.8fd0d41b70c39p-9",
        "0x1.3ea8c61dfaf4ap-8",
        "0x1.cbf4d241a9905p-10",
        "0x1.3ff284e23b086p-9",
    ]


def test_monte_carlo_single_sample_has_zero_errors():
    model = random_model(9, 4)
    est = monte_carlo_correlations(model, 1, seed=0)
    assert est.std_errors == (0.0, 0.0, 0.0, 0.0)


def test_monte_carlo_rejects_bad_sample_count():
    model = random_model(9, 5)
    with pytest.raises(ValueError):
        monte_carlo_correlations(model, 0, seed=0)


def test_random_model_is_valid_and_deterministic():
    for i in range(100):
        model = random_model(21, i)
        assert abs(sum(s.weight for s in model.states) - 1.0) <= 1e-12
        assert 1 <= len(model.states) <= 4
        for state in model.states:
            assert all(-1.0 <= r <= 1.0 for r in state.responses)
    assert random_model(21, 3) == random_model(21, 3)
