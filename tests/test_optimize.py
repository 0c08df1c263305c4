import math

import pytest

from chshbounds import _kernels, optimize, quantum
from chshbounds.geometry import Configuration, canonical_configuration, dot, random_configuration
from chshbounds.lhv import CLASSICAL_BOUND, LhvModel, chsh_classical_value, classical_correlations
from chshbounds.optimize import (
    canonicalized,
    maximize_classical,
    maximize_ga,
    maximize_quantum,
    sweep_coplanar_family,
)
from chshbounds.quantum import TSIRELSON_BOUND, _chsh_value_from_vectors, chsh_quantum_value
from chshbounds.vector_values import _chsh_vector_from_dots, chsh_vector_value

SQRT8 = 2.0 * math.sqrt(2.0)


def _count_calls(monkeypatch, *targets):
    """Rebind each (module, name), looked up there at call time, to a counting
    wrapper; returns the live counts by name."""
    counts = {name: 0 for _, name in targets}
    for module, name in targets:
        function = getattr(module, name)

        def counted(*args, name=name, function=function):
            counts[name] += 1
            return function(*args)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_singlet_objective_uses_fused_kernel_only(monkeypatch):
    counts = _count_calls(
        monkeypatch, (quantum, "tensor_product"), (_kernels, "singlet_expectation")
    )
    restarts = 2
    result = maximize_quantum(restarts=restarts, seed=0)
    # Each restart's start point computes all four correlations; every later
    # probe moves one vector and recomputes only its two correlations.
    expected = 4 * restarts + 2 * (result.iterations - restarts)
    assert counts == {"tensor_product": 0, "singlet_expectation": expected}
    counts.update(tensor_product=0, singlet_expectation=0)
    sweep_coplanar_family(11)
    assert counts == {"tensor_product": 0, "singlet_expectation": 4 * 11}


def _full_quantum_value(point):
    return _chsh_value_from_vectors(*optimize._chart_vectors(point))


def _full_ga_value(point):
    a, a_prime, b, b_prime = optimize._chart_vectors(point)
    return _chsh_vector_from_dots(
        dot(a, b), dot(a, b_prime), dot(a_prime, b), dot(a_prime, b_prime), 1.0, 1.0, *point[8:]
    )


@pytest.mark.parametrize(
    "maximize, full_value", [(maximize_quantum, _full_quantum_value), (maximize_ga, _full_ga_value)]
)
@pytest.mark.parametrize("seed", [0, 5, 17])
def test_incremental_values_equal_a_full_recompute(monkeypatch, maximize, full_value, seed):
    """Every value the search records, bit for bit, is the objective
    recomputed from scratch at the recorded point, so no cached vector or
    pair term is stale."""
    record = optimize._SearchState.record
    recorded = []

    def checked(self, point, value):
        assert value.hex() == full_value(point).hex(), (len(recorded), tuple(point))
        recorded.append(value)
        record(self, point, value)

    monkeypatch.setattr(optimize._SearchState, "record", checked)
    result = maximize(restarts=2, seed=seed)
    assert len(recorded) == result.iterations
    assert max(recorded) == result.best_value


@pytest.mark.parametrize(
    "maximize, best_hex, iterations, improvements",
    [
        (maximize_quantum, "0x1.6a09e667f3bcep+1", 34400, 81),
        (maximize_ga, "0x1.6a09e667f3bcdp+1", 37745, 80),
    ],
)
def test_default_search_is_pinned(maximize, best_hex, iterations, improvements):
    result = maximize(32, 0)
    assert result.best_value.hex() == best_hex
    assert result.iterations == iterations
    assert len(result.history) == improvements


def test_configuration_built_only_for_the_reported_maximizer(monkeypatch):
    built = []
    validate = Configuration.__post_init__

    def counted(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(Configuration, "__post_init__", counted)
    sweep_coplanar_family(11)
    assert built == []
    quantum = maximize_quantum(restarts=2, seed=0)
    ga = maximize_ga(restarts=2, seed=0)
    assert built == [quantum.best_configuration, ga.best_configuration]


def test_classical_maximum_is_exactly_two():
    result = maximize_classical()
    assert result.track == "classical"
    assert result.best_value == 2.0
    assert result.bound == CLASSICAL_BOUND
    assert result.iterations == 16
    assert result.maximizer_count == 16
    assert result.distinct_maximizing_correlations == 8
    # the first strategy already attains the maximum, so the improvement
    # history is a single event
    assert result.history == ((1, 2.0),)
    model = LhvModel.deterministic(*result.best_strategy)
    assert chsh_classical_value(classical_correlations(model)) == 2.0


def test_classical_is_deterministic():
    assert maximize_classical() == maximize_classical()


def test_quantum_recovers_tsirelson():
    result = maximize_quantum(restarts=32, seed=0)
    assert abs(result.best_value - SQRT8) < 1e-6
    assert result.best_value <= SQRT8 + 1e-9
    assert result.bound == TSIRELSON_BOUND
    assert result.restarts == 32 and result.seed == 0
    # re-evaluating the reported maximizer reproduces the reported value
    assert abs(chsh_quantum_value(result.best_configuration) - result.best_value) < 1e-12


def test_quantum_history_is_monotone_and_bounded():
    result = maximize_quantum(restarts=8, seed=3)
    values = [v for _, v in result.history]
    assert values == sorted(values)
    assert all(v <= SQRT8 + 1e-9 for v in values)
    indices = [i for i, _ in result.history]
    assert indices == sorted(indices)
    assert indices[-1] <= result.iterations


def test_quantum_is_reproducible():
    a = maximize_quantum(restarts=4, seed=11)
    b = maximize_quantum(restarts=4, seed=11)
    assert a == b
    c = maximize_quantum(restarts=4, seed=12)
    assert c.best_value <= SQRT8 + 1e-9  # different seed still bounded


def test_quantum_maximizer_canonicalizes_to_perpendicular_pairs():
    result = maximize_quantum(restarts=32, seed=0)
    canon = canonicalized(result.best_configuration)
    assert abs(canon.theta_a_aprime - math.pi / 2) < 1e-3
    assert abs(canon.theta_b_bprime - math.pi / 2) < 1e-3
    # canonical frame: a along e1, a' in the e1-e2 plane
    assert abs(canon.a[1]) < 1e-12 and abs(canon.a[2]) < 1e-12
    assert abs(canon.a_prime[2]) < 1e-12


def test_ga_recovers_tsirelson_with_unit_coefficients():
    result = maximize_ga(restarts=32, seed=0)
    assert abs(result.best_value - SQRT8) < 1e-6
    assert result.best_value <= SQRT8 + 1e-9
    co = result.best_coefficients
    assert co.alpha_a == 1.0 and co.alpha_a_prime == 1.0
    assert abs(abs(co.alpha_b) - 1.0) < 1e-3
    assert abs(abs(co.alpha_b_prime) - 1.0) < 1e-3
    assert abs(chsh_vector_value(result.best_configuration, co) - result.best_value) < 1e-12


def test_ga_maximizer_has_perpendicular_b_pair():
    result = maximize_ga(restarts=32, seed=0)
    assert abs(result.best_configuration.theta_b_bprime - math.pi / 2) < 1e-3


def test_quantum_and_ga_agree():
    q = maximize_quantum(restarts=32, seed=0)
    g = maximize_ga(restarts=32, seed=0)
    assert abs(q.best_value - g.best_value) < 1e-6


def test_restart_validation():
    with pytest.raises(ValueError):
        maximize_quantum(restarts=0)
    with pytest.raises(ValueError):
        maximize_ga(restarts=-1)


def test_sweep_matches_closed_form():
    steps = 101
    rows = sweep_coplanar_family(steps)
    assert len(rows) == steps
    for i, (theta, value) in enumerate(rows):
        assert abs(theta - math.pi * i / (steps - 1)) < 1e-15
        closed = SQRT8 * abs(math.sin(theta + math.pi / 4.0))
        assert abs(value - closed) < 1e-10
        assert value <= SQRT8 + 1e-12


def test_sweep_endpoints_and_peak():
    two = sweep_coplanar_family(2)
    assert abs(two[0][1] - 2.0) < 1e-12
    assert abs(two[1][1] - 2.0) < 1e-12
    five = sweep_coplanar_family(5)
    values = [v for _, v in five]
    assert values.index(max(values)) == 1  # the grid point at pi/4
    assert abs(max(values) - SQRT8) < 1e-12


def test_sweep_rejects_short_grids():
    with pytest.raises(ValueError):
        sweep_coplanar_family(1)


def test_canonicalized_fixes_canonical_configuration():
    cfg = canonical_configuration()
    canon = canonicalized(cfg)
    for u, v in zip(canon.vectors(), cfg.vectors()):
        assert max(abs(x - y) for x, y in zip(u, v)) < 1e-12


def test_canonicalized_never_lowers_objective():
    # rotations are exact symmetries; the sign-flip step picks the best
    # CHSH-type pattern, so the value can only stay or rise, with equality
    # at maximizers
    for i in range(50):
        cfg = random_configuration(95, i)
        canon = canonicalized(cfg)
        assert chsh_quantum_value(canon) >= chsh_quantum_value(cfg) - 1e-9
        assert chsh_quantum_value(canon) <= SQRT8 + 1e-12
        assert abs(canon.a[1]) < 1e-12 and abs(canon.a[2]) < 1e-12
        assert abs(canon.a_prime[2]) < 1e-12
        assert canon.a_prime[1] >= -1e-12
