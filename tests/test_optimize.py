import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chshbounds import _kernels, cli, optimize, quantum
from chshbounds.geometry import (
    Configuration,
    add,
    angle_between,
    dot,
    magnitude,
    random_configuration,
    scale,
    sub,
)
from chshbounds.lhv import CLASSICAL_BOUND, LhvModel, chsh_classical_value, classical_correlations
from chshbounds.optimize import (
    maximize_classical,
    maximize_ga,
    maximize_quantum,
    sweep_coplanar_family,
)
from chshbounds.quantum import (
    TSIRELSON_BOUND,
    _chsh_value_from_vectors,
    _correlation_from_vectors,
    chsh_quantum_value,
)
from chshbounds.rng import CounterStream, derive_seed, unit_vector_draw
from chshbounds.vector_values import ResponseCoefficients, chsh_vector_value

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


def test_singlet_objective_counts_correlations(monkeypatch):
    # optimize imports the name, so both bindings are counted.
    counts = _count_calls(
        monkeypatch,
        (quantum, "tensor_product"),
        (quantum, "_correlation_from_vectors"),
        (optimize, "_correlation_from_vectors"),
    )
    restarts = 2
    result = maximize_quantum(restarts=restarts, seed=0)
    # Every recorded value takes four correlations, and every round after a
    # restart's start point takes six more for each side's best response.
    expected = 4 * result.iterations + 12 * (result.iterations - restarts)
    assert counts == {"tensor_product": 0, "_correlation_from_vectors": expected}
    counts.update(tensor_product=0, _correlation_from_vectors=0)
    list(sweep_coplanar_family(11))
    assert counts == {"tensor_product": 0, "_correlation_from_vectors": 4 * 11}


def test_quantum_objective_calls_no_kernel(monkeypatch, capsys):
    """The singlet contraction is plain Python: a sweep makes no kernel call,
    and a quantum search only draws its start points, two uniforms for each
    of its four directions per restart."""
    counts = _count_calls(monkeypatch, *[(_kernels, name) for name in _kernels.KERNEL_NAMES])
    assert cli.main(["sweep", "--steps", "11"]) == 0
    assert sum(counts.values()) == 0
    assert cli.main(["optimize", "--track", "quantum", "--restarts", "2", "--seed", "0"]) == 0
    assert counts == {name: 16 if name == "rng_u01" else 0 for name in _kernels.KERNEL_NAMES}
    capsys.readouterr()


def _full_quantum_value(point):
    return _chsh_value_from_vectors(*point)


def _full_ga_value(point):
    return chsh_vector_value(
        Configuration(*point[:4]), ResponseCoefficients(1.0, 1.0, *point[4:])
    )


@pytest.mark.parametrize(
    "maximize, full_value", [(maximize_quantum, _full_quantum_value), (maximize_ga, _full_ga_value)]
)
@pytest.mark.parametrize("seed", [0, 5, 17])
def test_incremental_values_equal_a_full_recompute(monkeypatch, maximize, full_value, seed):
    """Every value the search records along its rounds, bit for bit, is the
    objective recomputed from scratch at the recorded point.  On the quantum
    track each recorded value, and nothing else, goes through the module
    global ``optimize._chsh_value_from_vectors``, so a tracer wrapping it
    counts exactly the evaluations."""
    counts = _count_calls(monkeypatch, (optimize, "_chsh_value_from_vectors"))
    best = optimize._best
    recorded = []

    def checked(scored):
        for point, value in scored:
            assert value.hex() == full_value(point).hex(), (len(recorded), point)
            recorded.append(value)
            yield point, value

    monkeypatch.setattr(optimize, "_best", lambda scored: best(checked(scored)))
    result = maximize(restarts=8, seed=seed)
    assert len(recorded) == result.iterations
    assert max(recorded) == result.best_value
    expected_calls = result.iterations if maximize is maximize_quantum else 0
    assert counts == {"_chsh_value_from_vectors": expected_calls}


E1, E2 = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
MINUS_E1, MINUS_E2 = (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0)
AXES = (E1, E2, (0.0, 0.0, 1.0))


def test_zero_response_vector_keeps_the_current_direction():
    x, x_prime = (0.0, 0.0, 1.0), (0.0, 0.6, 0.8)
    assert optimize._best_pair(E1, E1, x, x_prime) == (E1, x_prime)
    assert optimize._best_pair(E1, MINUS_E1, x, x_prime) == (x, E1)
    assert optimize._best_pair((0.0, 0.0, 0.0), (-0.0, 0.0, 0.0), x, x_prime) == (x, x_prime)


@pytest.mark.parametrize(
    "track, start",
    [
        ("quantum", (E1, E1, E1, E1)),
        ("quantum", (E1, MINUS_E1, E2, E2)),
        ("quantum", (E1, E2, E2, MINUS_E2)),
        ("ga", (E1, E1, E2, E2, 1.0, 1.0)),
        ("ga", (E1, MINUS_E1, E2, MINUS_E2, 0.5, -0.5)),
        ("ga", (E1, E2, E2, E1, 0.0, 0.0)),
    ],
)
def test_degenerate_start_runs_to_a_finite_bounded_value(backend, track, start):
    """a = +/-a', b = +/-b' or zero coefficients give zero response vectors."""
    if track == "quantum":
        rounds = optimize._see_saw(optimize._quantum_round, optimize._quantum_value, start)
    else:
        rounds = optimize._see_saw(optimize._ga_round, optimize._ga_value, start)
    values = [value for _, value in rounds]
    assert all(math.isfinite(value) and value <= SQRT8 + 1e-9 for value in values)
    assert 2 <= len(values) <= optimize._MAX_ROUNDS + 1


def test_see_saw_yields_the_start_and_every_round_up_to_the_first_that_does_not_raise():
    # Points are integers and a round adds 1: the value rises to 3 and then
    # holds, so the round reaching 4 is the last one yielded.
    assert list(optimize._see_saw(lambda x: x + 1, lambda x: min(x, 3), 0)) == [
        (0, 0), (1, 1), (2, 2), (3, 3), (4, 3)
    ]
    # A value that keeps rising is cut after _MAX_ROUNDS rounds.
    points = [point for point, _ in optimize._see_saw(lambda x: x + 1, float, 0)]
    assert points == list(range(optimize._MAX_ROUNDS + 1))


def test_best_keeps_the_first_maximizer_and_records_strict_improvements():
    nan = math.nan
    scored = [("p", nan), ("q", 1.0), ("r", 1.0), ("s", nan), ("t", 0.5), ("u", 2.0), ("v", 2.0)]
    # (value, first point attaining it, (1-based index, value) per strict
    # improvement, evaluations): ties and NaN are counted, never recorded.
    assert optimize._best(iter(scored)) == (2.0, "u", ((2, 1.0), (6, 2.0)), 7)
    assert optimize._best([("p", nan)]) == (-math.inf, None, (), 1)
    assert optimize._best([]) == (-math.inf, None, (), 0)


unit_vectors = st.one_of(
    st.integers(min_value=0, max_value=10**6).map(lambda i: unit_vector_draw(91, i)),
    st.sampled_from(AXES + (MINUS_E1, MINUS_E2)),
)
coefficients = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def _random_pairs(seed):
    """64 (x, x', alpha, alpha') draws: unit x, x' and alphas uniform on [-1, 1)."""
    stream = CounterStream(seed)
    return [
        (unit_vector_draw(seed, 2 * k), unit_vector_draw(seed, 2 * k + 1),
         stream.uniform(-1.0, 1.0), stream.uniform(-1.0, 1.0))
        for k in range(64)
    ]


def _close(value, expected):
    # Within 1e-15 relative: the four singlet correlations and the two
    # magnitudes round differently, by up to 3 ulps near 2*sqrt(2).
    return abs(value - expected) <= 1e-15 * max(1.0, expected)


def _magnitudes(p, q):
    return magnitude(add(p, q)) + magnitude(sub(p, q))


@settings(derandomize=True, max_examples=200)
@given(unit_vectors, unit_vectors)
def test_quantum_best_responses_are_optimal(b, b_prime):
    a, a_prime, b_next, b_prime_next = optimize._quantum_round((E1, E2, b, b_prime))
    # a side: a, a' against the given b, b'.
    value = _chsh_value_from_vectors(a, a_prime, b, b_prime)
    rows = [[_correlation_from_vectors(e, v) for e in AXES] for v in (b, b_prime)]
    assert _close(value, _magnitudes(*rows))
    for x, x_prime, _, _ in _random_pairs(92):
        assert value >= _chsh_value_from_vectors(x, x_prime, b, b_prime)
    # b side: b, b' against the new a, a'.
    value = _chsh_value_from_vectors(a, a_prime, b_next, b_prime_next)
    rows = [[_correlation_from_vectors(v, e) for e in AXES] for v in (a, a_prime)]
    assert _close(value, _magnitudes(*rows))
    for y, y_prime, _, _ in _random_pairs(93):
        assert value >= _chsh_value_from_vectors(a, a_prime, y, y_prime)


@settings(derandomize=True, max_examples=200)
@given(unit_vectors, unit_vectors, coefficients, coefficients)
def test_ga_best_responses_are_optimal(b, b_prime, alpha_b, alpha_b_prime):
    point = (E1, E2, b, b_prime, alpha_b, alpha_b_prime)
    a, a_prime, b_next, b_prime_next, one, one_prime = optimize._ga_round(point)
    assert (one, one_prime) == (1.0, 1.0)
    # a side: a, a' against the given b side.
    value = _full_ga_value((a, a_prime, b, b_prime, alpha_b, alpha_b_prime))
    assert _close(value, _magnitudes(scale(b, alpha_b), scale(b_prime, alpha_b_prime)))
    for x, x_prime, _, _ in _random_pairs(94):
        assert value >= _full_ga_value((x, x_prime, b, b_prime, alpha_b, alpha_b_prime))
    # b side, all four sign patterns of the two absolute values included:
    # b, b' and unit alphas against the new a, a'.
    value = _full_ga_value((a, a_prime, b_next, b_prime_next, 1.0, 1.0))
    assert _close(value, _magnitudes(a, a_prime))
    for y, y_prime, beta, beta_prime in _random_pairs(95):
        assert value >= _full_ga_value((a, a_prime, y, y_prime, beta, beta_prime))


@pytest.mark.parametrize(
    "maximize, best_hex, iterations, improvements",
    [
        pytest.param(maximize_quantum, "0x1.6a09e667f3bcep+1", 103, 2, id="quantum"),
        pytest.param(maximize_ga, "0x1.6a09e667f3bcep+1", 132, 5, id="ga"),
    ],
)
def test_default_search_is_pinned(maximize, best_hex, iterations, improvements):
    result = maximize(32, 0)
    assert result.best_value.hex() == best_hex
    assert result.iterations == iterations
    assert len(result.history) == improvements


def _point_bits(point):
    return [x.hex() for part in point for x in (part if isinstance(part, tuple) else (part,))]


@pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
@pytest.mark.parametrize(
    "maximize, coefficients",
    [pytest.param(maximize_quantum, 0, id="quantum"), pytest.param(maximize_ga, 2, id="ga")],
)
def test_restart_starts_at_the_directions_of_random_configuration(
    monkeypatch, maximize, coefficients, seed
):
    """The first point scored for restart i is random_configuration(seed, i)'s
    four directions, bit for bit; on the ga track the stream's next two
    uniform(-1, 1) draws follow them."""
    see_saw = optimize._see_saw
    starts = []

    def recorded(round_, value, start):
        scored = see_saw(round_, value, start)
        first = next(scored)
        starts.append(first[0])
        yield first
        yield from scored

    monkeypatch.setattr(optimize, "_see_saw", recorded)
    maximize(restarts=4, seed=seed)
    assert len(starts) == 4
    for index, start in enumerate(starts):
        stream = CounterStream(derive_seed(seed, index))
        stream.index = 8  # past the four directions, two draws each
        expected = (
            *random_configuration(seed, index).vectors(),
            *(stream.uniform(-1.0, 1.0) for _ in range(coefficients)),
        )
        assert _point_bits(start) == _point_bits(expected), (seed, index)


def test_configuration_built_only_for_the_reported_maximizer(monkeypatch):
    built = []
    build = Configuration.__init__

    def counted(self, *args):
        build(self, *args)
        built.append(self)

    monkeypatch.setattr(Configuration, "__init__", counted)
    list(sweep_coplanar_family(11))
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
    # The canonical geometry up to a rotation and sign flips: a is
    # perpendicular to a', b to b', and every cross pair meets at 45 or 135
    # degrees.  These quantities are the same in every frame.
    cfg = maximize_quantum(restarts=32, seed=0).best_configuration
    assert abs(dot(cfg.a, cfg.a_prime)) < 1e-3
    assert abs(dot(cfg.b, cfg.b_prime)) < 1e-3
    for u in (cfg.a, cfg.a_prime):
        for v in (cfg.b, cfg.b_prime):
            assert abs(abs(dot(u, v)) - 1.0 / math.sqrt(2.0)) < 1e-3


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
    cfg = result.best_configuration
    assert abs(angle_between(cfg.b, cfg.b_prime) - math.pi / 2) < 1e-3


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
    rows = list(sweep_coplanar_family(steps))
    assert len(rows) == steps
    for i, (theta, value) in enumerate(rows):
        assert abs(theta - math.pi * i / (steps - 1)) < 1e-15
        closed = SQRT8 * abs(math.sin(theta + math.pi / 4.0))
        assert abs(value - closed) < 1e-10
        assert value <= SQRT8 + 1e-12


def test_sweep_endpoints_and_peak():
    two = list(sweep_coplanar_family(2))
    assert abs(two[0][1] - 2.0) < 1e-12
    assert abs(two[1][1] - 2.0) < 1e-12
    five = list(sweep_coplanar_family(5))
    values = [v for _, v in five]
    assert values.index(max(values)) == 1  # the grid point at pi/4
    assert abs(max(values) - SQRT8) < 1e-12


def test_sweep_rejects_short_grids():
    with pytest.raises(ValueError):
        next(sweep_coplanar_family(1))

