"""Acceptance gate: one test per shipped guarantee, with pinned tolerances.

Each test prints a single PASS/FAIL line so a -v run doubles as a checklist.
Runtime budgets are asserted with wall-clock timing; the sample counts are
fixed, so a budget failure means a performance regression, not flaky load.
"""

import math
import subprocess
import sys
import time

from chshbounds import rng
from chshbounds.geometry import (
    canonical_configuration,
    cross,
    normalized,
    random_configuration,
)
from chshbounds.ga import Multivector, commutator
from chshbounds.lhv import (
    LhvModel,
    all_deterministic_strategies,
    chsh_classical_value,
    classical_correlations,
    random_model,
)
from chshbounds.optimize import maximize_quantum
from chshbounds.quantum import (
    TSIRELSON_BOUND,
    chsh_operator,
    chsh_quantum_value,
    chsh_squared_identity_deviation,
    commutator_matrix,
    cross_commutator_residual,
    operator_norm,
    singlet_correlation,
    spin_operator,
    tensor_product,
)
from chshbounds.vector_values import (
    ResponseCoefficients,
    case_inequality_holds,
    chsh_vector_value,
    equality_condition_check,
    pair_value,
    vector_bound_expression,
)

SQRT8 = 2.8284271247461903


def _gate(criterion: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {text}")
    assert ok, f"criterion {criterion}: {text}"


def _unit_pair_at_angle(stream: rng.CounterStream, theta: float):
    u = stream.unit_vector()
    helper = (1.0, 0.0, 0.0) if abs(u[0]) < 0.9 else (0.0, 1.0, 0.0)
    w = normalized(cross(u, helper))
    v = normalized(
        tuple(math.cos(theta) * ui + math.sin(theta) * wi for ui, wi in zip(u, w))
    )
    return u, v


def test_criterion_1_classical_bound_exhaustive_and_random():
    start = time.perf_counter()
    strategy_values = [
        chsh_classical_value(classical_correlations(LhvModel.deterministic(*s)))
        for s in all_deterministic_strategies()
    ]
    exact = len(strategy_values) == 16 and max(strategy_values) == 2.0
    mixtures_ok = all(
        chsh_classical_value(classical_correlations(random_model(101, i))) <= 2.0 + 1e-12
        for i in range(10_000)
    )
    elapsed = time.perf_counter() - start
    _gate(
        1,
        exact and mixtures_ok and elapsed < 1.0,
        "brute-forced deterministic maximum is exactly 2 and 10^4 random "
        f"mixtures stay below 2 + 1e-12 in {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_matrix_pipeline_matches_negative_dot():
    start = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        x = rng.unit_vector_draw(202, 2 * i)
        y = rng.unit_vector_draw(202, 2 * i + 1)
        dot_xy = x[0] * y[0] + x[1] * y[1] + x[2] * y[2]
        worst = max(worst, abs(singlet_correlation(x, y) - (-dot_xy)))
    elapsed = time.perf_counter() - start
    _gate(
        2,
        worst <= 1e-12 and elapsed < 1.0,
        f"singlet matrix pipeline matches -a.b to {worst:.2e} (<= 1e-12) on "
        f"10^3 pairs in {elapsed:.2f}s (< 1s)",
    )


def test_criterion_3_canonical_violation_value():
    deviation = abs(chsh_quantum_value(canonical_configuration()) - SQRT8)
    _gate(
        3,
        deviation <= 1e-12,
        f"canonical quantum value is 2*sqrt(2) to {deviation:.2e} (<= 1e-12)",
    )


def test_criterion_4_squared_operator_identity():
    start = time.perf_counter()
    worst_identity = 0.0
    worst_cross = 0.0
    for i in range(1000):
        cfg = random_configuration(401, i)
        worst_identity = max(worst_identity, chsh_squared_identity_deviation(cfg))
        worst_cross = max(worst_cross, cross_commutator_residual(cfg))
    elapsed = time.perf_counter() - start
    _gate(
        4,
        worst_identity < 1e-10 and worst_cross < 1e-12 and elapsed < 1.0,
        f"B^2 - (4*I - C) elementwise peak {worst_identity:.2e} (< 1e-10), "
        f"cross-factor commutators peak {worst_cross:.2e} (< 1e-12) on 10^3 "
        f"configurations in {elapsed:.2f}s (< 1s)",
    )


def test_criterion_5_operator_norm_bounds_and_recovery():
    start = time.perf_counter()
    worst_c = 0.0
    worst_b = 0.0
    for i in range(10_000):
        cfg = random_configuration(501, i)
        c_norm = operator_norm(
            tensor_product(
                commutator_matrix(spin_operator(cfg.a), spin_operator(cfg.a_prime)),
                commutator_matrix(spin_operator(cfg.b), spin_operator(cfg.b_prime)),
            )
        )
        b_norm = operator_norm(chsh_operator(cfg))
        worst_c = max(worst_c, c_norm)
        worst_b = max(worst_b, b_norm)
    result = maximize_quantum(restarts=32, seed=0)
    recovery_gap = abs(result.best_value - SQRT8)
    elapsed = time.perf_counter() - start
    _gate(
        5,
        worst_c <= 4.0 + 1e-9
        and worst_b <= SQRT8 + 1e-9
        and recovery_gap <= 1e-6
        and elapsed < 10.0,
        f"||C|| peak {worst_c:.12f} (<= 4 + 1e-9) and ||B|| peak "
        f"{worst_b:.12f} (<= 2*sqrt(2) + 1e-9) on 10^4 configurations; "
        f"32-restart maximization lands within {recovery_gap:.2e} (<= 1e-6) "
        f"of 2*sqrt(2); total {elapsed:.2f}s (< 10s)",
    )


def test_criterion_6_vector_value_bound_chain():
    start = time.perf_counter()

    stream = rng.CounterStream(601)
    worst_value = -math.inf
    for i in range(100_000):
        cfg = random_configuration(601, i)
        co = ResponseCoefficients(
            stream.uniform(-1.0, 1.0),
            stream.uniform(-1.0, 1.0),
            stream.uniform(-1.0, 1.0),
            stream.uniform(-1.0, 1.0),
        )
        worst_value = max(worst_value, chsh_vector_value(cfg, co))
    dominance_ok = worst_value <= SQRT8 + 1e-12

    canonical = canonical_configuration()
    canonical_gap = abs(
        vector_bound_expression(canonical.b, canonical.b_prime, 1.0, 1.0) - SQRT8
    )

    # Equality-at-2 band: within 1e-9 of 2 must co-occur with an angle within
    # 1e-6 of 0 or pi.  Probe exact +/- pairs, clearly separated pairs, and
    # assert the implication over both batches.
    band_stream = rng.CounterStream(611)
    band_ok = True
    for _ in range(200):
        b = band_stream.unit_vector()
        for mirrored in (b, tuple(-c for c in b)):
            probe = equality_condition_check(b, mirrored)
            band_ok = band_ok and probe.is_two and probe.is_parallel
            band_ok = band_ok and abs(probe.value - 2.0) <= 1e-9
    for _ in range(2000):
        theta = band_stream.uniform(1e-3, math.pi - 1e-3)
        u, v = _unit_pair_at_angle(band_stream, theta)
        probe = equality_condition_check(u, v)
        band_ok = band_ok and not probe.is_two and not probe.is_parallel
        band_ok = band_ok and (not probe.is_two or probe.is_parallel)

    case_stream = rng.CounterStream(701)
    cases_ok = True
    for i in range(100_000):
        b = case_stream.unit_vector()
        bp = case_stream.unit_vector()
        case = i % 3
        if case == 0:
            alpha = case_stream.uniform(0.05, 1.0)
            beta = case_stream.uniform(0.05, 1.0)
        elif case == 1:
            alpha = case_stream.uniform(0.05, 1.0)
            beta = -case_stream.uniform(0.05, 1.0)
        else:
            alpha = 0.0
            beta = case_stream.uniform(-1.0, 1.0)
        cases_ok = cases_ok and case_inequality_holds(b, bp, alpha, beta)

    elapsed = time.perf_counter() - start
    _gate(
        6,
        dominance_ok
        and canonical_gap <= 1e-12
        and band_ok
        and cases_ok
        and elapsed < 10.0,
        f"vector-response value peaks at {worst_value:.12f} (<= 2*sqrt(2) + "
        f"1e-12) over 10^5 samples; canonical bound expression off by "
        f"{canonical_gap:.2e} (<= 1e-12); equality-at-2 only within the "
        f"parallel band; sign-case inequalities hold on 10^5 samples; total "
        f"{elapsed:.2f}s (< 10s)",
    )


def test_criterion_7_pair_response_reproduces_singlet_correlation():
    start = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        x = rng.unit_vector_draw(702, 2 * i)
        y = rng.unit_vector_draw(702, 2 * i + 1)
        worst = max(worst, abs(pair_value(x, y, 1.0, -1.0) - singlet_correlation(x, y)))
    elapsed = time.perf_counter() - start
    _gate(
        7,
        worst <= 1e-12 and elapsed < 1.0,
        f"pair response at (1, -1) matches the singlet correlation to "
        f"{worst:.2e} (<= 1e-12) on 10^3 pairs in {elapsed:.2f}s (< 1s)",
    )


def test_criterion_8_commutator_separates_distinct_directions():
    start = time.perf_counter()
    stream = rng.CounterStream(801)
    separated_ok = True
    for _ in range(500):
        theta = stream.uniform(1e-3, math.pi - 1e-3)
        u, v = _unit_pair_at_angle(stream, theta)
        norm = commutator(Multivector.from_vector(u), Multivector.from_vector(v)).norm()
        separated_ok = separated_ok and norm > 1e-9
    aligned_ok = True
    for _ in range(100):
        u = Multivector.from_vector(stream.unit_vector())
        aligned_ok = aligned_ok and commutator(u, u).norm() <= 1e-12
        aligned_ok = aligned_ok and commutator(u, -u).norm() <= 1e-12
    elapsed = time.perf_counter() - start
    _gate(
        8,
        separated_ok and aligned_ok and elapsed < 1.0,
        "commutator norm exceeds 1e-9 at all sampled separations in "
        f"[1e-3, pi - 1e-3] and vanishes within 1e-12 at u = +/-v, in "
        f"{elapsed:.2f}s (< 1s)",
    )


def test_criterion_9_verify_runs_are_byte_identical(child_env):
    command = [
        sys.executable,
        "-m",
        "chshbounds.cli",
        "verify",
        "--track",
        "all",
        "--canonical",
        "--seed",
        "7",
    ]
    first = subprocess.run(command, capture_output=True, check=False, env=child_env)
    second = subprocess.run(command, capture_output=True, check=False, env=child_env)
    _gate(
        9,
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0,
        "two runs of verify --track all --canonical --seed 7 exit 0 with "
        "byte-identical reports",
    )
