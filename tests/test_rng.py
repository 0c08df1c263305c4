import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chshbounds import _kernels, rng
from chshbounds._kernels.reference import rng_u64
from chshbounds.geometry import random_configuration
from chshbounds.lhv import HiddenState, LhvModel, monte_carlo_correlations, random_model

# First outputs of the splitmix64 sequence seeded with 0, from the published
# reference implementation.  rng_u64(0, i) must reproduce them because
# seed + (i+1)*GAMMA walks the same state sequence.
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_matches_published_splitmix64_sequence():
    assert tuple(rng_u64(0, i) for i in range(3)) == SPLITMIX64_SEED0


def test_raw_draw_is_pure():
    assert rng_u64(42, 7) == rng_u64(42, 7)
    assert rng_u64(42, 7) != rng_u64(42, 8)
    assert rng_u64(42, 7) != rng_u64(43, 7)


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=10**9))
def test_raw_draw_range(seed, index):
    assert 0 <= rng_u64(seed, index) < 2**64


@given(st.integers(), st.integers(min_value=0, max_value=10**6))
def test_uniform_draw_in_unit_interval(seed, index):
    u = _kernels.rng_u01(seed, index)
    assert 0.0 <= u < 1.0


def test_uniform_draw_resolution():
    # 53-bit mantissa scaling: the smallest nonzero output is 2**-53.
    us = [_kernels.rng_u01(5, i) for i in range(1000)]
    assert all(u * 2**53 == int(u * 2**53) for u in us)


def test_uniform_draw_roughly_uniform():
    n = 20000
    us = [_kernels.rng_u01(99, i) for i in range(n)]
    mean = sum(us) / n
    # mean of U(0,1) is 0.5 with sd 1/sqrt(12n) ~ 0.002; allow 6 sigma
    assert abs(mean - 0.5) < 0.013
    low = sum(1 for u in us if u < 0.1)
    assert 0.08 * n < low < 0.12 * n


def test_derive_seed_separates_streams():
    seeds = {rng.derive_seed(0, k) for k in range(100)}
    assert len(seeds) == 100
    # derived stream does not collide with the parent's own draw sequence
    assert rng.derive_seed(0, 0) != rng_u64(0, 0)


@given(st.integers(), st.integers(min_value=0, max_value=10**4))
def test_unit_vector_draw_is_unit(seed, index):
    v = rng.unit_vector_draw(seed, index)
    assert abs(sum(x * x for x in v) - 1.0) < 1e-12


def test_unit_vector_draw_covers_sphere():
    n = 4000
    vs = [rng.unit_vector_draw(7, i) for i in range(n)]
    for axis in range(3):
        mean = sum(v[axis] for v in vs) / n
        assert abs(mean) < 0.05  # component mean 0, sd 1/sqrt(3n) ~ 0.009
    up = sum(1 for v in vs if v[2] > 0)
    assert 0.45 * n < up < 0.55 * n


def test_counter_stream_walks_indices():
    s = rng.CounterStream(11)
    first = s.u64()
    second = s.u64()
    assert first == rng_u64(11, 0)
    assert second == rng_u64(11, 1)
    assert s.index == 2


def test_counter_stream_uniform_bounds():
    s = rng.CounterStream(3)
    for _ in range(100):
        x = s.uniform(-2.0, 5.0)
        assert -2.0 <= x < 5.0


def test_counter_stream_below():
    s = rng.CounterStream(8)
    draws = [s.below(7) for _ in range(200)]
    assert all(0 <= d < 7 for d in draws)
    assert len(set(draws)) == 7


@settings(max_examples=50)
@given(st.integers())
def test_normalize_seed_is_64_bit(seed):
    n = rng.normalize_seed(seed)
    assert 0 <= n < 2**64
    assert rng.normalize_seed(n) == n


@pytest.mark.parametrize("seed", [0, 1, 7, 2**63 + 5, -3])
def test_counter_stream_unit_vector_matches_counter_draws(seed):
    stream = rng.CounterStream(seed)
    assert stream.unit_vector() == rng.unit_vector_draw(seed, 0)
    assert stream.unit_vector() == rng.unit_vector_draw(seed, 1)
    shifted = rng.CounterStream(seed)
    shifted.u01()
    shifted.u01()
    assert shifted.unit_vector() == rng.unit_vector_draw(seed, 1)


def test_seeds_reduce_modulo_2_64_in_the_kernels(backend):
    model = LhvModel.from_pairs([(0.25, (1, -1, 1, 1)), (0.75, (-1, 1, 0.5, -0.5))])

    def draws(seed):
        estimate = monte_carlo_correlations(model, 50, seed)
        return (
            [rng_u64(seed, i) for i in (0, 1, 17)],
            [_kernels.rng_u01(seed, i) for i in (0, 1, 17)],
            [rng.derive_seed(seed, i) for i in (0, 1, 17)],
            [rng.unit_vector_draw(seed, i) for i in (0, 1, 17)],
            estimate.correlations,
            estimate.std_errors,
        )

    for seed in (0, 1, 7, -1, -3, 2**63 + 5, 2**64 - 1, -(2**70) + 11):
        expected = draws(rng.normalize_seed(seed))
        for k in (-1, 0, 1):
            assert draws(seed + k * 2**64) == expected


def test_pinned_draws_on_the_reference_finalizer(backend):
    """Known values of the 64-bit draws (derived seeds and
    ``CounterStream.u64``) and of a configuration and a model built on them,
    the same on both backends."""
    assert [rng.derive_seed(7, k) for k in range(3)] == [
        0xB5A576999E2334E8,
        0xEFC5A7B0E9DBE048,
        0xD1AB6D345E28367B,
    ]
    stream = rng.CounterStream(5)
    assert [stream.u64(), stream.u64()] == [0x63033B0CA389C35A, 0xC097314D939736F8]
    assert [[x.hex() for x in v] for v in random_configuration(7, 0).vectors()] == [
        ["0x1.29d3cfb4572d9p-1", "0x1.07d187cd6bda2p-1", "-0x1.423f0b6e6c202p-1"],
        ["-0x1.3efe890e15594p-3", "-0x1.448c150bfe3bdp-1", "0x1.83e21179e5f8ep-1"],
        ["0x1.69cbcb2a38e30p-11", "0x1.0f1624c08e408p-1", "0x1.b2587097feda4p-1"],
        ["-0x1.bff2842d26e45p-2", "-0x1.8a9686dc64a79p-1", "0x1.da77f5b97fe98p-2"],
    ]
    responses = (
        -0.009499365751745925,
        0.5788638459047399,
        0.0032663353749193824,
        -0.8311024604349782,
    )
    assert random_model(101, 0) == LhvModel((HiddenState(1.0, responses),))
