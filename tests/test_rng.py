import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chshbounds import rng

# First outputs of the splitmix64 sequence seeded with 0, from the published
# reference implementation.  raw_draw(0, i) must reproduce them because
# seed + (i+1)*GAMMA walks the same state sequence.
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_matches_published_splitmix64_sequence():
    assert tuple(rng.raw_draw(0, i) for i in range(3)) == SPLITMIX64_SEED0


def test_raw_draw_is_pure():
    assert rng.raw_draw(42, 7) == rng.raw_draw(42, 7)
    assert rng.raw_draw(42, 7) != rng.raw_draw(42, 8)
    assert rng.raw_draw(42, 7) != rng.raw_draw(43, 7)


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=10**9))
def test_raw_draw_range(seed, index):
    assert 0 <= rng.raw_draw(seed, index) < 2**64


@given(st.integers(), st.integers(min_value=0, max_value=10**6))
def test_uniform_draw_in_unit_interval(seed, index):
    u = rng.uniform_draw(seed, index)
    assert 0.0 <= u < 1.0


def test_uniform_draw_resolution():
    # 53-bit mantissa scaling: the smallest nonzero output is 2**-53.
    us = [rng.uniform_draw(5, i) for i in range(1000)]
    assert all(u * 2**53 == int(u * 2**53) for u in us)


def test_uniform_draw_roughly_uniform():
    n = 20000
    us = [rng.uniform_draw(99, i) for i in range(n)]
    mean = sum(us) / n
    # mean of U(0,1) is 0.5 with sd 1/sqrt(12n) ~ 0.002; allow 6 sigma
    assert abs(mean - 0.5) < 0.013
    low = sum(1 for u in us if u < 0.1)
    assert 0.08 * n < low < 0.12 * n


def test_derive_seed_separates_streams():
    seeds = {rng.derive_seed(0, k) for k in range(100)}
    assert len(seeds) == 100
    # derived stream does not collide with the parent's own draw sequence
    assert rng.derive_seed(0, 0) != rng.raw_draw(0, 0)


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
    assert first == rng.raw_draw(11, 0)
    assert second == rng.raw_draw(11, 1)
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
