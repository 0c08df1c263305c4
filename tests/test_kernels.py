"""Backend parity: the C kernels must match the pure-Python reference bit for bit.

The ``native`` fixture (conftest.py) builds the C module with setup.py, so
these tests run wherever a C compiler is installed.
"""

import bisect
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chshbounds import _kernels, quantum
from chshbounds._kernels import reference
from test_quantum import _kron_spec, _matmul_spec, _matrix_bits, _product, _rand_special_complex

SRC = Path(__file__).resolve().parent.parent / "src"

# Random inputs per kernel in each parity test.
PARITY_INPUTS = 10_000


def _bits(values):
    """Exact bit patterns of floats, so 0.0 and -0.0 count as different."""
    return [float(v).hex() for v in values]


def test_backend_names(native, monkeypatch):
    assert reference.BACKEND_NAME == "python"
    assert native.BACKEND_NAME == "native"
    monkeypatch.setitem(sys.modules, "chshbounds._kernels._native", native)
    assert _kernels.available_backends() == ("python", "native")
    assert _kernels.load_backend("native") is native


def test_rng_bitwise_identical(native):
    r = random.Random(1)
    cases = [(seed, index) for seed in (0, 1, 2**63, 2**64 - 1) for index in (0, 1, 17, 10**6)]
    cases += [
        (r.getrandbits(64), r.getrandbits(r.choice((8, 32, 64)))) for _ in range(PARITY_INPUTS)
    ]
    # Out-of-range ints reduce modulo 2**64 on both backends.
    cases += [(-1, 5), (2**64 + 3, -7), (-(2**70), 2**65)]
    for seed, index in cases:
        assert native.rng_u01(seed, index).hex() == reference.rng_u01(seed, index).hex()


def test_rng_u01_is_the_top_53_bits_of_rng_u64(backend):
    r = random.Random(3)
    cases = []
    for _ in range(PARITY_INPUTS):
        seed = r.getrandbits(64)
        seed = r.choice((seed, seed + 2**64, 2**70 + seed, -seed, -1))
        index = r.getrandbits(r.choice((8, 32, 64)))
        cases.append((seed, r.choice((index, -index, -1))))
    for seed, index in cases:
        expected = (reference.rng_u64(seed, index) >> 11) * 2.0**-53
        assert _kernels.rng_u01(seed, index).hex() == expected.hex()


def test_kron2_matches_its_specification(backend):
    """quantum.tensor_product forms the Kronecker product in plain Python; its
    bits must not depend on which kernel backend is selected."""
    r = random.Random(18)
    for i in range(PARITY_INPUTS):
        nonfinite = (0.0, 0.02, 0.1)[i % 3]
        a = [_rand_special_complex(r, nonfinite) for _ in range(4)]
        b = [_rand_special_complex(r, nonfinite) for _ in range(4)]
        got = quantum.tensor_product(quantum.ComplexMatrix(2, a), quantum.ComplexMatrix(2, b))
        assert _matrix_bits(got.entries) == _matrix_bits(_kron_spec(a, b))


@pytest.mark.parametrize("n", (2, 4))
def test_matmul_matches_its_specification(backend, n):
    """ComplexMatrix @ forms the product in plain Python; its straight-line
    n = 2 and n = 4 bodies must match the specification, sign of zero
    included, whichever kernel backend is selected."""
    r = random.Random(19 + n)
    for i in range(PARITY_INPUTS):
        nonfinite = (0.0, 0.01, 0.05)[i % 3]
        a = [_rand_special_complex(r, nonfinite) for _ in range(n * n)]
        b = [_rand_special_complex(r, nonfinite) for _ in range(n * n)]
        assert _matrix_bits(_product(a, b, n)) == _matrix_bits(_matmul_spec(a, b, n))


class _Unreadable:
    """A sequence of ``length`` entries, of which only the first ``readable``
    can be read."""

    def __init__(self, readable, length):
        self.readable = readable
        self.length = length

    def __len__(self):
        return self.length

    def __getitem__(self, index):
        if index < self.readable:
            return 1.0
        raise IndexError(f"entry {index} cannot be read")


def _cum_weights(weights):
    """Running sums of the normalised weights, as the LHV track forms them."""
    total = sum(weights)
    acc = 0.0
    cum_weights = []
    for w in weights:
        acc += w / total
        cum_weights.append(acc)
    return cum_weights


def _lhv_mc_case(r, i):
    """Arguments of one lhv_mc_sums parity case; ``i % 10`` picks the kind."""
    seed = r.getrandbits(64)
    start = r.randrange(10**6)
    stop = start + r.randint(-2, 40)
    weights = [r.random() + 0.01 for _ in range(r.randint(2, 6))]
    cum_weights = _cum_weights(weights)
    kind = i % 10
    if kind == 0:
        # The first draw lands exactly on a cumulative weight, which
        # selects the next state.
        cum_weights = [reference.rng_u01(seed, start), 1.0]
    elif kind == 1:
        cum_weights = [1.0]
    elif kind == 2:
        # Zero-weight states make ties in cum_weights, at the first and the
        # last position too; a tied state is never selected, except the last.
        for k in {0, len(weights) - 1, r.randrange(len(weights))}:
            weights[k] = 0.0
        weights[1] = weights[1] or 0.5
        cum_weights = _cum_weights(weights)
    elif kind == 3:
        # A total below 1: draws beyond it land in the last state.
        total = r.choice((0.5, 1.0 - 2.0**-53))
        cum_weights = [c * total for c in cum_weights[:-1]] + [total]
    elif kind == 4:
        cum_weights = _cum_weights([r.choice((0.0, r.random())) + 1e-3 for _ in range(16)])
    elif kind == 5:
        # Seeds and starts outside [0, 2**64) reduce modulo 2**64.
        seed = r.choice((seed + 2**64, -seed, -1, 2**70 + seed))
        start = r.choice((start, -start, -r.randint(1, 40)))
        stop = start + r.randint(0, 80)
    elif kind == 6:
        # A later draw lands exactly on a cumulative weight.
        stop = start + r.randint(2, 40)
        cum_weights = sorted(cum_weights + [reference.rng_u01(seed, r.randrange(start + 1, stop))])
    return cum_weights, seed, start, stop


def test_lhv_mc_sums_bitwise_identical(native):
    r = random.Random(16)
    cases = [_lhv_mc_case(r, i) for i in range(PARITY_INPUTS)]
    # Ranges longer than one Monte Carlo block of 4096 draws.
    for cum_weights, seed, start, _ in cases[:8]:
        cases.append((cum_weights, seed, start, start + 2 * 4096 + r.randint(1, 100)))
    # Ranges of exactly one chunk of packed draws, one draw less and one more,
    # and three blocks and a part of a fourth.
    lanes = reference._MC_LANES
    for length in (lanes - 1, lanes, lanes + 1, 3 * 4096 + 17):
        for cum_weights, seed, start, _ in cases[8:12]:
            cases.append((cum_weights, seed, start, start + length))
    # Draws deep inside a chunk land exactly on cumulative weights.
    for cum_weights, seed, start, _ in cases[12:20]:
        stop = start + 2 * lanes + 5
        hits = [reference.rng_u01(seed, r.randrange(start + 1, stop)) for _ in range(3)]
        cases.append((sorted(cum_weights + hits), seed, start, stop))
    for cum_weights, seed, start, stop in cases:
        products = [
            r.choice((1.0, -1.0, 0.0, r.uniform(-1, 1))) for _ in range(4 * len(cum_weights))
        ]
        got = native.lhv_mc_sums(cum_weights, products, seed, start, stop)
        assert _bits(got) == _bits(reference.lhv_mc_sums(cum_weights, products, seed, start, stop))


def _in_order_sums(products, states):
    """The eight sums of lhv_mc_sums over the picked ``states``, in order,
    with the squares formed in the loop."""
    sums = [0.0] * 8
    for k in states:
        for c in range(4):
            p = products[4 * k + c]
            sums[c] += p
            sums[4 + c] += p * p
    return tuple(sums)


def _linear_search_sums(cum_weights, products, seed, start, stop):
    """lhv_mc_sums written as its specification: rng_u01 per draw and a
    linear inverse-CDF search."""
    last = len(cum_weights) - 1
    us = (reference.rng_u01(seed, i) for i in range(start, stop))
    states = (next((j for j, c in enumerate(cum_weights) if u < c), last) for u in us)
    return _in_order_sums(products, states)


def test_lhv_mc_sums_matches_its_specification():
    r = random.Random(17)
    for i in range(2000):
        cum_weights, seed, start, stop = _lhv_mc_case(r, i)
        products = [r.uniform(-1, 1) for _ in range(4 * len(cum_weights))]
        got = reference.lhv_mc_sums(cum_weights, products, seed, start, stop)
        assert _bits(got) == _bits(_linear_search_sums(cum_weights, products, seed, start, stop))


def _route_weights(layout, n_states, r):
    """Cumulative weights of ``n_states`` states for a pick-route case."""
    if layout == "random":
        return _cum_weights([r.random() + 0.01 for _ in range(n_states)])
    if layout == "ties":
        # Zero-weight states at the ends and in the middle tie cumulative weights.
        weights = [r.random() + 0.01 for _ in range(n_states)]
        for k in (0, 1, n_states // 2, n_states - 1):
            weights[k] = 0.0
        return _cum_weights(weights)
    # "bytes": every threshold on a top-byte boundary, k/256 for k = 1 .. n.
    return [(k + 1) / 256 for k in range(n_states)]


# (states, weight layout, whether a guide table picks the states).  Without
# one, at 255 states or more, every draw is bisected.
PICK_ROUTES = [
    (1, "random", True),
    (4, "bytes", True),
    (16, "random", True),
    (16, "ties", True),
    (254, "bytes", True),
    (254, "random", True),
    (255, "bytes", False),
    (1000, "random", False),
]


@pytest.mark.parametrize("n_states, layout, guided", PICK_ROUTES)
def test_lhv_mc_sums_pick_routes_and_summation_rules(native, n_states, layout, guided):
    """Both ways of picking states, and both ways of summing products: the
    in-order loop, and per-state counts for -1, 1 and zero products (-0.0
    included), which must give the same bits.  One product of 0.5 sends the
    same table back to the loop.  Ranges of one chunk of packed draws, one
    draw less and one more, and three blocks and a part of a fourth."""
    r = random.Random(1000 * n_states + len(layout))
    cum_weights = _route_weights(layout, n_states, r)
    thresholds = tuple(reference._draw_threshold(c) for c in cum_weights)
    assert (reference._guide_table(thresholds) is not None) is guided
    exact = [r.choice((1.0, -1.0, 1.0, -1.0, 0.0, -0.0)) for _ in range(4 * n_states)]
    half = list(exact)
    # On the state with the largest weight, which the draws cannot miss.
    weights = [b - a for a, b in zip([0.0] + cum_weights, cum_weights)]
    half[4 * weights.index(max(weights)) + r.randrange(4)] = 0.5
    lanes = reference._MC_LANES
    for length in (lanes - 1, lanes, lanes + 1, 3 * 4096 + 17):
        seed, start = r.getrandbits(64), r.randrange(10**6)
        for products in (exact, half):
            args = (cum_weights, products, seed, start, start + length)
            got = _bits(reference.lhv_mc_sums(*args))
            assert got == _bits(_linear_search_sums(*args))
            assert got == _bits(native.lhv_mc_sums(*args))


@st.composite
def _counted_arguments(draw):
    """A mixture that takes the bit-plane tally: 1-254 states, some of zero
    weight (ties in cum_weights), products -1, -0.0, 0.0 and 1; a seed, and
    a start a that is not a multiple of the chunk length, with two spans
    [a, b) and [b, c) of 0-5,000 draws in all, whose last chunks are short."""
    n_states = draw(st.integers(1, 254))
    weights = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=n_states, max_size=n_states
        )
    )
    weights[-1] = weights[-1] or 1.0
    signs = st.sampled_from((-1.0, -0.0, 0.0, 1.0))
    products = draw(st.lists(signs, min_size=4 * n_states, max_size=4 * n_states))
    lanes = reference._MC_LANES
    a = lanes * draw(st.integers(0, 1000)) + draw(st.integers(1, lanes - 1))
    b = a + draw(st.integers(0, 5000))
    c = b + draw(st.integers(0, 5000 - (b - a)))
    return _cum_weights(weights), products, draw(st.integers(0, 2**64 - 1)), a, b, c


def _bisection_sums(cum_weights, products, seed, start, stop):
    """lhv_mc_sums as an in-order float loop over the state that bisection
    of the draw thresholds picks."""
    thresholds = [reference._draw_threshold(w) for w in cum_weights]
    last = len(thresholds) - 1
    states = (
        min(bisect.bisect_right(thresholds, reference.rng_u64(seed, i)), last)
        for i in range(start, stop)
    )
    return _in_order_sums(products, states)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_counted_arguments())
def test_bit_plane_tally_matches_its_specification(native, arguments):
    """The bit-plane tally of -1, 1 and zero products gives the bits of the
    in-order loop and of the native kernel, and its sums over [a, b) and
    [b, c) add up exactly to its sums over [a, c)."""
    cum_weights, products, seed, a, b, c = arguments
    got = reference.lhv_mc_sums(cum_weights, products, seed, a, c)
    assert _bits(got) == _bits(_bisection_sums(cum_weights, products, seed, a, c))
    assert _bits(got) == _bits(native.lhv_mc_sums(cum_weights, products, seed, a, c))
    first = reference.lhv_mc_sums(cum_weights, products, seed, a, b)
    second = reference.lhv_mc_sums(cum_weights, products, seed, b, c)
    assert _bits(got) == _bits(x + y for x, y in zip(first, second))


def test_guide_table_on_top_byte_boundaries():
    """Cumulative weights 0.25, 0.5 and 0.75 fall exactly on top-byte
    boundaries, so no byte is split and every entry is a state."""
    thresholds = tuple(reference._draw_threshold(c) for c in (0.25, 0.5, 0.75, 1.0))
    assert reference._guide_table(thresholds) == bytes([0] * 64 + [1] * 64 + [2] * 64 + [3] * 64)
    # A threshold inside byte 64 splits that byte alone.
    thresholds = tuple(reference._draw_threshold(c) for c in (0.25 + 2.0**-20, 1.0))
    guide = reference._guide_table(thresholds)
    assert guide == bytes([0] * 64 + [reference._SPLIT] + [1] * 191)


def test_guide_table_exactly_below_255_states():
    """A table whatever its number of split bytes, up to 254 states; none from 255."""
    r = random.Random(254)
    for n_states in (254, 255):
        thresholds = tuple(
            reference._draw_threshold(c) for c in _route_weights("random", n_states, r)
        )
        guide = reference._guide_table(thresholds)
        if n_states < reference._SPLIT:
            assert guide.count(reference._SPLIT) > 128
        else:
            assert guide is None


def test_lhv_mc_sums_refuses_decreasing_cum_weights_and_keeps_ties(native):
    """On a list that decreases, the native linear search and the reference's
    bisection pick different states, so both backends raise the same
    ValueError, naming the first k at which cum_weights[k-1] <= cum_weights[k]
    fails; a NaN fails it too.  Ties, which zero-weight states make, stay
    allowed and give equal bits on both backends."""
    products = [1.0, -1.0, 0.5, 0.0, -0.5, 0.25, 1.0, 0.75] * 2
    refused = [
        ([0.5, 0.25, 0.75, 1.0], 1),
        ([0.25, 0.5, 1.0, 0.75], 3),
        ([0.25, math.nan, 0.75, 1.0], 1),
        ([0.25, 0.5, 0.75, math.nan], 3),
        ([math.nan, 0.5, 0.75, 1.0], 1),
    ]
    for cum_weights, k in refused:
        for backend in (reference, native):
            with pytest.raises(ValueError, match=f"not nondecreasing at index {k}$"):
                backend.lhv_mc_sums(cum_weights, products, 3, 0, 10**5)
    tied = [[0.0, 0.5, 0.5, 1.0], [0.25, 0.25, 1.0, 1.0], [-0.0, 0.0, 0.0, 1.0], [1.0] * 4]
    for cum_weights in tied:
        args = (cum_weights, products, 3, 0, 3 * 4096 + 17)
        got = _bits(reference.lhv_mc_sums(*args))
        assert got == _bits(native.lhv_mc_sums(*args))
        assert got == _bits(_linear_search_sums(*args))


def test_lhv_mc_sums_rejects_indices_beyond_int64(native):
    """Draw indices are 64-bit signed on both backends: a start or stop
    outside [-2**63, 2**63) raises OverflowError before any draw, where the
    python loop would otherwise run for up to 2**70 draws."""
    args = ([0.5, 1.0], [1.0, -1.0, 0.5, 0.0] * 2, 7)
    out_of_range = [(2**63 - 1, 2**63), (2**63, 2**63 + 5), (-(2**63) - 1, -(2**63)), (0, 2**70)]
    for backend in (reference, native):
        for start, stop in out_of_range:
            with pytest.raises(OverflowError):
                backend.lhv_mc_sums(*args, start, stop)
    for start, stop in [(2**63 - 3, 2**63 - 1), (-(2**63), -(2**63) + 2)]:
        got = native.lhv_mc_sums(*args, start, stop)
        assert _bits(got) == _bits(reference.lhv_mc_sums(*args, start, stop))


def test_lhv_mc_sums_reads_the_items_before_sizing_its_buffers_on_both_backends(native):
    """Neither backend allocates for the 2**40 weights or products a length
    promises: both read the items one at a time, so weights that cannot be
    read raise IndexError, not MemoryError, and products past the last one
    the states need are never read."""
    for backend in (reference, native):
        with pytest.raises(IndexError):
            backend.lhv_mc_sums(_Unreadable(0, 2**40), [1.0] * 4, 3, 0, 10)
    products = _Unreadable(4, 2**40)
    got = native.lhv_mc_sums([1.0], products, 3, 0, 10)
    assert _bits(got) == _bits(reference.lhv_mc_sums([1.0], products, 3, 0, 10))


@pytest.mark.parametrize("length", [3, 2**40])
def test_lhv_mc_sums_reads_every_weight_that_the_length_promises_on_both_backends(
    native, length
):
    """Both backends read the weights by index up to len(cum_weights), so a
    sequence whose length overstates its two readable weights raises the
    IndexError of its third, rather than giving sums over two states."""
    for backend in (reference, native):
        with pytest.raises(IndexError, match="entry 2 cannot be read"):
            backend.lhv_mc_sums(_Unreadable(2, length), [1.0] * 12, 3, 0, 10)


@pytest.mark.parametrize(
    "lanes", [1, reference._MC_LANES - 1, reference._MC_LANES, reference._MC_LANES + 1]
)
def test_packed_draws_are_splitmix64(lanes):
    """Every lane of a packed chunk holds, in its low eight bytes, the draw
    that rng_u64 makes alone, for seeds outside [0, 2**64) and starts across
    the int64 range."""
    starts = (0, 123_457, -1, -lanes // 2 - 3, 2**63 - lanes, -(2**63), -(2**63) + 5)
    seeds = (0, 7, 2**64 - 1, -1, -(2**64) - 12345, 2**70, 2**70 + 99, 3 * 2**80 + 1)
    for seed in seeds:
        for start in starts:
            expected = [reference.rng_u64(seed, i) for i in range(start, start + lanes)]
            draws = reference._packed_draws(seed, start, lanes)
            assert len(draws) == 16 * lanes
            got = [int.from_bytes(draws[16 * i : 16 * i + 8], "little") for i in range(lanes)]
            assert got == expected


_WEIGHT_EDGES = (
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072009e-308,  # the largest subnormal
    1.0 - 2.0**-53,
    1.0,
    1.0 + 2.0**-52,
    math.inf,
    -math.inf,
    math.nan,
)


@settings(derandomize=True, max_examples=500)
@given(
    st.one_of(
        st.sampled_from(_WEIGHT_EDGES),
        st.builds(reference.rng_u01, st.integers(0, 2**64 - 1), st.integers(-(2**63), 2**63 - 1)),
        st.floats(),
        st.floats(0.0, 1.0),
    )
)
def test_draw_threshold_agrees_with_the_float_comparison(c):
    """x < threshold(c) exactly when rng_u01's variate (x >> 11) * 2**-53 is
    below c, for the 64-bit draws at and next to the threshold and at the
    ends of the range."""
    t = reference._draw_threshold(c)
    for x in (t - 1, t, t + 1, 0, 2**64 - 1):
        if 0 <= x < 2**64:
            assert ((x >> 11) * 2.0**-53 < c) == (x < t)


# Wrong arity, a too-short sequence or one that is no sequence, and a
# non-number, per kernel.  Each row is keyed by the number in its test id,
# so that removing a row renames no other test.
BAD_CALLS = {
    "rng_u01": {2: (1, 2, 3), 3: (0, 1.5)},
    "lhv_mc_sums": {
        22: ([1.0], [1.0] * 4, 0, 0),
        23: ([0.5, 1.0], [1.0] * 4, 0, 0, 100),
        24: ([1.0], [1.0, 1.0, None, 1.0], 0, 0, 10),
        25: ([None], [1.0] * 4, 0, 0, 10),
        26: ([1.0], [1.0] * 4, 0.5, 0, 10),
        27: ([], [], 0, 0, 0),
    },
}


@pytest.mark.parametrize(
    "name, args",
    [(name, args) for name, calls in BAD_CALLS.items() for args in calls.values()],
    ids=[f"{name}-args{k}" for name, calls in BAD_CALLS.items() for k in calls],
)
def test_bad_arguments_raise_on_both_backends(native, name, args):
    """Wrong arity, short sequences and non-numbers raise the same error type
    on both backends; the native one must never crash the interpreter."""
    errors = []
    for backend in (reference, native):
        with pytest.raises((TypeError, IndexError)) as info:
            getattr(backend, name)(*args)
        errors.append(info.type)
    assert errors[0] is errors[1]


@pytest.mark.parametrize(
    "name, args, error",
    [
        ("lhv_mc_sums", ([1.0], [1j, 1.0, 1.0, 1.0], 0, 0, 5), TypeError),  # a complex
        ("lhv_mc_sums", ([10**400], [1.0] * 4, 0, 0, 3), OverflowError),  # beyond a float
    ],
)
def test_entries_are_read_as_numbers_on_both_backends(native, name, args, error):
    """Both backends convert entries as the C API does: neither accepts what the other rejects."""
    for backend in (reference, native):
        with pytest.raises(error):
            getattr(backend, name)(*args)


_FAKE_NATIVE = """
import importlib.abc, importlib.util, sys

class NativeFinder(importlib.abc.MetaPathFinder, importlib.abc.Loader):
    def find_spec(self, name, path, target=None):
        if name == "chshbounds._kernels._native":
            {find}
        return None

    # A stale build: it imports, but exports an older kernel set.
    def create_module(self, spec):
        return None

    def exec_module(self, module):
        module.BACKEND_NAME = "native"
        module.eigvals_hermitian = module.rng_u01 = print

sys.meta_path.insert(0, NativeFinder())
import chshbounds
print(chshbounds.BACKEND_NAME)
"""

_STALE_SPEC = 'return importlib.util.spec_from_file_location(name, "/stale_native.so", loader=self)'


@pytest.mark.parametrize(
    "error, backend_env, failure",
    [
        # Not built: the import system reports the module itself as missing.
        ('ModuleNotFoundError("not built", name=name)', None, None),
        # Built but broken, or missing a module of its own: never hidden.
        ('ImportError("undefined symbol: broken_build")', None, "broken_build"),
        ('ModuleNotFoundError("no numpy9", name="numpy9")', None, "no numpy9"),
        # An explicit python backend never touches the native module.
        ('ImportError("undefined symbol: broken_build")', "python", None),
        # Built from other sources: it imports but lacks a kernel.
        (None, None, "ImportError: /stale_native.so is missing kernels: lhv_mc_sums"),
        (None, "python", None),
    ],
)
def test_native_import_failure_handling(error, backend_env, failure):
    """Only a native module that is not built falls back to python; a
    stale one, without a kernel of ``KERNEL_NAMES``, names what it lacks."""
    env = {k: v for k, v in os.environ.items() if k != "CHSHBOUNDS_BACKEND"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if backend_env:
        env["CHSHBOUNDS_BACKEND"] = backend_env
    script = _FAKE_NATIVE.format(find=_STALE_SPEC if error is None else f"raise {error}")
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    if failure is None:
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "python"
    else:
        assert proc.returncode != 0
        assert failure in proc.stderr


def test_load_backend_rejects_unknown():
    with pytest.raises(ValueError):
        _kernels.load_backend("fortran")


def test_selected_backend_exports():
    assert _kernels.KERNEL_NAMES == ("rng_u01", "lhv_mc_sums")
    retired = {
        "gp8", "kron2", "matmul", "spin_matrix", "expectation", "rng_u64", "singlet_expectation",
        "eigvals_hermitian",
    }
    assert not retired & set(_kernels.KERNEL_NAMES)
    for name in _kernels.KERNEL_NAMES:
        assert callable(getattr(_kernels, name))
        assert callable(getattr(reference, name))


def test_native_exports_exactly_the_kernels(native):
    public = {name for name in vars(native) if not name.startswith("_")}
    assert public == {"BACKEND_NAME", *_kernels.KERNEL_NAMES}
