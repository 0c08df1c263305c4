"""Pure-Python compute kernels.

Reference implementations of the package's two kernels: the uniform
counter-based random stream and the Monte Carlo accumulator.  The 64-bit
draw ``rng_u64`` here is not a kernel: ``rng`` calls it directly on both
backends, once per derived seed or ``CounterStream.u64``, too rarely for a C
copy to pay for itself.  Matrix and Kronecker products, the singlet
contraction and operator norms are plain Python in ``quantum``; no CLI
command runs enough of them for a C copy to pay for itself either.  The
optional C extension ``chshbounds._kernels._native`` (``_native.c``)
implements the two kernels with the same signatures.  The contract between
the two is identical results: on the same machine both backends return the
same bits and raise the same error types.  Floating-point operations that
reach a result must happen in the same order on both sides, except where
every partial sum is an exact integer, which any order reaches; everything
else (how a state is searched for, how a loop is organised) may differ.
Keep the two files in sync.

Loop organisation in this file, chosen for interpreter speed:
``lhv_mc_sums`` mixes up to 1024 SplitMix64 draws at once, each in its own
128-bit lane of one Python int, so that every integer operation of the
finalizer runs over the whole chunk in C.  It then picks each draw's state
by bisection over integer thresholds that give the same comparisons as the
float variates.  One route rule: a guide table for fewer than 255 states;
a bit-plane tally where a table exists and every product is -1, 0 or 1.
The table, indexed by the draw's top byte, picks a chunk's states in one
``bytes.translate``; only draws whose byte a weight threshold splits are
bisected.  The states' table rows are added in index order, as the plain
loop does, except under the tally: a second ``translate`` maps each pick to
its state's sign byte, and ``int.bit_count`` counts each bit plane of the
chunk read as one int, so no Python step or branch runs per draw.  Every
partial sum is then an exact integer, and the sums formed from the counts
of +1 and -1 products have the same bits.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_right
from functools import lru_cache, partial
from itertools import product

BACKEND_NAME = "python"

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_MULT_1 = 0xBF58476D1CE4E5B9
_MIX_MULT_2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53
_INT64_MIN = -(1 << 63)
_INT64_LIMIT = 1 << 63

# lhv_mc_sums mixes its draws _MC_LANES at a time, one per 128-bit lane.
_MC_LANES = 1024

# Guide-table entry of a top byte whose draws a threshold splits; no state
# index reaches it, since a table is built only for fewer states.
_SPLIT = 255

# Sign byte of a row of lhv_mc_sums' table (four products, then their
# squares) whose products are all -1, 1 or zero: bit c is set when product c
# is 1, bit c + 4 when it is -1.  -0.0 equals 0.0 as a key, and a row with
# any other product, NaN included, has no entry.
_SIGN_BYTES = {
    (p1, p2, p3, p4, p1 * p1, p2 * p2, p3 * p3, p4 * p4): s1 | s2 << 1 | s3 << 2 | s4 << 3
    for (p1, s1), (p2, s2), (p3, s3), (p4, s4) in product(
        ((1.0, 0x01), (0.0, 0x00), (-1.0, 0x10)), repeat=4
    )
}


def rng_u64(seed: int, index: int) -> int:
    """Return draw ``index`` of the stream ``seed`` as a 64-bit integer.

    SplitMix64 finalizer applied to seed + (index+1) * golden gamma; a pure
    function of its arguments, so any draw can be generated independently.
    """
    z = (seed + (index + 1) * _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_MULT_1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_MULT_2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def rng_u01(seed: int, index: int) -> float:
    """Return draw ``index`` of the stream ``seed``, uniform on [0, 1)."""
    return (rng_u64(seed, index) >> 11) * _INV_2_53


@lru_cache(maxsize=8)
def _lane_constants(lanes: int):
    """Constants over ``lanes`` packed 128-bit lanes: 1 in every lane,
    2**64 - 1 in every lane, and (i + 1) * golden gamma in lane i."""
    one = int.from_bytes((b"\x01" + bytes(15)) * lanes, "little")
    mask = int.from_bytes((b"\xff" * 8 + bytes(8)) * lanes, "little")
    steps = b"".join(((i + 1) * _GOLDEN_GAMMA).to_bytes(16, "little") for i in range(lanes))
    return one, mask, int.from_bytes(steps, "little")


def _packed_draws(seed: int, start: int, lanes: int) -> bytes:
    """Draws ``start`` .. ``start + lanes - 1`` of the stream ``seed``, as
    ``rng_u64`` returns them, in ``16 * lanes`` little-endian bytes: draw i
    is bytes 16i .. 16i + 7, so its top byte is byte 16i + 7.

    Draw i sits in lane i of one int.  Every lane holds less than 2**64
    before each step, so a shift's spill into the lane below is masked off,
    and a product with a 64-bit multiplier stays inside its 128-bit lane.
    The last shift's spill lands in the high words (bytes 16i + 8 ..
    16i + 15), which are not part of any draw.
    """
    one, mask, steps = _lane_constants(lanes)
    z = (((seed + start * _GOLDEN_GAMMA) & _MASK64) * one + steps) & mask
    z = ((z ^ ((z >> 30) & mask)) * _MIX_MULT_1) & mask
    z = ((z ^ ((z >> 27) & mask)) * _MIX_MULT_2) & mask
    z ^= z >> 31
    return z.to_bytes(16 * lanes, "little")


def _draw_threshold(c: float) -> int:
    """The integer t with ``x < t`` exactly when ``(x >> 11) * 2**-53 < c``,
    for every 64-bit draw x.

    For 0 < c <= 1, c * 2**53 is exact and (x >> 11) is an integer, so the
    float test holds exactly below ceil(c * 2**53) << 11.  A c above 1 (+inf
    too) admits every draw, and c <= 0 (-inf too) or NaN admits none.
    """
    if c > 0.0:
        return math.ceil(min(c, 1.0) * 2.0**53) << 11
    return 0 if c <= 0.0 else -1


@lru_cache(maxsize=8)
def _guide_table(thresholds: tuple[int, ...]) -> bytes | None:
    """The 256-byte guide table of ``thresholds`` for fewer than 255
    (``_SPLIT``) states; None from 255 states on.

    Entry b is the state ``bisect_right(thresholds, x)`` for every 64-bit
    draw x whose top byte is b, or ``_SPLIT`` where a threshold falls inside
    that byte's range, so that those draws need their own search (the
    guide-table method of Chen and Asau, 1974).  On any list, sorted or
    not, bisection's result is nondecreasing in x, so a state found at both
    ends of a byte's range is the state of every draw inside it.
    """
    if len(thresholds) >= _SPLIT:
        return None
    guide = bytearray()
    for top in range(256):
        low = bisect_right(thresholds, top << 56)
        high = bisect_right(thresholds, ((top + 1) << 56) - 1)
        guide.append(low if low == high else _SPLIT)
    return bytes(guide)


def _draw_words(draws: bytes) -> array:
    """The 64-bit words of ``_packed_draws`` bytes: draw i is word 2i."""
    words = array("Q", draws)
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _state_picks(thresholds, guide, seed: int, start: int, stop: int):
    """Yield, per chunk of up to ``_MC_LANES`` draws in index order, the
    state ``bisect_right(thresholds, rng_u64(seed, i))`` of each draw i.

    With a ``guide`` table the chunk is a bytearray: its top bytes go
    through the table in one ``translate``, and only the draws on a split
    byte are bisected.  Without one, every draw is bisected.
    """
    pick = partial(bisect_right, thresholds)
    for chunk in range(start, stop, _MC_LANES):
        draws = _packed_draws(seed, chunk, min(_MC_LANES, stop - chunk))
        if guide is None:
            yield map(pick, _draw_words(draws)[::2])
            continue
        picks = bytearray(draws[7::16]).translate(guide)
        i = picks.find(_SPLIT)
        if i >= 0:
            words = _draw_words(draws)
            while i >= 0:
                picks[i] = pick(words[2 * i])
                i = picks.find(_SPLIT, i + 1)
        yield picks


@lru_cache(maxsize=8)
def _bit_planes(length: int) -> tuple[int, ...]:
    """The eight masks of bit b (b = 0 .. 7) of every byte of ``length``
    little-endian bytes read as one int."""
    ones = int.from_bytes(b"\x01" * length, "little")
    return tuple(ones << b for b in range(8))


def _counted_sums(signs: bytes, chunks):
    """The eight sums of ``lhv_mc_sums`` from the number of picks of each
    sign, for states whose products are all -1, 1 or zero.

    ``signs`` is the 256-byte ``translate`` table from each state to its
    sign byte (``_SIGN_BYTES``).  Each chunk of picks goes through it in one
    ``translate`` and is read as one int; bit plane c counts the picks whose
    product c is 1, plane c + 4 those whose product c is -1, and
    ``bit_count`` counts a plane without a per-draw step or branch.  Every
    partial sum of the in-order loop is then an exact integer (there are at
    most 2**53 terms), so sum c is plus_c - minus_c and its sum of squares
    plus_c + minus_c, with the same bits; a sum that starts at +0.0 never
    ends at -0.0, and neither does ``float`` of an int.  No float is summed here: builtin ``sum`` is
    compensated on floats from Python 3.12.
    """
    counts = [0] * 8
    for picks in chunks:
        bits = int.from_bytes(picks.translate(signs), "little")
        planes = _bit_planes(len(picks))
        counts = [n + (bits & plane).bit_count() for n, plane in zip(counts, planes)]
    plus, minus = counts[:4], counts[4:]
    sums = [p - m for p, m in zip(plus, minus)] + [p + m for p, m in zip(plus, minus)]
    return tuple(map(float, sums))


def lhv_mc_sums(cum_weights, products, seed: int, start: int, stop: int):
    """Accumulate Monte Carlo sums for a finite hidden-state mixture.

    For each draw index i in [start, stop), the uniform variate
    ``rng_u01(seed, i)`` selects the first state j with
    ``u < cum_weights[j]``, or the last state when there is none.
    ``cum_weights`` must be nondecreasing, so that bisection finds that
    state; ties are allowed, since zero-weight states make them.  Both
    backends raise ``ValueError``, once the floats are read and before any
    draw, naming the first k at which ``cum_weights[k-1] <= cum_weights[k]``
    fails, so a NaN among two or more weights is refused too.  ``products``
    holds the four per-state response products, flattened.  Returns the four
    product sums followed by the four sums of squares, accumulated in index
    order, so the result depends only on the arguments.  It is not, in
    general, the sum of the results over a split of [start, stop): float
    addition is not associative, so non-integer products round differently.
    ``lhv.monte_carlo_correlations`` therefore fixes its block boundaries at
    multiples of ``MC_BLOCK``.

    The draws are made up to 1024 at a time by ``_packed_draws``, in 128-bit
    lanes of one int.  Each draw's state is the one that bisection over the
    integer thresholds of ``_draw_threshold`` picks; those agree with every
    comparison of ``rng_u01`` against a weight.  The route rule: a guide
    table for fewer than 255 states; a bit-plane tally where a table exists
    and every product is -1, 0 or 1.  The table, indexed by the draw's top
    byte, gives the state of most draws without a search (``_guide_table``,
    ``_state_picks``).  The loop then adds each state's products and
    squares, read from a table built once per call, into eight running sums
    in index order.  The bit-plane tally (``_counted_sums``, at most 2**53
    draws) replaces that loop with the same bits: it counts, per product,
    the picks of states where it is 1 and where it is -1.
    Draw indices are 64-bit signed integers, as in the native kernel: a
    ``start`` or ``stop`` outside [-2**63, 2**63) raises ``OverflowError``
    before any draw.  Weights and products are read as floats once per
    call, as the native kernel reads them: a complex or str is a
    ``TypeError``, an int beyond the range of a float an ``OverflowError``.
    """
    if not (_INT64_MIN <= start < _INT64_LIMIT and _INT64_MIN <= stop < _INT64_LIMIT):
        raise OverflowError(f"start {start} or stop {stop} is outside [-2**63, 2**63)")
    if not cum_weights:
        raise IndexError("cum_weights is empty")
    # ldexp(x, 0) is x as a float, -0.0 included; unlike float() it parses no
    # str.  Weights are read by index up to len(), as the native kernel does.
    ldexp = math.ldexp
    weights = [ldexp(cum_weights[i], 0) for i in range(len(cum_weights))]
    thresholds = tuple(map(_draw_threshold, weights))
    table = []
    for base in range(0, 4 * len(thresholds), 4):
        p1 = ldexp(products[base], 0)
        p2 = ldexp(products[base + 1], 0)
        p3 = ldexp(products[base + 2], 0)
        p4 = ldexp(products[base + 3], 0)
        table.append((p1, p2, p3, p4, p1 * p1, p2 * p2, p3 * p3, p4 * p4))
    # Bisection past the last threshold selects the last state.
    table.append(table[-1])
    # Reduced here, so a seed that is not an int fails even on an empty range.
    seed &= _MASK64
    for k in range(1, len(weights)):
        if not weights[k - 1] <= weights[k]:
            raise ValueError(f"cum_weights is not nondecreasing at index {k}")
    guide = _guide_table(thresholds)
    chunks = _state_picks(thresholds, guide, seed, start, stop)
    if guide is not None and stop - start <= 2**53:
        try:
            # A row with another product gets None, and bytes() stops there.
            signs = bytes(map(_SIGN_BYTES.get, table))
        except TypeError:
            pass
        else:
            return _counted_sums(signs.ljust(256, b"\0"), chunks)
    s1 = s2 = s3 = s4 = 0.0
    q1 = q2 = q3 = q4 = 0.0
    for picks in chunks:
        for p1, p2, p3, p4, r1, r2, r3, r4 in map(table.__getitem__, picks):
            s1 += p1
            s2 += p2
            s3 += p3
            s4 += p4
            q1 += r1
            q2 += r2
            q3 += r3
            q4 += r4
    return (s1, s2, s3, s4, q1, q2, q3, q4)
