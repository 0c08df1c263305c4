"""Deterministic counter-based random numbers.

Draw ``index`` of stream ``seed`` is the pure function
``splitmix64_finalizer(seed + (index + 1) * golden_gamma)``.  There is no
hidden generator state: any draw, and any slice of a stream, can be computed
independently of every other.  Consequences relied on throughout the package:

* runs are bit-reproducible from the seed alone;
* any block of Monte Carlo draws can be computed on its own, so a merged
  result depends only on the seed and the block boundaries (float sums are
  not associative, so other boundaries can round differently; the Monte
  Carlo estimator fixes them at multiples of ``lhv.MC_BLOCK``);
* independent sub-streams are derived from (seed, stream id) pairs instead of
  by jumping a shared generator.

The kernels reduce seed and index modulo 2**64, so any integer seed is
accepted and ``s`` and ``s + k * 2**64`` name the same stream;
``CounterStream`` stores its seed so reduced, in [0, 2**64).  Uniform
draws go through the selected kernel backend; the few 64-bit draws (derived
seeds and ``CounterStream.u64``) use the reference finalizer on both.
"""

from __future__ import annotations

import math

from . import _kernels
from ._kernels.reference import rng_u64

TWO_PI = 2.0 * math.pi

# Salt for sub-stream derivation, so derived seeds never collide with data
# draws taken from the parent stream itself.
_STREAM_SALT = 0x5CA1AB1E0DDBA11


def derive_seed(seed: int, stream: int) -> int:
    """Seed of the ``stream``-th sub-stream of ``seed``.

    Pure and collision-salted: sub-stream seeds are themselves counter draws
    from a salted stream, so they are independent of the parent's data draws.
    """
    return rng_u64(seed ^ _STREAM_SALT, stream)


def unit_vector_draw(seed: int, index: int) -> tuple[float, float, float]:
    """The ``index``-th uniformly distributed unit vector of stream ``seed``.

    Consumes draws 2*index and 2*index + 1: cos(polar) uniform on [-1, 1),
    azimuth uniform on [0, 2*pi).
    """
    return _unit_vector(_kernels.rng_u01(seed, 2 * index), _kernels.rng_u01(seed, 2 * index + 1))


def _unit_vector(u_polar: float, u_azimuth: float) -> tuple[float, float, float]:
    """Unit vector with cos(polar) = 2*u_polar - 1 and azimuth = 2*pi*u_azimuth."""
    z = 2.0 * u_polar - 1.0
    phi = TWO_PI * u_azimuth
    r = math.sqrt(max(0.0, 1.0 - z * z))
    return (r * math.cos(phi), r * math.sin(phi), z)


class CounterStream:
    """Sequential cursor over a counter-based stream.

    Thin convenience wrapper for call sites that consume a variable number of
    draws; the cursor is ordinary state, the underlying draws stay pure.
    """

    __slots__ = ("seed", "index")

    def __init__(self, seed: int):
        self.seed = seed & 0xFFFF_FFFF_FFFF_FFFF
        self.index = 0

    def u64(self) -> int:
        value = rng_u64(self.seed, self.index)
        self.index += 1
        return value

    def u01(self) -> float:
        value = _kernels.rng_u01(self.seed, self.index)
        self.index += 1
        return value

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.u01()

    def below(self, bound: int) -> int:
        """Integer uniform on [0, bound) by modular reduction (bound << 2**64)."""
        return self.u64() % bound

    def unit_vector(self) -> tuple[float, float, float]:
        return _unit_vector(self.u01(), self.u01())
