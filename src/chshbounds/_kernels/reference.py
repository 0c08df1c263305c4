"""Pure-Python compute kernels.

Reference implementations of every hot numerical loop in the package: the
geometric product, small complex-matrix algebra, the cyclic Jacobi
eigensolver, the counter-based random stream, and the Monte Carlo
accumulator.  The optional C extension ``chshbounds._kernels._native``
(``_native.c``) implements the same functions with the same signatures.
The contract between the two is identical results: on the same machine both
backends return the same bits (complex entries may differ only in the sign
of a zero) and raise the same error types.  Floating-point operations that
reach a result must happen in the same order on both sides; everything else
(how a state is searched for, how a loop is organised) may differ.  Keep the
two files in sync.

Conventions shared by both backends:

* multivectors are sequences of 8 floats in the blade order of
  ``chshbounds.tables``;
* matrices are flat row-major sequences of complex numbers;
* complex magnitudes are computed as sqrt(re*re + im*im) and complex/real
  division is done componentwise, because library ``abs``/``/`` semantics
  differ between C and CPython at the bit level.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from ..tables import PRODUCT_SIGNS, PRODUCT_TARGETS

BACKEND_NAME = "python"

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_MULT_1 = 0xBF58476D1CE4E5B9
_MIX_MULT_2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53

# Jacobi stopping rule: off-diagonal Frobenius mass below _JACOBI_RTOL times
# the Frobenius norm of the matrix, at most _JACOBI_MAX_SWEEPS sweeps.  Every
# CHSH operator has Frobenius norm 4, so on those this is an absolute 1e-14.
# The native backend uses the same values.
_JACOBI_RTOL = 2.5e-15
_JACOBI_MAX_SWEEPS = 100

# Singlet amplitudes on |01> and |10> (those on |00> and |11> are zero) and
# their conjugates, which carry an imaginary part of -0.0.
_SINGLET_01 = complex(math.sqrt(0.5), 0.0)
_SINGLET_10 = complex(-math.sqrt(0.5), 0.0)
_SINGLET_01_CONJ = _SINGLET_01.conjugate()
_SINGLET_10_CONJ = _SINGLET_10.conjugate()


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


def gp8(u, v):
    """Geometric product of two 8-coefficient multivectors."""
    out = [0.0] * 8
    signs = PRODUCT_SIGNS
    targets = PRODUCT_TARGETS
    k = 0
    for i in range(8):
        ui = u[i]
        for j in range(8):
            out[targets[k]] += signs[k] * ui * v[j]
            k += 1
    return out


def kron2(a, b):
    """Kronecker product of two flat 2x2 matrices as a flat 4x4 matrix."""
    out = [0j] * 16
    for i in range(2):
        for j in range(2):
            aij = a[2 * i + j]
            for k in range(2):
                for m in range(2):
                    out[(2 * i + k) * 4 + (2 * j + m)] = aij * b[2 * k + m]
    return out


def matmul(a, b, n: int):
    """Product of two flat n x n complex matrices."""
    out = [0j] * (n * n)
    for i in range(n):
        for j in range(n):
            acc = 0j
            for k in range(n):
                acc = acc + a[i * n + k] * b[k * n + j]
            out[i * n + j] = acc
    return out


def singlet_expectation(a, b) -> complex:
    """<psi-| (sigma.a) (x) (sigma.b) |psi-> for two directions a and b.

    The singlet (|01> - |10>)/sqrt(2) has zero amplitudes on |00> and |11>,
    so only the four Kronecker entries at rows and columns |01>, |10> reach
    the quadratic form.  Those entries and the contraction use the complex
    products of ``kron2`` followed by the full quadratic form, in the same
    order; only additions of exact-zero terms are dropped, which can change
    nothing but the sign of a zero result.
    """
    ax, ay, az = a[0], a[1], a[2]
    bx, by, bz = b[0], b[1], b[2]
    # Kronecker entries (1,1), (1,2), (2,1), (2,2) of the two spin matrices
    # ((z, x - iy), (x + iy, -z)).
    m11 = complex(az, 0.0) * complex(-bz, 0.0)
    m12 = complex(ax, -ay) * complex(bx, by)
    m21 = complex(ax, ay) * complex(bx, -by)
    m22 = complex(-az, 0.0) * complex(bz, 0.0)
    row1 = m11 * _SINGLET_01 + m12 * _SINGLET_10
    row2 = m21 * _SINGLET_01 + m22 * _SINGLET_10
    return _SINGLET_01_CONJ * row1 + _SINGLET_10_CONJ * row2


def eigvals_hermitian(entries, n: int):
    """Eigenvalues of a flat n x n complex Hermitian matrix, ascending.

    The matrix is first scaled by the power of two 2**-e that brings its
    largest real or imaginary part into [0.5, 1), so that no square
    overflows or underflows; the eigenvalues are scaled back by 2**e.  Both
    scalings are exact.  Cyclic Jacobi rotations follow: each pivot (p, q)
    is phase-reduced to a real off-diagonal entry and annihilated by a plane
    rotation with tan(2*theta) = 2|a_pq| / (a_pp - a_qq).  Convergence is
    declared when the off-diagonal Frobenius mass is zero or below 2.5e-15
    times the Frobenius norm of the matrix; exceeding 100 sweeps raises
    RuntimeError.
    """
    a = [complex(value) for value in entries]
    biggest = 0.0
    for z in a:
        # Written as `>` tests, as in the native backend, so a NaN is skipped.
        if abs(z.real) > biggest:
            biggest = abs(z.real)
        if abs(z.imag) > biggest:
            biggest = abs(z.imag)
    # frexp(0.0) gives exponent 0; a non-finite matrix is left unscaled.
    exponent = math.frexp(biggest)[1] if biggest < math.inf else 0
    if exponent:
        a = [complex(math.ldexp(z.real, -exponent), math.ldexp(z.imag, -exponent)) for z in a]
    norm2 = 0.0
    for z in a:
        norm2 += z.real * z.real + z.imag * z.imag
    tol = _JACOBI_RTOL * math.sqrt(norm2)
    for sweep in range(_JACOBI_MAX_SWEEPS + 1):
        off = 0.0
        for p in range(n):
            for q in range(n):
                if p != q:
                    z = a[p * n + q]
                    off += z.real * z.real + z.imag * z.imag
        if off == 0.0 or math.sqrt(off) < tol:
            return sorted(math.ldexp(a[i * n + i].real, exponent) for i in range(n))
        if sweep == _JACOBI_MAX_SWEEPS:
            raise RuntimeError(
                "jacobi eigensolver failed to converge within %d sweeps" % _JACOBI_MAX_SWEEPS
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p * n + q]
                g = math.sqrt(apq.real * apq.real + apq.imag * apq.imag)
                if g == 0.0:
                    continue
                theta = 0.5 * math.atan2(2.0 * g, a[p * n + p].real - a[q * n + q].real)
                c = math.cos(theta)
                s = math.sin(theta)
                phase = complex(apq.real / g, apq.imag / g)
                phase_conj = phase.conjugate()
                for k in range(n):
                    akp = a[k * n + p]
                    akq = a[k * n + q]
                    a[k * n + p] = c * akp + s * (phase_conj * akq)
                    a[k * n + q] = -s * akp + c * (phase_conj * akq)
                for k in range(n):
                    apk = a[p * n + k]
                    aqk = a[q * n + k]
                    a[p * n + k] = c * apk + s * (phase * aqk)
                    a[q * n + k] = -s * apk + c * (phase * aqk)
    raise AssertionError("unreachable")


def lhv_mc_sums(cum_weights, products, seed: int, start: int, stop: int):
    """Accumulate Monte Carlo sums for a finite hidden-state mixture.

    For each draw index i in [start, stop), the uniform variate
    ``rng_u01(seed, i)`` selects the first state j with
    ``u < cum_weights[j]``, or the last state when there is none.
    Precondition: ``cum_weights`` is nondecreasing, so that bisection finds
    that state.  ``products`` holds the four per-state response products,
    flattened.  Returns the four product sums followed by the four sums of
    squares, accumulated in index order so the result is independent of how
    callers partition the index range.

    The loop inlines ``rng_u01`` on a running counter and reads each state's
    products and squares from a table built once per call.
    """
    if not cum_weights:
        raise IndexError("cum_weights is empty")
    last = len(cum_weights) - 1
    table = []
    for base in range(0, 4 * len(cum_weights), 4):
        p1 = products[base]
        p2 = products[base + 1]
        p3 = products[base + 2]
        p4 = products[base + 3]
        table.append((p1, p2, p3, p4, p1 * p1, p2 * p2, p3 * p3, p4 * p4))
    s1 = s2 = s3 = s4 = 0.0
    q1 = q2 = q3 = q4 = 0.0
    # At draw i, counter & _MASK64 is (seed + (i + 1) * _GOLDEN_GAMMA) & _MASK64.
    counter = (seed + (start + 1) * _GOLDEN_GAMMA) & _MASK64
    for _ in range(start, stop):
        z = counter & _MASK64
        counter += _GOLDEN_GAMMA
        z = ((z ^ (z >> 30)) * _MIX_MULT_1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX_MULT_2) & _MASK64
        k = bisect_right(cum_weights, ((z ^ (z >> 31)) >> 11) * _INV_2_53)
        if k > last:
            k = last
        p1, p2, p3, p4, r1, r2, r3, r4 = table[k]
        s1 += p1
        s2 += p2
        s3 += p3
        s4 += p4
        q1 += r1
        q2 += r2
        q3 += r3
        q4 += r4
    return (s1, s2, s3, s4, q1, q2, q3, q4)
