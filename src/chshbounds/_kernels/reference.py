"""Pure-Python compute kernels.

Reference implementations of every hot numerical loop in the package: small
complex-matrix algebra, the cyclic Jacobi eigensolver, the counter-based
random stream, and the Monte Carlo accumulator.  The optional C extension
``chshbounds._kernels._native`` (``_native.c``) implements the same
functions with the same signatures.  The contract between the two is
identical results: on the same machine both backends return the same bits
(complex entries may differ only in the sign of a zero) and raise the same
error types.  Floating-point operations that reach a result must happen in
the same order on both sides; everything else (how a state is searched for,
how a loop is organised) may differ.  Keep the two files in sync.

Loop organisation in this file, chosen for interpreter speed: ``matmul``
has straight-line bodies for n = 2 and n = 4, each entry written as the
generic loop's left-to-right sum; ``eigvals_hermitian`` walks index tables
built once per n (the off-diagonal entries, and per pivot its three entries
and its column and row pairs).
Each performs the same operations in the same order as the plain loops.

Conventions shared by both backends:

* matrices are flat row-major sequences of complex numbers;
* complex magnitudes are computed as sqrt(re*re + im*im) and complex/real
  division is done componentwise, because library ``abs``/``/`` semantics
  differ between C and CPython at the bit level.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from functools import lru_cache

BACKEND_NAME = "python"

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_MULT_1 = 0xBF58476D1CE4E5B9
_MIX_MULT_2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53
_INT64_MIN = -(1 << 63)
_INT64_LIMIT = 1 << 63

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


def matmul(a, b, n: int):
    """Product of two flat n x n complex matrices.

    Entry (i, j) is 0j + a[i,0]*b[0,j] + a[i,1]*b[1,j] + ..., summed left to
    right; n = 2 and n = 4 spell that sum out.
    """
    # A non-integer n raises TypeError here rather than match 2 or 4.
    n = operator.index(n)
    if n == 4 and len(a) == 16 and len(b) == 16:
        a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15 = a
        b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = b
        return [
            0j + a0 * b0 + a1 * b4 + a2 * b8 + a3 * b12,
            0j + a0 * b1 + a1 * b5 + a2 * b9 + a3 * b13,
            0j + a0 * b2 + a1 * b6 + a2 * b10 + a3 * b14,
            0j + a0 * b3 + a1 * b7 + a2 * b11 + a3 * b15,
            0j + a4 * b0 + a5 * b4 + a6 * b8 + a7 * b12,
            0j + a4 * b1 + a5 * b5 + a6 * b9 + a7 * b13,
            0j + a4 * b2 + a5 * b6 + a6 * b10 + a7 * b14,
            0j + a4 * b3 + a5 * b7 + a6 * b11 + a7 * b15,
            0j + a8 * b0 + a9 * b4 + a10 * b8 + a11 * b12,
            0j + a8 * b1 + a9 * b5 + a10 * b9 + a11 * b13,
            0j + a8 * b2 + a9 * b6 + a10 * b10 + a11 * b14,
            0j + a8 * b3 + a9 * b7 + a10 * b11 + a11 * b15,
            0j + a12 * b0 + a13 * b4 + a14 * b8 + a15 * b12,
            0j + a12 * b1 + a13 * b5 + a14 * b9 + a15 * b13,
            0j + a12 * b2 + a13 * b6 + a14 * b10 + a15 * b14,
            0j + a12 * b3 + a13 * b7 + a14 * b11 + a15 * b15,
        ]
    if n == 2 and len(a) == 4 and len(b) == 4:
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        return [
            0j + a0 * b0 + a1 * b2,
            0j + a0 * b1 + a1 * b3,
            0j + a2 * b0 + a3 * b2,
            0j + a2 * b1 + a3 * b3,
        ]
    # Other sizes and lengths: the first n*n entries of each, or IndexError.
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
    products of ``quantum.tensor_product`` followed by the full quadratic
    form, in the same order; only additions of exact-zero terms are dropped,
    which can change nothing but the sign of a zero result.
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


@lru_cache(maxsize=8, typed=True)
def _jacobi_tables(n: int):
    """Flat indices of the cyclic Jacobi sweep over an n x n matrix.

    Returns the off-diagonal entries in row-major order, the diagonal, and
    per pivot (p, q), in sweep order: the indices of a_pq, a_pp and a_qq,
    then the (k, p), (k, q) pairs of the column update and the (p, k),
    (q, k) pairs of the row update, for k = 0 .. n-1.  ``typed`` keeps a
    float n from reusing the tables of the equal int; it raises TypeError.
    """
    off_diagonal = tuple(p * n + q for p in range(n) for q in range(n) if p != q)
    diagonal = tuple(i * n + i for i in range(n))
    pivots = tuple(
        (
            p * n + q,
            p * n + p,
            q * n + q,
            tuple((k * n + p, k * n + q) for k in range(n)),
            tuple((p * n + k, q * n + k) for k in range(n)),
        )
        for p in range(n - 1)
        for q in range(p + 1, n)
    )
    return off_diagonal, diagonal, pivots


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
    RuntimeError.  A NaN or infinite entry raises ValueError.
    """
    sqrt, atan2, cos, sin, ldexp = math.sqrt, math.atan2, math.cos, math.sin, math.ldexp
    off_diagonal, diagonal, pivots = _jacobi_tables(n)
    # The first n*n entries in order, as the native backend reads them, so a
    # short matrix is an IndexError before any check of the values.  A str,
    # which complex() would parse, is a TypeError there.
    a = []
    for i in range(n * n):
        z = entries[i]
        if isinstance(z, str):
            raise TypeError(f"matrix entry {i} must be a number, not str")
        a.append(complex(z))
    biggest = 0.0
    for z in a:
        # Written as `>` tests, as in the native backend, so a NaN is skipped.
        if abs(z.real) > biggest:
            biggest = abs(z.real)
        if abs(z.imag) > biggest:
            biggest = abs(z.imag)
    # frexp(0.0) gives exponent 0; a non-finite matrix is left unscaled, and
    # its Frobenius sum below is then non-finite, as no other matrix's is.
    exponent = math.frexp(biggest)[1] if biggest < math.inf else 0
    if exponent:
        a = [complex(ldexp(z.real, -exponent), ldexp(z.imag, -exponent)) for z in a]
    norm2 = 0.0
    for z in a:
        norm2 += z.real * z.real + z.imag * z.imag
    if not math.isfinite(norm2):
        raise ValueError("matrix has a NaN or infinite entry")
    tol = _JACOBI_RTOL * sqrt(norm2)
    for sweep in range(_JACOBI_MAX_SWEEPS + 1):
        off = 0.0
        for i in off_diagonal:
            z = a[i]
            off += z.real * z.real + z.imag * z.imag
        if off == 0.0 or sqrt(off) < tol:
            return sorted(ldexp(a[i].real, exponent) for i in diagonal)
        if sweep == _JACOBI_MAX_SWEEPS:
            raise RuntimeError(
                "jacobi eigensolver failed to converge within %d sweeps" % _JACOBI_MAX_SWEEPS
            )
        for pq, pp, qq, column_pairs, row_pairs in pivots:
            apq = a[pq]
            g = sqrt(apq.real * apq.real + apq.imag * apq.imag)
            if g == 0.0:
                continue
            theta = 0.5 * atan2(2.0 * g, a[pp].real - a[qq].real)
            # The float factors c, s and -s, promoted to complex as the
            # native backend does.
            sin_theta = sin(theta)
            c = complex(cos(theta), 0.0)
            s = complex(sin_theta, 0.0)
            neg_s = complex(-sin_theta, 0.0)
            phase = complex(apq.real / g, apq.imag / g)
            phase_conj = phase.conjugate()
            for kp, kq in column_pairs:
                akp = a[kp]
                rot = phase_conj * a[kq]
                a[kp] = c * akp + s * rot
                a[kq] = neg_s * akp + c * rot
            for pk, qk in row_pairs:
                apk = a[pk]
                rot = phase * a[qk]
                a[pk] = c * apk + s * rot
                a[qk] = neg_s * apk + c * rot
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
    products and squares from a table built once per call.  Draw indices are
    64-bit signed integers, as in the native kernel: a ``start`` or ``stop``
    outside [-2**63, 2**63) raises ``OverflowError`` before any draw.
    Weights and products are read as floats once per call, as the native
    kernel reads them: a complex or str is a ``TypeError``, an int beyond
    the range of a float an ``OverflowError``.
    """
    if not (_INT64_MIN <= start < _INT64_LIMIT and _INT64_MIN <= stop < _INT64_LIMIT):
        raise OverflowError(f"start {start} or stop {stop} is outside [-2**63, 2**63)")
    if not cum_weights:
        raise IndexError("cum_weights is empty")
    # ldexp(x, 0) is x as a float, -0.0 included; unlike float() it parses no str.
    ldexp = math.ldexp
    cum_weights = [ldexp(w, 0) for w in cum_weights]
    last = len(cum_weights) - 1
    table = []
    for base in range(0, 4 * len(cum_weights), 4):
        p1 = ldexp(products[base], 0)
        p2 = ldexp(products[base + 1], 0)
        p3 = ldexp(products[base + 2], 0)
        p4 = ldexp(products[base + 3], 0)
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
