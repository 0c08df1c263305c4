"""Two-qubit Hilbert-space machinery.

Spin operators sigma . a, tensor products, singlet-state expectations, the
CHSH operator

    B = A (x) B + A (x) B' + A' (x) B - A' (x) B',

the operator identity B^2 = 4*I - C with C = [A, A'] (x) [B, B'], and the
spectral norms that establish the 2*sqrt(2) ceiling.

Operators are formed on flat entry tuples, in the operation order of the matrix
sums and products they stand for.  Two routines form the matrix products:
``_hermitian_square`` the squares of exactly Hermitian matrices, from their
upper triangle, and ``_product`` every other product.

Conventions: computational basis ordered |00>, |01>, |10>, |11> with the left
tensor factor as side A; Pauli matrices sigma_x = [[0, 1], [1, 0]],
sigma_y = [[0, -i], [i, 0]], sigma_z = [[1, 0], [0, -1]].
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

from ._value import Value
from .geometry import UNIT_GATE_TOLERANCE, Configuration, Vec3, dot, require_unit

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)


class ComplexMatrix(Value):
    """Dense square complex matrix, entries flat row-major.

    ``entries`` is stored as a tuple whatever sequence is passed, so that
    equality, hashing and :meth:`is_hermitian` compare like with like.  The
    matrix product ``@`` (2x2 and 4x4 only) is plain Python, not a kernel: no
    CLI command forms more than 11 4x4 and 4 2x2 products, counting the squares
    of :func:`_hermitian_square`; ``@`` wraps :func:`_product`.
    """

    _fields = ("dim", "entries")

    def __init__(self, dim: int, entries: Sequence[complex]) -> None:
        if type(entries) is not tuple:
            entries = tuple(entries)
        # bool is an int subclass, but True is no dimension.
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise TypeError(f"matrix dimension must be an int, not {type(dim).__name__}")
        if dim < 1:
            raise ValueError("matrix dimension must be positive")
        if len(entries) != dim * dim:
            raise ValueError(f"{dim}x{dim} matrix needs {dim * dim} entries, got {len(entries)}")
        d = self.__dict__
        d["dim"] = dim
        d["entries"] = entries

    @classmethod
    def identity(cls, dim: int) -> "ComplexMatrix":
        return cls(dim, tuple(1 + 0j if i == j else 0j for i in range(dim) for j in range(dim)))

    def is_hermitian(self) -> bool:
        """Exactly equal to its conjugate transpose, entry by entry."""
        e = self.entries
        return e == tuple([e[k].conjugate() for k in _transposition(self.dim)])

    def _require_same_dim(self, other: "ComplexMatrix") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __matmul__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        """Matrix product of two 2x2 or two 4x4 matrices, by :func:`_product`."""
        if not isinstance(other, ComplexMatrix):
            return NotImplemented
        self._require_same_dim(other)
        return ComplexMatrix(self.dim, _product(self.entries, other.entries))

    def expectation(self, state: Sequence[complex]) -> complex:
        """Quadratic form <state| M |state>, summed row by row in index order."""
        n = self.dim
        if len(state) != n:
            raise ValueError(f"state has length {len(state)}, expected {n}")
        m = self.entries
        total = 0j
        for i in range(n):
            row = 0j
            for j in range(n):
                row = row + m[i * n + j] * state[j]
            total = total + state[i].conjugate() * row
        return total


def _product(x: Sequence[complex], y: Sequence[complex]) -> tuple[complex, ...]:
    """The one matrix product, of two flat 2x2 or two flat 4x4 matrices; else ValueError.

    Entry (i, j) is 0j + x[i,0]*y[0,j] + x[i,1]*y[1,j] + ..., summed left to right, spelled out.
    """
    if len(x) == 16:
        a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15 = x
        b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = y
        return (
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
        )
    if len(x) == 4:
        a0, a1, a2, a3 = x
        b0, b1, b2, b3 = y
        return (
            0j + a0 * b0 + a1 * b2,
            0j + a0 * b1 + a1 * b3,
            0j + a2 * b0 + a3 * b2,
            0j + a2 * b1 + a3 * b3,
        )
    n = math.isqrt(len(x))
    raise ValueError(f"matrix product expects 2x2 or 4x4 matrices, got {n}x{n}")


def _hermitian_square(x: Sequence[complex]) -> tuple[complex, ...]:
    """``_product(x, x)`` of a flat 2x2 or 4x4 matrix with finite entries that
    equals its conjugate transpose under ``==``, formed from the upper triangle.

    The diagonal and upper entries are ``_product``'s, with its expressions;
    each lower entry is the conjugate of its mirror.  That conjugate has the
    bits of ``_product``'s lower entry, except that an imaginary part which
    ``_product`` gives as +0.0 is -0.0 here:

    - Each part of a ``_product`` entry is a sum, left to right, from +0.0.
      A round-to-nearest sum is -0.0 only when both addends are, so it is
      never -0.0, and a zero addend of either sign leaves it unchanged.  A
      zero of either sign in a finite factor gives only zeros, of some sign,
      in the parts of its terms.  So no entry sees the sign of a zero in x
      or in a term.
    - With x[i,k] = a + bi and x[k,j] = c + di, term k of entry (i, j) is
      (ac - bd) + (ad + bc)i.  Term k of entry (j, i) is
      conj(x[k,j]) conj(x[i,k]) = (ca - db) + (-(cb) - da)i, up to the signs
      of zeros.  IEEE products and sums commute and rounding commutes with
      negation, so that is the conjugate of the former, up to the sign of a
      zero imaginary part.
    - Summed from +0.0, the negated nonzero terms give the negated sum, and a
      zero sum is +0.0 both ways.

    Such a -0.0 reaches nothing that is read: later products ignore it (first
    point), alpha and beta in :func:`operator_norm` are means of the real parts
    of diagonal entries, and ``abs`` ignores the signs of both parts.
    """
    if len(x) == 16:
        a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15 = x
        s0 = 0j + a0 * a0 + a1 * a4 + a2 * a8 + a3 * a12
        s1 = 0j + a0 * a1 + a1 * a5 + a2 * a9 + a3 * a13
        s2 = 0j + a0 * a2 + a1 * a6 + a2 * a10 + a3 * a14
        s3 = 0j + a0 * a3 + a1 * a7 + a2 * a11 + a3 * a15
        s5 = 0j + a4 * a1 + a5 * a5 + a6 * a9 + a7 * a13
        s6 = 0j + a4 * a2 + a5 * a6 + a6 * a10 + a7 * a14
        s7 = 0j + a4 * a3 + a5 * a7 + a6 * a11 + a7 * a15
        s10 = 0j + a8 * a2 + a9 * a6 + a10 * a10 + a11 * a14
        s11 = 0j + a8 * a3 + a9 * a7 + a10 * a11 + a11 * a15
        s15 = 0j + a12 * a3 + a13 * a7 + a14 * a11 + a15 * a15
        return (
            s0, s1, s2, s3,
            s1.conjugate(), s5, s6, s7,
            s2.conjugate(), s6.conjugate(), s10, s11,
            s3.conjugate(), s7.conjugate(), s11.conjugate(), s15,
        )
    a0, a1, a2, a3 = x
    s1 = 0j + a0 * a1 + a1 * a3
    return (0j + a0 * a0 + a1 * a2, s1, s1.conjugate(), 0j + a2 * a1 + a3 * a3)


def _commutator(x: Sequence[complex], y: Sequence[complex]) -> tuple[complex, ...]:
    """Flat XY - YX, entry by entry over the two :func:`_product` results."""
    return tuple(map(operator.sub, _product(x, y), _product(y, x)))


def _kron(x: Sequence[complex], y: Sequence[complex]) -> tuple[complex, ...]:
    """Flat Kronecker product of two flat 2x2 matrices, through :data:`_KRON`."""
    return tuple([x[i] * y[j] for i, j in _KRON])


# Kronecker index table: entry k = 4r + c of left (x) right is
# left[i] * right[j], i = 2(r // 2) + c // 2 and j = 2(r % 2) + c % 2.
_KRON = tuple((2 * (r // 2) + c // 2, 2 * (r % 2) + c % 2) for r in range(4) for c in range(4))
# (k, i, j) for the entries k = 4r + c, r <= c, on and above the diagonal.
_UPPER_KRON = tuple((k, i, j) for k, (i, j) in enumerate(_KRON) if k // 4 <= k % 4)
_FOUR_I = tuple(4.0 * z for z in ComplexMatrix.identity(4).entries)  # as identity(4) * 4.0
# operator_norm's tolerance on the entries of (M^2 - alpha I)^2 - beta I after
# its prescale: over twice the rounding bound derived in its docstring.
_SQUARE_TOLERANCE = 2.0**-37
_TRANSPOSITIONS: dict[int, tuple[int, ...]] = {}


def _transposition(n: int) -> tuple[int, ...]:
    """Flat indices of the transpose of an n x n matrix, cached per size."""
    if n not in _TRANSPOSITIONS:
        _TRANSPOSITIONS[n] = tuple(j * n + i for i in range(n) for j in range(n))
    return _TRANSPOSITIONS[n]


PAULI_X = ComplexMatrix(2, (0j, 1 + 0j, 1 + 0j, 0j))
PAULI_Y = ComplexMatrix(2, (0j, -1j, 1j, 0j))
PAULI_Z = ComplexMatrix(2, (1 + 0j, 0j, 0j, -1 + 0j))
IDENTITY_2 = ComplexMatrix.identity(2)

# Singlet amplitudes (|01> - |10>)/sqrt(2) in the fixed basis order.
_SINGLET = (0j, complex(math.sqrt(0.5), 0.0), complex(-math.sqrt(0.5), 0.0), 0j)


def _spin_entries(v: Vec3) -> tuple[complex, complex, complex, complex]:
    """Flat 2x2 matrix v_x sigma_x + v_y sigma_y + v_z sigma_z; no validation."""
    x, y, z = v
    return (complex(z, 0.0), complex(x, -y), complex(x, y), complex(-z, 0.0))


def spin_operator(direction: Sequence[float]) -> ComplexMatrix:
    """Spin component along ``direction``: d_x sigma_x + d_y sigma_y + d_z sigma_z.

    Hermitian and traceless with eigenvalues +/-1, hence operator norm 1.
    Non-unit directions are rejected (deviation above 1e-9) rather than
    silently normalized, because norm-1 observables are what the 2*sqrt(2)
    ceiling assumes.
    """
    d = require_unit(direction, UNIT_GATE_TOLERANCE, "spin direction")
    return ComplexMatrix(2, _spin_entries(d))


def tensor_product(left: ComplexMatrix, right: ComplexMatrix) -> ComplexMatrix:
    """Kronecker product of two 2x2 matrices (left factor acts on side A).

    Entry (r, c) is left[r // 2, c // 2] * right[r % 2, c % 2], by :func:`_kron`.
    Plain Python, not a kernel: no CLI command forms more than 4 such products.
    """
    if left.dim != 2 or right.dim != 2:
        raise ValueError(
            f"tensor_product expects two 2x2 matrices, got {left.dim}x{left.dim} "
            f"and {right.dim}x{right.dim}"
        )
    return ComplexMatrix(4, _kron(left.entries, right.entries))


def commutator_matrix(x: ComplexMatrix, y: ComplexMatrix) -> ComplexMatrix:
    """Matrix commutator [X, Y] = XY - YX of two 2x2 or two 4x4 matrices, by :func:`_product`.

    Raises TypeError for a non-matrix operand, and the ValueError of ``@`` for other sizes.
    """
    if not (isinstance(x, ComplexMatrix) and isinstance(y, ComplexMatrix)):
        raise TypeError("commutator_matrix expects two ComplexMatrix operands")
    x._require_same_dim(y)
    return ComplexMatrix(x.dim, _commutator(x.entries, y.entries))


def singlet_state() -> tuple[complex, complex, complex, complex]:
    """Amplitudes of the two-qubit singlet (|01> - |10>)/sqrt(2)."""
    return _SINGLET


def _correlation_from_vectors(a: Vec3, b: Vec3) -> float:
    """Singlet expectation of (sigma.a)(x)(sigma.b), in real arithmetic; no validation.

    The real part of the Kronecker pipeline (tensor_product, then the
    quadratic form), worked out by hand; wherever the products stay finite
    it equals that pipeline's result up to the sign of a zero.  Only the
    Kronecker entries at rows and columns |01>, |10> meet a nonzero singlet
    amplitude, +h and -h with h = sqrt(0.5):

        m11 = (z_a)(-z_b)                   m12 = (x_a - i y_a)(x_b + i y_b)
        m21 = (x_a + i y_a)(x_b - i y_b)    m22 = (-z_a)(z_b)

    - The amplitudes are real, so every imaginary part of an entry meets an
      exact 0.0 on its way to the real part, where it can change only the
      sign of a zero.
    - Re m12 = Re m21 = x_a x_b + y_a y_b and m22 = m11 = -(z_a z_b)
      exactly, since (-u) v == u (-v) == -(u v) and u - (-v) == u + v in
      IEEE arithmetic.
    - So the rows of the quadratic form, m11 h - m12 h and m21 h - m22 h,
      are exact negatives of each other, and the conjugated amplitudes +h
      and -h make the two terms of the final sum equal:
      2 h (m11 h - m12 h).
    """
    m11 = a[2] * -b[2]
    m12 = a[0] * b[0] + a[1] * b[1]
    h = _SINGLET[1].real
    return 2.0 * (h * (m11 * h - m12 * h))


def singlet_correlation(a: Sequence[float], b: Sequence[float]) -> float:
    """Correlation <psi|(sigma.a)(x)(sigma.b)|psi> in the singlet, by matrix contraction.

    Equals -a.b; the closed form is kept separate as an independent oracle.
    The contraction takes the four entries of (sigma.a)(x)(sigma.b) at rows
    and columns |01>, |10>: the other twelve meet a zero singlet amplitude
    on the row or the column side, so they add only exact zeros.  It is
    worked in real arithmetic (see :func:`_correlation_from_vectors`) and
    equals the Kronecker pipeline up to the sign of a zero.
    """
    ua = require_unit(a, UNIT_GATE_TOLERANCE, "a")
    ub = require_unit(b, UNIT_GATE_TOLERANCE, "b")
    return _correlation_from_vectors(ua, ub)


def singlet_correlation_closed_form(a: Sequence[float], b: Sequence[float]) -> float:
    """Closed-form singlet correlation -a.b = -cos(angle between a and b)."""
    ua = require_unit(a, UNIT_GATE_TOLERANCE, "a")
    ub = require_unit(b, UNIT_GATE_TOLERANCE, "b")
    return -dot(ua, ub)


def chsh_operator(cfg: Configuration) -> ComplexMatrix:
    """The CHSH operator A(x)B + A(x)B' + A'(x)B - A'(x)B' on the joint space.

    Entry 4r + c is a[i] b[j] + a[i] b'[j] + a'[i] b[j] - a'[i] b'[j], with
    (i, j) the Kronecker indices of :data:`_KRON`, spelled out.
    """
    a0, a1, a2, a3 = _spin_entries(cfg.a)
    ap0, ap1, ap2, ap3 = _spin_entries(cfg.a_prime)
    b0, b1, b2, b3 = _spin_entries(cfg.b)
    bp0, bp1, bp2, bp3 = _spin_entries(cfg.b_prime)
    return ComplexMatrix(4, (
        a0 * b0 + a0 * bp0 + ap0 * b0 - ap0 * bp0,
        a0 * b1 + a0 * bp1 + ap0 * b1 - ap0 * bp1,
        a1 * b0 + a1 * bp0 + ap1 * b0 - ap1 * bp0,
        a1 * b1 + a1 * bp1 + ap1 * b1 - ap1 * bp1,
        a0 * b2 + a0 * bp2 + ap0 * b2 - ap0 * bp2,
        a0 * b3 + a0 * bp3 + ap0 * b3 - ap0 * bp3,
        a1 * b2 + a1 * bp2 + ap1 * b2 - ap1 * bp2,
        a1 * b3 + a1 * bp3 + ap1 * b3 - ap1 * bp3,
        a2 * b0 + a2 * bp0 + ap2 * b0 - ap2 * bp0,
        a2 * b1 + a2 * bp1 + ap2 * b1 - ap2 * bp1,
        a3 * b0 + a3 * bp0 + ap3 * b0 - ap3 * bp0,
        a3 * b1 + a3 * bp1 + ap3 * b1 - ap3 * bp1,
        a2 * b2 + a2 * bp2 + ap2 * b2 - ap2 * bp2,
        a2 * b3 + a2 * bp3 + ap2 * b3 - ap2 * bp3,
        a3 * b2 + a3 * bp2 + ap3 * b2 - ap3 * bp2,
        a3 * b3 + a3 * bp3 + ap3 * b3 - ap3 * bp3,
    ))


def chsh_squared_identity_deviation(cfg: Configuration) -> float:
    """Max elementwise deviation of B^2 from 4*I - C, C = [A, A'] (x) [B, B'].

    Both sides are assembled independently as entry tuples.  The commutator
    factors act on different tensor slots, which is what lets C be formed as
    a single Kronecker product; :func:`cross_commutator_residual` reports
    that premise.

    The maximum is taken over the entries on and above the diagonal.  B^2 and
    C are Hermitian up to the signs of zeros: B^2 by the argument of
    :func:`_hermitian_square`, and C because, by the same argument, both
    commutators are anti-Hermitian up to the signs of zeros, so where C's
    entry (r, c) is uv its entry (c, r) is (-conj u)(-conj v), which IEEE
    arithmetic makes conj(uv) up to the sign of a zero.  So each entry below
    the diagonal deviates by the modulus of its mirror.
    """
    op = chsh_operator(cfg).entries
    squared = _hermitian_square(op)
    a, ap, b, bp = map(_spin_entries, cfg.vectors())
    ca, cb = _commutator(a, ap), _commutator(b, bp)
    return max([abs(squared[k] - (_FOUR_I[k] - ca[i] * cb[j])) for k, i, j in _UPPER_KRON])


def cross_commutator_residual(cfg: Configuration) -> float:
    """Largest entry of any cross-factor commutator [X (x) I, I (x) Y].

    The maximum over the four pairs drawn from {A, A'} x {B, B'}.  It is
    exactly zero in floating point too: each nonzero entry of (X (x) I)(I (x) Y)
    is a single product x*y, because the factors 1 and 0 are exact, and IEEE
    complex products commute bit for bit.
    """
    a, ap, b, bp = map(_spin_entries, cfg.vectors())
    b_ops = [_kron(IDENTITY_2.entries, y) for y in (b, bp)]
    residual = 0.0
    for x in (_kron(a, IDENTITY_2.entries), _kron(ap, IDENTITY_2.entries)):
        for y in b_ops:
            residual = max(residual, max(map(abs, _commutator(x, y))))
    return residual


def _traceless_part(x: Sequence[complex], n: int) -> tuple[float, list[complex]]:
    """The mean t of the real diagonal of a flat n x n matrix X, summed left to
    right, and X - t*I; each imaginary part is kept."""
    diagonal = range(0, n * n, n + 1)
    mean = 0.0
    for i in diagonal:
        mean += x[i].real
    mean /= n
    shifted = list(x)
    for i in diagonal:
        shifted[i] = complex(x[i].real - mean, x[i].imag)
    return mean, shifted


def operator_norm(m: ComplexMatrix) -> float:
    """Spectral norm of an exactly Hermitian 2x2 or 4x4 matrix, from its square.

    With S = M @ M, alpha = tr S / n and K = S - alpha*I, the norm is
    sqrt(alpha + sqrt(beta)) whenever K @ K = beta*I.  That holds exactly
    when M^2 has at most two eigenvalues, each of multiplicity n/2: K then
    has the eigenvalues +-sqrt(beta), so the largest eigenvalue of M^2,
    which is ||M||^2, is alpha + sqrt(beta).  Every 2x2 Hermitian matrix
    qualifies (K is traceless, so K^2 = -det(K) I).  So do the CHSH operator
    B, whose square is 4I - C, and C = [A, A'] (x) [B, B'], whose square is
    16 |a x a'|^2 |b x b'|^2 I (Landau, Phys. Lett. A 120, 54, 1987).  They
    are Hermitian bit for bit, because IEEE complex products commute and
    conjugation distributes over them exactly.

    The matrix is first scaled by the power of two 2**-e that brings its
    largest real or imaginary part into [0.5, 1), and the norm is scaled
    back by 2**e.  Both scalings are exact, so the norm is accurate from
    1e-300 to 1e300.

    Rounding tolerance.  After the prescale every part is below 1, so every
    |m_ij| < sqrt(2).  In exact arithmetic |S_ij|, alpha and |K_ij| are then
    below 2n <= 8, and |(K @ K)_ij| below 4 * 8 * 8 = 256.  Products of exactly
    Hermitian matrices are exactly Hermitian, with real diagonals, for the
    reason above.  S and K @ K are formed by :func:`_hermitian_square`, whose
    upper entries are those of ``_product`` and whose lower entries are their
    exact conjugates.  Each entry is then a complex inner product of length n
    <= 4, within sqrt(2) * gamma_6 < 8.5u of the sum of its terms' moduli,
    with u = 2**-53 (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., 2002, section 3.6).  So, entry by entry and in modulus, the
    computed S is within 68u of S, alpha within 93u and K within 170u; K @ K
    is within 4 * 2 * 170u * 8 + 8.5u * 256 < 13,100u, and beta, the mean of
    its diagonal, within 13,900u.  Every entry of the computed K @ K - beta*I
    is then within 27,100u of its exact value, which is 0 on a matrix that
    qualifies.  The tolerance 2**-37 = 65,536u is over twice that.  A matrix
    that only nearly qualifies passes too; its norm is then off by at most
    2e-5 relative, where on B and C the error is rounding.

    Raises TypeError naming the first entry that is not a number, and
    ValueError naming the first non-finite entry, for a matrix that is not
    exactly Hermitian, for a size other than 2x2 and 4x4, and for a matrix
    whose square has other eigenvalues.
    """
    n = m.dim
    if n not in (2, 4):
        raise ValueError(f"operator_norm expects a 2x2 or 4x4 matrix, got {n}x{n}")
    entries = m.entries
    isfinite = math.isfinite
    try:
        reals = [z.real for z in entries]
        imags = [z.imag for z in entries]
        finite = all(map(isfinite, reals)) and all(map(isfinite, imags))
    except (AttributeError, TypeError):
        finite = False
    if not finite:
        # Walk the entries in order, to name the first bad one.
        for index, z in enumerate(entries):
            try:
                x, y = z.real, z.imag
            except AttributeError:
                raise TypeError(
                    f"matrix entry ({index // n}, {index % n}) must be a number,"
                    f" not {type(z).__name__}"
                ) from None
            if not (isfinite(x) and isfinite(y)):
                raise ValueError(f"matrix entry ({index // n}, {index % n}) is not finite: {z!r}")
    if not m.is_hermitian():
        raise ValueError("operator_norm expects an exactly Hermitian matrix")
    # frexp(0.0) gives exponent 0: the zero matrix is left unscaled.
    exponent = math.frexp(max(max(map(abs, reals)), max(map(abs, imags))))[1]
    ldexp = math.ldexp
    scaled = [complex(ldexp(x, -exponent), ldexp(y, -exponent)) for x, y in zip(reals, imags)]
    alpha, k = _traceless_part(_hermitian_square(scaled), n)
    beta, residual = _traceless_part(_hermitian_square(k), n)
    deviation = max(map(abs, residual))
    if not deviation <= _SQUARE_TOLERANCE:
        raise ValueError(
            "operator_norm needs a matrix whose square has at most two eigenvalues, each of"
            f" multiplicity {n // 2}: (M^2 - alpha I)^2 deviates from beta I by {deviation:.3g}"
            " after the prescale"
        )
    return ldexp(math.sqrt(alpha + math.sqrt(beta)), exponent)


def _chsh_value_from_vectors(a: Vec3, ap: Vec3, b: Vec3, bp: Vec3) -> float:
    """|corr(a,b) + corr(a,b') + corr(a',b) - corr(a',b')|; no validation."""
    return abs(
        _correlation_from_vectors(a, b)
        + _correlation_from_vectors(a, bp)
        + _correlation_from_vectors(ap, b)
        - _correlation_from_vectors(ap, bp)
    )


def chsh_quantum_value(cfg: Configuration) -> float:
    """Absolute value of the four-term singlet correlation combination.

    Computed by contracting spin-operator Kronecker entries with the singlet
    (see :func:`singlet_correlation`), equal to the Kronecker pipeline up to
    the sign of a zero; bounded by 2*sqrt(2) for every configuration and
    attains it at :func:`canonical_configuration`.
    """
    return _chsh_value_from_vectors(cfg.a, cfg.a_prime, cfg.b, cfg.b_prime)
