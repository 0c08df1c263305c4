"""Two-qubit Hilbert-space machinery.

Spin operators sigma . a, tensor products, singlet-state expectations, the
CHSH operator

    B = A (x) B + A (x) B' + A' (x) B - A' (x) B',

the operator identity B^2 = 4*I - C with C = [A, A'] (x) [B, B'], and the
spectral norms that establish the 2*sqrt(2) ceiling.

Conventions: computational basis ordered |00>, |01>, |10>, |11> with the left
tensor factor as side A; Pauli matrices sigma_x = [[0, 1], [1, 0]],
sigma_y = [[0, -i], [i, 0]], sigma_z = [[1, 0], [0, -1]].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import _kernels
from .geometry import UNIT_GATE_TOLERANCE, Configuration, Vec3, dot, require_unit

__all__ = [
    "ComplexMatrix",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "IDENTITY_2",
    "spin_operator",
    "tensor_product",
    "commutator_matrix",
    "singlet_state",
    "singlet_correlation",
    "singlet_correlation_closed_form",
    "chsh_operator",
    "chsh_squared_identity_deviation",
    "cross_commutator_residual",
    "operator_norm",
    "chsh_quantum_value",
    "TSIRELSON_BOUND",
]

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

IMAG_RESIDUE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ComplexMatrix:
    """Dense square complex matrix, entries flat row-major."""

    dim: int
    entries: tuple[complex, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("matrix dimension must be positive")
        if len(self.entries) != self.dim * self.dim:
            raise ValueError(
                f"{self.dim}x{self.dim} matrix needs {self.dim * self.dim} entries, "
                f"got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[complex]]) -> "ComplexMatrix":
        dim = len(rows)
        for row in rows:
            if len(row) != dim:
                raise ValueError(f"every row of a {dim}x{dim} matrix needs {dim} entries")
        return cls(dim, tuple(complex(v) for row in rows for v in row))

    @classmethod
    def identity(cls, dim: int) -> "ComplexMatrix":
        return cls(dim, tuple(1 + 0j if i == j else 0j for i in range(dim) for j in range(dim)))

    def dagger(self) -> "ComplexMatrix":
        n = self.dim
        return ComplexMatrix(
            n, tuple(self.entries[j * n + i].conjugate() for i in range(n) for j in range(n))
        )

    def is_hermitian(self) -> bool:
        """Exactly equal to its conjugate transpose, entry by entry."""
        return self.entries == self.dagger().entries

    def max_abs_entry(self) -> float:
        return max(abs(v) for v in self.entries)

    def max_abs_difference(self, other: "ComplexMatrix") -> float:
        self._require_same_dim(other)
        return max(abs(x - y) for x, y in zip(self.entries, other.entries))

    def _require_same_dim(self, other: "ComplexMatrix") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        self._require_same_dim(other)
        return ComplexMatrix(self.dim, tuple(x + y for x, y in zip(self.entries, other.entries)))

    def __sub__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        self._require_same_dim(other)
        return ComplexMatrix(self.dim, tuple(x - y for x, y in zip(self.entries, other.entries)))

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float, complex)):
            return ComplexMatrix(self.dim, tuple(scalar * v for v in self.entries))
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        self._require_same_dim(other)
        return ComplexMatrix(
            self.dim, tuple(_kernels.matmul(self.entries, other.entries, self.dim))
        )

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

    Entry (r, c) is left[r // 2, c // 2] * right[r % 2, c % 2].  Plain
    Python, not a kernel: no CLI command forms more than 17 such products.
    """
    if left.dim != 2 or right.dim != 2:
        raise ValueError(
            f"tensor_product expects two 2x2 matrices, got {left.dim}x{left.dim} "
            f"and {right.dim}x{right.dim}"
        )
    a0, a1, a2, a3 = left.entries
    b0, b1, b2, b3 = right.entries
    return ComplexMatrix(4, (
        a0 * b0, a0 * b1, a1 * b0, a1 * b1,
        a0 * b2, a0 * b3, a1 * b2, a1 * b3,
        a2 * b0, a2 * b1, a3 * b0, a3 * b1,
        a2 * b2, a2 * b3, a3 * b2, a3 * b3,
    ))


def commutator_matrix(x: ComplexMatrix, y: ComplexMatrix) -> ComplexMatrix:
    """Matrix commutator [X, Y] = XY - YX."""
    return (x @ y) - (y @ x)


def singlet_state() -> tuple[complex, complex, complex, complex]:
    """Amplitudes of the two-qubit singlet (|01> - |10>)/sqrt(2)."""
    return _SINGLET


def _correlation_from_vectors(a: Vec3, b: Vec3) -> float:
    """Singlet expectation of (sigma.a)(x)(sigma.b); no input validation.

    The singlet's amplitudes on |00> and |11> are zero, so of the 16 entries
    of the Kronecker product only the four at rows and columns |01>, |10>
    contribute; the ``singlet_expectation`` kernel contracts just those,
    with the same complex products as the full Kronecker-product pipeline.
    """
    value = _kernels.singlet_expectation(a, b)
    if abs(value.imag) > IMAG_RESIDUE_TOLERANCE:
        raise RuntimeError(
            "singlet expectation of a Hermitian observable has imaginary residue "
            f"{value.imag:.3e}; the operator pipeline is broken"
        )
    return value.real


def singlet_correlation(a: Sequence[float], b: Sequence[float]) -> float:
    """Correlation <psi|(sigma.a)(x)(sigma.b)|psi> in the singlet, by matrix contraction.

    Equals -a.b; the closed form is kept separate as an independent oracle.
    The contraction takes the four entries of (sigma.a)(x)(sigma.b) at rows
    and columns |01>, |10>: the other twelve meet a zero singlet amplitude
    on the row or the column side, so they add only exact zeros.  The
    imaginary residue of the contraction is checked (must not exceed 1e-9)
    and discarded.
    """
    ua = require_unit(a, UNIT_GATE_TOLERANCE, "a")
    ub = require_unit(b, UNIT_GATE_TOLERANCE, "b")
    return _correlation_from_vectors(ua, ub)


def singlet_correlation_closed_form(a: Sequence[float], b: Sequence[float]) -> float:
    """Closed-form singlet correlation -a.b = -cos(angle between a and b)."""
    ua = require_unit(a, UNIT_GATE_TOLERANCE, "a")
    ub = require_unit(b, UNIT_GATE_TOLERANCE, "b")
    return -dot(ua, ub)


def _spin_matrices(
    cfg: Configuration,
) -> tuple[ComplexMatrix, ComplexMatrix, ComplexMatrix, ComplexMatrix]:
    """The 2x2 spin matrices A, A', B, B' of a configuration; no validation."""
    return tuple(ComplexMatrix(2, _spin_entries(v)) for v in cfg.vectors())


def _chsh_operator(sa, sap, sb, sbp) -> ComplexMatrix:
    """A(x)B + A(x)B' + A'(x)B - A'(x)B' from the four 2x2 spin matrices."""
    return (
        tensor_product(sa, sb)
        + tensor_product(sa, sbp)
        + tensor_product(sap, sb)
        - tensor_product(sap, sbp)
    )


def chsh_operator(cfg: Configuration) -> ComplexMatrix:
    """The CHSH operator A(x)B + A(x)B' + A'(x)B - A'(x)B' on the joint space."""
    return _chsh_operator(*_spin_matrices(cfg))


def chsh_squared_identity_deviation(cfg: Configuration) -> float:
    """Max elementwise deviation of B^2 from 4*I - C, C = [A, A'] (x) [B, B'].

    Both sides are assembled independently as 4x4 matrices, from one set of
    spin matrices.  The commutator factors act on different tensor slots,
    which is what lets C be formed as a single Kronecker product;
    :func:`cross_commutator_residual` checks that premise numerically.
    """
    spins = _spin_matrices(cfg)
    residual = _cross_commutator_residual(*spins)
    if residual > 1e-12:
        raise RuntimeError(
            f"cross-factor commutators do not vanish (max entry {residual:.3e}); "
            "the tensor assembly is broken"
        )
    op = _chsh_operator(*spins)
    squared = op @ op
    sa, sap, sb, sbp = spins
    c_joint = tensor_product(commutator_matrix(sa, sap), commutator_matrix(sb, sbp))
    rhs = ComplexMatrix.identity(4) * 4.0 - c_joint
    return squared.max_abs_difference(rhs)


def _cross_commutator_residual(sa, sap, sb, sbp) -> float:
    """Largest entry of [X (x) I, I (x) Y] over X in {A, A'} and Y in {B, B'}."""
    a_ops = [tensor_product(s, IDENTITY_2) for s in (sa, sap)]
    b_ops = [tensor_product(IDENTITY_2, s) for s in (sb, sbp)]
    residual = 0.0
    for x in a_ops:
        for y in b_ops:
            residual = max(residual, commutator_matrix(x, y).max_abs_entry())
    return residual


def cross_commutator_residual(cfg: Configuration) -> float:
    """Largest entry of any cross-factor commutator [X (x) I, I (x) Y].

    Exactly zero in exact arithmetic for every pair drawn from
    {A, A'} x {B, B'}; returns the numerical maximum over the four pairs.
    """
    return _cross_commutator_residual(*_spin_matrices(cfg))


def operator_norm(m: ComplexMatrix) -> float:
    """Spectral norm via the Jacobi eigensolver.

    Exactly Hermitian input: the largest absolute eigenvalue.  Any other
    input: sqrt of the largest eigenvalue of M-dagger M, with M first scaled
    by the power of two 2**-e that brings its largest real or imaginary part
    into [0.5, 1), so that the Gram matrix cannot overflow or underflow; the
    norm is scaled back by 2**e.  Both scalings are exact.
    Raises ValueError naming the first non-finite entry, and RuntimeError if
    the eigensolver fails to converge.
    """
    for index, z in enumerate(m.entries):
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(
                f"matrix entry ({index // m.dim}, {index % m.dim}) is not finite: {z!r}"
            )
    if m.is_hermitian():
        eigs = _kernels.eigvals_hermitian(m.entries, m.dim)
        return max(abs(eigs[0]), abs(eigs[-1]))
    exponent = math.frexp(max(max(abs(z.real), abs(z.imag)) for z in m.entries))[1]
    scaled = ComplexMatrix(
        m.dim,
        tuple(
            complex(math.ldexp(z.real, -exponent), math.ldexp(z.imag, -exponent))
            for z in m.entries
        ),
    )
    gram = scaled.dagger() @ scaled
    eigs = _kernels.eigvals_hermitian(gram.entries, gram.dim)
    return math.ldexp(math.sqrt(max(0.0, eigs[-1])), exponent)


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
    (see :func:`singlet_correlation`); bounded by 2*sqrt(2) for every
    configuration and attains it at :func:`canonical_configuration`.
    """
    return _chsh_value_from_vectors(cfg.a, cfg.a_prime, cfg.b, cfg.b_prime)
