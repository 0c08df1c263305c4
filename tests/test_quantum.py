import hashlib
import itertools
import math
import operator
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chshbounds import quantum, rng
from chshbounds.ga import E1, Multivector, commutator
from chshbounds.geometry import (
    Configuration,
    canonical_configuration,
    cross,
    dot,
    magnitude,
    normalized,
    random_configuration,
    random_unit_vector,
)
from chshbounds.quantum import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    TSIRELSON_BOUND,
    ComplexMatrix,
    chsh_operator,
    chsh_quantum_value,
    chsh_squared_identity_deviation,
    commutator_matrix,
    cross_commutator_residual,
    operator_norm,
    singlet_correlation,
    singlet_correlation_closed_form,
    singlet_state,
    spin_operator,
    tensor_product,
)
from chshbounds.vector_values import (
    ResponseCoefficients,
    chsh_vector_value,
    vector_bound_expression,
)
SQRT8 = 2.0 * math.sqrt(2.0)

# Random inputs in each specification test.
RANDOM_INPUTS = 10_000

SIGNED_AXES = [
    tuple(s if i == k else 0.0 for i in range(3)) for k in range(3) for s in (1.0, -1.0)
]


def _np(m: ComplexMatrix) -> np.ndarray:
    return np.array(m.entries, dtype=complex).reshape(m.dim, m.dim)


def test_tsirelson_constant():
    assert TSIRELSON_BOUND == 2.8284271247461903


def test_pauli_algebra():
    assert _np(PAULI_X @ PAULI_X).tolist() == np.eye(2).tolist()
    assert np.allclose(_np(PAULI_X @ PAULI_Y), 1j * _np(PAULI_Z))
    assert np.allclose(
        _np(commutator_matrix(PAULI_X, PAULI_Y)), 2j * _np(PAULI_Z)
    )


def test_spin_operator_is_pauli_combination():
    for i in range(100):
        n = random_unit_vector(50, i)
        got = _np(spin_operator(n))
        expected = n[0] * _np(PAULI_X) + n[1] * _np(PAULI_Y) + n[2] * _np(PAULI_Z)
        assert np.max(np.abs(got - expected)) == 0.0
        eigs = np.linalg.eigvalsh(got)
        assert np.allclose(eigs, [-1.0, 1.0], atol=1e-12)


def test_spin_operator_rejects_non_unit():
    with pytest.raises(ValueError):
        spin_operator((1.0, 1.0, 0.0))


def test_spin_commutator_mirrors_algebra_commutator():
    # under e_k -> sigma_k the geometric product becomes the matrix product,
    # so matrix commutators of spin operators must be the image of the
    # multivector commutator
    pauli = (_np(PAULI_X), _np(PAULI_Y), _np(PAULI_Z))
    blades = [np.eye(2, dtype=complex)]
    for m in pauli:
        blades.append(m)
    blades.append(pauli[0] @ pauli[1])
    blades.append(pauli[0] @ pauli[2])
    blades.append(pauli[1] @ pauli[2])
    blades.append(pauli[0] @ pauli[1] @ pauli[2])
    for i in range(50):
        u = random_unit_vector(51, 2 * i)
        v = random_unit_vector(51, 2 * i + 1)
        matrix_side = _np(commutator_matrix(spin_operator(u), spin_operator(v)))
        algebra_side = commutator(Multivector.from_vector(u), Multivector.from_vector(v))
        image = sum(c * b for c, b in zip(algebra_side.coefficients, blades))
        assert np.max(np.abs(matrix_side - image)) < 1e-12


def test_tensor_product_matches_numpy():
    s = rng.CounterStream(60)
    for _ in range(30):
        a = ComplexMatrix(2, tuple(complex(s.uniform(-1, 1), s.uniform(-1, 1)) for _ in range(4)))
        b = ComplexMatrix(2, tuple(complex(s.uniform(-1, 1), s.uniform(-1, 1)) for _ in range(4)))
        assert np.max(np.abs(_np(tensor_product(a, b)) - np.kron(_np(a), _np(b)))) < 1e-14


def test_tensor_product_requires_2x2():
    with pytest.raises(ValueError):
        tensor_product(ComplexMatrix.identity(4), ComplexMatrix.identity(2))


def test_commutator_matrix_raises_the_errors_of_the_matrix_product():
    # A non-matrix operand on either side is a TypeError; mismatched and
    # unsupported sizes raise what ``@`` raises for them.
    for x, y in ((PAULI_X, 3), (2.0, PAULI_X), (E1, PAULI_X)):
        with pytest.raises(TypeError):
            commutator_matrix(x, y)
    with pytest.raises(ValueError, match=re.escape("dimension mismatch: 2 vs 4")):
        commutator_matrix(PAULI_X, ComplexMatrix.identity(4))
    three = ComplexMatrix.identity(3)
    message = "matrix product expects 2x2 or 4x4 matrices, got 3x3"
    with pytest.raises(ValueError, match=re.escape(message)):
        commutator_matrix(three, three)


def _rand_complex(r):
    """Half of the draws are exactly real, imaginary or zero, so that the
    zero-sign paths of the complex arithmetic are exercised too."""
    re, im = r.uniform(-1, 1), r.uniform(-1, 1)
    return r.choice((complex(re, 0.0), complex(0.0, im), 0j) + (complex(re, im),) * 3)


# test_kernels.py runs the kron and matmul specifications below once per backend.


def _rand_special_complex(r, nonfinite):
    """Each part is +-0.0 or a uniform draw, or with probability ``nonfinite``
    an infinity or a NaN."""

    def part():
        if r.random() < nonfinite:
            return r.choice((math.inf, -math.inf, math.nan))
        return r.choice((0.0, -0.0, r.uniform(-1, 1), r.uniform(-1, 1)))

    return complex(part(), part())


def _matrix_bits(entries):
    """Exact bit patterns of complex entries, so 0.0 and -0.0 count as different."""
    return [(z.real.hex(), z.imag.hex()) for z in entries]


def _kron_spec(a, b):
    """Entry (r, c) of the Kronecker product is a[r // 2, c // 2] * b[r % 2, c % 2]."""
    return [a[2 * (r // 2) + c // 2] * b[2 * (r % 2) + c % 2] for r in range(4) for c in range(4)]


def _matmul_spec(a, b, n):
    """Entry (i, j) is 0j + a[i,0]*b[0,j] + ... + a[i,n-1]*b[n-1,j], added left to right."""
    out = []
    for i in range(n):
        for j in range(n):
            acc = 0j
            for k in range(n):
                acc = acc + a[i * n + k] * b[k * n + j]
            out.append(acc)
    return out


def _product(a, b, n):
    return (quantum.ComplexMatrix(n, a) @ quantum.ComplexMatrix(n, b)).entries


def _rand_matrix(r, n):
    return [_rand_complex(r) for _ in range(n * n)]


def test_matrix_product_matches_numpy():
    """n = 2 and n = 4: the specification's bits, and numpy's values to
    within rounding.  Any other size is refused."""
    r = random.Random(11)
    for i in range(RANDOM_INPUTS):
        n = 2 + 2 * (i % 2)
        a = _rand_matrix(r, n)
        b = _rand_matrix(r, n)
        got = _product(a, b, n)
        assert _matrix_bits(got) == _matrix_bits(_matmul_spec(a, b, n))
        if i < 120:
            expected = np.array(a).reshape(n, n) @ np.array(b).reshape(n, n)
            assert np.max(np.abs(np.array(got).reshape(n, n) - expected)) < 1e-14
    for n in (1, 3):
        m = quantum.ComplexMatrix.identity(n)
        with pytest.raises(ValueError, match=f"expects 2x2 or 4x4 matrices, got {n}x{n}"):
            m @ m


def test_matrix_expectation_matches_numpy():
    r = random.Random(12)
    for i in range(400):
        n = 1 + i % 4
        m = _rand_matrix(r, n)
        psi = [_rand_complex(r) for _ in range(n)]
        p = np.array(psi)
        expected = p.conj() @ (np.array(m).reshape(n, n) @ p)
        assert abs(quantum.ComplexMatrix(n, tuple(m)).expectation(psi) - expected) < 1e-14


def test_singlet_state_is_normalized_and_antisymmetric():
    psi = singlet_state()
    assert abs(sum(abs(c) ** 2 for c in psi) - 1.0) < 1e-15
    assert psi[0] == 0j and psi[3] == 0j
    assert psi[1] == -psi[2]


def test_singlet_correlation_equals_minus_cosine():
    for i in range(300):
        a = random_unit_vector(61, 2 * i)
        b = random_unit_vector(61, 2 * i + 1)
        pipeline = singlet_correlation(a, b)
        closed = singlet_correlation_closed_form(a, b)
        assert abs(pipeline - closed) < 1e-12
        assert abs(closed + sum(x * y for x, y in zip(a, b))) == 0.0


def _unit_free_singlet_oracle(a, b):
    """The Kronecker pipeline, tensor_product then the quadratic form, on spin
    matrices built without the unit gate, so that any finite a and b go in."""
    left = ComplexMatrix(2, quantum._spin_entries(a))
    right = ComplexMatrix(2, quantum._spin_entries(b))
    return tensor_product(left, right).expectation(singlet_state())


def _assert_real_part_of_oracle(a, b):
    # The pipeline's imaginary part is exactly zero, not merely small, so
    # the real-arithmetic correlation loses nothing by leaving it out.
    oracle = _unit_free_singlet_oracle(a, b)
    assert quantum._correlation_from_vectors(a, b) == oracle.real, (a, b)
    assert oracle.imag == 0.0, (a, b)


_component = st.floats(min_value=-1.0, max_value=1.0)


@st.composite
def _scaled_directions(draw):
    """A finite direction, unit or not, scaled by 10**k for |k| <= 150."""
    v = draw(st.tuples(_component, _component, _component))
    if draw(st.booleans()) and any(v):
        v = normalized(v)
    scale = 10.0 ** draw(st.integers(min_value=-150, max_value=150))
    return tuple(scale * x for x in v)


@settings(derandomize=True, max_examples=500)
@given(_scaled_directions(), _scaled_directions())
def test_correlation_is_the_real_part_of_the_kronecker_pipeline(a, b):
    _assert_real_part_of_oracle(a, b)


def test_correlation_matches_the_pipeline_on_axes_and_scaled_inputs():
    s = rng.CounterStream(65)
    directions = list(SIGNED_AXES)
    for exponent in range(-150, 151, 10):
        for _ in range(50):
            directions.append(tuple(10.0**exponent * x for x in s.unit_vector()))
            directions.append(tuple(10.0**exponent * s.uniform(-1, 1) for _ in range(3)))
    pairs = [(a, b) for a in SIGNED_AXES for b in SIGNED_AXES]
    pairs += [(a, directions[s.below(len(directions))]) for a in directions]
    for a, b in pairs:
        _assert_real_part_of_oracle(a, b)


def _rand_direction(r):
    """A unit vector; a third lie on a coordinate axis and a third in the xy-plane."""
    theta, z = r.uniform(0, 2 * math.pi), r.uniform(-1, 1)
    rho = math.sqrt(1 - z * z)
    axis = [0.0, 0.0, 0.0]
    axis[r.randrange(3)] = r.choice((1.0, -1.0))
    planar = (math.cos(theta), math.sin(theta), 0.0)
    return r.choice((tuple(axis), planar, (rho * planar[0], rho * planar[1], z)))


def _singlet_oracle(a, b):
    """The unfused pipeline: the full Kronecker product, then the quadratic form."""
    joint = quantum.tensor_product(quantum.spin_operator(a), quantum.spin_operator(b))
    return joint.expectation(quantum.singlet_state())


def _exact_zero_directions():
    """Signed axes and planar diagonals, whose spin matrices hold exact zeros."""
    h = math.sqrt(0.5)
    axes = [tuple(s if i == k else 0.0 for i in range(3)) for k in range(3) for s in (1.0, -1.0)]
    diagonals = [
        tuple(u if i == p else (v if i == q else 0.0) for i in range(3))
        for p, q in ((0, 1), (0, 2), (1, 2))
        for u in (h, -h)
        for v in (h, -h)
    ]
    return axes + diagonals


def test_singlet_pipeline_identical():
    """The real-arithmetic singlet correlation matches the real part of the
    unfused Kronecker-product pipeline up to the sign of a zero (``==``)."""
    r = random.Random(15)
    special = _exact_zero_directions()
    pairs = [(_rand_direction(r), _rand_direction(r)) for _ in range(RANDOM_INPUTS)]
    pairs += [(a, b) for a in special for b in special]
    for a, b in pairs:
        assert quantum._correlation_from_vectors(a, b) == _singlet_oracle(a, b).real


def test_singlet_correlation_axis_cases():
    z = (0.0, 0.0, 1.0)
    assert abs(singlet_correlation(z, z) + 1.0) < 1e-15
    assert abs(singlet_correlation(z, (0.0, 0.0, -1.0)) - 1.0) < 1e-15
    assert abs(singlet_correlation(z, (1.0, 0.0, 0.0))) < 1e-15


def test_chsh_operator_is_hermitian():
    for i in range(20):
        cfg = random_configuration(62, i)
        assert chsh_operator(cfg).is_hermitian()


def test_canonical_value_hits_tsirelson():
    assert abs(chsh_quantum_value(canonical_configuration()) - SQRT8) < 1e-12


def test_squared_identity_on_random_configurations():
    for i in range(200):
        cfg = random_configuration(63, i)
        assert chsh_squared_identity_deviation(cfg) < 1e-10


def test_cross_commutator_residual_is_exactly_zero():
    # Each nonzero entry of (X (x) I)(I (x) Y) is one product x*y, because the
    # factors 1 and 0 are exact, and IEEE complex products commute bit for
    # bit; so the premise of the B^2 identity holds exactly, signed zeros in
    # the spin matrices included.
    configurations = _signed_axis_configurations()
    configurations += [random_configuration(63, i) for i in range(500)]
    for cfg in configurations:
        assert cross_commutator_residual(cfg) == 0.0, cfg


# The operators as sums of matrix objects: four Kronecker products added and
# subtracted entry by entry, commutators as the entrywise difference of
# x @ y and y @ x, and 4I - C as 4.0 times each entry of
# ComplexMatrix.identity(4), minus C's.  The one-pass code in quantum must
# give these bits.


def _kron_of_matrices(left: ComplexMatrix, right: ComplexMatrix) -> ComplexMatrix:
    a0, a1, a2, a3 = left.entries
    b0, b1, b2, b3 = right.entries
    return ComplexMatrix(4, (
        a0 * b0, a0 * b1, a1 * b0, a1 * b1,
        a0 * b2, a0 * b3, a1 * b2, a1 * b3,
        a2 * b0, a2 * b1, a3 * b0, a3 * b1,
        a2 * b2, a2 * b3, a3 * b2, a3 * b3,
    ))


def _operators_of_matrices(cfg: Configuration) -> tuple:
    """B, [A, A'], [B, B'], C and the B^2 identity deviation, as matrix sums."""
    sa, sap, sb, sbp = (spin_operator(v) for v in cfg.vectors())
    terms = (
        _kron_of_matrices(x, y).entries for x, y in ((sa, sb), (sa, sbp), (sap, sb), (sap, sbp))
    )
    b_operator = ComplexMatrix(4, tuple(p + q + r - s for p, q, r, s in zip(*terms)))
    comm_a, comm_b = (
        ComplexMatrix(2, tuple(p - q for p, q in zip((x @ y).entries, (y @ x).entries)))
        for x, y in ((sa, sap), (sb, sbp))
    )
    c_operator = _kron_of_matrices(comm_a, comm_b)
    four_i = tuple(4.0 * z for z in ComplexMatrix.identity(4).entries)
    rhs = tuple(p - q for p, q in zip(four_i, c_operator.entries))
    squared = (b_operator @ b_operator).entries
    deviation = max(abs(p - q) for p, q in zip(squared, rhs))
    return b_operator, comm_a, comm_b, c_operator, deviation


def _one_pass_operators(cfg: Configuration) -> tuple:
    comm_a = commutator_matrix(spin_operator(cfg.a), spin_operator(cfg.a_prime))
    comm_b = commutator_matrix(spin_operator(cfg.b), spin_operator(cfg.b_prime))
    return (
        chsh_operator(cfg),
        comm_a,
        comm_b,
        tensor_product(comm_a, comm_b),
        chsh_squared_identity_deviation(cfg),
    )


def _operator_bits(operators: tuple) -> list:
    *matrices, deviation = operators
    bits = [x.hex() for m in matrices for z in m.entries for x in (z.real, z.imag)]
    return bits + [deviation.hex()]


# Eight signed axes, with zero components of either sign.
SIGNED_ZERO_AXES = [
    (1.0, 0.0, 0.0), (-1.0, -0.0, 0.0), (0.0, 1.0, -0.0), (-0.0, -1.0, -0.0),
    (0.0, 0.0, 1.0), (-0.0, 0.0, -1.0), (-0.0, -0.0, 1.0), (0.0, -0.0, -1.0),
]


def test_one_pass_operators_have_the_bits_of_the_matrix_sums():
    configurations = [
        Configuration(*vectors) for vectors in itertools.product(SIGNED_ZERO_AXES, repeat=4)
    ]
    assert len(configurations) == 4096
    configurations += [random_configuration(29, i) for i in range(10_000)]
    for cfg in configurations:
        expected = _operator_bits(_operators_of_matrices(cfg))
        assert _operator_bits(_one_pass_operators(cfg)) == expected, cfg


# The reference for operator_norm's arithmetic after its checks: both
# squares formed by the full matrix product.


def _norm_by_full_products(m: ComplexMatrix) -> float:
    n = m.dim
    exponent = math.frexp(max(max(abs(z.real), abs(z.imag)) for z in m.entries))[1]
    scaled = [
        complex(math.ldexp(z.real, -exponent), math.ldexp(z.imag, -exponent)) for z in m.entries
    ]
    alpha, k = quantum._traceless_part(quantum._product(scaled, scaled), n)
    beta, residual = quantum._traceless_part(quantum._product(k, k), n)
    assert max(map(abs, residual)) <= quantum._SQUARE_TOLERANCE
    return math.ldexp(math.sqrt(alpha + math.sqrt(beta)), exponent)


def _deviation_by_full_square(cfg: Configuration) -> float:
    """The B^2 identity deviation with B^2 by the full product, over all 16 entries."""
    op = chsh_operator(cfg).entries
    squared = quantum._product(op, op)
    a, ap, b, bp = map(quantum._spin_entries, cfg.vectors())
    ca, cb = quantum._commutator(a, ap), quantum._commutator(b, bp)
    return max(
        abs(squared[k] - (quantum._FOUR_I[k] - ca[i] * cb[j]))
        for k, (i, j) in enumerate(quantum._KRON)
    )


@pytest.fixture(scope="module")
def oracle_configurations() -> list:
    """10^4 random configurations, 2,000 of directions with exact zeros of
    either sign and 1,000 coplanar ones."""
    r = random.Random(41)
    directions = _exact_zero_directions() + SIGNED_ZERO_AXES
    configurations = [random_configuration(41, i) for i in range(RANDOM_INPUTS)]
    configurations += [
        Configuration(*(r.choice(directions) for _ in range(4))) for _ in range(2000)
    ]
    angles = [[r.uniform(-math.pi, math.pi) for _ in range(4)] for _ in range(1000)]
    configurations += [
        Configuration(*((math.cos(t), math.sin(t), 0.0) for t in four)) for four in angles
    ]
    return configurations


@pytest.fixture(scope="module")
def hermitian_matrices(oracle_configurations) -> list:
    """B and C on the oracle configurations; 1,000 of them rescaled by
    2**600 and by 2**-600; 1,000 Hermitian 2x2 matrices; and zero matrices,
    with zeros of either sign."""
    ldexp = math.ldexp
    matrices = [
        m for cfg in oracle_configurations for m in (chsh_operator(cfg), _c_operator(cfg))
    ]
    matrices += [
        ComplexMatrix(4, [complex(ldexp(z.real, e), ldexp(z.imag, e)) for z in m.entries])
        for m in matrices[:1000]
        for e in (600, -600)
    ]
    s = rng.CounterStream(41)
    matrices += [_random_hermitian_2x2(s, 1.0) for _ in range(1000)]
    for n in (2, 4):
        matrices.append(ComplexMatrix(n, [0j] * (n * n)))
        signed = [complex(-0.0, 0.0) if i % (n + 1) else complex(0.0, -0.0) for i in range(n * n)]
        matrices.append(ComplexMatrix(n, signed))
    assert all(m.is_hermitian() for m in matrices)
    return matrices


def test_operator_norm_has_the_bits_of_full_products(hermitian_matrices):
    for m in hermitian_matrices:
        assert operator_norm(m).hex() == _norm_by_full_products(m).hex(), m


def test_identity_deviation_has_the_bits_of_the_16_entry_maximum(oracle_configurations):
    for cfg in oracle_configurations:
        expected = _deviation_by_full_square(cfg).hex()
        assert chsh_squared_identity_deviation(cfg).hex() == expected, cfg


def test_hermitian_square_matches_the_full_product(hermitian_matrices):
    # Entries on and above the diagonal bit for bit.  Below it, the real
    # parts bit for bit, and the imaginary parts too, except that where the
    # full product gives +0.0 the square gives -0.0.  The squares of S,
    # Hermitian only up to those zeros, are checked as well: operator_norm
    # squares K = S - alpha*I.
    for m in hermitian_matrices:
        if not all(abs(z) < 1e100 for z in m.entries):
            continue
        n = m.dim
        for x in (m.entries, quantum._hermitian_square(m.entries)):
            full = quantum._product(x, x)
            expected = [
                (z.real.hex(), "-0x0.0p+0" if i // n > i % n and z.imag == 0.0 else z.imag.hex())
                for i, z in enumerate(full)
            ]
            assert _matrix_bits(quantum._hermitian_square(x)) == expected, m


def test_operator_norm_matches_numpy_hermitian():
    # The square of every 2x2 Hermitian matrix has two eigenvalues of
    # multiplicity one, so operator_norm takes any of them.
    s = rng.CounterStream(64)
    for _ in range(1000):
        m = _random_hermitian_2x2(s, 1.0)
        expected = np.linalg.norm(_np(m), 2)
        assert abs(operator_norm(m) - expected) <= 1e-14 * expected


def _c_operator(cfg: Configuration) -> ComplexMatrix:
    """C = [A, A'] (x) [B, B'], from the public matrix functions."""
    return tensor_product(
        commutator_matrix(spin_operator(cfg.a), spin_operator(cfg.a_prime)),
        commutator_matrix(spin_operator(cfg.b), spin_operator(cfg.b_prime)),
    )


def test_operator_norms_of_b_and_c_match_numpy_and_landau():
    # numpy's eigvalsh is the spectral oracle, and Landau's closed forms
    # ||B|| = 2 sqrt(1 + |a x a'||b x b'|) and ||C|| = 4 |a x a'||b x b'| the
    # geometric one, on 10^4 configurations.
    got, matrices, closed = [], [], []
    for i in range(10_000):
        cfg = random_configuration(501, i)
        sines = magnitude(cross(cfg.a, cfg.a_prime)) * magnitude(cross(cfg.b, cfg.b_prime))
        for m in (chsh_operator(cfg), _c_operator(cfg)):
            got.append(operator_norm(m))
            matrices.append(m.entries)
        closed += [2.0 * math.sqrt(1.0 + sines), 4.0 * sines]
    spectra = np.linalg.eigvalsh(np.array(matrices).reshape(-1, 4, 4))
    assert np.max(np.abs(np.array(got) - np.max(np.abs(spectra), axis=1))) <= 1e-14
    assert np.max(np.abs(np.array(got) - np.array(closed))) <= 1e-14


def _diagonal(*values: float) -> ComplexMatrix:
    n = len(values)
    entries = [complex(values[i]) if i == j else 0j for i in range(n) for j in range(n)]
    return ComplexMatrix(n, entries)


def test_operator_norm_refuses_other_sizes_and_spectra():
    for n in (1, 3):
        with pytest.raises(ValueError, match=f"expects a 2x2 or 4x4 matrix, got {n}x{n}"):
            operator_norm(ComplexMatrix.identity(n))
    # A generic 4x4 Hermitian matrix's square has four distinct eigenvalues.
    s = rng.CounterStream(65)
    for _ in range(200):
        h = _random_hermitian(s, 1.0)
        with pytest.raises(ValueError, match="square has at most two eigenvalues"):
            operator_norm(ComplexMatrix(4, tuple(complex(x) for x in h.reshape(-1))))
    # Squares diag(1, 4, 1, 4) and diag(1, 1, 1, 4).
    assert operator_norm(_diagonal(1.0, 2.0, -1.0, -2.0)) == 2.0
    with pytest.raises(ValueError, match="each of multiplicity 2"):
        operator_norm(_diagonal(1.0, -1.0, 1.0, 2.0))


def test_norm_bounds_on_random_configurations():
    for i in range(500):
        cfg = random_configuration(66, i)
        operator = chsh_operator(cfg)
        norm = operator_norm(operator)
        assert norm <= SQRT8 + 1e-9
        # expectation in any state is bounded by the operator norm
        assert chsh_quantum_value(cfg) <= norm + 1e-12


def test_commutator_tensor_norm_capped_at_four():
    for i in range(200):
        cfg = random_configuration(67, i)
        left = commutator_matrix(
            tensor_product(spin_operator(cfg.a), IDENTITY_2),
            tensor_product(spin_operator(cfg.a_prime), IDENTITY_2),
        )
        right = commutator_matrix(
            tensor_product(IDENTITY_2, spin_operator(cfg.b)),
            tensor_product(IDENTITY_2, spin_operator(cfg.b_prime)),
        )
        product = left @ right
        assert operator_norm(product) <= 4.0 + 1e-9


def test_operator_norms_match_closed_forms(backend):
    # ||B|| = 2*sqrt(1 + |a x a'||b x b'|) (Landau 1987), and the commutator
    # product [A,A'] (x) [B,B'] has norm 2|a x a'| * 2|b x b'|.
    for i in range(2000 if backend == "python" else 10_000):
        cfg = random_configuration(69, i)
        sines = magnitude(cross(cfg.a, cfg.a_prime)) * magnitude(cross(cfg.b, cfg.b_prime))
        assert abs(operator_norm(chsh_operator(cfg)) - 2.0 * math.sqrt(1.0 + sines)) < 1e-12
        product = tensor_product(
            commutator_matrix(spin_operator(cfg.a), spin_operator(cfg.a_prime)),
            commutator_matrix(spin_operator(cfg.b), spin_operator(cfg.b_prime)),
        )
        assert abs(operator_norm(product) - 4.0 * sines) < 1e-12


def _norms_and_ga_product(cfg: Configuration) -> tuple:
    """||B||, ||[A,A'] (x) [B,B']|| and ||[a,a']|| * ||[b,b']|| with the ga commutator."""
    c_operator = tensor_product(
        commutator_matrix(spin_operator(cfg.a), spin_operator(cfg.a_prime)),
        commutator_matrix(spin_operator(cfg.b), spin_operator(cfg.b_prime)),
    )
    ga_product = 1.0
    for u, v in ((cfg.a, cfg.a_prime), (cfg.b, cfg.b_prime)):
        ga_product *= commutator(Multivector.from_vector(u), Multivector.from_vector(v)).norm()
    return operator_norm(chsh_operator(cfg)), operator_norm(c_operator), ga_product


def test_quantum_and_ga_tracks_meet_in_the_commutator_norms():
    # In G3, ||[a,a']|| = 2|a x a'|, and ||[A,A'] (x) [B,B']|| = 4|a x a'||b x b'|,
    # so the ga commutators give ||C|| and Landau's ||B|| = 2 sqrt(1 + ||C|| / 4).
    parallel, perpendicular = [], []
    for i in range(500):
        u, v, w = (random_unit_vector(72, 3 * i + k) for k in range(3))
        sign = 1.0 if i % 2 else -1.0
        parallel.append(Configuration(u, tuple(sign * x for x in u), v, w))
        parallel.append(Configuration(v, w, u, tuple(sign * x for x in u)))
        perpendicular.append(
            Configuration(u, normalized(cross(u, v)), w, normalized(cross(w, v)))
        )
    groups = [
        ([random_configuration(71, i) for i in range(2000)], None),
        (parallel, (0.0, 2.0)),  # a = +-a' or b = +-b': ||C|| = 0 and ||B|| = 2
        (perpendicular, (4.0, TSIRELSON_BOUND)),  # a ⊥ a' and b ⊥ b'
    ]
    for configurations, expected in groups:
        for cfg in configurations:
            norm_b, norm_c, ga_product = _norms_and_ga_product(cfg)
            assert abs(norm_c - ga_product) <= 1e-13, cfg
            assert abs(norm_b - 2.0 * math.sqrt(1.0 + ga_product / 4.0)) <= 1e-13, cfg
            if expected is not None:
                assert abs(norm_c - expected[0]) <= 1e-13, cfg
                assert abs(norm_b - expected[1]) <= 1e-13, cfg


def _random_rotation(seed: int, index: int) -> tuple:
    """Rows of a uniformly random rotation: a Haar-random first row u, then
    w along u x v for a second random v, then w x u."""
    u = random_unit_vector(seed, 2 * index)
    w = normalized(cross(u, random_unit_vector(seed, 2 * index + 1)))
    return (u, cross(w, u), w)


def test_value_and_norm_are_invariant_under_rotation_and_party_swap(backend):
    # The singlet is rotation invariant and symmetric under exchange of the
    # parties, so rotating all four directions together, or swapping
    # (a, a') with (b, b'), moves the value and ||B|| by rounding only.
    for i in range(2000):
        cfg = random_configuration(71, i)
        rows = _random_rotation(72, i)
        rotated = Configuration(*(tuple(dot(r, v) for r in rows) for v in cfg.vectors()))
        value = chsh_quantum_value(cfg)
        assert abs(chsh_quantum_value(rotated) - value) < 1e-14
        norm = operator_norm(chsh_operator(cfg))
        assert abs(operator_norm(chsh_operator(rotated)) - norm) < 1e-14
        swapped = Configuration(cfg.b, cfg.b_prime, cfg.a, cfg.a_prime)
        assert abs(chsh_quantum_value(swapped) - value) < 1e-15


def _signed_axis_configurations():
    return [Configuration(*vectors) for vectors in itertools.product(SIGNED_AXES, repeat=4)]


def _random_hermitian_2x2(s: rng.CounterStream, scale: float) -> ComplexMatrix:
    off = complex(scale * s.uniform(-1, 1), scale * s.uniform(-1, 1))
    diagonal = (complex(scale * s.uniform(-1, 1)), complex(scale * s.uniform(-1, 1)))
    return ComplexMatrix(2, (diagonal[0], off, off.conjugate(), diagonal[1]))


def test_chsh_and_commutator_operators_are_exactly_hermitian(backend):
    # Complex products commute and conjugation distributes exactly in IEEE
    # arithmetic, so B and C = [A,A'] (x) [B,B'] equal their daggers bit for
    # bit, which is the only input operator_norm accepts.  The signed axes
    # put exact zeros, of either sign, into every spin matrix.
    configurations = _signed_axis_configurations()
    assert len(configurations) == 1296
    configurations += [random_configuration(501, i) for i in range(2000)]
    for cfg in configurations:
        b_operator = chsh_operator(cfg)
        c_operator = tensor_product(
            commutator_matrix(spin_operator(cfg.a), spin_operator(cfg.a_prime)),
            commutator_matrix(spin_operator(cfg.b), spin_operator(cfg.b_prime)),
        )
        assert b_operator.is_hermitian()
        assert c_operator.is_hermitian()
    # The same holds for any exactly Hermitian 2x2 factors, at any scale at
    # which the product stays finite.
    s = rng.CounterStream(502)
    checked = 0
    for exponent in range(-150, 151, 10):
        for _ in range(100):
            factors = [_random_hermitian_2x2(s, 10.0**exponent) for _ in range(4)]
            c_operator = tensor_product(
                commutator_matrix(factors[0], factors[1]), commutator_matrix(factors[2], factors[3])
            )
            if all(math.isfinite(z.real) and math.isfinite(z.imag) for z in c_operator.entries):
                assert c_operator.is_hermitian()
                checked += 1
    assert checked >= 2000


def test_operator_norm_of_nearly_hermitian_matrices(backend, monkeypatch):
    # Any difference from the dagger, however small in absolute terms, is
    # refused before any product is formed.
    def no_product(*args):
        raise AssertionError("a product was formed of a matrix that is not Hermitian")

    monkeypatch.setattr(quantum, "_product", no_product)
    monkeypatch.setattr(quantum, "_hermitian_square", no_product)
    tiny = ComplexMatrix(2, (0j, 1e-20 + 0j, 0j, 0j))
    skewed = ComplexMatrix(2, (0j, 1 + 0j, 1 + 1e-13 + 0j, 0j))
    for m in (tiny, skewed):
        assert not m.is_hermitian()
        with pytest.raises(ValueError, match="expects an exactly Hermitian matrix"):
            operator_norm(m)


SCALE_EXPONENTS = (-300, -200, -150, -100, -20, 0, 3, 10, 20, 100, 150, 200, 300)


def _random_hermitian(s: rng.CounterStream, scale: float) -> np.ndarray:
    raw = np.array(
        [complex(s.uniform(-1, 1), s.uniform(-1, 1)) for _ in range(16)]
    ).reshape(4, 4)
    return scale * ((raw + raw.conj().T) / 2)


@pytest.mark.parametrize("exponent", SCALE_EXPONENTS)
def test_operator_norm_is_scale_free(backend, exponent):
    # operator_norm prescales by a power of two, so it matches numpy from
    # 1e-300 to 1e300, not only near norm 1: on 2x2 Hermitian matrices, and
    # on B and C with each part scaled, which keeps them exactly Hermitian.
    scale = 10.0**exponent
    s = rng.CounterStream(90 + exponent)
    matrices = [_random_hermitian_2x2(s, scale) for _ in range(20)]
    for i in range(10):
        cfg = random_configuration(91, i)
        for m in (chsh_operator(cfg), _c_operator(cfg)):
            scaled = tuple(complex(z.real * scale, z.imag * scale) for z in m.entries)
            matrices.append(ComplexMatrix(4, scaled))
    for m in matrices:
        assert m.is_hermitian()
        expected = np.linalg.norm(_np(m), 2)
        assert abs(operator_norm(m) - expected) <= 1e-14 * expected


# sha256 of the seven quantities perfbench/certify.py prints, as float.hex,
# over random_configuration(7, i) for i < 200; recorded when operator_norm
# began to take the norm from the square of the matrix.  319 of its 400
# norms then moved, by at most 3.6e-15, and came closer to Landau's closed
# forms (within 1.3e-15, against 3.6e-15 before).
CERTIFY_QUANTITIES_SHA256 = "8b8f7cd594678734f72f1a4e9368dc1e5c0ecaff73de781cb22db5c03e195d93"


def test_certify_quantities_bits_are_pinned(backend):
    # ||B||, ||C||, the B^2 identity deviation, the quantum value, the vector
    # value, the vector bound and the ga commutator norm: the library-level
    # numbers that no golden report holds.
    ones = ResponseCoefficients.ones()
    lines = []
    for i in range(200):
        cfg = random_configuration(7, i)
        c_operator = tensor_product(
            commutator_matrix(spin_operator(cfg.a), spin_operator(cfg.a_prime)),
            commutator_matrix(spin_operator(cfg.b), spin_operator(cfg.b_prime)),
        )
        values = (
            operator_norm(chsh_operator(cfg)),
            operator_norm(c_operator),
            chsh_squared_identity_deviation(cfg),
            chsh_quantum_value(cfg),
            chsh_vector_value(cfg, ones),
            vector_bound_expression(cfg.b, cfg.b_prime, 1.0, 1.0),
            commutator(Multivector.from_vector(cfg.a), Multivector.from_vector(cfg.a_prime)).norm(),
        )
        lines.append(" ".join(v.hex() for v in values))
    digest = hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()
    assert digest == CERTIFY_QUANTITIES_SHA256


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "entries, position, hermitian",
    [
        # A float NaN is its own conjugate and a real infinity equals its
        # conjugate, so these pass the Hermitian test.
        ((1.0, 0j, 0j, NAN), "(1, 1)", True),
        ((INF, 0j, 0j, 1.0), "(0, 0)", True),
        ((1.0, 0j, 0j, complex(-INF, 0.0)), "(1, 1)", True),
        # The rest fail it, but the finiteness check runs first.
        ((1.0, NAN, 0j, 0j), "(0, 1)", False),
        ((complex(NAN, 0.0), 0j, 0j, 1.0), "(0, 0)", False),
        ((1.0, 2.0, complex(0.0, NAN), 0j), "(1, 0)", False),
        ((1.0, 2.0, complex(INF, 1.0), 0j), "(1, 0)", False),
        ((1.0, complex(0.0, -INF), 0j, NAN), "(0, 1)", False),
        # A non-finite entry named before a later one that is not a number
        # (which has no conjugate, so there is no Hermitian test to pass).
        ((NAN, 0j, "1", 1.0), "(0, 0)", None),
        ((1.0, complex(0.0, INF), 0j, None), "(0, 1)", None),
    ],
)
def test_operator_norm_rejects_non_finite_entries(monkeypatch, entries, position, hermitian):
    def no_product(*args):
        raise AssertionError("a product was formed of a non-finite matrix")

    monkeypatch.setattr(quantum, "_product", no_product)
    monkeypatch.setattr(quantum, "_hermitian_square", no_product)
    m = ComplexMatrix(2, entries)
    if hermitian is not None:
        assert m.is_hermitian() == hermitian
    with pytest.raises(ValueError, match=re.escape(f"matrix entry {position} is not finite")):
        operator_norm(m)


@pytest.mark.parametrize(
    "entries, position, kind",
    [
        (("1", "0", "0", "1"), "(0, 0)", "str"),
        ((1.0, 0j, None, 1.0), "(1, 0)", "NoneType"),
        ((1.0, 0j, 0j, object()), "(1, 1)", "object"),
        # A non-number named before a later non-finite entry.
        ((1.0, None, complex(INF, 0.0), NAN), "(0, 1)", "NoneType"),
        (("1", NAN, NAN, 1.0), "(0, 0)", "str"),
    ],
)
def test_operator_norm_rejects_entries_that_are_not_numbers(entries, position, kind):
    message = f"matrix entry {position} must be a number, not {kind}"
    with pytest.raises(TypeError, match=re.escape(message)):
        operator_norm(ComplexMatrix(2, entries))


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10**6))
def test_quantum_value_never_exceeds_tsirelson(index):
    cfg = random_configuration(68, index)
    assert chsh_quantum_value(cfg) <= SQRT8 + 1e-12


def test_complex_matrix_validation():
    with pytest.raises(ValueError):
        ComplexMatrix(2, (0j, 0j, 0j))
    m = ComplexMatrix(2, (1 + 0j, 2j, 0j, 1 + 0j))
    assert m.entries[1] == 2j
    assert m.dagger().entries[2] == -2j
    assert not m.is_hermitian()


@pytest.mark.parametrize("dim, entries", [(2.0, (1, 0, 0, 1)), (True, (3,))])
def test_complex_matrix_dimension_must_be_an_int(dim, entries):
    """A float or bool dimension is a TypeError at construction, not a
    matrix whose methods fail later (or a 1x1 matrix for True)."""
    with pytest.raises(TypeError, match="matrix dimension must be an int"):
        ComplexMatrix(dim, entries)


def test_complex_matrix_built_from_a_list_equals_the_tuple_form():
    """Entries are kept as a tuple whatever sequence is passed, so a matrix
    built from a list is Hermitian, equal and hash-equal to its tuple form,
    and its norm takes the same branch."""
    for cfg in (random_configuration(31, i) for i in range(50)):
        op = chsh_operator(cfg)
        listed = ComplexMatrix(4, list(op.entries))
        assert listed.is_hermitian()
        assert listed == op and hash(listed) == hash(op)
        assert operator_norm(listed).hex() == operator_norm(op).hex()


@pytest.mark.parametrize(
    "op, left, right",
    [
        (operator.matmul, IDENTITY_2, 3),
        (operator.add, IDENTITY_2, 1),
        (operator.sub, IDENTITY_2, 1.0),
        (operator.add, IDENTITY_2, IDENTITY_2),
        (operator.sub, IDENTITY_2, IDENTITY_2),
        (operator.mul, 2.0, IDENTITY_2),
        (operator.mul, IDENTITY_2, 2.0),
        (operator.add, IDENTITY_2, E1),
        (operator.add, E1, 1),
        (operator.sub, E1, 1.0),
        (operator.sub, E1, IDENTITY_2),
    ],
    ids=["matrix@int", "matrix+int", "matrix-float", "matrix+matrix", "matrix-matrix",
         "float*matrix", "matrix*float", "matrix+multivector", "multivector+int",
         "multivector-float", "multivector-matrix"],
)
def test_binary_operators_reject_other_operands_with_type_error(op, left, right):
    """The operand type is checked before it is used, so Python raises TypeError."""
    with pytest.raises(TypeError):
        op(left, right)
