import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chshbounds import _kernels, rng
from chshbounds.ga import Multivector, commutator
from chshbounds.geometry import (
    canonical_configuration,
    cross,
    magnitude,
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

SQRT8 = 2.0 * math.sqrt(2.0)


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
        assert cross_commutator_residual(cfg) < 1e-12


def test_operator_norm_matches_numpy_hermitian():
    s = rng.CounterStream(64)
    for _ in range(50):
        raw = np.array([complex(s.uniform(-1, 1), s.uniform(-1, 1)) for _ in range(16)]).reshape(4, 4)
        h = (raw + raw.conj().T) / 2
        m = ComplexMatrix(4, tuple(complex(x) for x in h.reshape(-1)))
        assert abs(operator_norm(m) - np.linalg.norm(h, 2)) < 1e-12


def test_operator_norm_matches_numpy_general():
    s = rng.CounterStream(65)
    for _ in range(50):
        raw = np.array([complex(s.uniform(-1, 1), s.uniform(-1, 1)) for _ in range(16)]).reshape(4, 4)
        m = ComplexMatrix(4, tuple(complex(x) for x in raw.reshape(-1)))
        assert abs(operator_norm(m) - np.linalg.norm(raw, 2)) < 1e-12


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


def test_chsh_and_commutator_operators_are_exactly_hermitian(backend):
    # Complex products commute and conjugation distributes exactly in IEEE
    # arithmetic, so B and C = [A,A'] (x) [B,B'] equal their daggers bit for
    # bit, and operator_norm takes its Hermitian branch on both.
    for i in range(2000):
        cfg = random_configuration(501, i)
        b_operator = chsh_operator(cfg)
        c_operator = tensor_product(
            commutator_matrix(spin_operator(cfg.a), spin_operator(cfg.a_prime)),
            commutator_matrix(spin_operator(cfg.b), spin_operator(cfg.b_prime)),
        )
        assert b_operator.entries == b_operator.dagger().entries
        assert c_operator.entries == c_operator.dagger().entries


def test_operator_norm_of_nearly_hermitian_matrices(backend):
    # Any difference from the dagger, however small in absolute terms, takes
    # the M-dagger M branch, which is correct for every matrix.
    tiny = ComplexMatrix(2, (0j, 1e-20 + 0j, 0j, 0j))
    assert not tiny.is_hermitian()
    assert operator_norm(tiny) == 1e-20
    skewed = ComplexMatrix(2, (0j, 1 + 0j, 1 + 1e-13 + 0j, 0j))
    assert not skewed.is_hermitian()
    assert abs(operator_norm(skewed) - np.linalg.norm(_np(skewed), 2)) < 1e-15


SCALE_EXPONENTS = (-300, -200, -150, -100, -20, 0, 3, 10, 20, 100, 150, 200, 300)


def _random_matrix(s: rng.CounterStream, scale: float, hermitian: bool) -> np.ndarray:
    raw = np.array(
        [complex(s.uniform(-1, 1), s.uniform(-1, 1)) for _ in range(16)]
    ).reshape(4, 4)
    return scale * ((raw + raw.conj().T) / 2 if hermitian else raw)


@pytest.mark.parametrize("exponent", SCALE_EXPONENTS)
def test_eigvals_are_scale_free(backend, exponent):
    # The eigensolver prescales by a power of two and stops on a rule
    # relative to the Frobenius norm, so it matches numpy from 1e-300 to
    # 1e300 instead of only near norm 1.
    s = rng.CounterStream(70 + exponent)
    for _ in range(40):
        h = _random_matrix(s, 10.0**exponent, hermitian=True)
        got = _kernels.eigvals_hermitian(tuple(complex(x) for x in h.reshape(-1)), 4)
        expected = np.linalg.eigvalsh(h)
        radius = np.max(np.abs(expected))
        assert np.max(np.abs(np.array(got) - expected)) <= 1e-14 * radius


@pytest.mark.parametrize("exponent", SCALE_EXPONENTS)
def test_operator_norm_is_scale_free(backend, exponent):
    # The M-dagger M branch scales M before forming the Gram matrix, whose
    # entries would otherwise overflow or underflow at 1e+-300.
    s = rng.CounterStream(90 + exponent)
    for hermitian in (True, False):
        for _ in range(20):
            raw = _random_matrix(s, 10.0**exponent, hermitian)
            m = ComplexMatrix(4, tuple(complex(x) for x in raw.reshape(-1)))
            assert m.is_hermitian() == hermitian
            expected = np.linalg.norm(raw, 2)
            assert abs(operator_norm(m) - expected) <= 1e-14 * expected


# Eigenvalues of B, C = [A,A'] (x) [B,B'] and B-dagger B for the first eight
# configurations of stream 501, as float.hex, from the table-free Jacobi loop
# that the table-driven one replaced.  Any change of operation order in the
# eigensolver, matmul or tensor_product moves them.
PINNED_EIGVALS = [
    # random_configuration(501, 0): B, C, B-dagger B
    "-0x1.68a9867130f48p+1 -0x1.f8a3dcf294356p-3 0x1.f8a3dcf29435ap-3 0x1.68a9867130f47p+1",
    "-0x1.f83a74c2437a0p+1 -0x1.f83a74c24379dp+1 0x1.f83a74c24379bp+1 0x1.f83a74c24379dp+1",
    "0x1.f162cf6f21992p-5 0x1.f162cf6f219d0p-5 0x1.fc1d3a6121bcdp+2 0x1.fc1d3a6121bcfp+2",
    # random_configuration(501, 1): B, C, B-dagger B
    "-0x1.2fd8f78fe830cp+1 -0x1.89b1958cd9ac1p+0 0x1.89b1958cd9ab7p+0 0x1.2fd8f78fe830dp+1",
    "-0x1.a28d47a5678c5p+0 -0x1.a28d47a5678c3p+0 0x1.a28d47a5678c3p+0 0x1.a28d47a5678c3p+0",
    "0x1.2eb95c2d4c39fp+1 0x1.2eb95c2d4c3a1p+1 0x1.68a351e959e2ep+2 0x1.68a351e959e31p+2",
    # random_configuration(501, 2): B, C, B-dagger B
    "-0x1.0ece9f95fca7bp+1 -0x1.e0907370f0704p+0 0x1.e0907370f06ffp+0 0x1.0ece9f95fca78p+1",
    "-0x1.e787f6599cfc2p-2 -0x1.e787f6599cfc0p-2 0x1.e787f6599cfc3p-2 0x1.e787f6599cfc4p-2",
    "0x1.c30f0134cc605p+1 0x1.c30f0134cc609p+1 0x1.1e787f6599cfap+2 0x1.1e787f6599cfdp+2",
    # random_configuration(501, 3): B, C, B-dagger B
    "-0x1.32ed9d8c464e9p+1 -0x1.80041e646f665p+0 0x1.80041e646f663p+0 0x1.32ed9d8c464e9p+1",
    "-0x1.bff3a4c1bb0dfp+0 -0x1.bff3a4c1bb0dbp+0 0x1.bff3a4c1bb0d9p+0 0x1.bff3a4c1bb0ddp+0",
    "0x1.20062d9f22791p+1 0x1.20062d9f22791p+1 0x1.6ffce9306ec35p+2 0x1.6ffce9306ec37p+2",
    # random_configuration(501, 4): B, C, B-dagger B
    "-0x1.5f71e2d215e18p+1 -0x1.5bc2376ead1d1p-1 0x1.5bc2376ead1c8p-1 0x1.5f71e2d215e1cp+1",
    "-0x1.c4f2fd4c3cdecp+1 -0x1.c4f2fd4c3cdecp+1 0x1.c4f2fd4c3cdecp+1 0x1.c4f2fd4c3cdedp+1",
    "0x1.d868159e1909ep-2 0x1.d868159e190a2p-2 0x1.e2797ea61e6f5p+2 0x1.e2797ea61e6f7p+2",
    # random_configuration(501, 5): B, C, B-dagger B
    "-0x1.3fd31adbe5142p+1 -0x1.5351744b8218fp+0 0x1.5351744b8218ep+0 0x1.3fd31adbe5141p+1",
    "-0x1.1f1f960a9c6a6p+1 -0x1.1f1f960a9c6a4p+1 0x1.1f1f960a9c6a7p+1 0x1.1f1f960a9c6a7p+1",
    "0x1.c1c0d3eac72b0p+0 0x1.c1c0d3eac72b4p+0 0x1.8f8fcb054e352p+2 0x1.8f8fcb054e355p+2",
    # random_configuration(501, 6): B, C, B-dagger B
    "-0x1.5c6e9c8d2342ep+1 -0x1.8949107133823p-1 0x1.8949107133823p-1 0x1.5c6e9c8d23426p+1",
    "-0x1.b479d2d541c77p+1 -0x1.b479d2d541c73p+1 0x1.b479d2d541c74p+1 0x1.b479d2d541c75p+1",
    "0x1.2e18b4aaf8e24p-1 0x1.2e18b4aaf8e29p-1 0x1.da3ce96aa0e3cp+2 0x1.da3ce96aa0e3cp+2",
    # random_configuration(501, 7): B, C, B-dagger B
    "-0x1.4f02b5e756574p+1 -0x1.12845ee5477d2p+0 0x1.12845ee5477d2p+0 0x1.4f02b5e756572p+1",
    "-0x1.6cd0303599ac9p+1 -0x1.6cd0303599ac7p+1 0x1.6cd0303599ac5p+1 0x1.6cd0303599ac6p+1",
    "0x1.265f9f94cca73p+0 0x1.265f9f94cca75p+0 0x1.b668181accd63p+2 0x1.b668181accd64p+2",
]


def test_eigvals_bits_are_pinned(backend):
    got = []
    for i in range(8):
        cfg = random_configuration(501, i)
        b_operator = chsh_operator(cfg)
        c_operator = tensor_product(
            commutator_matrix(spin_operator(cfg.a), spin_operator(cfg.a_prime)),
            commutator_matrix(spin_operator(cfg.b), spin_operator(cfg.b_prime)),
        )
        for m in (b_operator, c_operator, b_operator.dagger() @ b_operator):
            got.append(" ".join(x.hex() for x in _kernels.eigvals_hermitian(m.entries, 4)))
    assert got == PINNED_EIGVALS


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "entries, position, hermitian",
    [
        # A float NaN is its own conjugate and a real infinity equals its
        # conjugate, so these take the Hermitian branch.
        ((1.0, 0j, 0j, NAN), "(1, 1)", True),
        ((INF, 0j, 0j, 1.0), "(0, 0)", True),
        ((1.0, 0j, 0j, complex(-INF, 0.0)), "(1, 1)", True),
        # The rest take the M-dagger M branch.
        ((1.0, NAN, 0j, 0j), "(0, 1)", False),
        ((complex(NAN, 0.0), 0j, 0j, 1.0), "(0, 0)", False),
        ((1.0, 2.0, complex(0.0, NAN), 0j), "(1, 0)", False),
        ((1.0, 2.0, complex(INF, 1.0), 0j), "(1, 0)", False),
        ((1.0, complex(0.0, -INF), 0j, NAN), "(0, 1)", False),
    ],
)
def test_operator_norm_rejects_non_finite_entries(monkeypatch, entries, position, hermitian):
    def no_eigensolve(*args):
        raise AssertionError("the eigensolver ran on a non-finite matrix")

    monkeypatch.setattr(_kernels, "eigvals_hermitian", no_eigensolve)
    m = ComplexMatrix(2, entries)
    assert m.is_hermitian() == hermitian
    with pytest.raises(ValueError, match=re.escape(f"matrix entry {position} is not finite")):
        operator_norm(m)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10**6))
def test_quantum_value_never_exceeds_tsirelson(index):
    cfg = random_configuration(68, index)
    assert chsh_quantum_value(cfg) <= SQRT8 + 1e-12


def test_complex_matrix_validation():
    with pytest.raises(ValueError):
        ComplexMatrix(2, (0j, 0j, 0j))
    with pytest.raises(ValueError):
        ComplexMatrix.from_rows([[1, 2, 3], [4]])  # ragged, yet 4 entries in total
    m = ComplexMatrix.from_rows([[1 + 0j, 2j], [0j, 1 + 0j]])
    assert m.entries[1] == 2j
    assert m.dagger().entries[2] == -2j
    assert not m.is_hermitian()
