import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chshbounds import rng
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
    assert m.entry(0, 1) == 2j
    assert m.dagger().entry(1, 0) == -2j
    assert not m.is_hermitian()
