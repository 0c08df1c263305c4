"""Backend parity: the C kernels must match the pure-Python reference bit for
bit on real outputs (complex outputs may differ only in zero signs).

The ``native`` fixture (conftest.py) builds the C module with setup.py, so
these tests run wherever a C compiler is installed.
"""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chshbounds import _kernels, quantum
from chshbounds._kernels import reference
from chshbounds.geometry import random_configuration

SRC = Path(__file__).resolve().parent.parent / "src"

# Random inputs per kernel in each parity test.
PARITY_INPUTS = 10_000


def _bits(values):
    """Exact bit patterns of floats, so 0.0 and -0.0 count as different."""
    return [float(v).hex() for v in values]


def _rand_complex(r):
    """Half of the draws are exactly real, imaginary or zero, so that the
    zero-sign paths of the complex arithmetic are exercised too."""
    re, im = r.uniform(-1, 1), r.uniform(-1, 1)
    return r.choice((complex(re, 0.0), complex(0.0, im), 0j) + (complex(re, im),) * 3)


def _rand_matrix(r, n):
    return [_rand_complex(r) for _ in range(n * n)]


def _rand_hermitian(r, n):
    h = [0j] * (n * n)
    for i in range(n):
        h[i * n + i] = complex(r.uniform(-1, 1), 0.0)
        for j in range(i + 1, n):
            z = _rand_complex(r)
            h[i * n + j] = z
            h[j * n + i] = z.conjugate()
    return h


def _rand_direction(r):
    """A unit vector; a third lie on a coordinate axis and a third in the xy-plane."""
    theta, z = r.uniform(0, 2 * math.pi), r.uniform(-1, 1)
    rho = math.sqrt(1 - z * z)
    axis = [0.0, 0.0, 0.0]
    axis[r.randrange(3)] = r.choice((1.0, -1.0))
    planar = (math.cos(theta), math.sin(theta), 0.0)
    return r.choice((tuple(axis), planar, (rho * planar[0], rho * planar[1], z)))


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
        assert native.rng_u64(seed, index) == reference.rng_u64(seed, index)
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
        expected = (_kernels.rng_u64(seed, index) >> 11) * 2.0**-53
        assert _kernels.rng_u01(seed, index).hex() == expected.hex()


def test_matmul_matches_reference_and_numpy(native):
    r = random.Random(11)
    for i in range(PARITY_INPUTS):
        n = 1 + i % 4
        a = _rand_matrix(r, n)
        b = _rand_matrix(r, n)
        assert native.matmul(a, b, n) == reference.matmul(a, b, n)
        if i < 120:
            expected = np.array(a).reshape(n, n) @ np.array(b).reshape(n, n)
            got = np.array(reference.matmul(a, b, n)).reshape(n, n)
            assert np.max(np.abs(got - expected)) < 1e-14


def _rand_special_complex(r, nonfinite):
    """Each part is +-0.0 or a uniform draw, or with probability ``nonfinite``
    an infinity or a NaN."""

    def part():
        if r.random() < nonfinite:
            return r.choice((math.inf, -math.inf, math.nan))
        return r.choice((0.0, -0.0, r.uniform(-1, 1), r.uniform(-1, 1)))

    return complex(part(), part())


def _matrix_bits(entries):
    return [_complex_bits(z) for z in entries]


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
    """The straight-line n = 2 and n = 4 bodies, sign of zero included."""
    r = random.Random(19 + n)
    for i in range(PARITY_INPUTS):
        nonfinite = (0.0, 0.01, 0.05)[i % 3]
        a = [_rand_special_complex(r, nonfinite) for _ in range(n * n)]
        b = [_rand_special_complex(r, nonfinite) for _ in range(n * n)]
        assert _matrix_bits(_kernels.matmul(a, b, n)) == _matrix_bits(_matmul_spec(a, b, n))


def test_matrix_expectation_matches_numpy():
    r = random.Random(12)
    for i in range(400):
        n = 1 + i % 4
        m = _rand_matrix(r, n)
        psi = [_rand_complex(r) for _ in range(n)]
        p = np.array(psi)
        expected = p.conj() @ (np.array(m).reshape(n, n) @ p)
        assert abs(quantum.ComplexMatrix(n, tuple(m)).expectation(psi) - expected) < 1e-14


def _complex_bits(z):
    return _bits((z.real, z.imag))


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


def test_singlet_pipeline_identical(native):
    """The fused singlet kernel matches across backends bit for bit, and the
    unfused Kronecker-product pipeline up to the sign of a zero (``==``)."""
    r = random.Random(15)
    special = _exact_zero_directions()
    pairs = [(_rand_direction(r), _rand_direction(r)) for _ in range(PARITY_INPUTS)]
    pairs += [(a, b) for a in special for b in special]
    for a, b in pairs:
        got = reference.singlet_expectation(a, b)
        assert _complex_bits(native.singlet_expectation(a, b)) == _complex_bits(got)
        assert got == _singlet_oracle(a, b)


def test_eigvals_match_numpy_oracle():
    r = random.Random(13)
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(100):
            h = _rand_hermitian(r, n)
            got = reference.eigvals_hermitian(h, n)
            assert list(got) == sorted(got)
            expected = np.linalg.eigvalsh(np.array(h).reshape(n, n))
            worst = max(worst, float(np.max(np.abs(np.array(got) - expected))))
    assert worst < 1e-12


def test_eigvals_backends_agree(native):
    r = random.Random(14)
    for i in range(PARITY_INPUTS):
        n = 1 + i % 4
        h = _rand_hermitian(r, n)
        assert _bits(native.eigvals_hermitian(h, n)) == _bits(reference.eigvals_hermitian(h, n))
    # The spectral path of the quantum track: B and B^dagger B.
    for cfg in (random_configuration(5, i) for i in range(200)):
        op = quantum.chsh_operator(cfg)
        for m in (op, op.dagger() @ op):
            got = native.eigvals_hermitian(m.entries, 4)
            assert _bits(got) == _bits(reference.eigvals_hermitian(m.entries, 4))


def test_eigvals_diagonal_and_degenerate(native):
    diag = [0j] * 16
    for i, x in enumerate((3.0, -1.0, 3.0, 0.5)):
        diag[4 * i + i] = complex(x)
    for backend in (reference, native):
        assert list(backend.eigvals_hermitian(diag, 4)) == [-1.0, 0.5, 3.0, 3.0]


def test_eigvals_reports_non_convergence(native):
    # Finite but not Hermitian, so the rotations never clear the off-diagonal mass.
    skew = [0j, 1 + 0j, 0j, 0j]
    for backend in (reference, native):
        with pytest.raises(RuntimeError, match="within 100 sweeps"):
            backend.eigvals_hermitian(skew, 2)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "entries",
    [
        [complex(_INF, 0.0), 0j, 0j, 0j],
        [0j, complex(_NAN, 0.0), complex(_NAN, 0.0), 0j],
        [0j, complex(0.0, _INF), complex(0.0, -_INF), 0j],
        [complex(_NAN, 0.0)] * 4,
    ],
)
def test_eigvals_rejects_non_finite_entries(native, entries):
    for backend in (reference, native):
        with pytest.raises(ValueError, match="NaN or infinite"):
            backend.eigvals_hermitian(entries, 2)


def test_eigvals_reads_the_first_n_squared_entries(native):
    for backend in (reference, native):
        with pytest.raises(IndexError):
            backend.eigvals_hermitian([complex(_NAN, 0.0), 0j, 0j], 2)
        # Entries past n*n are ignored, even a non-finite one.
        got = backend.eigvals_hermitian([2 + 0j, 1j, -1j, 0j, complex(_INF, 0.0)], 2)
        assert _bits(got) == _bits(backend.eigvals_hermitian([2 + 0j, 1j, -1j, 0j], 2))


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
    return cum_weights, seed, start, stop


def test_lhv_mc_sums_bitwise_identical(native):
    r = random.Random(16)
    cases = [_lhv_mc_case(r, i) for i in range(PARITY_INPUTS)]
    # Ranges longer than one Monte Carlo block of 4096 draws.
    for cum_weights, seed, start, _ in cases[:8]:
        cases.append((cum_weights, seed, start, start + 2 * 4096 + r.randint(1, 100)))
    for cum_weights, seed, start, stop in cases:
        products = [
            r.choice((1.0, -1.0, 0.0, r.uniform(-1, 1))) for _ in range(4 * len(cum_weights))
        ]
        got = native.lhv_mc_sums(cum_weights, products, seed, start, stop)
        assert _bits(got) == _bits(reference.lhv_mc_sums(cum_weights, products, seed, start, stop))


def _linear_search_sums(cum_weights, products, seed, start, stop):
    """lhv_mc_sums written as its specification: rng_u01 per draw, a linear
    inverse-CDF search, and the squares formed in the loop."""
    sums = [0.0] * 8
    for i in range(start, stop):
        u = reference.rng_u01(seed, i)
        k = next((j for j, c in enumerate(cum_weights) if u < c), len(cum_weights) - 1)
        for c in range(4):
            p = products[4 * k + c]
            sums[c] += p
            sums[4 + c] += p * p
    return tuple(sums)


def test_lhv_mc_sums_matches_its_specification():
    r = random.Random(17)
    for i in range(2000):
        cum_weights, seed, start, stop = _lhv_mc_case(r, i)
        products = [r.uniform(-1, 1) for _ in range(4 * len(cum_weights))]
        got = reference.lhv_mc_sums(cum_weights, products, seed, start, stop)
        assert _bits(got) == _bits(_linear_search_sums(cum_weights, products, seed, start, stop))


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


# Wrong arity, a too-short sequence and a non-number, per kernel.  Each row
# is keyed by the number in its test id, so that removing a row renames no
# other test.
_C4, _C3, _V3 = [0j] * 4, [0j] * 3, [0.0, 0.0, 1.0]
BAD_CALLS = {
    "rng_u64": {0: (1,), 1: (None, 0)},
    "rng_u01": {2: (1, 2, 3), 3: (0, 1.5)},
    "matmul": {
        11: (_C4, _C4),
        12: ([0j] * 16, [0j] * 15, 4),
        13: (_C4, _C4, 2.0),
        14: (_C4, [0j, "x", 0j, 0j], 2),
    },
    "singlet_expectation": {15: (_V3,), 16: (_V3, _V3[:2]), 17: ([None] * 3, _V3)},
    "eigvals_hermitian": {18: (_C4,), 19: (_C4, 2, 1e-14), 20: (_C3, 2), 21: ([object()] * 4, 2)},
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
        ("eigvals_hermitian", (["1", "0", "0", "1"], 2), TypeError),  # complex() parses a str
    ],
)
def test_entries_are_read_as_numbers_on_both_backends(native, name, args, error):
    """Both backends convert entries as the C API does: neither accepts what the other rejects."""
    for backend in (reference, native):
        with pytest.raises(error):
            getattr(backend, name)(*args)


_FAKE_NATIVE = """
import importlib.abc, sys

class NativeFinder(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name == "chshbounds._kernels._native":
            raise {error}
        return None

sys.meta_path.insert(0, NativeFinder())
import chshbounds
print(chshbounds.BACKEND_NAME)
"""


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
    ],
)
def test_native_import_failure_handling(error, backend_env, failure):
    """Only a native module that is not built falls back to python."""
    env = {k: v for k, v in os.environ.items() if k != "CHSHBOUNDS_BACKEND"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if backend_env:
        env["CHSHBOUNDS_BACKEND"] = backend_env
    script = _FAKE_NATIVE.format(error=error)
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
    assert len(_kernels.KERNEL_NAMES) == 6
    assert not {"gp8", "kron2", "spin_matrix", "expectation"} & set(_kernels.KERNEL_NAMES)
    for name in _kernels.KERNEL_NAMES:
        assert callable(getattr(_kernels, name))
        assert callable(getattr(reference, name))


def test_native_exports_exactly_the_kernels(native):
    public = {name for name in vars(native) if not name.startswith("_")}
    assert public == {"BACKEND_NAME", *_kernels.KERNEL_NAMES}
