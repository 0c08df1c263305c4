"""Value semantics shared by the package's frozen value objects.

Each class is built twice from equal arguments.  The expected ``repr`` strings
are the ones the classes printed when they were frozen dataclasses, so the
move to plain classes changed none of them.
"""

import collections.abc
import copy
import pickle

import pytest

from chshbounds import __version__
from chshbounds.ga import Multivector
from chshbounds.geometry import Configuration
from chshbounds.lhv import CorrelationSet, HiddenState, LhvModel, MonteCarloEstimate
from chshbounds.optimize import OptimizationResult
from chshbounds.quantum import ComplexMatrix
from chshbounds.reporting import BoundReport
from chshbounds.vector_values import ResponseCoefficients

CORRELATIONS = "CorrelationSet(c_ab=0.5, c_ab_prime=-0.5, c_aprime_b=1.0, c_aprime_bprime=0.0)"

# (class, positional arguments, repr)
CASES = [
    (
        Configuration,
        ([1, 0, 0], (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (-1.0, 0.0, 0.0)),
        "Configuration(a=(1.0, 0.0, 0.0), a_prime=(0.0, 1.0, 0.0), b=(0.0, 0.0, 1.0), "
        "b_prime=(-1.0, 0.0, 0.0))",
    ),
    (ComplexMatrix, (2, [1, 0j, 0j, -1]), "ComplexMatrix(dim=2, entries=(1, 0j, 0j, -1))"),
    (
        Multivector,
        ([1, 0, 0, 0, 0, 0, 0, 2],),
        "Multivector(coefficients=(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0))",
    ),
    (
        ResponseCoefficients,
        (1, -0.5, 0.25, 1),
        "ResponseCoefficients(alpha_a=1.0, alpha_a_prime=-0.5, alpha_b=0.25, alpha_b_prime=1.0)",
    ),
    (
        HiddenState,
        (1, [1, -1, 0.5, 1 + 1e-13]),
        "HiddenState(weight=1.0, responses=(1.0, -1.0, 0.5, 1.0))",
    ),
    (
        LhvModel,
        ([HiddenState(1.0, (1.0, 1.0, -1.0, -1.0))],),
        "LhvModel(states=(HiddenState(weight=1.0, responses=(1.0, 1.0, -1.0, -1.0)),))",
    ),
    (CorrelationSet, (0.5, -0.5, 1, 0), CORRELATIONS),
    (
        MonteCarloEstimate,
        (CorrelationSet(0.5, -0.5, 1, 0), (0.1, 0.2, 0.3, 0.4), 1000, 7),
        f"MonteCarloEstimate(correlations={CORRELATIONS}, std_errors=(0.1, 0.2, 0.3, 0.4), "
        "samples=1000, seed=7)",
    ),
    (
        OptimizationResult,
        ("classical", 2.0, 2.0, 16, ((1, 2.0),), None, None, (1.0, 1.0, 1.0, -1.0), None,
         None, 16),
        "OptimizationResult(track='classical', best_value=2.0, bound=2.0, iterations=16, "
        "history=((1, 2.0),), best_configuration=None, best_coefficients=None, "
        "best_strategy=(1.0, 1.0, 1.0, -1.0), restarts=None, seed=None, maximizer_count=16, "
        "distinct_maximizing_correlations=None, note=None)",
    ),
    (
        BoundReport,
        ("quantum", 2.5, 3.0, {"samples": 10}, 7, "0.0.0", {"residual": 0.0}),
        "BoundReport(track='quantum', value=2.5, bound=3.0, inputs={'samples': 10}, seed=7, "
        "version='0.0.0', details={'residual': 0.0})",
    ),
]


@pytest.mark.parametrize("cls, args, text", CASES, ids=[case[0].__name__ for case in CASES])
def test_value_semantics(cls, args, text):
    value = cls(*args)
    assert repr(value) == text
    assert tuple(vars(value)) == cls._fields

    # Equal fields, equal objects; keyword construction is the same as positional.
    twin = cls(**dict(zip(cls._fields, args)))
    assert value == twin and not value != twin
    if cls is BoundReport:  # its inputs and details are dicts, as they were
        with pytest.raises(TypeError):
            hash(value)
        assert not isinstance(value, collections.abc.Hashable)
    else:
        assert hash(value) == hash(twin)

    # Another class is never equal, not even a subclass or the field tuple.
    subclass = type(cls.__name__, (cls,), {})(*args)
    assert value != subclass and subclass != value
    assert value != value._values()

    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == twin

    for rebuilt in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(rebuilt) is cls and rebuilt == value


def test_defaults_are_the_dataclass_defaults():
    result = OptimizationResult("quantum", 2.0, 2.8, 10, ())
    assert result == OptimizationResult("quantum", 2.0, 2.8, 10, (), *[None] * 8)
    first = BoundReport("quantum", 2.5, 3.0, {}, 7)
    second = BoundReport(track="quantum", value=2.5, bound=3.0, inputs={}, seed=7)
    assert first.version == __version__ and first.details == {}
    assert first == second and first.details is not second.details

