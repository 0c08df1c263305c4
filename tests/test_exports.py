"""Every name a module exports through ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import chshbounds

# The native module is optional and imported only by the kernel facade.
MODULES = [
    info.name
    for info in pkgutil.walk_packages(chshbounds.__path__, "chshbounds.")
    if info.name != "chshbounds._kernels._native"
]


@pytest.mark.parametrize("name", ["chshbounds", *MODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


# The public surface of the package, sorted.  Adding or removing a name
# changes this list, so every change to the API shows in a test diff.
PUBLIC_API = [
    "BACKEND_NAME",
    "BoundReport",
    "CLASSICAL_BOUND",
    "ComplexMatrix",
    "Configuration",
    "CorrelationSet",
    "E1",
    "E2",
    "E3",
    "EqualityCondition",
    "HiddenState",
    "LhvModel",
    "MonteCarloEstimate",
    "Multivector",
    "OptimizationResult",
    "ResponseCoefficients",
    "TSIRELSON_BOUND",
    "__version__",
    "all_deterministic_strategies",
    "angle_between",
    "canonical_configuration",
    "case_inequality_holds",
    "chsh_classical_value",
    "chsh_operator",
    "chsh_quantum_value",
    "chsh_squared_identity_deviation",
    "chsh_vector_value",
    "classical_correlations",
    "commutator",
    "commutator_matrix",
    "cross_commutator_residual",
    "equality_condition_check",
    "geometric_product",
    "maximize_classical",
    "maximize_ga",
    "maximize_quantum",
    "monte_carlo_correlations",
    "operator_norm",
    "pair_value",
    "per_state_chsh_value",
    "planar_vector",
    "random_configuration",
    "random_model",
    "random_unit_vector",
    "response_vector",
    "scalar_pair_bound_holds",
    "singlet_correlation",
    "singlet_correlation_closed_form",
    "singlet_state",
    "spherical_vector",
    "spin_operator",
    "sweep_coplanar_family",
    "tensor_product",
    "vector_bound_expression",
]


def test_public_api_is_pinned():
    assert sorted(chshbounds.__all__) == PUBLIC_API
