"""CHSH-type bounds across three tracks: classical, quantum, and vector-valued.

The package computes and verifies the chain

    classical 2  <  quantum 2*sqrt(2)  =  vector-response ceiling 2*sqrt(2)

with an exact deterministic-strategy enumeration on the classical side, a
singlet-state matrix pipeline plus operator-norm argument on the quantum
side, and a purely vector-algebraic bound chain for factorized vector
responses.  A small geometric-algebra core (G3 multivectors) supplies the
noncommutativity diagnostics.  Hot kernels run on an optional C extension
when it is built, with a pure-Python fallback selected at import time.
"""

from ._kernels import BACKEND_NAME
from ._version import __version__
from .ga import E1, E2, E3, Multivector, commutator, geometric_product
from .geometry import (
    Configuration,
    angle_between,
    canonical_configuration,
    planar_vector,
    random_configuration,
)
from .lhv import (
    CLASSICAL_BOUND,
    CorrelationSet,
    HiddenState,
    LhvModel,
    MonteCarloEstimate,
    all_deterministic_strategies,
    chsh_classical_value,
    classical_correlations,
    monte_carlo_correlations,
    per_state_chsh_value,
    random_model,
    scalar_pair_bound_holds,
)
from .optimize import (
    OptimizationResult,
    maximize_classical,
    maximize_ga,
    maximize_quantum,
    sweep_coplanar_family,
)
from .quantum import (
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
from .reporting import BoundReport
from .vector_values import (
    EqualityCondition,
    ResponseCoefficients,
    case_inequality_holds,
    chsh_vector_value,
    equality_condition_check,
    pair_value,
    response_vector,
    vector_bound_expression,
)

__all__ = [
    "__version__",
    "BACKEND_NAME",
    # geometry
    "Configuration",
    "angle_between",
    "canonical_configuration",
    "planar_vector",
    "random_configuration",
    # geometric algebra
    "Multivector",
    "E1",
    "E2",
    "E3",
    "geometric_product",
    "commutator",
    # classical track
    "CLASSICAL_BOUND",
    "HiddenState",
    "LhvModel",
    "CorrelationSet",
    "MonteCarloEstimate",
    "all_deterministic_strategies",
    "classical_correlations",
    "chsh_classical_value",
    "per_state_chsh_value",
    "scalar_pair_bound_holds",
    "monte_carlo_correlations",
    "random_model",
    # quantum track
    "TSIRELSON_BOUND",
    "ComplexMatrix",
    "spin_operator",
    "tensor_product",
    "commutator_matrix",
    "singlet_state",
    "singlet_correlation",
    "singlet_correlation_closed_form",
    "chsh_operator",
    "chsh_quantum_value",
    "chsh_squared_identity_deviation",
    "cross_commutator_residual",
    "operator_norm",
    # vector-valued track
    "ResponseCoefficients",
    "response_vector",
    "pair_value",
    "chsh_vector_value",
    "vector_bound_expression",
    "case_inequality_holds",
    "EqualityCondition",
    "equality_condition_check",
    # optimization and reporting
    "OptimizationResult",
    "maximize_classical",
    "maximize_quantum",
    "maximize_ga",
    "sweep_coplanar_family",
    "BoundReport",
]
