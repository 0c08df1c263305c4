"""Every exported name resolves, and every public name is public for a reason.

A name of ``chshbounds.__all__`` stays public only when one of the reasons
below holds for it, and each test here checks the reason it is filed under.
The README's Library section lists the same names under the same reasons.
The benchmark's programs in ``perfbench/`` are read, never edited: the traced
run skips a name it cannot find without a word, so the names it reaches are
pinned here instead.
"""

import ast
import contextlib
import functools
import importlib
import importlib.util
import io
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import chshbounds
from chshbounds import cli, geometry

ROOT = Path(__file__).resolve().parent.parent

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


# The reasons, worded as the README's Library section words them.
CLI = "The CLI runs it"
PERFBENCH = "The benchmark's library program calls it"
PAPER = "An acceptance criterion or this section checks a step of the paper's argument with it"
REFERENCE = "A test compares against it"
CI = "CI's backend-selection step reads it"

# The public surface of the package, each name with its reason.  Adding or
# removing a name changes this table, so every change to the API shows in a
# test diff.
PUBLIC_API = {
    "BACKEND_NAME": CI,
    "BoundReport": CLI,
    "CLASSICAL_BOUND": CLI,
    "ComplexMatrix": CLI,
    "Configuration": CLI,
    "CorrelationSet": CLI,
    "E1": REFERENCE,
    "E2": REFERENCE,
    "E3": REFERENCE,
    "EqualityCondition": PAPER,
    "HiddenState": CLI,
    "LhvModel": CLI,
    "MonteCarloEstimate": CLI,
    "Multivector": PERFBENCH,
    "OptimizationResult": CLI,
    "ResponseCoefficients": CLI,
    "TSIRELSON_BOUND": CLI,
    "__version__": CLI,
    "all_deterministic_strategies": CLI,
    "angle_between": REFERENCE,
    "canonical_configuration": CLI,
    "case_inequality_holds": PAPER,
    "chsh_classical_value": CLI,
    "chsh_operator": CLI,
    "chsh_quantum_value": CLI,
    "chsh_squared_identity_deviation": CLI,
    "chsh_vector_value": CLI,
    "classical_correlations": CLI,
    "commutator": PERFBENCH,
    "commutator_matrix": PERFBENCH,
    "cross_commutator_residual": CLI,
    "equality_condition_check": PAPER,
    "geometric_product": PERFBENCH,
    "maximize_classical": CLI,
    "maximize_ga": CLI,
    "maximize_quantum": CLI,
    "monte_carlo_correlations": CLI,
    "operator_norm": CLI,
    "pair_value": PAPER,
    "per_state_chsh_value": PAPER,
    "planar_vector": CLI,
    "random_configuration": PAPER,
    "random_model": PAPER,
    "response_vector": PAPER,
    "scalar_pair_bound_holds": PAPER,
    "singlet_correlation": PAPER,
    "singlet_correlation_closed_form": REFERENCE,
    "singlet_state": REFERENCE,
    "spin_operator": PERFBENCH,
    "sweep_coplanar_family": CLI,
    "tensor_product": PERFBENCH,
    "vector_bound_expression": CLI,
}

# References outside ``chshbounds.__all__`` that tests compare against.
MODULE_REFERENCES = [
    "quantum.PAULI_X",
    "quantum.PAULI_Y",
    "quantum.PAULI_Z",
    "quantum.ComplexMatrix.expectation",
]

# One run of each CLI command; every one exits 0.
CLI_RUNS = [
    ["verify", "--track", "all", "--canonical"],
    ["verify", "--config", str(ROOT / "tests" / "golden" / "angles_model.yaml")],
    ["optimize", "--track", "classical"],
    ["optimize", "--track", "quantum", "--restarts", "1"],
    ["optimize", "--track", "ga", "--restarts", "1"],
    ["sweep", "--steps", "3", "--format", "csv"],
]

# (module, attribute) pairs of perfbench/tracing.py's _PATCHES that resolve.
# Its other pairs name kernels and sweep writers the package no longer has.
TRACED = [
    ("chshbounds._kernels", "rng_u01"),
    ("chshbounds._kernels", "lhv_mc_sums"),
    ("chshbounds.cli", "monte_carlo_correlations"),
    ("chshbounds.cli", "maximize_classical"),
    ("chshbounds.cli", "maximize_quantum"),
    ("chshbounds.cli", "maximize_ga"),
    ("chshbounds.cli", "sweep_coplanar_family"),
    ("chshbounds.optimize", "_chsh_value_from_vectors"),
    ("chshbounds.quantum", "_chsh_value_from_vectors"),
    ("chshbounds.cli", "operator_norm"),
    ("chshbounds.quantum", "operator_norm"),
    ("chshbounds.cli", "chsh_operator"),
    ("chshbounds.quantum", "chsh_operator"),
    ("chshbounds.cli", "chsh_squared_identity_deviation"),
    ("chshbounds.quantum", "chsh_squared_identity_deviation"),
    ("chshbounds.cli", "chsh_vector_value"),
    ("chshbounds.vector_values", "chsh_vector_value"),
    ("chshbounds.ga", "commutator"),
    ("chshbounds.cli", "canonical_json"),
    ("chshbounds.cli", "reports_to_json"),
    ("chshbounds.cli", "reports_to_csv"),
]


def _load(name: str):
    """A module of perfbench/, loaded from its file without running it as a script."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _codes(obj) -> set:
    """Code objects of a function, or of the methods a class defines itself."""
    if isinstance(obj, type):
        members = [getattr(v, "__func__", getattr(v, "fget", v)) for v in vars(obj).values()]
        return {f.__code__ for f in members if hasattr(f, "__code__")}
    return {obj.__code__} if hasattr(obj, "__code__") else set()


def _codes_run_by(run) -> set:
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


def _resolve(dotted: str) -> object:
    """``chshbounds.<dotted>`` for ``module.attr...``, or None where a name is missing."""
    module, *attrs = dotted.split(".")
    owner = importlib.import_module(f"chshbounds.{module}")
    return functools.reduce(lambda obj, attr: getattr(obj, attr, None), attrs, owner)


def _canonical_quadruple():
    return geometry.canonical_configuration().vectors()


def _names(reason: str) -> list[str]:
    return [name for name, why in PUBLIC_API.items() if why == reason]


def test_public_api_is_pinned():
    assert sorted(chshbounds.__all__) == sorted(PUBLIC_API)


def test_cli_names_are_run_or_read_by_the_cli():
    """A callable's code runs during the CLI runs; a constant is imported by the CLI."""
    exits = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli_codes = _codes_run_by(lambda: exits.extend(cli.main(argv) for argv in CLI_RUNS))
    assert exits == [0] * len(CLI_RUNS)
    idle = [
        name
        for name in _names(CLI)
        if not (
            _codes(getattr(chshbounds, name)) & cli_codes
            if callable(getattr(chshbounds, name))
            else name in vars(cli)
        )
    ]
    assert idle == []


def test_benchmark_names_run_in_its_library_program():
    certify = _load("certify")
    codes = _codes_run_by(lambda: certify.certify([_canonical_quadruple()]))
    idle = [name for name in _names(PERFBENCH) if not _codes(getattr(chshbounds, name)) & codes]
    assert idle == []


def _readme_library() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def _readme_reason_lists() -> dict[str, set[str]]:
    """The Library section's bullets: bold reason, then the backticked names."""
    bullets = re.findall(r"^- \*\*(.+?):\*\*(.*?)(?=^- |^$)", _readme_library(), re.M | re.S)
    return {label: set(re.findall(r"`([\w.]+)`", names)) for label, names in bullets}


def test_paper_names_are_checked_by_an_acceptance_criterion_or_the_readme():
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    prose = "\n".join(
        line for line in _readme_library().splitlines() if not line.startswith(("- ", "  "))
    )
    unchecked = [
        name for name in _names(PAPER)
        if not re.search(rf"\b{name}\b", acceptance) and f"`{name}" not in prose
    ]
    assert unchecked == []


def test_references_are_compared_against_in_tests():
    tests = "\n".join(
        path.read_text(encoding="utf-8")
        for path in (ROOT / "tests").glob("test_*.py")
        if path.name != "test_exports.py"
    )
    missing = [dotted for dotted in MODULE_REFERENCES if _resolve(dotted) is None]
    assert missing == []
    names = _names(REFERENCE) + [dotted.rsplit(".", 1)[1] for dotted in MODULE_REFERENCES]
    assert [name for name in names if not re.search(rf"\b{name}\b", tests)] == []


def test_ci_names_are_read_by_the_workflow():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    assert [name for name in _names(CI) if f"chshbounds.{name}" not in workflow] == []


def test_readme_lists_the_public_names_by_reason():
    expected = {reason: set(_names(reason)) for reason in (CLI, PERFBENCH, PAPER, REFERENCE, CI)}
    expected[REFERENCE] |= set(MODULE_REFERENCES)
    assert _readme_reason_lists() == expected


def test_benchmark_entry_points_resolve():
    """The traced run wraps each pinned pair and Configuration.from_vectors;
    perfbench/certify.py's module attributes resolve, and it runs."""
    tracing = _load("tracing")
    patched = {(module, attr) for module, attr, _, _ in tracing._PATCHES}
    assert set(TRACED) <= patched
    missing = [pair for pair in TRACED if pair[1] not in vars(importlib.import_module(pair[0]))]
    assert missing == []
    assert isinstance(vars(geometry.Configuration)["from_vectors"], classmethod)

    tree = ast.parse((ROOT / "perfbench" / "certify.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "chshbounds"
        for alias in node.names
    }
    chains = set()  # "module.attr..." spelled out in certify.py
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in imported and parts:
            chains.add(".".join((node.id, *reversed(parts))))
    assert "geometry.Configuration.from_vectors" in chains
    assert [chain for chain in sorted(chains) if _resolve(chain) is None] == []

    lines = _load("certify").certify([_canonical_quadruple()]).splitlines()
    assert len(lines) == 1 and len(lines[0].split()) == 7
