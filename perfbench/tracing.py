"""Per-layer tracing for the traced run, placed from outside the package.

Wrappers go around the names each caller looks up at call time: the
``chshbounds._kernels`` facade attributes, the names ``chshbounds.cli``
imported from the track modules, and the module attributes certify.py
uses.  Spans are aggregated in memory per layer (calls, self time = span
time minus the time of spans nested in it) rather than kept one by one, since
an optimizer run makes over half a million kernel calls.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

KERNELS = (
    "gp8",
    "spin_matrix",
    "kron2",
    "matmul",
    "expectation",
    "eigvals_hermitian",
    "rng_u64",
    "rng_u01",
    "lhv_mc_sums",
)

# (module, attribute, layer, counter fed from the return value)
_PATCHES = [("chshbounds._kernels", k, f"kernels.{k}", None) for k in KERNELS] + [
    ("chshbounds.cli", "monte_carlo_correlations", "lhv.monte_carlo", "samples"),
    ("chshbounds.cli", "maximize_classical", "optimize.search", "search"),
    ("chshbounds.cli", "maximize_quantum", "optimize.search", "search"),
    ("chshbounds.cli", "maximize_ga", "optimize.search", "search"),
    ("chshbounds.cli", "sweep_coplanar_family", "optimize.search", None),
    ("chshbounds.optimize", "_chsh_value_from_vectors", "quantum.chsh_value", None),
    ("chshbounds.quantum", "_chsh_value_from_vectors", "quantum.chsh_value", None),
    ("chshbounds.cli", "operator_norm", "quantum.operator_norm", None),
    ("chshbounds.quantum", "operator_norm", "quantum.operator_norm", None),
    ("chshbounds.cli", "chsh_operator", "quantum.chsh_operator", None),
    ("chshbounds.quantum", "chsh_operator", "quantum.chsh_operator", None),
    ("chshbounds.cli", "chsh_squared_identity_deviation", "quantum.identity_check", None),
    ("chshbounds.quantum", "chsh_squared_identity_deviation", "quantum.identity_check", None),
    ("chshbounds.cli", "chsh_vector_value", "vector_values.chsh", None),
    ("chshbounds.vector_values", "chsh_vector_value", "vector_values.chsh", None),
    ("chshbounds.ga", "commutator", "ga.commutator", None),
    ("chshbounds.cli", "canonical_json", "reporting.json", "bytes"),
    ("chshbounds.cli", "reports_to_json", "reporting.json", "bytes"),
    ("chshbounds.cli", "sweep_to_json", "reporting.json", "bytes"),
    ("chshbounds.cli", "reports_to_csv", "reporting.csv", "bytes"),
    ("chshbounds.cli", "sweep_to_csv", "reporting.csv", "bytes"),
]

# Layers reported as calls and self time; the others report self time only.
_COUNTED = [f"kernels.{k}" for k in KERNELS] + [
    "quantum.chsh_value",
    "quantum.operator_norm",
    "geometry.configuration",
    "vector_values.chsh",
    "ga.commutator",
]
_TIMED_ONLY = [
    "lhv.monte_carlo",
    "optimize.search",
    "quantum.chsh_operator",
    "quantum.identity_check",
    "reporting.json",
    "reporting.csv",
    "cli.main",
]


class Tracer:
    """Call counts, self times and work counters per layer."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self._child_s: list[float] = []

    def wrap(self, layer: str, fn, counter: str | None = None):
        child_s = self._child_s
        calls = self.calls
        self_s = self.self_s
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            child_s.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                nested = child_s.pop()
                if child_s:
                    child_s[-1] += elapsed
                calls[layer] += 1
                self_s[layer] += elapsed - nested
            if counter is not None:
                self._count(counter, result)
            return result

        return traced

    def _count(self, counter: str, result) -> None:
        if counter == "samples":
            self.counters["lhv.samples"] += result.samples
        elif counter == "search":
            self.counters["optimize.evaluations"] += result.iterations
            self.counters["optimize.improvements"] += len(result.history)
        else:
            self.counters["reporting.bytes_out"] += len(result.encode("utf-8"))

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in _COUNTED:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        for layer in _TIMED_ONLY:
            out[f"{layer}.self_s"] = self.self_s[layer]
        evaluations = self.counters["optimize.evaluations"]
        out["lhv.samples"] = self.counters["lhv.samples"]
        out["optimize.evaluations"] = evaluations
        out["optimize.improvement_ratio"] = (
            self.counters["optimize.improvements"] / evaluations if evaluations else 0.0
        )
        out["reporting.bytes_out"] = self.counters["reporting.bytes_out"]
        return out


class Patches:
    """Replaces attributes and puts the originals back, checking that it did."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        # A name a later version of the package drops is simply not traced;
        # its layer then reads 0.
        if attr in vars(owner):
            original = vars(owner)[attr]
            setattr(owner, attr, make(original))
            self._saved.append((owner, attr, original))

    def restore(self) -> bool:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        return all(vars(owner)[attr] is original for owner, attr, original in self._saved)


def install(tracer: Tracer) -> Patches:
    """Wrap every traced entry point; ``Patches.restore`` undoes it."""
    patches = Patches()
    for module, attr, layer, counter in _PATCHES:
        patches.replace(
            importlib.import_module(module), attr, lambda f, l=layer, c=counter: tracer.wrap(l, f, c)
        )
    configuration = importlib.import_module("chshbounds.geometry").Configuration
    patches.replace(
        configuration,
        "from_vectors",
        lambda cm: classmethod(tracer.wrap("geometry.configuration", cm.__func__)),
    )
    return patches


def consistency_errors(workload: str, m: dict[str, float], samples: int) -> list[str]:
    """Equalities that hold when every call of a traced layer was counted.

    A kernel that reads 0 calls is accepted, so that a later version may route
    the work through another kernel; a non-zero count must match exactly.
    """
    checks = []
    if workload == "optimize_quantum":
        n = m["optimize.evaluations"]
        if n <= 0:
            return ["optimize.evaluations is 0"]
        checks = [
            ("kernels.kron2.calls", 4 * n),
            ("kernels.expectation.calls", 4 * n),
            ("kernels.spin_matrix.calls", 8 * n),
            ("quantum.chsh_value.calls", n),
        ]
    elif workload == "mc_classical":
        if m["lhv.samples"] != samples:
            return [f"lhv.samples is {m['lhv.samples']}, expected {samples}"]
        checks = [("kernels.lhv_mc_sums.calls", -(-samples // 4096))]
    return [
        f"{name} is {m[name]}, expected {expected}"
        for name, expected in checks
        if m[name] not in (0, expected)
    ]
