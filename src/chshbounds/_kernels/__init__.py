"""Kernel backend selection.

Two interchangeable backends implement the hot numerical loops: a C
extension built from ``_native.c`` (``native``) and a pure-Python reference
(``python``).  The native backend is preferred when it is built; set the
environment variable ``CHSHBOUNDS_BACKEND`` to ``python`` or ``native``
before import to force a choice.  Both produce bit-identical results, so the
selection affects speed only.

Only a native module that is not built falls back to ``python``; a built
module that fails to import raises, so a broken build is never hidden.
"""

from __future__ import annotations

import importlib
import os

KERNEL_NAMES = (
    "matmul",
    "singlet_expectation",
    "eigvals_hermitian",
    "rng_u64",
    "rng_u01",
    "lhv_mc_sums",
)

_NATIVE_MODULE = "chshbounds._kernels._native"


def load_backend(name: str):
    """Import and return the kernel module for ``name`` ('python' or 'native')."""
    if name == "python":
        from . import reference

        return reference
    if name == "native":
        return importlib.import_module(_NATIVE_MODULE)
    raise ValueError(f"unknown kernel backend {name!r}; expected 'python' or 'native'")


def _native_if_built():
    """The native module, or None when it is not built; a broken build raises."""
    try:
        return load_backend("native")
    except ModuleNotFoundError as exc:
        if exc.name != _NATIVE_MODULE:
            raise
        return None


def available_backends() -> tuple[str, ...]:
    """Names of the backends importable in this installation."""
    return ("python", "native") if _native_if_built() is not None else ("python",)


_requested = os.environ.get("CHSHBOUNDS_BACKEND")
if _requested:
    _backend = load_backend(_requested)
else:
    _backend = _native_if_built() or load_backend("python")

BACKEND_NAME: str = _backend.BACKEND_NAME

# Callers look the kernels up on this module at call time, so rebinding these
# attributes (as the golden tests and perfbench's tracer do) reroutes them.
globals().update({name: getattr(_backend, name) for name in KERNEL_NAMES})
