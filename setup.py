"""Build script: compiles the optional native kernel extension.

The package is fully functional without the extension; ``chshbounds._kernels``
falls back to the pure-Python kernels when it is not built.
"""

from setuptools import Extension, setup

# The native backend must match the pure-Python kernels bit for bit, so the
# compiler may not contract multiply-adds into FMA.  The kernels call no libm
# function, so no libm call can be fused either.
_STRICT_FP_FLAGS = ["-ffp-contract=off"]
# Start every function on a cache-line boundary, so a kernel's speed does not
# shift with where the linker happens to place it after an unrelated edit.
_ALIGN_FLAGS = ["-falign-functions=64"]

setup(
    ext_modules=[
        Extension(
            "chshbounds._kernels._native",
            ["src/chshbounds/_kernels/_native.c"],
            extra_compile_args=_STRICT_FP_FLAGS + _ALIGN_FLAGS,
            optional=True,
        )
    ]
)
