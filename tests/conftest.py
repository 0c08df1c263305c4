"""Fixtures shared by the test modules."""

import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def child_env():
    """Environment in which a child ``python -m chshbounds.cli`` imports the package under test."""
    import chshbounds

    return dict(os.environ, PYTHONPATH=str(Path(chshbounds.__file__).resolve().parents[1]))


@pytest.fixture(scope="session")
def native(tmp_path_factory):
    """The C kernel module, built by ``setup.py build_ext`` into a temporary directory.

    Skips only when no C compiler is on PATH.  setup.py marks the extension
    optional, so a compiler that produces no module would otherwise pass
    unnoticed: that case fails with the build log.
    """
    compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(compiler) is None:
        pytest.skip(f"no C compiler ({compiler}) on PATH")
    out = tmp_path_factory.mktemp("native_build")
    command = [sys.executable, "setup.py", "build_ext", "--build-lib", out, "--build-temp", out]
    build = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    so_path = out / "chshbounds" / "_kernels" / f"_native{sysconfig.get_config_var('EXT_SUFFIX')}"
    if not so_path.exists():
        pytest.fail(f"setup.py built no native module:\n{build.stdout}\n{build.stderr}")
    spec = importlib.util.spec_from_file_location("chshbounds._kernels._native", so_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
