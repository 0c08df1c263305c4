"""Packaging metadata, the tracked files, the sources and the CI workflow's structure.

The checks that CI relies on are tier-1 tests: the backend byte checks (the
``backend`` fixture runs each case on both backends) and the build-artefacts
check below.  CI makes them by running tier-1 on every entry of its matrix, so
the tests here read only the workflow's matrix, the native build's condition
and the tier-1 and acceptance commands, never the text of its other steps.
"""

import ast
import importlib.util
import os
import re
import shutil
import subprocess
import sys
import sysconfig
import textwrap
from pathlib import Path

import pytest
import yaml

from chshbounds import __version__, _kernels, cli, quantum

ROOT = Path(__file__).resolve().parent.parent
TIER1 = "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors"
ACCEPTANCE = "PYTHONPATH=src python -m pytest tests/test_acceptance.py -q -rP"


def _toml_table(name: str) -> str:
    """Body of the ``[name]`` table of pyproject.toml (3.10 has no tomllib)."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(rf"^\[{re.escape(name)}\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert match is not None, f"pyproject.toml has no [{name}] table"
    return match.group(1)


def test_version_has_one_source():
    project = _toml_table("project")
    assert re.search(r"^version\s*=", project, re.M) is None
    assert re.search(r'^dynamic\s*=\s*\["version"\]', project, re.M)
    dynamic = _toml_table("tool.setuptools.dynamic")
    assert 'version = { attr = "chshbounds._version.__version__" }' in dynamic
    assert re.fullmatch(r"\d+\.\d+\.\d+", __version__)


def test_readme_names_the_kernels():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"The (\w+) hot kernels \(([^:]*):", readme)
    assert match is not None, "README.md has no hot-kernel sentence"
    count_words = ("zero", "one", "two", "three", "four", "five", "six", "seven", "eight")
    assert match.group(1).lower() == count_words[len(_kernels.KERNEL_NAMES)]
    assert tuple(re.findall(r"`(\w+)`", match.group(2))) == _kernels.KERNEL_NAMES


def _builtin_sum_calls(node, function: str, found: list) -> None:
    """Append the enclosing function's name for each ``sum(...)`` call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
            if child.func.id == "sum":
                found.append(function)
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _builtin_sum_calls(child, child.name, found)
        else:
            _builtin_sum_calls(child, function, found)


def test_sources_make_no_builtin_sum_call():
    # From CPython 3.12, builtin sum() of floats is compensated (gh-100425),
    # so it returns other bits than on 3.10 and 3.11.  Sums are written as
    # left-to-right loops instead.
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        calls = []
        _builtin_sum_calls(ast.parse(path.read_text(encoding="utf-8")), "<module>", calls)
        found += [(path.relative_to(ROOT).as_posix(), function) for function in calls]
    assert found == []


# C99 <math.h> functions, any of which gcc may replace by a builtin or fuse
# with another (cos and sin into sincos) unless a -fno-builtin flag says not.
LIBM = {
    "sin", "cos", "tan", "asin", "acos", "atan", "atan2", "sinh", "cosh", "tanh", "exp",
    "exp2", "expm1", "log", "log2", "log10", "log1p", "pow", "sqrt", "cbrt", "hypot",
    "fabs", "floor", "ceil", "trunc", "round", "rint", "fmod", "remainder", "fma", "fmin",
    "fmax", "frexp", "ldexp", "scalbn", "modf", "copysign", "nextafter", "isfinite",
    "isinf", "isnan", "signbit",
}


def test_native_kernels_call_no_libm_function_so_only_fma_contraction_is_off():
    """The C kernels call no libm function, which gcc could fuse or replace
    by a builtin, so the one floating-point flag setup.py needs is the one
    that keeps multiply-adds unfused."""
    source = (ROOT / "src" / "chshbounds" / "_kernels" / "_native.c").read_text(encoding="utf-8")
    code = re.sub(r"/\*.*?\*/", "", source, flags=re.S)
    assert "<math.h>" not in code
    assert set(re.findall(r"\b(\w+)\s*\(", code)) & LIBM == set()
    path = ROOT / "tools" / "interpreters.py"
    spec = importlib.util.spec_from_file_location("interpreters", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.strict_fp_flags() == ["-ffp-contract=off"]


def test_native_kernels_build_without_a_warning(tmp_path):
    """The CI build, CFLAGS="-Wall -Werror", compiles: the C kernels leave no
    unused static function and raise no other warning."""
    compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(compiler) is None:
        pytest.skip(f"no C compiler ({compiler}) on PATH")
    command = [sys.executable, "setup.py", "build_ext", "--build-lib", tmp_path, "--build-temp",
               tmp_path]
    env = dict(os.environ, CFLAGS="-Wall -Werror")
    build = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    assert (tmp_path / "chshbounds" / "_kernels" / f"_native{suffix}").exists(), build.stderr


def _count_products(monkeypatch, argv: list) -> tuple:
    """4x4 and 2x2 matrix products and Kronecker products that ``cli.main(argv)``
    forms, counted at ``quantum._product``, ``quantum._hermitian_square`` (a
    product of its size) and ``quantum._kron``, which form them all."""
    counts = {"4x4": 0, "2x2": 0, "kron": 0}
    product, square, kron = quantum._product, quantum._hermitian_square, quantum._kron

    def counting_product(x, y):
        counts["4x4" if len(x) == 16 else "2x2"] += 1
        return product(x, y)

    def counting_square(x):
        counts["4x4" if len(x) == 16 else "2x2"] += 1
        return square(x)

    def counting_kron(x, y):
        counts["kron"] += 1
        return kron(x, y)

    monkeypatch.setattr(quantum, "_product", counting_product)
    monkeypatch.setattr(quantum, "_hermitian_square", counting_square)
    monkeypatch.setattr(quantum, "_kron", counting_kron)
    assert cli.main(argv) == 0
    monkeypatch.undo()
    return counts["4x4"], counts["2x2"], counts["kron"]


def test_docs_quote_the_product_counts(monkeypatch, capsys):
    # verify --track all forms the most products of any command; the README
    # and the two docstrings that justify plain-Python products quote it.
    counts = _count_products(monkeypatch, ["verify", "--track", "all", "--canonical", "--seed", "7"])
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    match = re.search(
        r"forms more than (\d+) 4×4 matrix products, (\d+) 2×2 matrix products"
        r" or (\d+) Kronecker products",
        readme,
    )
    assert match is not None, "README.md has no product-count sentence"
    assert tuple(map(int, match.groups())) == counts
    doc = " ".join(quantum.ComplexMatrix.__doc__.split())
    quoted = re.search(r"forms more than (\d+) 4x4 and (\d+) 2x2 products", doc)
    assert quoted is not None, "ComplexMatrix quotes no product count"
    assert tuple(map(int, quoted.groups())) == counts[:2]
    doc = " ".join(quantum.tensor_product.__doc__.split())
    quoted = re.search(r"forms more than (\d+) such products", doc)
    assert quoted is not None, "tensor_product quotes no product count"
    assert int(quoted.group(1)) == counts[2]
    optimize = ["optimize", "--track", "quantum", "--restarts", "2"]
    assert _count_products(monkeypatch, optimize) == (0, 0, 0)
    assert _count_products(monkeypatch, ["sweep", "--steps", "11"]) == (0, 0, 0)
    capsys.readouterr()


def _ci_job() -> dict:
    """The workflow's one job, whose matrix gives each (Python, backend) entry."""
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    (job,) = workflow["jobs"].values()
    return job


def _step_running(steps: list, command: str) -> dict:
    """The one step whose ``run`` holds ``command``."""
    (step,) = [step for step in steps if command in step.get("run", "")]
    return step


def test_ci_runs_tier1_on_both_backends():
    job = _ci_job()
    assert job["strategy"]["matrix"] == {
        "python-version": ["3.10", "3.11", "3.12", "3.13"],
        "backend": ["python", "native"],
    }
    steps = job["steps"]
    # Only native builds the C kernels in place.
    assert _step_running(steps, "build_ext")["if"] == "matrix.backend == 'native'"
    # Tier-1 and the acceptance criteria (apart, with -rP to print their
    # elapsed times) run on every entry.
    tier1 = _step_running(steps, TIER1)
    acceptance = _step_running(steps, ACCEPTANCE)
    assert "--ignore=tests/test_acceptance.py" in tier1["run"]
    assert acceptance["run"] == ACCEPTANCE
    assert "if" not in tier1 and "if" not in acceptance


def test_ci_conditions_name_only_listed_matrix_values():
    # A misspelt value ('natve') would match no entry and silently drop its step.
    job = _ci_job()
    matrix = job["strategy"]["matrix"]
    clause = re.compile(r"matrix\.(python-version|backend) == '([^']*)'")
    conditions = [step["if"] for step in job["steps"] if "if" in step]
    assert conditions
    for condition in conditions:
        for part in condition.split(" && "):
            match = clause.fullmatch(part)
            assert match is not None, f"unexpected condition {condition!r}"
            assert match.group(2) in matrix[match.group(1)], f"no entry matches {condition!r}"


# Compiled modules and objects, bytecode, and the build, __pycache__ and
# egg-info directories.
BUILD_ARTEFACT = re.compile(r"\.(so|pyd|o|pyc)$|(^|/)(build|__pycache__|[^/]+\.egg-info)/")


def test_no_build_artefacts_are_tracked():
    # The pattern flags each kind of artefact, the repository's .gitignore
    # (not a user's global excludes) ignores each, and no tracked file is one.
    artefacts = [
        "src/chshbounds/_kernels/_native.cpython-311-x86_64-linux-gnu.so",
        "src/chshbounds/_kernels/_native.pyd",
        "build/temp.linux-x86_64-cpython-311/_native.o",
        "src/chshbounds/_kernels/_native.o",
        "build/lib/chshbounds/__init__.py",
        "src/chshbounds/__pycache__/quantum.cpython-311.pyc",
        "tests/__pycache__/conftest.cpython-311-pytest-8.0.0.pyc",
        "src/chshbounds/quantum.pyc",
        "src/chshbounds.egg-info/PKG-INFO",
    ]
    for path in artefacts:
        assert BUILD_ARTEFACT.search(path), path
    ignored = subprocess.run(
        ["git", "check-ignore", "--no-index", "--verbose", *artefacts],
        cwd=ROOT, capture_output=True, text=True,
    ).stdout.splitlines()
    matches = [line.split("\t") for line in ignored]
    assert [path for _, path in matches] == artefacts
    assert all(source.startswith(".gitignore:") for source, _ in matches), ignored
    tracked = subprocess.run(
        ["git", "ls-files"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert "src/chshbounds/quantum.py" in tracked
    assert [path for path in tracked if BUILD_ARTEFACT.search(path)] == []


def test_a_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    # Under filterwarnings = ["error"], a warning raised while the hypothesis
    # plugin reports a failure becomes an INTERNALERROR that ends the session.
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(derandomize=True)
        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
    """))
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"]
    run = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout.splitlines()[-1]


def _interpreters(*pythons: str, native: bool = False) -> subprocess.CompletedProcess:
    command = [sys.executable, str(ROOT / "tools" / "interpreters.py")] + ["--native"] * native
    for python in pythons:
        command += ["--python", python]
    return subprocess.run(command, capture_output=True, text=True, timeout=300)


def test_interpreters_tool_hashes_nine_outputs_per_interpreter():
    done = _interpreters(sys.executable, sys.executable)
    assert done.returncode == 0, done.stderr
    lines = [line.split("  ") for line in done.stdout.splitlines()]
    labels = [
        "verify --track all --canonical --seed 7",
        "verify --track all --canonical --seed 7 --format csv",
        "sweep --steps 10001",
        "sweep --steps 10001 --format csv",
        "optimize --track quantum --restarts 32",
        "optimize --track ga --restarts 32",
        "optimize --track classical",
        "perfbench/certify.py",
        "lhv_mc_sums",
    ]
    assert [label for _, _, label in lines] == labels * 2
    assert {python for _, python, _ in lines} == {sys.executable}
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for digest, _, _ in lines)
    assert [digest for digest, _, _ in lines[:9]] == [digest for digest, _, _ in lines[9:]]
    assert len({digest for digest, _, _ in lines}) == 9


def test_interpreters_tool_builds_the_native_backend_per_interpreter():
    """With --native the tool compiles _native.c for the interpreter with gcc
    and hashes the same nine outputs on it: they equal the pure-Python ones."""
    if shutil.which("gcc") is None:
        pytest.skip("no C compiler (gcc) on PATH")
    done = _interpreters(sys.executable, native=True)
    assert done.returncode == 0, done.stderr
    lines = [line.split("  ") for line in done.stdout.splitlines()]
    assert len(lines) == 18
    python, native = lines[:9], lines[9:]
    assert [label + " [native]" for _, _, label in python] == [label for _, _, label in native]
    assert [digest for digest, _, _ in python] == [digest for digest, _, _ in native]


def test_interpreters_tool_fails_when_an_interpreter_prints_other_bytes(tmp_path):
    # An "interpreter" that prints one line whatever it is asked to run.
    other = tmp_path / "other-python"
    other.write_text("#!/bin/sh\necho other\n", encoding="utf-8")
    other.chmod(0o755)
    done = _interpreters(sys.executable, str(other))
    assert done.returncode == 1
    assert done.stderr.count(f"{other}: ") == 9 and "differs from" in done.stderr
