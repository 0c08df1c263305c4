"""Packaging metadata and the CI workflow, read as text."""

import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import yaml

from chshbounds import __version__, _kernels

ROOT = Path(__file__).resolve().parent.parent
TIER1 = "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors"
ACCEPTANCE = "PYTHONPATH=src python -m pytest tests/test_acceptance.py -q -rP"
TRACED_BENCHMARK = 'python3 perfbench/run.py --workload "$workload" --seed 0 --seconds 1 --trace 1'


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


def test_ci_runs_tier1_on_both_backends():
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    jobs = workflow["jobs"]
    assert len(jobs) == 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    builds = []
    for job in jobs.values():
        assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11", "3.12", "3.13"]
        commands = "\n".join(step.get("run", "") for step in job["steps"])
        assert TIER1 in commands
        # The acceptance criteria run apart, with -rP to print their elapsed times.
        assert "--ignore=tests/test_acceptance.py" in commands
        assert ACCEPTANCE in commands.splitlines()
        # Each job runs the traced benchmark on every workload and requires
        # "correct": true, so its output checks run on both backends.
        assert f"for workload in {' '.join(workloads)}; do" in commands
        assert TRACED_BENCHMARK in commands
        assert '["correct"] is not True' in commands
        builds.append("python setup.py build_ext --inplace" in commands)
    assert sorted(builds) == [False, True]


def test_ci_runs_the_installed_console_script_last_on_both_backends():
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    verify = "chshbounds verify --track all --canonical --seed 7"
    golden = "cmp - tests/golden/verify_all_canonical_seed7.json"
    for job in workflow["jobs"].values():
        step = job["steps"][-1]
        assert step["if"] == "matrix.python-version == '3.11'"
        assert step["run"].splitlines() == [
            "python -m pip install --no-build-isolation --no-deps .",
            f"{verify} | {golden}",
            f"CHSHBOUNDS_BACKEND=python {verify} | {golden}",
        ]


def test_ci_rejects_tracked_build_artefacts():
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    commands = [step.get("run", "") for job in workflow["jobs"].values() for step in job["steps"]]
    assert any("git ls-files" in command and "exit 1" in command for command in commands)


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
