"""Command-line outputs compared byte for byte against files in tests/golden/.

The files were captured from known-good code and must hold on both kernel
backends; each case runs once per backend.  A change that is meant to alter
report bytes regenerates the affected file with the same arguments, e.g.::

    PYTHONPATH=src python -m chshbounds.cli sweep --steps 101 --out tests/golden/sweep_101.json
"""

import hashlib
from pathlib import Path

import pytest

from chshbounds import cli

GOLDEN = Path(__file__).parent / "golden"

# Output file name -> argv; a ".yaml" argument names a config file in GOLDEN.
CASES = {
    "verify_all_canonical_seed7.json": ["verify", "--track", "all", "--canonical", "--seed", "7"],
    "verify_all_canonical_seed7.csv": [
        "verify", "--track", "all", "--canonical", "--seed", "7", "--format", "csv",
    ],
    "verify_config_angles.json": ["verify", "--config", "angles.yaml"],
    "verify_config_angles_model.json": ["verify", "--config", "angles_model.yaml"],
    # Non-integer responses over two full Monte Carlo blocks and a partial one.
    "verify_config_mc_mixture.json": ["verify", "--config", "mc_mixture.yaml"],
    "optimize_classical.json": ["optimize", "--track", "classical", "--restarts", "8"],
    "optimize_quantum.json": ["optimize", "--track", "quantum", "--restarts", "8"],
    "optimize_ga.json": ["optimize", "--track", "ga", "--restarts", "8"],
    "sweep_101.json": ["sweep", "--steps", "101"],
    "sweep_101.csv": ["sweep", "--steps", "101", "--format", "csv"],
}


# The python cases keep the bare file name as their id.
BACKEND_CASES = [pytest.param(name, "python", id=name) for name in sorted(CASES)] + [
    pytest.param(name, "native", id=f"{name}-native") for name in sorted(CASES)
]


@pytest.mark.parametrize("name, backend", BACKEND_CASES, indirect=["backend"])
def test_cli_output_matches_golden(name, backend, tmp_path):
    argv = [str(GOLDEN / arg) if arg.endswith(".yaml") else arg for arg in CASES[name]]
    out = tmp_path / name
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


# sha256 of `sweep --steps 10001`, the size the benchmark's reports workload
# writes: the byte contract pinned at scale, where the golden files are small.
SWEEP_10001_SHA256 = {
    "json": "7372920d50e4b753b052f45bfc5c1d6f0509cf6f64e26915afef83a1b75f0faf",
    "csv": "05b07c031581e8ae263dcfba0abeb9328136711703be846128859fe89d5bc955",
}


@pytest.mark.parametrize("out_format", sorted(SWEEP_10001_SHA256))
@pytest.mark.parametrize("backend", ["python", "native"], indirect=True)
def test_sweep_10001_digest(out_format, backend, tmp_path):
    out = tmp_path / f"sweep.{out_format}"
    assert cli.main(["sweep", "--steps", "10001", "--format", out_format, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_10001_SHA256[out_format]
