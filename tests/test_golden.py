"""Command-line outputs compared byte for byte against files in tests/golden/.

The files were captured from known-good code and hold on either kernel
backend.  A change that is meant to alter report bytes regenerates the
affected file with the same arguments, e.g.::

    PYTHONPATH=src python -m chshbounds.cli sweep --steps 101 --out tests/golden/sweep_101.json
"""

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
    "optimize_classical.json": ["optimize", "--track", "classical", "--restarts", "8"],
    "optimize_quantum.json": ["optimize", "--track", "quantum", "--restarts", "8"],
    "optimize_ga.json": ["optimize", "--track", "ga", "--restarts", "8"],
    "sweep_101.json": ["sweep", "--steps", "101"],
    "sweep_101.csv": ["sweep", "--steps", "101", "--format", "csv"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    argv = [str(GOLDEN / arg) if arg.endswith(".yaml") else arg for arg in CASES[name]]
    out = tmp_path / name
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
