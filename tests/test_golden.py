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
    # The 16 deterministic strategies with unequal weights: +/-1 products,
    # whose sums are exact integers, over three full blocks and a partial one.
    "verify_config_mc_strategies.json": ["verify", "--config", "mc_strategies.yaml"],
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


# sha256 of the 32-restart searches at seed 0, the size the benchmark's
# optimize_quantum workload runs, where the golden files use 8 restarts.
OPTIMIZE_32_SHA256 = {
    "quantum": "86da8698d1747b2dbc7a57a3536bc42ba17a27efac28b4a730de8547f8a8f316",
    "ga": "92297c7cf71cf5487030352c013effa5d6b0b4aa767e1c8eee0bbf189c9670ca",
}


@pytest.mark.parametrize("track", sorted(OPTIMIZE_32_SHA256))
@pytest.mark.parametrize("backend", ["python", "native"], indirect=True)
def test_optimize_32_restarts_digest(track, backend, tmp_path):
    out = tmp_path / f"optimize_{track}.json"
    argv = ["optimize", "--track", track, "--restarts", "32", "--seed", "0", "--out", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == OPTIMIZE_32_SHA256[track]


# sha256 of `verify --config`, keyed by (config, --samples or None for the
# config's own count).  At their own counts, the python kernel's two pick
# routes beyond the golden files' 16 states: 70 states with non-integer
# responses and 69 split top bytes (a guide table), and 256 states of weight
# 2**-8 with +/-1 responses (bisection alone).  Both were recorded while the
# 70-state mixture was still bisected alone, so the two routes are pinned to
# each other.  At 10^6 samples, the two golden mixtures (non-integer products
# summed in index order, +/-1 products tallied by bit planes) and the same
# two routes, where the golden files hold a few thousand samples.
MC_ROUTE_SHA256 = {
    ("mc_split_bytes", None): "9ad5e5308612f38fac814b810240d524b08ad1f1d4f2718a9e6af542b5d474c1",
    ("mc_many_states", None): "510dac5f60724dd2f670eddf9548f7ec94aa7b4a2431c8b3d93e68aebe8925c2",
    ("mc_mixture", 1000000): "15388b2c7e3e7ac54015e62b895692f39ae853cd1076a593476cfeb5ff6aa8f6",
    ("mc_strategies", 1000000): "3be1c1aa16354e359f6ba85a98d0537e571b2a366e27578843309835c7e7dfb4",
    ("mc_split_bytes", 1000000): "787169b0f989c2e2b52a3144ebdaf27aaf1596c3f5a566d92c1b255fcec1979e",
    ("mc_many_states", 1000000): "f8c87709e052fe37a992bba2c4be58117e105d0c1d6fee40a4a110969079cf35",
}


@pytest.mark.parametrize(
    "config, samples",
    [
        pytest.param(config, samples, id=config if samples is None else f"{config}-{samples}")
        for config, samples in MC_ROUTE_SHA256
    ],
)
@pytest.mark.parametrize("backend", ["python", "native"], indirect=True)
def test_mc_route_digest(config, samples, backend, tmp_path):
    out = tmp_path / f"{config}.json"
    argv = ["verify", "--config", str(GOLDEN / f"{config}.yaml"), "--out", str(out)]
    if samples is not None:
        argv += ["--samples", str(samples)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MC_ROUTE_SHA256[config, samples]
