import json
import math
import subprocess
import sys
import tracemalloc

import pytest
import yaml

from chshbounds import cli
from chshbounds.geometry import BOUND_TOLERANCE, require_bounded
from chshbounds.lhv import WEIGHT_SUM_TOLERANCE, LhvModel
from chshbounds.optimize import OptimizationResult
from chshbounds.quantum import TSIRELSON_BOUND
from chshbounds.reporting import MARGIN_TOLERANCE, BoundReport

SQRT8 = 2.8284271247461903


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, mapping, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(mapping), encoding="utf-8")
    return str(path)


def test_verify_classical_defaults_to_deterministic_maximum(capsys):
    code, out, err = run_cli(capsys, "verify", "--track", "classical")
    assert code == 0 and err == ""
    (report,) = json.loads(out)["reports"]
    assert report["track"] == "classical"
    assert report["value"] == 2
    assert report["bound"] == 2
    assert report["attained"] is True
    assert report["inputs"]["lhv_model"] == "deterministic-maximum"
    assert len(report["details"]["maximizing_responses"]) == 4


def test_verify_classical_with_supplied_model(capsys, tmp_path):
    config = write_config(
        tmp_path,
        {
            "track": "classical",
            "lhv_model": {"states": [{"weight": 1.0, "responses": [1, 1, 1, 1]}]},
        },
    )
    code, out, _ = run_cli(capsys, "verify", "--config", config)
    assert code == 0
    (report,) = json.loads(out)["reports"]
    assert report["value"] == 2
    assert report["details"]["correlations"] == [1, 1, 1, 1]
    assert report["inputs"]["lhv_model"]["states"][0]["weight"] == 1


def test_verify_classical_accepts_responses_within_tolerance(capsys, tmp_path):
    # Responses just above 1 pass the 1e-12 tolerance; their products must too.
    config = write_config(
        tmp_path,
        {
            "track": "classical",
            "lhv_model": {"states": [{"weight": 1.0, "responses": [1.0000000000009] * 4}]},
            "samples": 100,
        },
    )
    code, out, err = run_cli(capsys, "verify", "--config", config)
    assert code == 0
    assert "Traceback" not in err
    (report,) = json.loads(out)["reports"]
    assert report["value"] == 2.0
    assert report["details"]["correlations"] == [1, 1, 1, 1]
    assert report["details"]["monte_carlo"]["chsh_value"] == 2.0


def test_largest_accepted_inputs_stay_inside_the_margin_tolerance(capsys, tmp_path):
    # Weights may sum to 1 + 1e-12 and coefficients reach 1 + 1e-12, so the
    # classical and ga values can exceed their bounds by a few 1e-12: far
    # inside MARGIN_TOLERANCE, so verify exits 0, never 3.
    weight = 1.0 + 2 * WEIGHT_SUM_TOLERANCE
    while True:
        try:
            LhvModel.from_pairs([(weight, (1, 1, 1, -1))])
            break
        except ValueError:
            weight = math.nextafter(weight, 0.0)
    limit = 1.0 + BOUND_TOLERANCE
    assert math.nextafter(weight, 2.0) - 1.0 > WEIGHT_SUM_TOLERANCE
    assert require_bounded(limit, "x") == limit
    with pytest.raises(ValueError):
        require_bounded(math.nextafter(limit, 2.0), "x")
    config = write_config(
        tmp_path,
        {
            "track": "all",
            "lhv_model": {"states": [{"weight": weight, "responses": [limit] * 3 + [-limit]}]},
            "coefficients": [limit] * 4,
            "samples": 1000,
        },
    )
    code, out, err = run_cli(capsys, "verify", "--config", config)
    assert code == 0 and err == ""
    reports = {report["track"]: report for report in json.loads(out)["reports"]}
    assert reports["classical"]["margin"] < 0 and reports["ga"]["margin"] < 0
    for report in reports.values():
        assert report["margin"] > MARGIN_TOLERANCE, report


def test_verify_classical_monte_carlo_details(capsys, tmp_path):
    config = write_config(
        tmp_path,
        {
            "track": "classical",
            "lhv_model": {"states": [{"weight": 1.0, "responses": [1, -1, 1, -1]}]},
            "samples": 500,
            "seed": 3,
        },
    )
    code, out, _ = run_cli(capsys, "verify", "--config", config)
    assert code == 0
    (report,) = json.loads(out)["reports"]
    mc = report["details"]["monte_carlo"]
    assert mc["samples"] == 500
    # A deterministic model has no sampling noise at all.
    assert mc["std_errors"] == [0, 0, 0, 0]
    assert mc["chsh_value"] == report["value"]


def test_verify_quantum_canonical(capsys):
    code, out, _ = run_cli(capsys, "verify", "--track", "quantum", "--canonical")
    assert code == 0
    reports = {r["track"]: r for r in json.loads(out)["reports"]}
    assert set(reports) == {"quantum", "quantum_norm"}
    assert abs(reports["quantum"]["value"] - SQRT8) < 1e-12
    assert reports["quantum"]["attained"] is True
    assert reports["quantum"]["details"]["squared_identity_deviation"] < 1e-10
    assert abs(reports["quantum_norm"]["value"] - SQRT8) < 1e-12


def test_verify_ga_canonical(capsys):
    code, out, _ = run_cli(capsys, "verify", "--track", "ga", "--canonical")
    assert code == 0
    reports = {r["track"]: r for r in json.loads(out)["reports"]}
    assert set(reports) == {"ga", "ga_bound"}
    assert abs(reports["ga"]["value"] - SQRT8) < 1e-12
    assert abs(reports["ga_bound"]["value"] - SQRT8) < 1e-12
    assert reports["ga"]["inputs"]["coefficients"] == [1, 1, 1, 1]


def test_verify_all_emits_five_reports(capsys):
    code, out, _ = run_cli(capsys, "verify", "--track", "all", "--canonical")
    assert code == 0
    tracks = [r["track"] for r in json.loads(out)["reports"]]
    assert tracks == ["classical", "quantum", "quantum_norm", "ga", "ga_bound"]


def test_verify_repeat_runs_are_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "verify", "--track", "all", "--canonical", "--seed", "7")
    _, second, _ = run_cli(capsys, "verify", "--track", "all", "--canonical", "--seed", "7")
    assert first == second


def test_verify_explicit_vectors_accepts_tiny_unit_error(capsys, tmp_path):
    root = 1.0 / math.sqrt(2.0)
    config = write_config(
        tmp_path,
        {
            "track": "quantum",
            "configuration": {
                "a": [1.0 + 1e-10, 0.0, 0.0],
                "a_prime": [0.0, 1.0, 0.0],
                "b": [-root, -root, 0.0],
                "b_prime": [-root, root, 0.0],
            },
        },
    )
    code, out, _ = run_cli(capsys, "verify", "--config", config)
    assert code == 0
    reports = json.loads(out)["reports"]
    # The raw (pre-normalization) vector is echoed back in the report.
    assert reports[0]["inputs"]["configuration"]["a"] == [1.0 + 1e-10, 0.0, 0.0]
    assert abs(reports[0]["value"] - SQRT8) < 1e-9


def test_verify_explicit_vectors_rejects_non_unit(capsys, tmp_path):
    config = write_config(
        tmp_path,
        {
            "track": "quantum",
            "configuration": {
                "a": [1.001, 0.0, 0.0],
                "a_prime": [0.0, 1.0, 0.0],
                "b": [0.0, 0.0, 1.0],
                "b_prime": [1.0, 0.0, 0.0],
            },
        },
    )
    code, out, err = run_cli(capsys, "verify", "--config", config)
    assert code == 2
    assert out == ""
    assert "configuration.a must be a unit vector: |norm - 1| = 1.000e-03 exceeds 1.0e-09" in err


def test_verify_angles_route_reproduces_canonical(capsys, tmp_path):
    config = write_config(
        tmp_path,
        {
            "track": "quantum",
            "configuration": {"angles_deg": [0, 90, 225, 135]},
        },
    )
    code, out, _ = run_cli(capsys, "verify", "--config", config)
    assert code == 0
    reports = {r["track"]: r for r in json.loads(out)["reports"]}
    assert abs(reports["quantum"]["value"] - SQRT8) < 1e-12
    assert reports["quantum"]["inputs"]["configuration"] == {"angles_deg": [0, 90, 225, 135]}


def test_verify_rejects_unknown_config_keys(capsys, tmp_path):
    config = write_config(tmp_path, {"track": "classical", "tracks": "oops"})
    code, _, err = run_cli(capsys, "verify", "--config", config)
    assert code == 2
    assert "unknown config keys: tracks" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("track: classical\n1: x\nfoo: y\n", "unknown config keys: 1, foo"),
        ("track: classical\noutput_path: 5\n", "output_path must be a string"),
        ("track: classical\noutput_path: true\n", "output_path must be a string"),
        ("track: classical\noutput_path: [a]\n", "output_path must be a string"),
    ],
)
def test_verify_rejects_malformed_config_entries(capsys, tmp_path, text, message):
    path = tmp_path / "run.yaml"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"chshbounds: error: {message}")


@pytest.mark.parametrize(
    "content",
    [
        b"{unclosed",
        b"track: classical\n\xff\xfe\n",
        # Python's own limit on int conversion raises a plain ValueError.
        b"track: all\ncoefficients: [1" + b"0" * 5000 + b", 1, 1, 1]\n",
    ],
    ids=["unclosed", "not-utf8", "5001-digit-int"],
)
def test_verify_rejects_malformed_yaml(capsys, tmp_path, content):
    path = tmp_path / "broken.yaml"
    path.write_bytes(content)
    code, _, err = run_cli(capsys, "verify", "--config", str(path))
    assert code == 2
    assert err.startswith(f"chshbounds: error: config file {path} is not valid YAML: ")


def test_verify_requires_a_track(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2
    assert "track" in err


def test_verify_rejects_bad_track_value_in_config(capsys, tmp_path):
    config = write_config(tmp_path, {"track": "sideways"})
    code, _, err = run_cli(capsys, "verify", "--config", config)
    assert code == 2
    assert "track must be one of" in err


def test_verify_rejects_bad_output_format(capsys, tmp_path):
    config = write_config(tmp_path, {"track": "classical", "output_format": "xml"})
    code, _, err = run_cli(capsys, "verify", "--config", config)
    assert code == 2
    assert "output_format" in err


def test_verify_flag_overrides_config_track(capsys, tmp_path):
    config = write_config(tmp_path, {"track": "classical"})
    code, out, _ = run_cli(capsys, "verify", "--config", config, "--track", "ga", "--canonical")
    assert code == 0
    tracks = [r["track"] for r in json.loads(out)["reports"]]
    assert tracks == ["ga", "ga_bound"]


def test_verify_csv_output(capsys):
    code, out, _ = run_cli(capsys, "verify", "--track", "classical", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "track,value,bound,margin,attained,seed,version"
    assert lines[1].startswith("classical,2,2,0,true,0,")


def test_verify_writes_output_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--track", "quantum", "--canonical", "--out", str(out_path)
    )
    assert code == 0
    assert out == ""
    parsed = json.loads(out_path.read_text(encoding="utf-8"))
    assert len(parsed["reports"]) == 2


def test_verify_unwritable_output_path(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "verify",
        "--track",
        "classical",
        "--out",
        str(tmp_path / "missing-dir" / "report.json"),
    )
    assert code == 1
    assert "error" in err


def test_verify_violation_exit_code_still_writes_report(capsys, monkeypatch):
    monkeypatch.setattr(cli, "chsh_quantum_value", lambda cfg: 3.0)
    code, out, _ = run_cli(capsys, "verify", "--track", "quantum", "--canonical")
    assert code == 3
    reports = {r["track"]: r for r in json.loads(out)["reports"]}
    assert reports["quantum"]["value"] == 3
    assert reports["quantum"]["margin"] < -1e-9


def test_verify_paper_flag_prints_references(capsys):
    code, out, err = run_cli(capsys, "verify", "--track", "all", "--canonical", "--paper")
    assert code == 0
    assert json.loads(out)["reports"]
    assert "Bell 1964" in err
    assert "Clauser" in err
    assert "Cirel'son 1980" in err
    assert "Landau 1987" in err


def test_optimize_classical(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--track", "classical")
    assert code == 0
    result = json.loads(out)
    assert result["best_value"] == 2
    assert result["attained"] is True
    assert result["maximizer_count"] == 16
    assert result["distinct_maximizing_correlations"] == 8
    assert len(result["best_strategy"]) == 4


def test_optimize_quantum_small_run(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--track", "quantum", "--restarts", "2", "--seed", "3")
    assert code == 0
    result = json.loads(out)
    assert result["margin"] >= -1e-9
    assert result["best_value"] <= SQRT8 + 1e-9
    assert result["restarts"] == 2 and result["seed"] == 3
    assert set(result["best_configuration"]) == {"a", "a_prime", "b", "b_prime"}
    assert result["improvements"], "at least the first evaluation improves on -inf"


def test_optimize_ga_reports_coefficients(capsys, tmp_path):
    out_path = tmp_path / "opt.json"
    code, out, _ = run_cli(
        capsys, "optimize", "--track", "ga", "--restarts", "2", "--seed", "5",
        "--out", str(out_path),
    )
    assert code == 0 and out == ""
    result = json.loads(out_path.read_text(encoding="utf-8"))
    coefficients = result["best_coefficients"]
    assert len(coefficients) == 4
    assert coefficients[0] == 1 and coefficients[1] == 1
    assert all(abs(c) <= 1 for c in coefficients)


@pytest.mark.parametrize("margin", [-2e-9, -1e-9, 1e-6, 2e-6])
def test_optimize_verdict_follows_bound_report(capsys, monkeypatch, margin):
    value = TSIRELSON_BOUND - margin
    result = OptimizationResult(
        track="quantum",
        best_value=value,
        bound=TSIRELSON_BOUND,
        iterations=1,
        history=((1, value),),
    )
    monkeypatch.setattr(cli, "maximize_quantum", lambda restarts, seed: result)
    code, out, _ = run_cli(capsys, "optimize", "--track", "quantum")
    report = BoundReport("quantum", value, TSIRELSON_BOUND, inputs={}, seed=0)
    parsed = json.loads(out)
    assert code == (3 if report.violated else 0)
    assert parsed["attained"] is report.attained
    assert parsed["margin"] == report.margin
    # Away from the two thresholds the verdict does not hang on rounding.
    if margin == -2e-9:
        assert (code, parsed["attained"]) == (3, True)
    if margin == 2e-6:
        assert (code, parsed["attained"]) == (0, False)


@pytest.mark.parametrize("track", ["classical", "quantum", "ga"])
def test_optimize_rejects_bad_restarts(capsys, track):
    # The classical track runs no search, yet the restart count is still checked.
    code, out, err = run_cli(capsys, "optimize", "--track", track, "--restarts", "0")
    assert (code, out) == (2, "")
    assert err == "chshbounds: error: restarts must be >= 1, got 0\n"


@pytest.mark.parametrize(
    "entries, message",
    [
        (
            {"lhv_model": {"states": [{"weight": 0.5, "responses": [1, 1, 1, 1]}]}},
            "state weights must sum to 1, got 0.5",
        ),
        (
            {"lhv_model": {"states": [{"weight": 1.0, "responses": [1, 1.5, 1, 1]}]}},
            "response must lie in [-1, 1], got 1.5",
        ),
        ({"coefficients": [1, 1, -1.25, 1]}, "alpha_b must lie in [-1, 1], got -1.25"),
    ],
    ids=["weights", "responses", "coefficients"],
)
def test_library_range_checks_exit_2_with_their_own_message(capsys, tmp_path, entries, message):
    config = write_config(tmp_path, {"track": "all", **entries})
    code, out, err = run_cli(capsys, "verify", "--config", config)
    assert (code, out) == (2, "")
    assert err == f"chshbounds: error: {message}\n"


HUGE = "1" + "0" * 400
HUGE_MESSAGE = "must fit in a float, got an integer of 1329 bits"


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "lhv_model: {states: [{weight: .nan, responses: [1, 1, 1, 1]}]}",
            "lhv_model.states[0].weight must be finite, got nan",
        ),
        (
            "lhv_model: {states: [{weight: 1.0, responses: [1, -.inf, 1, 1]}]}",
            "lhv_model.states[0].responses[1] must be finite, got -inf",
        ),
        ("coefficients: [1, 1, .inf, 1]", "coefficients[2] must be finite, got inf"),
        (
            "configuration: {a: [.nan, 0, 0], a_prime: [0, 1, 0],"
            " b: [0, 0, 1], b_prime: [1, 0, 0]}",
            "configuration.a[0] must be finite, got nan",
        ),
        (
            "configuration: {angles_deg: [0, .inf, 0, 0]}",
            "configuration.angles_deg[1] must be finite, got inf",
        ),
        (
            "lhv_model: {states: [{weight: -0.5, responses: [1, 1, 1, 1]}]}",
            "state weight must be >= 0, got -0.5",
        ),
        # Integers that YAML reads exactly, past the float range; the message
        # gives their size, not their digits.
        (
            f"lhv_model: {{states: [{{weight: {HUGE}, responses: [1, 1, 1, 1]}}]}}",
            f"lhv_model.states[0].weight {HUGE_MESSAGE}",
        ),
        (
            f"lhv_model: {{states: [{{weight: 1.0, responses: [1, {HUGE}, 1, 1]}}]}}",
            f"lhv_model.states[0].responses[1] {HUGE_MESSAGE}",
        ),
        (f"coefficients: [1, 1, -{HUGE}, 1]", f"coefficients[2] {HUGE_MESSAGE}"),
        (
            f"configuration: {{a: [{HUGE}, 0, 0], a_prime: [0, 1, 0],"
            " b: [0, 0, 1], b_prime: [1, 0, 0]}",
            f"configuration.a[0] {HUGE_MESSAGE}",
        ),
        (
            f"configuration: {{angles_deg: [0, {HUGE}, 0, 0]}}",
            f"configuration.angles_deg[1] {HUGE_MESSAGE}",
        ),
    ],
    ids=[
        "weight",
        "response",
        "coefficient",
        "vector",
        "angle",
        "negative-weight",
        "huge-weight",
        "huge-response",
        "huge-coefficient",
        "huge-vector",
        "huge-angle",
    ],
)
def test_non_finite_and_negative_values_exit_2(capsys, tmp_path, text, message):
    path = tmp_path / "run.yaml"
    path.write_text(f"track: all\n{text}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--config", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"chshbounds: error: {message}")


@pytest.mark.parametrize(
    "text",
    ["configuration: " + "[" * 5000 + "]" * 5000, "lhv_model: " + "{a: " * 5000 + "1" + "}" * 5000],
    ids=["sequences", "mappings"],
)
def test_deeply_nested_yaml_exits_2(capsys, tmp_path, text):
    path = tmp_path / "run.yaml"
    path.write_text(f"track: all\n{text}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--config", str(path))
    assert (code, out) == (2, "")
    assert err == f"chshbounds: error: config file {path} is nested too deeply\n"


YAML_NUMBER_HINT = (
    " (YAML reads a quoted number, or an exponent without a decimal point, as text;"
    " write it unquoted with a decimal point, for example 1.0e-3)"
)


@pytest.mark.parametrize(
    "text, message, hinted",
    [
        (
            "lhv_model: {states: [{weight: 1e-3, responses: [1, 1, 1, 1]}]}",
            "lhv_model.states[0].weight must be a number, got '1e-3'",
            True,
        ),
        (
            "configuration: {angles_deg: [1e308, 0, 0, 0]}",
            "configuration.angles_deg[0] must be a number, got '1e308'",
            True,
        ),
        ("coefficients: ['0.5', 1, 1, 1]", "coefficients[0] must be a number, got '0.5'", True),
        ("coefficients: [one, 1, 1, 1]", "coefficients[0] must be a number, got 'one'", False),
        ("coefficients: [nan, 1, 1, 1]", "coefficients[0] must be a number, got 'nan'", False),
        ("coefficients: [1e999, 1, 1, 1]", "coefficients[0] must be a number, got '1e999'", False),
    ],
    ids=["exponent-weight", "exponent-angle", "quoted", "word", "nan-word", "overflow"],
)
def test_numbers_read_as_text_get_a_yaml_hint(capsys, tmp_path, text, message, hinted):
    # PyYAML follows YAML 1.1, whose float pattern needs a decimal point.
    path = tmp_path / "run.yaml"
    path.write_text(f"track: all\n{text}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--config", str(path))
    assert (code, out) == (2, "")
    assert err == f"chshbounds: error: {message}{YAML_NUMBER_HINT if hinted else ''}\n"


def test_sweep_csv_header_and_endpoints(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--steps", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "theta_rad,classical_bound,qm_value,tsirelson_bound"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "2" and first[3] == "2.8284271247461903"
    assert abs(float(first[2]) - 2.0) < 1e-12


def test_sweep_json_peak(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--steps", "5")
    assert code == 0
    rows = json.loads(out)["sweep"]
    values = [row["qm_value"] for row in rows]
    assert abs(values[1] - SQRT8) < 1e-12
    assert max(values) == values[1]


def test_sweep_rejects_single_step(capsys):
    code, _, err = run_cli(capsys, "sweep", "--steps", "1")
    assert code == 2
    assert "steps must be >= 2" in err


def test_sweep_rejects_single_step_before_creating_the_output_file(capsys, tmp_path):
    out = tmp_path / "sweep.json"
    code, stdout, err = run_cli(capsys, "sweep", "--steps", "1", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert "steps must be >= 2" in err
    assert not out.exists()


def test_sweep_unwritable_output_path(capsys, tmp_path):
    out = tmp_path / "missing-dir" / "sweep.json"
    code, stdout, err = run_cli(capsys, "sweep", "--steps", "11", "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err.startswith("chshbounds: error: ")


def test_sweep_memory_does_not_grow_with_steps(tmp_path):
    """The table is written a chunk at a time as its rows are computed, so
    the peak traced memory of a sweep is the same at 1,001 and 10,001 steps
    (building the whole table first made it about 10 times larger)."""
    out = str(tmp_path / "sweep")

    def peak(steps, out_format):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert cli.main(["sweep", "--steps", str(steps), "--format", out_format, "--out", out]) == 0
        return tracemalloc.get_traced_memory()[1] - before

    tracemalloc.start()
    try:
        for out_format in ("json", "csv"):
            peak(11, out_format)  # fills the caches a first call makes
            small, large = peak(1_001, out_format), peak(10_001, out_format)
            assert large < 1.5 * small, (out_format, small, large)
    finally:
        tracemalloc.stop()


def test_bad_track_choice_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "--track", "bogus"])
    assert excinfo.value.code == 2


def test_importing_cli_does_not_load_yaml(child_env):
    # yaml is imported only when --config is given, and the value objects are
    # plain classes, not dataclasses (whose import pulls in inspect): each of
    # these modules would add milliseconds to every command's start-up.
    for module in ("chshbounds.cli", "chshbounds"):
        probe = (
            f"import sys, {module}; "
            "print([m for m in ('dataclasses', 'inspect', 'yaml') if m in sys.modules])"
        )
        command = [sys.executable, "-c", probe]
        run = subprocess.run(command, capture_output=True, text=True, env=child_env)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]", module


@pytest.mark.parametrize(
    "config, flags, bits",
    [
        ("track: classical\n", ["--samples", str(2**63)], 64),
        ("track: classical\nsamples: 1" + "0" * 400 + "\n", [], 1329),
    ],
    ids=["flag", "config"],
)
def test_samples_beyond_the_int64_draw_indices_exit_2(tmp_path, child_env, config, flags, bits):
    # Without the check the sampling loop would run ~samples / 4096 blocks, so
    # it runs in a child process that a regression times out instead of hanging.
    path = tmp_path / "run.yaml"
    path.write_text(config, encoding="utf-8")
    command = [sys.executable, "-m", "chshbounds.cli", "verify", "--config", str(path), *flags]
    run = subprocess.run(command, capture_output=True, text=True, env=child_env, timeout=60)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == f"chshbounds: error: samples must be < 2**63, got a {bits}-bit integer\n"
