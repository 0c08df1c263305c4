import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chshbounds.reporting import (
    ATTAINMENT_TOLERANCE,
    MARGIN_TOLERANCE,
    BoundReport,
    canonical_json,
    format_float,
    reports_to_csv,
    reports_to_json,
    sweep_to_csv,
    sweep_to_json,
    violation_exit_code,
)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips_exactly(x):
    text = format_float(x)
    assert float(text) == x or (x == 0.0 and float(text) == 0.0)


def test_format_float_normalizes_negative_zero():
    assert format_float(-0.0) == "0"
    assert format_float(0.0) == "0"


def test_format_float_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            format_float(bad)
    with pytest.raises(TypeError):
        format_float("1.0")


def test_canonical_json_shape():
    text = canonical_json({"b": 1, "a": [1.5, True, None, "x"], "c": {}})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert json.loads(text) == {"a": [1.5, True, None, "x"], "b": 1, "c": {}}


def test_canonical_json_round_trips_byte_identically():
    payload = {
        "value": 2.8284271247461903,
        "margin": -4.440892098500626e-16,
        "zero": -0.0,
        "two": 2.0,
        "flag": True,
        "tag": 'quote " backslash \\ control \x01',
        "nested": {"list": [1, 2.5, [], {}], "none": None},
    }
    text = canonical_json(payload)
    assert canonical_json(json.loads(text)) == text


def test_canonical_json_escapes_and_scalars_are_pinned():
    payload = {
        "text": '"\\\n\x00\x1f \x7f\u00e9',
        "tuple": (1, 2.5),
        "empty_dict": {},
        "empty_list": [],
        "negative_zero": -0.0,
        "flag": True,
        "big": 2**64 + 1,
    }
    # Only the quote, the backslash and C0 controls are escaped, as \u00xx
    # (so \n becomes \u000a); space, DEL and non-ASCII are written raw.
    expected = (
        "{\n"
        '  "big": 18446744073709551617,\n'
        '  "empty_dict": {},\n'
        '  "empty_list": [],\n'
        '  "flag": true,\n'
        '  "negative_zero": 0,\n'
        '  "text": "' + r'\"\\\u000a\u0000\u001f' + ' \x7f\u00e9",\n'
        '  "tuple": [\n'
        "    1,\n"
        "    2.5\n"
        "  ]\n"
        "}\n"
    )
    assert canonical_json(payload) == expected


def test_canonical_json_rejects_unserializable():
    with pytest.raises(ValueError):
        canonical_json({"x": math.inf})
    with pytest.raises(TypeError):
        canonical_json({"x": {1: "non-string key"}})
    with pytest.raises(TypeError):
        canonical_json({"x": object()})


def _report(value, bound=2.0, details=None):
    return BoundReport(
        track="classical",
        value=value,
        bound=bound,
        inputs={"lhv_model": "deterministic-maximum", "samples": 0},
        seed=7,
        details=details or {},
    )


def test_bound_report_margin_and_attainment():
    r = _report(2.0)
    assert r.margin == 0.0
    assert r.attained
    assert not r.violated
    almost = _report(2.0 - 5e-7)
    assert almost.attained  # within 1e-6 of the bound
    away = _report(1.5)
    assert not away.attained
    assert ATTAINMENT_TOLERANCE == 1e-6 and MARGIN_TOLERANCE == -1e-9


def test_bound_report_violation_threshold():
    fine = _report(2.0 + 1e-10)  # within numerical-noise tolerance
    assert not fine.violated
    broken = _report(2.0 + 1e-8)
    assert broken.violated
    assert violation_exit_code([fine]) == 0
    assert violation_exit_code([fine, broken]) == 3


def test_report_mapping_includes_details_only_when_present():
    bare = _report(2.0).as_mapping()
    assert "details" not in bare
    rich = _report(2.0, details={"correlations": [1.0, 1.0, 1.0, 1.0]}).as_mapping()
    assert rich["details"] == {"correlations": [1.0, 1.0, 1.0, 1.0]}


def test_reports_to_json_round_trips():
    text = reports_to_json([_report(2.0), _report(1.0)])
    assert canonical_json(json.loads(text)) == text
    parsed = json.loads(text)
    assert [r["value"] for r in parsed["reports"]] == [2, 1]


def test_reports_to_csv_schema():
    text = reports_to_csv([_report(2.0)])
    lines = text.splitlines()
    assert lines[0] == "track,value,bound,margin,attained,seed,version"
    assert lines[1].startswith("classical,2,2,0,true,7,")
    assert text.endswith("\n")


def test_sweep_csv_schema():
    points = [(0.0, 2.0), (math.pi / 4, 2.8284271247461903)]
    text = sweep_to_csv(points, 2.0, 2.8284271247461903)
    lines = text.splitlines()
    assert lines[0] == "theta_rad,classical_bound,qm_value,tsirelson_bound"
    assert len(lines) == 3
    assert lines[1] == "0,2,2,2.8284271247461903"


def test_sweep_json_matches_csv_content():
    points = [(0.0, 2.0), (1.0, 2.5)]
    parsed = json.loads(sweep_to_json(points, 2.0, 2.8284271247461903))
    assert len(parsed["sweep"]) == 2
    row = parsed["sweep"][1]
    assert row["theta_rad"] == 1.0
    assert row["qm_value"] == 2.5
    assert row["classical_bound"] == 2
    assert row["tsirelson_bound"] == 2.8284271247461903
