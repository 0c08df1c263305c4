import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chshbounds import reporting
from chshbounds.reporting import (
    ATTAINMENT_TOLERANCE,
    CHUNK_ROWS,
    MARGIN_TOLERANCE,
    REPORT_COLUMNS,
    SWEEP_COLUMNS,
    BoundReport,
    _quote,
    canonical_json,
    format_float,
    reports_to_csv,
    reports_to_json,
    sweep_chunks,
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
    # The same faults in a later dict or row, after earlier ones of the same
    # shape were written.
    with pytest.raises(TypeError, match="keys must be strings"):
        canonical_json([{"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 2.0}, {"a": 1.0, 2: 2.0}])
    with pytest.raises(ValueError, match="non-finite"):
        canonical_json({"rows": [{"x": 0.5, "y": 1.5}, {"x": 0.5, "y": math.nan}]})


class _Float(float):
    pass


def test_canonical_json_shared_key_sets_are_pinned():
    # Same key set in two insertion orders; a key set whose values are floats
    # in one dict and a bool, an int and a float subclass in the others.
    payload = [
        {"b": 2.5, "a": -0.0},
        {"a": 1e-300, "b": 3.0},
        {"b": True, "a": 7},
        {"a": _Float(0.1), "b": False},
    ]
    expected = (
        "[\n"
        '  {\n    "a": 0,\n    "b": 2.5\n  },\n'
        '  {\n    "a": 1e-300,\n    "b": 3\n  },\n'
        '  {\n    "a": 7,\n    "b": true\n  },\n'
        '  {\n    "a": 0.10000000000000001,\n    "b": false\n  }\n'
        "]\n"
    )
    assert canonical_json(payload) == expected


def _spec_text(value, depth=0):
    """The canonical JSON text of ``value`` by its definition, with no caching."""
    inner = "\n" + "  " * (depth + 1)
    if isinstance(value, dict):
        if any(not isinstance(key, str) for key in value):
            raise TypeError("JSON object keys must be strings")
        entries = [
            inner + _quote(key) + ": " + _spec_text(value[key], depth + 1) for key in sorted(value)
        ]
        return "{" + ",".join(entries) + "\n" + "  " * depth + "}" if entries else "{}"
    if isinstance(value, (list, tuple)):
        entries = [inner + _spec_text(item, depth + 1) for item in value]
        return "[" + ",".join(entries) + "\n" + "  " * depth + "]" if entries else "[]"
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    return _spec_cell(value)


def _spec_cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value) if isinstance(value, int) else format_float(value)


def _sweep_text(points, classical, tsirelson, out_format):
    return "".join(sweep_chunks(points, classical, tsirelson, out_format))


def _reversed_insertion(value):
    """The same value with every dict's keys inserted in reverse order."""
    if isinstance(value, dict):
        return {key: _reversed_insertion(value[key]) for key in reversed(list(value))}
    if isinstance(value, list):
        return [_reversed_insertion(item) for item in value]
    return value


# 1, 1.0 and True compare (and hash) equal; so do 0.0 and -0.0.
_SCALARS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 1, True, False, 2.5, 7, None, "1", 'q"\\\n']),
    st.builds(_Float, st.sampled_from([0.1, -0.0, 1.0, 2.5])),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.integers(-3, 3),
)
_TREES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["a", "b", "c", "é"]), children, max_size=3),
    max_leaves=10,
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_TREES, st.lists(st.tuples(_SCALARS, _SCALARS, _SCALARS), max_size=4))
def test_writers_match_a_spec_encoder(tree, rows):
    # The tree again a level and two levels deeper, with its dicts' keys in
    # the other insertion order: every key set it holds is written at several
    # depths, and every float more than once.
    payload = [tree, {"a": _reversed_insertion(tree), "b": [tree]}]
    assert canonical_json(payload) == _spec_text(payload) + "\n"
    # The same scalars as CSV cells: the float bounds repeat on every row and
    # the other cells mix floats with ints and bools that compare equal.
    floats = [x for row in rows for x in row if type(x) is float] or [0.5]
    points = [(floats[i % len(floats)], -floats[-1 - i % len(floats)]) for i in range(4)]
    expected = ["theta_rad,classical_bound,qm_value,tsirelson_bound"]
    expected += [",".join(_spec_cell(x) for x in (t, floats[0], v, 2.0)) for t, v in points]
    assert _sweep_text(points, floats[0], 2.0, "csv") == "\n".join(expected) + "\n"
    reports = [
        BoundReport(str(i), value=value, bound=bound, inputs={}, seed=seed)
        for i, (value, bound, seed) in enumerate(rows)
        if all(isinstance(x, (int, float)) for x in (value, bound)) and type(seed) is int
    ]
    lines = [",".join(REPORT_COLUMNS)]
    lines += [",".join(_spec_cell(getattr(r, name)) for name in REPORT_COLUMNS) for r in reports]
    assert reports_to_csv(reports) == "\n".join(lines) + "\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_writers_raise_on_a_non_finite_float_after_cached_ones(bad):
    rows = [{"x": 0.5, "y": -0.0}, {"y": 0.0, "x": 0.5}, {"x": 0.5, "y": bad}]
    for payload in (rows, [0.5, 0.5, bad], {"a": [0.5, {"x": 0.5, "y": bad}]}):
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json(payload)
    with pytest.raises(ValueError, match="non-finite"):
        canonical_json([bad, bad])
    with pytest.raises(ValueError, match="non-finite"):
        _sweep_text([(0.5, 2.5), (0.5, 2.5), (0.5, bad)], 2.0, 2.5, "csv")
    with pytest.raises(ValueError, match="non-finite"):
        reports_to_csv([_report(2.0), _report(2.0, bound=bad)])


def test_writer_raises_on_a_non_string_key_after_its_key_set_was_written():
    payload = {"rows": [{"a": 1.5, "b": [{"a": 1.5}]}, {"a": 1.5, "b": [{"a": 1.5, 1: 1.5}]}]}
    with pytest.raises(TypeError, match="keys must be strings"):
        canonical_json(payload)


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


def test_bound_report_tolerance_edges_are_exact():
    # margin == ATTAINMENT_TOLERANCE attains; one ulp more does not.
    assert BoundReport("t", value=0.0, bound=1e-6, inputs={}, seed=0).attained
    beyond = BoundReport("t", value=0.0, bound=math.nextafter(1e-6, 1.0), inputs={}, seed=0)
    assert not beyond.attained
    # margin == MARGIN_TOLERANCE is not a violation; the next float below is.
    edge = BoundReport("t", value=1e-9, bound=0.0, inputs={}, seed=0)
    assert edge.margin == MARGIN_TOLERANCE and not edge.violated
    below = BoundReport("t", value=math.nextafter(1e-9, 1.0), bound=0.0, inputs={}, seed=0)
    assert below.margin == math.nextafter(MARGIN_TOLERANCE, -1.0) and below.violated


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


SQRT8 = 2.8284271247461903


def test_sweep_csv_schema():
    points = [(0.0, 2.0), (math.pi / 4, 2.8284271247461903)]
    text = _sweep_text(points, 2.0, 2.8284271247461903, "csv")
    lines = text.splitlines()
    assert lines[0] == "theta_rad,classical_bound,qm_value,tsirelson_bound"
    assert len(lines) == 3
    assert lines[1] == "0,2,2,2.8284271247461903"


@pytest.mark.parametrize(
    "count", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1]
)
def test_sweep_chunks_hold_chunk_rows_each_and_join_to_the_whole_table(count):
    # Thetas and values that repeat across chunks, -0.0 among them.
    points = [((i % 5) / 7 if i % 11 else -0.0, 2.0 + (i % 3) / 9) for i in range(count)]
    rows = [(theta, 2.0, value, SQRT8) for theta, value in points]
    json_text = _spec_text({"sweep": [dict(zip(SWEEP_COLUMNS, row)) for row in rows]}) + "\n"
    csv_text = "\n".join(
        [",".join(SWEEP_COLUMNS)] + [",".join(map(_spec_cell, row)) for row in rows]
    ) + "\n"
    full, rest = divmod(count, CHUNK_ROWS)
    for out_format, text, whole in (
        ("json", json_text, _sweep_text(points, 2.0, SQRT8, "json")),
        ("csv", csv_text, _sweep_text(points, 2.0, SQRT8, "csv")),
    ):
        drawn = []
        chunks = []
        for chunk in sweep_chunks((drawn.append(p) or p for p in points), 2.0, SQRT8, out_format):
            chunks.append(chunk)
            # Each chunk is formed from the points drawn since the one before.
            assert len(drawn) == min(len(chunks) * CHUNK_ROWS, count)
        assert "".join(chunks) == whole == text
        # A JSON table ends in a chunk that closes it, with or without rows; a
        # CSV table in its last row, or in its header when it has none.
        if out_format == "json":
            rows_per_chunk = [chunk.count('"theta_rad"') for chunk in chunks]
            expected = [CHUNK_ROWS] * full + [rest]
        else:
            rows_per_chunk = [chunk.count("\n") for chunk in chunks]
            rows_per_chunk[0] -= 1  # the header line
            expected = [CHUNK_ROWS] * full + ([rest] if rest or not full else [])
        assert rows_per_chunk == expected


def test_sweep_json_matches_csv_content():
    points = [(0.0, 2.0), (1.0, 2.5)]
    parsed = json.loads(_sweep_text(points, 2.0, 2.8284271247461903, "json"))
    assert len(parsed["sweep"]) == 2
    row = parsed["sweep"][1]
    assert row["theta_rad"] == 1.0
    assert row["qm_value"] == 2.5
    assert row["classical_bound"] == 2
    assert row["tsirelson_bound"] == 2.8284271247461903


def test_sweep_chunks_rejects_an_unknown_format():
    with pytest.raises(ValueError, match="'xml'"):
        sweep_chunks([(0.0, 2.0)], 2.0, SQRT8, "xml")


@pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 1001])
def test_sweep_formats_each_cell_once_from_one_row_template_per_table(monkeypatch, count):
    # Every theta and value distinct from each other and from the bounds, so
    # no float's text could be reused.
    points = [((i + 0.5) / 2048, 3 + (i + 0.5) / 2048) for i in range(count)]
    calls = {"format_float": 0, "_write_json": 0}
    format_float_, write_json = reporting.format_float, reporting._write_json
    open_writes = []

    def counted_format_float(x):
        calls["format_float"] += 1
        return format_float_(x)

    def counted_write_json(*args):
        calls["_write_json"] += not open_writes  # the outermost call only
        open_writes.append(args)
        try:
            write_json(*args)
        finally:
            open_writes.pop()

    monkeypatch.setattr(reporting, "format_float", counted_format_float)
    monkeypatch.setattr(reporting, "_write_json", counted_write_json)
    for out_format in ("json", "csv"):
        calls.update(format_float=0, _write_json=0)
        "".join(sweep_chunks(points, 2.0, SQRT8, out_format))
        # Two cells a row, and the two bounds once when the first row is written.
        assert calls["format_float"] == 2 * count + (2 if count else 0)
        assert calls["_write_json"] <= 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("out_format", ["json", "csv"])
def test_sweep_raises_on_a_non_finite_cell_at_its_row(bad, out_format):
    at = CHUNK_ROWS + 3  # past the first chunk, after its floats were written
    for cell in (0, 1):
        points = [(0.5, 2.5) if i != at else ((bad, 2.5) if cell == 0 else (0.5, bad))
                  for i in range(2 * CHUNK_ROWS)]
        drawn = []
        chunks = sweep_chunks((drawn.append(p) or p for p in points), 2.0, SQRT8, out_format)
        assert next(chunks).count("2.5") == CHUNK_ROWS
        with pytest.raises(ValueError, match="non-finite"):
            next(chunks)
        assert len(drawn) == at + 1
    # With both cells bad, JSON meets qm_value first and CSV theta_rad.
    text = {"json": "nan", "csv": "inf"}[out_format]
    with pytest.raises(ValueError, match=f"non-finite float {text}"):
        "".join(sweep_chunks([(math.inf, math.nan)], 2.0, SQRT8, out_format))


def test_sweep_cells_print_negative_zero_ints_and_bools_as_scalars():
    points = [(-0.0, -0.0), (0, True), (1, False), (True, 7), (-0.0, 2**64)]
    json_text = _sweep_text(points, 2.0, SQRT8, "json")
    assert json_text.startswith(
        '{\n  "sweep": [\n    {\n      "classical_bound": 2,\n      "qm_value": 0,\n'
        '      "theta_rad": 0,\n      "tsirelson_bound": 2.8284271247461903\n    },\n'
    )
    rows = [dict(zip(SWEEP_COLUMNS, (theta, 2.0, value, SQRT8))) for theta, value in points]
    assert json_text == _spec_text({"sweep": rows}) + "\n"
    assert _sweep_text(points, 2.0, SQRT8, "csv").splitlines()[1:] == [
        "0,2,0,2.8284271247461903",
        "0,2,true,2.8284271247461903",
        "1,2,false,2.8284271247461903",
        "true,2,7,2.8284271247461903",
        "0,2,18446744073709551616,2.8284271247461903",
    ]
    # A cell that is not a float, an int or a bool is refused in both formats.
    for bad in ("0.5", None, [0.5]):
        for out_format in ("json", "csv"):
            with pytest.raises(TypeError, match="as a report value"):
                _sweep_text([(0.5, 2.0), (0.5, bad)], 2.0, SQRT8, out_format)


def test_sweep_of_no_rows_formats_no_bound():
    assert _sweep_text([], math.nan, math.inf, "json") == '{\n  "sweep": []\n}\n'
    assert _sweep_text([], math.nan, math.inf, "csv") == ",".join(SWEEP_COLUMNS) + "\n"
