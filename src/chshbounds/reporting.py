"""Bound reports and their canonical serialization.

Report output is deterministic down to the byte: floats are written with 17
significant digits (enough to round-trip an IEEE double exactly), negative
zero is normalized away, keys are sorted, and every writer appends a single
trailing newline.  Running the same seeded command twice must produce
identical files.  Key order is resolved once per key set per writer call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ._version import __version__

__all__ = [
    "ATTAINMENT_TOLERANCE",
    "MARGIN_TOLERANCE",
    "BoundReport",
    "format_float",
    "canonical_json",
    "reports_to_json",
    "reports_to_csv",
    "sweep_to_json",
    "sweep_to_csv",
    "violation_exit_code",
]

# A value counts as attaining its bound when it gets this close.
ATTAINMENT_TOLERANCE = 1e-6
# Margins below this are genuine violations (numerical noise allowance).
MARGIN_TOLERANCE = -1e-9

SWEEP_COLUMNS = ("theta_rad", "classical_bound", "qm_value", "tsirelson_bound")
REPORT_COLUMNS = ("track", "value", "bound", "margin", "attained", "seed", "version")


@dataclass(frozen=True)
class BoundReport:
    """One track's computed value against its bound, plus the run's inputs.

    ``details`` carries optional per-track diagnostics (identity residuals,
    sampling estimates); it rides along in JSON output but stays out of the
    fixed CSV columns.
    """

    track: str
    value: float
    bound: float
    inputs: Mapping[str, object]
    seed: int
    version: str = __version__
    details: Mapping[str, object] = field(default_factory=dict)

    @property
    def margin(self) -> float:
        return self.bound - self.value

    @property
    def attained(self) -> bool:
        return self.margin <= ATTAINMENT_TOLERANCE

    @property
    def violated(self) -> bool:
        return self.margin < MARGIN_TOLERANCE

    def as_mapping(self) -> dict[str, object]:
        out = {
            "track": self.track,
            "value": self.value,
            "bound": self.bound,
            "margin": self.margin,
            "attained": self.attained,
            "inputs": dict(self.inputs),
            "seed": self.seed,
            "version": self.version,
        }
        if self.details:
            out["details"] = dict(self.details)
        return out


def format_float(x: float) -> str:
    """17-significant-digit decimal form of a float; rejects non-finite values."""
    if not isinstance(x, float):
        raise TypeError(f"expected float, got {type(x).__name__}")
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    if x == 0.0:
        x = 0.0  # normalize -0.0 so output parses back to the same value
    return format(x, ".17g")


def _scalar(value: object) -> str:
    """Canonical text of a bool, int or float; JSON values and CSV cells share it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    raise TypeError(f"cannot serialize {type(value).__name__} as a report value")


# JSON string escapes: the quote, the backslash and the C0 controls as \u00xx;
# every other character, DEL and non-ASCII included, is written raw.
_STRING_ESCAPES = {ord('"'): '\\"', ord("\\"): "\\\\"}
_STRING_ESCAPES.update((code, f"\\u{code:04x}") for code in range(0x20))


def _quote(text: str) -> str:
    return '"' + text.translate(_STRING_ESCAPES) + '"'


def _write_json(value: object, indent: int, pieces: list[str], keys: dict) -> None:
    if isinstance(value, dict):
        key_tuple = tuple(value)
        order = keys.get(key_tuple)
        if order is None:
            for key in key_tuple:
                if not isinstance(key, str):
                    raise TypeError(f"JSON object keys must be strings, got {key!r}")
            order = keys[key_tuple] = [(_quote(key) + ": ", key) for key in sorted(key_tuple)]
        _write_entries("{}", [(prefix, value[key]) for prefix, key in order], indent, pieces, keys)
    elif isinstance(value, (list, tuple)):
        _write_entries("[]", [("", item) for item in value], indent, pieces, keys)
    elif isinstance(value, str):
        pieces.append(_quote(value))
    elif value is None:
        pieces.append("null")
    else:
        pieces.append(_scalar(value))


def _write_entries(
    brackets: str, entries: list, indent: int, pieces: list[str], keys: dict
) -> None:
    """(prefix, value) entries one per line, a level deeper; an empty container stays inline."""
    if not entries:
        pieces.append(brackets)
        return
    inner = "\n" + "  " * (indent + 1)
    separator = brackets[0]
    for prefix, item in entries:
        if type(item) is float:
            pieces.append(separator + inner + prefix + format_float(item))
        else:
            pieces.append(separator + inner + prefix)
            _write_json(item, indent + 1, pieces, keys)
        separator = ","
    pieces.append("\n" + "  " * indent + brackets[1])


def canonical_json(value: object) -> str:
    """Deterministic JSON text: sorted keys, 2-space indent, trailing newline.

    Containers are ``dict`` (string keys only), ``list`` and ``tuple``; other
    mapping or sequence types are rejected like any unknown value.  Key order
    is resolved once per key set (keys in insertion order) per call.
    """
    pieces: list[str] = []
    _write_json(value, 0, pieces, {})
    pieces.append("\n")
    return "".join(pieces)


def reports_to_json(reports: Sequence[BoundReport]) -> str:
    return canonical_json({"reports": [r.as_mapping() for r in reports]})


def _csv_cell(value: object) -> str:
    if type(value) is float:
        return format_float(value)
    return value if isinstance(value, str) else _scalar(value)


def _csv_table(columns: Sequence[str], rows) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(map(_csv_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def reports_to_csv(reports: Sequence[BoundReport]) -> str:
    rows = ([getattr(r, column) for column in REPORT_COLUMNS] for r in reports)
    return _csv_table(REPORT_COLUMNS, rows)


def sweep_rows(points: Sequence[tuple[float, float]], classical: float, tsirelson: float):
    for theta, value in points:
        yield theta, classical, value, tsirelson


def sweep_to_json(points: Sequence[tuple[float, float]], classical: float, tsirelson: float) -> str:
    rows = [dict(zip(SWEEP_COLUMNS, row)) for row in sweep_rows(points, classical, tsirelson)]
    return canonical_json({"sweep": rows})


def sweep_to_csv(points: Sequence[tuple[float, float]], classical: float, tsirelson: float) -> str:
    return _csv_table(SWEEP_COLUMNS, sweep_rows(points, classical, tsirelson))


def violation_exit_code(reports: Sequence[BoundReport]) -> int:
    """0 when every margin is within tolerance, 3 when any bound is violated."""
    return 3 if any(r.violated for r in reports) else 0
