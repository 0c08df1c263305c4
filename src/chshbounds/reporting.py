"""Bound reports and their canonical serialization.

Report output is deterministic down to the byte: floats are written with 17
significant digits (enough to round-trip an IEEE double exactly), negative
zero is normalized away, keys are sorted, and every writer appends a single
trailing newline.  Running the same seeded command twice must produce
identical files.  ``sweep_chunks`` forms the sweep table in chunks of
``CHUNK_ROWS`` rows, as the rows are drawn, so the CLI writes a sweep of any
length from one chunk's memory; ``sweep_to_json`` and ``sweep_to_csv`` join
the chunks into one string.  Each sweep table's row text is formed once, with
its two bounds, when the first row is written, and every row fills in its
theta and value.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping, Sequence

from ._value import Value
from ._version import __version__

__all__ = [
    "ATTAINMENT_TOLERANCE",
    "MARGIN_TOLERANCE",
    "BoundReport",
    "format_float",
    "canonical_json",
    "reports_to_json",
    "reports_to_csv",
    "sweep_chunks",
    "sweep_to_json",
    "sweep_to_csv",
    "violation_exit_code",
]

# A value counts as attaining its bound when it gets this close.
ATTAINMENT_TOLERANCE = 1e-6
# Margins below this are genuine violations (numerical noise allowance).
MARGIN_TOLERANCE = -1e-9

# Rows per chunk of sweep text: a chunk is written before the next is formed.
CHUNK_ROWS = 256

SWEEP_COLUMNS = ("theta_rad", "classical_bound", "qm_value", "tsirelson_bound")
REPORT_COLUMNS = ("track", "value", "bound", "margin", "attained", "seed", "version")


class BoundReport(Value):
    """One track's computed value against its bound, plus the run's inputs.

    ``details`` carries optional per-track diagnostics (identity residuals,
    sampling estimates); it rides along in JSON output but stays out of the
    fixed CSV columns.  Left out, it is a new empty dict.
    """

    _fields = ("track", "value", "bound", "inputs", "seed", "version", "details")
    # Its inputs and details are dicts, so no report hashes.
    __hash__ = None

    def __init__(
        self, track: str, value: float, bound: float, inputs: Mapping[str, object], seed: int,
        version: str = __version__, details: Mapping[str, object] | None = None,
    ) -> None:
        self.__dict__.update(
            track=track, value=value, bound=bound, inputs=inputs, seed=seed, version=version,
            details={} if details is None else details,
        )

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
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    raise TypeError(f"cannot serialize {type(value).__name__} as a report value")


# JSON string escapes: the quote, the backslash and the C0 controls as \u00xx;
# every other character, DEL and non-ASCII included, is written raw.
_STRING_ESCAPES = {ord('"'): '\\"', ord("\\"): "\\\\"}
_STRING_ESCAPES.update((code, f"\\u{code:04x}") for code in range(0x20))


def _quote(text: str) -> str:
    return '"' + text.translate(_STRING_ESCAPES) + '"'


def _write_json(value: object, depth: int, pieces: list[str]) -> None:
    if isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
        inner = "\n" + "  " * (depth + 1)
        head = "{"
        for key in sorted(value):
            pieces.append(head + inner + _quote(key) + ": ")
            _write_json(value[key], depth + 1, pieces)
            head = ","
        pieces.append("\n" + "  " * depth + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            pieces.append("[]")
            return
        inner = "\n" + "  " * (depth + 1)
        head = "["
        for item in value:
            pieces.append(head + inner)
            _write_json(item, depth + 1, pieces)
            head = ","
        pieces.append("\n" + "  " * depth + "]")
    elif isinstance(value, str):
        pieces.append(_quote(value))
    elif value is None:
        pieces.append("null")
    else:
        pieces.append(_scalar(value))


def canonical_json(value: object) -> str:
    """Deterministic JSON text: sorted keys, 2-space indent, trailing newline.

    Containers are ``dict`` (string keys only), ``list`` and ``tuple``; other
    mapping or sequence types are rejected like any unknown value.
    """
    pieces: list[str] = []
    _write_json(value, 0, pieces)
    pieces.append("\n")
    return "".join(pieces)


def reports_to_json(reports: Sequence[BoundReport]) -> str:
    return canonical_json({"reports": [r.as_mapping() for r in reports]})


def reports_to_csv(reports: Sequence[BoundReport]) -> str:
    lines = [",".join(REPORT_COLUMNS)]
    for r in reports:
        cells = (getattr(r, column) for column in REPORT_COLUMNS)
        lines.append(",".join(c if isinstance(c, str) else _scalar(c) for c in cells))
    return "\n".join(lines) + "\n"


def sweep_chunks(
    points: Iterable[tuple[float, float]], classical: float, tsirelson: float, out_format: str
) -> Iterator[str]:
    """The sweep table as ``"json"`` or ``"csv"`` text, in chunks of
    ``CHUNK_ROWS`` rows; each chunk is formed as its points are drawn.  Any
    other format raises ``ValueError``."""
    if out_format == "json":
        return _json_sweep(iter(points), classical, tsirelson)
    if out_format == "csv":
        return _csv_sweep(iter(points), classical, tsirelson)
    raise ValueError(f"unknown sweep format {out_format!r}: expected 'json' or 'csv'")


def _json_sweep(points: Iterator, classical: float, tsirelson: float) -> Iterator[str]:
    """``canonical_json({"sweep": [dict(zip(SWEEP_COLUMNS, row)) ...]})``, the
    last chunk closing the text."""
    pieces = ['{\n  "sweep": ']
    head = "[\n    "
    count = 0
    for count, (theta, value) in enumerate(points, 1):
        if count == 1:
            row: list[str] = []
            _write_json(dict(zip(SWEEP_COLUMNS, ("%s", classical, "%s", tsirelson))), 2, row)
            template = "".join(row).replace('"%s"', "%s")
        # Sorted keys put qm_value before theta_rad.
        pieces.append(head + template % (_scalar(value), _scalar(theta)))
        head = ",\n    "
        if count % CHUNK_ROWS == 0:
            yield "".join(pieces)
            pieces.clear()
    pieces.append("\n  ]\n}\n" if count else "[]\n}\n")
    yield "".join(pieces)


def _csv_sweep(points: Iterator, classical: float, tsirelson: float) -> Iterator[str]:
    """The header line, then one line per row."""
    lines = [",".join(SWEEP_COLUMNS)]
    for count, (theta, value) in enumerate(points, 1):
        if count == 1:
            template = "%s," + _scalar(classical) + ",%s," + _scalar(tsirelson)
        lines.append(template % (_scalar(theta), _scalar(value)))
        if count % CHUNK_ROWS == 0:
            yield "\n".join(lines) + "\n"
            lines.clear()
    if lines:
        yield "\n".join(lines) + "\n"


def sweep_to_json(points: Sequence[tuple[float, float]], classical: float, tsirelson: float) -> str:
    return "".join(sweep_chunks(points, classical, tsirelson, "json"))


def sweep_to_csv(points: Sequence[tuple[float, float]], classical: float, tsirelson: float) -> str:
    return "".join(sweep_chunks(points, classical, tsirelson, "csv"))


def violation_exit_code(reports: Sequence[BoundReport]) -> int:
    """0 when every margin is within tolerance, 3 when any bound is violated."""
    return 3 if any(r.violated for r in reports) else 0
