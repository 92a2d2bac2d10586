"""Report envelopes and output formats.

JSON is the primary format: keys are emitted sorted so identical runs give
byte-identical files. CSV and text are flat projections of the same document
(dotted key paths, one scalar per line), not separate report designs. Each
subcommand's JSON shape has a schema shipped under data/schemas/. A NaN or
infinite value is refused in every format, since JSON cannot carry it.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Any, Optional

from . import __version__
from .errors import ScanforgeError

TOOL_NAME = "scanforge"
FORMATS = ("json", "csv", "text")


class ReportValueError(ScanforgeError):
    code = "reports.value"


def envelope(command: str, report: dict[str, Any], seed: Optional[int] = None) -> dict[str, Any]:
    return {
        "tool": TOOL_NAME,
        "version": __version__,
        "command": command,
        "seed": seed,
        "report": report,
    }


def to_json(doc: dict[str, Any]) -> str:
    _rows(doc)  # refuses NaN and infinities before anything is written
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _flatten(value: Any, path: str, out: list[tuple[str, Any]]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(value[key], f"{path}.{key}" if path else str(key), out)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _flatten(item, f"{path}.{i}", out)
    else:
        out.append((path, value))


def _rows(doc: dict[str, Any]) -> list[tuple[str, Any]]:
    """The (dotted key, scalar) rows of a document; NaN and infinities raise."""
    rows: list[tuple[str, Any]] = []
    _flatten(doc, "", rows)
    for path, value in rows:
        if isinstance(value, float) and not math.isfinite(value):
            raise ReportValueError(f"{path}: {value} is not a finite number")
    return rows


def _scalar_text(value: Any) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def to_csv(doc: dict[str, Any]) -> str:
    rows = _rows(doc)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    for path, value in rows:
        writer.writerow([path, _scalar_text(value)])
    return buf.getvalue()


def to_text(doc: dict[str, Any]) -> str:
    rows = _rows(doc)
    width = max(len(path) for path, _ in rows)
    lines = [f"{path.ljust(width)}  {_scalar_text(value)}" for path, value in rows]
    return "\n".join(lines) + "\n"


def format_report(doc: dict[str, Any], fmt: str) -> str:
    if fmt == "json":
        return to_json(doc)
    if fmt == "csv":
        return to_csv(doc)
    if fmt == "text":
        return to_text(doc)
    raise ValueError(f"unknown format {fmt!r}")
