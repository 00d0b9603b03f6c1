"""Deterministic text output: floats at 17 significant digits, LF endings.

Identical inputs must produce byte-identical CSV and JSON, so floats are
always rendered through one formatter and JSON is emitted by a small
writer with sorted keys instead of relying on library repr choices.
"""

from __future__ import annotations

import json
import math


def fmt_float(x):
    """Render a float with 17 significant digits (round-trip exact)."""
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"refusing to serialize non-finite value {x!r}")
    text = format(x, ".17g")
    return "0" if text == "-0" else text


def csv_lines(header, rows):
    """Comma-separated lines: a header then one line per row of floats."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt_float(v) for v in row))
    return "\n".join(lines) + "\n"


def json_dumps(obj, indent=0):
    """Serialize dicts/lists/scalars with deterministic float formatting."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f'{inner}"{key}": {json_dumps(obj[key], indent + 2)}'
            for key in sorted(obj)
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        parts = [f"{inner}{json_dumps(item, indent + 2)}" for item in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    # numpy scalars and arrays arrive via .tolist() upstream; anything else
    # reaching this point is a programming error worth failing on.
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
