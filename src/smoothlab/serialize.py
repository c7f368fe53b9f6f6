"""Report writers: results.csv and the JSON reports.

CSV cells format floats by repr and JSON is written with sorted keys, so
identical runs produce byte-identical files.  JSON is strict (RFC 8259):
non-finite floats are written as the strings "NaN", "Infinity" and
"-Infinity".
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (np.floating,)):
        return repr(float(value))
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


def write_csv(path: str | Path, rows: Sequence[Mapping]) -> None:
    """One column per key of any row, in order of first appearance; a row
    without a key leaves its cell empty."""
    fieldnames: list[str] = []
    for row in rows:
        fieldnames += [key for key in row if key not in fieldnames]
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_format_cell(row.get(name, "")) for name in fieldnames])


def write_json(path: str | Path, payload) -> None:
    text = json.dumps(_finite(payload), indent=2, sort_keys=True, allow_nan=False,
                      default=_json_default)
    Path(path).write_text(text)


def _finite(obj):
    """obj with every non-finite float, Python or numpy, replaced by its
    JSON-safe string name."""
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()  # non-finite ones were named by _finite already
    if isinstance(obj, np.ndarray):
        return _finite(obj.tolist())
    if hasattr(obj, "__dict__"):
        return _finite({k: v for k, v in obj.__dict__.items() if not k.startswith("_")})
    return str(obj)
