"""The output rule of the cheap suites as a check: at seed 0, the
``results.csv`` and ``report.json`` each writes through ``cli.main`` must
match the files under ``tests/golden/<suite>/`` byte for byte.

The golden files were recorded with the numpy and scipy versions in
``tests/golden/versions.json``; a failure under other versions says so, so
that an environment change is told apart from a code change.  To record
them again after an intended change of outputs, run
``smoothlab --suite S --seed 0 --out tests/golden/S`` for each suite and
delete the ``manifest.json`` it writes.
"""

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from smoothlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
SUITES = ["partition", "discrete-bounds", "resolvent-1d", "resolvent-nd",
          "product-interp", "mixed-norm", "endpoint"]
FILES = ["results.csv", "report.json"]


def _first_json_difference(want, got, path: str = "") -> str | None:
    """The path of the first leaf where two parsed reports differ, with
    both values; None when they are equal."""
    if isinstance(want, dict) and isinstance(got, dict) and want.keys() == got.keys():
        keys = list(want.items())
    elif isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        keys = list(enumerate(want))
    else:
        return None if want == got else f"{path or '/'}: expected {want!r}, got {got!r}"
    for key, value in keys:
        found = _first_json_difference(value, got[key], f"{path}/{key}")
        if found:
            return found
    return None


def _first_csv_difference(want: str, got: str) -> str | None:
    """The first cell, by row and column name, where two tables differ."""
    want_rows = list(csv.reader(io.StringIO(want)))
    got_rows = list(csv.reader(io.StringIO(got)))
    header = want_rows[0]
    for i, (a, b) in enumerate(zip(want_rows, got_rows)):
        if len(a) != len(b):
            return f"row {i}: expected {len(a)} cells, got {len(b)}"
        for name, x, y in zip(header, a, b):
            if x != y:
                return f"row {i}, column {name}: expected {x}, got {y}"
    if len(want_rows) != len(got_rows):
        return f"expected {len(want_rows)} rows, got {len(got_rows)}"
    return None


def _first_difference(name: str, want: str, got: str) -> str:
    found = (_first_csv_difference(want, got) if name.endswith(".csv")
             else _first_json_difference(json.loads(want), json.loads(got)))
    if found:
        return found
    line = next(i for i, (a, b) in enumerate(zip(want.splitlines() + [""],
                                                   got.splitlines() + [""])) if a != b)
    return f"line {line + 1} (same values, other bytes)"


def _environment_note() -> str:
    recorded = json.loads((GOLDEN / "versions.json").read_text())
    running = {"numpy": np.__version__, "scipy": scipy.__version__}
    if recorded == running:
        return ""
    return (f"; the golden files were recorded with {recorded} and this run "
            f"uses {running}, so the difference may come from the environment")


@pytest.mark.parametrize("suite", SUITES)
def test_seed_zero_outputs_match_the_golden_files(suite, tmp_path):
    assert main(["--suite", suite, "--seed", "0", "--out", str(tmp_path)]) == 0
    for name in FILES:
        want, got = (GOLDEN / suite / name).read_bytes(), (tmp_path / name).read_bytes()
        if got != want:
            where = _first_difference(name, want.decode(), got.decode())
            pytest.fail(f"{suite}/{name} differs from the golden file at {where}"
                        f"{_environment_note()}")
