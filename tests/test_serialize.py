import json

import numpy as np

from smoothlab.serialize import write_csv, write_json


def test_csv_deterministic_bytes(tmp_path):
    rows = [{"a": 1, "b": 0.1 + 0.2, "c": "x"}, {"a": 2, "b": float("inf"), "c": "y"}]
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    write_csv(p1, rows)
    write_csv(p2, rows)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text().splitlines()
    assert text[0] == "a,b,c"
    assert text[1].startswith("1,0.30000000000000004")


def test_csv_header_is_the_union_of_row_keys(tmp_path):
    # keys in order of first appearance; a row without a key leaves it empty
    path = tmp_path / "rows.csv"
    write_csv(path, [{"a": 1, "b": 2}, {"a": 3, "c": "z"}, {"c": "w", "b": 4}])
    assert path.read_text().splitlines() == ["a,b,c", "1,2,", "3,,z", ",4,w"]


def test_json_names_non_finite_floats(tmp_path):
    # Python and numpy floats alike, at any depth, including inside arrays
    payload = {
        "py": [float("nan"), float("inf"), -float("inf"), 0.5],
        "np": (np.float64("nan"), np.float32("inf"), np.float64(0.25), np.int64(3)),
        "array": np.array([1.0, -np.inf]),
    }
    path = tmp_path / "r.json"
    write_json(path, payload)

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    assert json.loads(path.read_text(), parse_constant=reject) == {
        "py": ["NaN", "Infinity", "-Infinity", 0.5],
        "np": ["NaN", "Infinity", 0.25, 3],
        "array": [1.0, "-Infinity"],
    }
