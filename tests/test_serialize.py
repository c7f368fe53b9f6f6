from smoothlab.serialize import write_csv


def test_csv_deterministic_bytes(tmp_path):
    rows = [{"a": 1, "b": 0.1 + 0.2, "c": "x"}, {"a": 2, "b": float("inf"), "c": "y"}]
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    write_csv(p1, rows)
    write_csv(p2, rows)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text().splitlines()
    assert text[0] == "a,b,c"
    assert text[1].startswith("1,0.30000000000000004")
