"""Fast self-test of the benchmark (``run.py``) on a tiny config.

    python3 bench/selftest.py

Drives main-estimate at a 16^3 grid with two members through the same
``measure`` loop as the benchmark, untraced and traced, and checks that
every metric BENCHMARK.json names comes out with its unit, that the tiny
runs pass a gate recorded from themselves, and that a forced verdict
failure and a moved constant are each counted in ``failed``.  Exits 0
when every check holds.
"""

from __future__ import annotations

import math
import sys

import run

TINY = ("--grid", "16", "--ensemble", "2")
SUITE = "main-estimate"


def check(cond: bool, what: str, failures: list[str]) -> None:
    print(f"[{'ok' if cond else 'FAIL'}] {what}")
    if not cond:
        failures.append(what)


def main() -> int:
    units, _ = run.load_spec()
    failures: list[str] = []
    first = run.launch(SUITE, 0, run.OUT_ROOT / "selftest", cli_args=TINY)
    check(first.get("exit_code") == 0, "tiny run completes with exit 0", failures)
    if failures:
        return 1
    expected = {
        "verdicts": sorted(first["verdicts"]),
        "constants": {k: {"value": v, "rtol": 1e-9} for k, v in first["constants"].items()},
    }

    for trace in (False, True):
        res = run.measure(SUITE, 0, 0.0, trace, expected, cli_args=TINY)
        line = run.result_line(res, units, trace)
        mode = "traced" if trace else "untraced"
        check(line is not None and line["failed"] == 0,
              f"{mode}: tiny runs pass their own gate {res['problems']}", failures)
        if line is None:
            continue
        wanted = {n: u for n, u in units.items() if (n in run.END_TO_END) != trace}
        got = {n: m["unit"] for n, m in line["metrics"].items()}
        check(got == wanted, f"{mode}: every metric emitted with its unit", failures)
        check(all(math.isfinite(m["value"]) for m in line["metrics"].values()),
              f"{mode}: every value is a finite number", failures)
    check(line is not None and line["metrics"]["grid.fft_calls"]["value"] > 0
          and line["metrics"]["norms.lqa_calls"]["value"] > 0,
          "traced: transforms and norm calls are attributed", failures)

    real_launch = run.launch

    def failing_verdict(*args, **kwargs):
        record = real_launch(*args, **kwargs)
        if "verdicts" in record:
            record["verdicts"][expected["verdicts"][0]] = False
            record["exit_code"] = 1
        return record

    run.launch = failing_verdict
    try:
        res = run.measure(SUITE, 0, 0.0, False, expected, cli_args=TINY)
    finally:
        run.launch = real_launch
    check(res["failed"] == res["attempted"] >= 1, "forced verdict failure counted", failures)

    moved = {**expected, "constants": {
        k: {"value": v["value"] * 1.5 + 1.0, "rtol": v["rtol"]}
        for k, v in expected["constants"].items()}}
    res = run.measure(SUITE, 0, 0.0, False, moved, cli_args=TINY)
    check(res["failed"] == res["attempted"] >= 1, "moved headline constant counted", failures)

    print("selftest:", "all checks passed" if not failures else f"{len(failures)} failed")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
