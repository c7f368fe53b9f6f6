"""Suite-level benchmark of smoothlab: one fresh process per suite run.

    python3 bench/run.py --workload main-estimate --seed 0 --seconds 20 --trace 0

A workload is one verification suite at its default config, run the way
the CLI runs it (``--parallel`` left at 1) with the benchmark's seed as the
suite seed.  The load is a closed loop with one client: the next suite
process starts only after the previous one exits.

Each invocation first starts one discarded set-up probe (it fills the
bytecode cache) and ``SETUP_PROBES`` measured ones, which stop where
``run_suite`` would begin; then it runs suites until ``--seconds`` have
passed, at least one.  With ``--trace 0`` every suite run is untraced and
the end-to-end metrics are reported.  With ``--trace 1`` traced and
untraced runs alternate, traced first, and the per-layer metrics are
reported from the traced ones; ``trace.overhead_frac`` compares the two.

Every suite run is checked against ``reference.json``: exit code 0, the
reference verdicts all passed, and each headline constant within its
relative tolerance.  A run that misses counts in ``failed``.  A traced run
also fails when its layer self-times do not sum to its wall time within
the tracing overhead, or when its transform or matvec count differs from
the first traced run of the invocation.

Human-readable lines go first; the last stdout line is the JSON result.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
REFERENCE = BENCH / "reference.json"
OUT_ROOT = ROOT / ".bench_out"

WORKLOADS = ("kpv", "phase-localization", "commutator-scan", "main-estimate")
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150.0

END_TO_END = ("wall_s", "cpu_s", "peak_rss_mib", "setup_s")

MATVEC_SPANS = ("commutators.CommutatorOp.apply", "commutators.CommutatorOp.apply_adjoint")
#: per-layer counts that must repeat exactly between traced runs of one seed
REPEATING_COUNTS = ("grid.fft_calls", "commutators.matvecs")


class BenchError(Exception):
    """The program could not be started at all; no result is printed."""


def launch(suite: str, seed: int, out: Path, *, trace: bool = False,
           setup_only: bool = False, cli_args: tuple[str, ...] = ()) -> dict:
    """Run one child process to completion and return its record."""
    out.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(CHILD), "--launched", repr(time.monotonic()),
           "--suite", suite, "--seed", str(seed), "--out", str(out)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only + list(cli_args)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit_code": None, "error": f"timed out after {CHILD_TIMEOUT_S:.0f}s"}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"exit_code": proc.returncode, "error": tail[0]}
    record["exit_code"] = proc.returncode
    return record


def run_problems(record: dict, expected: dict) -> list[str]:
    """Why one suite run fails the correctness gate (empty if it passes)."""
    if "error" in record:
        return [f"exit {record['exit_code']}: {record['error']}"]
    problems = []
    if record["exit_code"] != 0:
        problems.append(f"exit {record['exit_code']}")
    verdicts = record.get("verdicts", {})
    if sorted(verdicts) != sorted(expected["verdicts"]):
        problems.append(f"verdicts {sorted(verdicts)} != {sorted(expected['verdicts'])}")
    problems += [f"verdict {name} failed" for name, ok in verdicts.items() if not ok]
    for name, ref in expected["constants"].items():
        value = record.get("constants", {}).get(name, math.nan)
        if not abs(value - ref["value"]) <= ref["rtol"] * abs(ref["value"]):
            problems.append(f"{name} {value!r} outside {ref['value']!r} +/- {ref['rtol']:g} rel")
    return problems


def layer_metrics(record: dict) -> dict[str, float]:
    """Per-layer values of one traced run, keyed by BENCHMARK.json name."""
    t, caches = record["trace"], record["caches"]
    fft, calls, own, incl = t["fft_calls"], t["calls"], t["self_s"], t["inclusive_s"]
    matvecs = sum(calls.get(name, 0) for name in MATVEC_SPANS)
    solves = calls.get("commutators.operator_norm", 0)
    out = {
        "grid.fft_calls": sum(fft.values()),
        "grid.fft_s": incl.get("grid.fft", 0.0),
        "grid.fft_gib": t["fft_bytes"] / 2**30,
        "spectral.gradient_magnitude_s": incl.get("spectral.gradient_magnitude", 0.0),
        "norms.lqa_calls": calls.get("norms.lqa_sobolev_norm", 0),
        "schrodinger.duhamel_s": incl.get("schrodinger.duhamel", 0.0),
        "schrodinger.magnetic_solve_s": incl.get("schrodinger.magnetic_solve", 0.0),
        "commutators.matvecs": matvecs,
        "commutators.solves": solves,
        "commutators.matvecs_per_solve": matvecs / solves if solves else 0.0,
        "ensembles.members": t["ensemble_members"],
        "dyadic.mask_builds": caches["mask_builds"],
        "dyadic.mask_hits": caches["mask_hits"],
        "norms.annulus_builds": caches["annulus_builds"],
        "dyadic.cache_mib": caches["cache_mib"],
        "serialize.write_s": sum(incl.get(f"serialize.{n}", 0.0)
                                 for n in ("write_json", "write_csv")),
        "trace.spans": t["spans"],
        "trace.wall_s": record["wall_s"],
    }
    for layer in ("spectral", "norms", "schrodinger", "ensembles", "harness"):
        out[f"{layer}.fft_calls"] = fft.get(layer, 0)
    for layer in ("spectral", "norms", "schrodinger", "commutators", "ensembles",
                  "harness", "dyadic", "suites"):
        out[f"{layer}.self_s"] = own.get(layer, 0.0)
    return out


def load_spec() -> tuple[dict, dict]:
    """Metric units from BENCHMARK.json and the reference verdicts/constants."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return units, json.loads(REFERENCE.read_text())


def measure(workload: str, seed: int, seconds: float, trace: bool,
            expected: dict, cli_args: tuple[str, ...] = ()) -> dict:
    """One benchmark run: set-up probes, then the closed loop of suite runs.

    Returns ``{"attempted", "failed", "problems", "metrics"}`` where
    ``metrics`` holds every end-to-end metric without tracing and every
    per-layer metric with it.
    """
    out = OUT_ROOT / workload
    setups = []
    for i in range(SETUP_PROBES + 1):
        probe = launch(workload, seed, out / "setup", setup_only=True, cli_args=cli_args)
        if probe.get("exit_code") != 0 or "setup_s" not in probe:
            raise BenchError(f"set-up probe failed: {probe.get('error', probe)}")
        if i:  # the first probe compiles bytecode and is discarded
            setups.append(probe["setup_s"])

    runs: list[dict] = []
    start = time.monotonic()
    while (not runs or time.monotonic() - start < seconds
           or (trace and len(runs) < 2)):
        traced = trace and len(runs) % 2 == 0
        record = launch(workload, seed, out / ("traced" if traced else "untraced"),
                        trace=traced, cli_args=cli_args)
        record["traced"] = traced
        record["problems"] = run_problems(record, expected)
        runs.append(record)
        print(f"run {len(runs)} {'traced' if traced else 'untraced'}: "
              + (f"wall {record['wall_s']:.3f}s cpu {record['cpu_s']:.3f}s "
                 f"rss {record['peak_rss_mib']:.1f}MiB setup {record['setup_s']:.3f}s "
                 f"constants {record['constants']}" if "wall_s" in record else "")
              + (f" FAILED {record['problems']}" if record["problems"] else ""), flush=True)

    # a run that failed the gate but completed still measured its timings
    done = [r for r in runs if "wall_s" in r]
    untraced = [r for r in done if not r["traced"]]
    metrics: dict[str, float] = {}
    if not trace:
        setups += [r["setup_s"] for r in done]
        for name, values in (("wall_s", [r["wall_s"] for r in untraced]),
                             ("cpu_s", [r["cpu_s"] for r in untraced]),
                             ("peak_rss_mib", [r["peak_rss_mib"] for r in untraced]),
                             ("setup_s", setups)):
            if values:
                metrics[name] = statistics.median(values)
                print(f"{name}: median {metrics[name]:.4f} of n={len(values)} "
                      f"(min {min(values):.4f}, max {max(values):.4f})")
    else:
        traced_runs = [r for r in done if r["traced"]]
        per_run = [layer_metrics(r) for r in traced_runs]
        if per_run and untraced:
            overhead = (statistics.median(r["wall_s"] for r in traced_runs)
                        / statistics.median(r["wall_s"] for r in untraced) - 1.0)
            for r, layers in zip(traced_runs, per_run):
                gap = abs(r["wall_s"] - r["trace"]["root_self_s"]) / r["wall_s"]
                if gap > max(abs(overhead), 1e-3) or r["trace"]["min_self_s"] < -1e-6:
                    r["problems"].append(f"layer self-times miss wall by {gap:.2%}")
                for name in REPEATING_COUNTS:
                    if layers[name] != per_run[0][name]:
                        r["problems"].append(f"{name} {layers[name]} != {per_run[0][name]}")
                if r["problems"]:
                    print(f"traced run FAILED {r['problems']}")
            metrics = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
            metrics["trace.overhead_frac"] = overhead
            print(f"traced runs n={len(per_run)}, untraced n={len(untraced)}, "
                  f"overhead {overhead:+.2%}")
    failed = sum(1 for r in runs if r["problems"])
    return {"attempted": len(runs), "failed": failed,
            "problems": [p for r in runs for p in r["problems"]], "metrics": metrics}


def result_line(res: dict, units: dict[str, str], trace: bool) -> dict | None:
    """The JSON result of one run, or None when no run measured anything."""
    names = [n for n in units if (n in END_TO_END) != trace]
    if any(n not in res["metrics"] for n in names):
        return None
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": res["metrics"][n], "unit": units[n]} for n in names},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="smoothlab suite-level benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "smoothlab" / "cli.py").is_file():
        print(f"error: no smoothlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units, reference = load_spec()
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                      reference["workloads"][args.workload])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    line = result_line(res, units, bool(args.trace))
    if line is None:
        print(f"error: no run completed: {res['problems']}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
