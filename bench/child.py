"""One suite run in a fresh process, the way ``smoothlab --suite ...`` runs it.

    python3 bench/child.py --launched T --suite NAME --seed N --out DIR
                           [--trace] [--setup-only] [CLI flags ...]

Calls ``smoothlab.cli.main`` with ``--suite/--seed/--out`` and any extra
CLI flags, timing ``run_suite`` from the outside.  ``--launched`` is the
parent's ``time.monotonic()`` just before it started this process, so
``setup_s`` covers interpreter start, imports and config validation.
With ``--setup-only`` the run stops where ``run_suite`` would begin.
With ``--trace`` spans are recorded (see ``spans.py``) and written to
``DIR/spans.csv``.  The last stdout line is one JSON record; the CLI's own
console lines go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class _SetupDone(Exception):
    pass


def headline(suite: str, result) -> dict[str, float]:
    """The constants a suite certifies, read from its SuiteResult."""
    rep = result.report
    if suite in ("kpv", "main-estimate"):
        ratios = [r["ratio"] for r in result.csv_rows
                  if r.get("suite") == suite and not r.get("degenerate")]
        out = {"max_ratio": max(ratios)}
        if suite == "kpv":
            out["rescale_drift"] = rep["probes"]["rescale_drift"]
            out["refinement_drift"] = rep["refinement_drift"]
        else:
            out["max_inflation"] = rep["probes"]["max_inflation"]
            out["audit_total"] = rep["probes"]["audit_total"]
        return out
    if suite == "phase-localization":
        (f_c, f_f), (b_c, b_f) = rep["forward"], rep["backward"]
        return {"forward_coarse": f_c, "forward_fine": f_f,
                "backward_coarse": b_c, "backward_fine": b_f}
    if suite == "commutator-scan":
        out = {f"slope_s{s}": v["slope"] for s, v in rep["slopes"].items()}
        worst = 0.0
        for vals in rep["diagonal"].values():
            ks = sorted(vals)
            worst = max([worst] + [abs(vals[b] / vals[a] - 1.0)
                                   for a, b in zip(ks[:-1], ks[1:]) if vals[a] > 0])
        out["diagonal_deviation"] = worst
        return out
    return {}


def _cache_bytes(cached) -> int:
    """Bytes of the arrays an ``lru_cache`` holds as results right now."""
    total = 0
    for obj in gc.get_referents(cached):
        arrays = [obj] if hasattr(obj, "nbytes") else list(getattr(obj, "masks", {}).values())
        total += sum(a.nbytes for a in arrays)
    return total


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--suite", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args, cli_extra = ap.parse_known_args(argv)

    from smoothlab import cli, dyadic, norms

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    run_suite = cli.run_suite
    record: dict = {"suite": args.suite, "seed": args.seed, "traced": args.trace}

    def timed_run_suite(cfg):
        record["setup_s"] = time.monotonic() - args.launched
        if args.setup_only:
            raise _SetupDone
        start = time.perf_counter()
        result = run_suite(cfg)
        record["wall_s"] = time.perf_counter() - start
        record["verdicts"] = {v.name: v.passed for v in result.verdicts}
        record["constants"] = headline(args.suite, result)
        return result

    cli.run_suite = timed_run_suite
    cli_args = ["--suite", args.suite, "--seed", str(args.seed), "--out", args.out, *cli_extra]
    try:
        with contextlib.redirect_stdout(sys.stderr):
            record["exit_code"] = cli.main(cli_args)
    except _SetupDone:
        record["exit_code"] = 0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record["cpu_s"] = usage.ru_utime + usage.ru_stime
    record["peak_rss_mib"] = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux
    masks, annuli = dyadic._cached_masks, norms._annulus_mask
    record["caches"] = {
        "mask_builds": masks.cache_info().misses,
        "mask_hits": masks.cache_info().hits,
        "annulus_builds": annuli.cache_info().misses,
        "cache_mib": (_cache_bytes(masks) + _cache_bytes(annuli)) / 2**20,
    }
    if tracer is not None:
        from spans import summarize

        record["trace"] = summarize(tracer.spans, "suites.run_suite")
        with open(Path(args.out) / "spans.csv", "w") as fh:
            fh.write("name,parent,start,end,elements\n")
            fh.writelines(f"{n},{p},{s!r},{e!r},{k}\n" for n, p, s, e, k in tracer.spans)
    print(json.dumps(record, default=float))
    return record["exit_code"]


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
