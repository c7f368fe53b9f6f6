"""Command-line entry point for the verification suites.

Configuration is a flat key=value text file plus flag overrides (flags
win).  Every run writes manifest.json, report.json, and results.csv into
the output directory.  Exit status:

- 0: all verdicts pass;
- 1: a verdict failed (reports still written);
- 2: usage error, or a config ``ExperimentConfig.validate`` knows the
  suite cannot run; nothing run;
- 3: the suite raised that it cannot run this config (manifest.json and
  a report.json with an ``error`` field are written, results.csv is not);
- 4: internal error, any other exception from the suite runner, raised
  as ``suites.SuiteInternalError`` (the traceback goes to stderr;
  manifest.json and a report.json with an ``error`` field naming the
  exception type are written, results.csv is not).

Identical config and seed reproduce byte-identical CSVs (only the JSON
timestamp field varies).
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from dataclasses import fields as dc_fields
from pathlib import Path

from .schrodinger import StabilityError
from .serialize import write_csv, write_json
from .suites import (
    SUITE_ANCHORS,
    ExperimentConfig,
    SuiteInternalError,
    apply_suite_defaults,
    list_suites,
    run_suite,
)

USAGE_ERROR = 2
SUITE_ERROR = 3
INTERNAL_ERROR = 4

_CONFIG_FIELDS = {
    "suite": str,
    "seed": int,
    "dim": int,
    "points": int,
    "half_width": float,
    "k_min": int,
    "k_max": int,
    "ensemble": int,
    "n_times": int,
    "horizon": float,
    "out": str,
}


def parse_config_file(path: str | Path) -> dict:
    """Flat key = value lines; '#' starts a comment."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _CONFIG_FIELDS[key](val.strip())
    return values


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="smoothlab",
        description="run one verification suite and write machine-readable reports",
    )
    ap.add_argument("--suite", help="suite name (see --list-suites)")
    ap.add_argument("--config", help="flat key=value config file")
    ap.add_argument("--seed", type=int, help="RNG seed (mandatory)")
    ap.add_argument("--grid", type=int, dest="points", help="points per axis (power of two)")
    ap.add_argument("--dim", type=int, help="space dimension")
    ap.add_argument("--shells", help="shell range as kmin:kmax")
    ap.add_argument("--ensemble", type=int, help="ensemble size")
    ap.add_argument("--half-width", type=float, dest="half_width", help="box half-width")
    ap.add_argument("--out", help="output directory (default: suite name)")
    ap.add_argument("--list-suites", action="store_true", help="print the suite catalog")
    return ap


def _error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return USAGE_ERROR


def _write_manifest(out_dir: Path, cfg: ExperimentConfig) -> None:
    # only the timestamp may differ between reruns of the same config
    write_json(out_dir / "manifest.json", {
        "suite": cfg.suite,
        "anchor": SUITE_ANCHORS[cfg.suite],
        "config": {f.name: getattr(cfg, f.name) for f in dc_fields(cfg)},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    })


def _write_report(out_dir: Path, cfg: ExperimentConfig, passed: bool, verdicts: list,
                  **fields) -> None:
    write_json(out_dir / "report.json", {
        "suite": cfg.suite,
        "anchor": SUITE_ANCHORS[cfg.suite],
        "passed": passed,
        "verdicts": verdicts,
        **fields,
    })


def _write_error_reports(out_dir: Path, cfg: ExperimentConfig, error: str) -> None:
    _write_manifest(out_dir, cfg)
    _write_report(out_dir, cfg, False, [], error=error)


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit(2) for usage errors already
        return int(exc.code or 0)

    if args.list_suites:
        for line in list_suites():
            print(line)
        return 0

    values: dict = {}
    if args.config:
        try:
            values.update(parse_config_file(args.config))
        except (OSError, ValueError) as exc:
            return _error(str(exc))
    explicit = set(values)
    for name in ("suite", "seed", "points", "dim", "ensemble", "half_width", "out"):
        val = getattr(args, name, None)
        if val is not None:
            values[name] = val
            explicit.add(name)
    if args.shells:
        try:
            k_min, k_max = (int(v) for v in args.shells.split(":"))
        except ValueError:
            return _error(f"--shells expects kmin:kmax, got {args.shells!r}")
        values["k_min"], values["k_max"] = k_min, k_max
        explicit |= {"k_min", "k_max"}

    if "suite" not in values:
        return _error("--suite is required (or provide it in --config)")
    if values["suite"] not in SUITE_ANCHORS:
        return _error(f"unknown suite {values['suite']!r}; see --list-suites")
    if "seed" not in values:
        return _error("--seed is required (determinism contract)")

    cfg = ExperimentConfig(**values)
    cfg = apply_suite_defaults(cfg, explicit)
    try:
        cfg.validate()
    except ValueError as exc:
        return _error(f"config: {exc}")

    out_dir = Path(cfg.out or cfg.suite)
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        start = time.time()
        result = run_suite(cfg)
        elapsed = time.time() - start
    except (ValueError, StabilityError) as exc:
        _write_error_reports(out_dir, cfg, str(exc))
        print(f"error: {cfg.suite} cannot run this config: {exc}", file=sys.stderr)
        return SUITE_ERROR
    except SuiteInternalError as exc:
        # a defect, not a verdict: keep it apart from exit 1 and still
        # leave a report behind
        traceback.print_exc()
        _write_error_reports(out_dir, cfg, str(exc))
        print(f"error: {cfg.suite} failed internally: {exc}", file=sys.stderr)
        return INTERNAL_ERROR

    _write_manifest(out_dir, cfg)
    _write_report(out_dir, cfg, result.passed, [v.__dict__ for v in result.verdicts],
                  detail=result.report)
    write_csv(out_dir / "results.csv", result.csv_rows)

    for v in result.verdicts:
        print(f"[{'PASS' if v.passed else 'FAIL'}] {cfg.suite}: {v.name} ({v.detail})")
    print(f"{cfg.suite}: {'all verdicts passed' if result.passed else 'verdict failure'} "
          f"in {elapsed:.1f}s; reports in {out_dir}/")
    return 0 if result.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
