"""Record the benchmark's reference verdicts and headline constants.

    python3 bench/record.py

Runs each workload once, untraced, at ``REFERENCE_SEED`` and writes
``reference.json``.  The benchmark checks every seed against these
seed-0 values, so each tolerance in ``RTOL`` is relative and covers the
spread of that constant over the seeds recorded in README.md.
"""

from __future__ import annotations

import json
import sys

from run import OUT_ROOT, REFERENCE, WORKLOADS, launch

REFERENCE_SEED = 0

RTOL = {
    "kpv": {"max_ratio": 0.5, "rescale_drift": 1.0, "refinement_drift": 0.5},
    "phase-localization": {"forward_coarse": 0.02, "forward_fine": 0.02,
                           "backward_coarse": 0.02, "backward_fine": 0.02},
    "commutator-scan": {"slope_s0.5": 0.02, "slope_s-0.5": 0.02,
                        "diagonal_deviation": 0.1},
    "main-estimate": {"max_ratio": 0.5, "max_inflation": 0.01, "audit_total": 1e-6},
}


def main() -> int:
    workloads = {}
    for name in WORKLOADS:
        record = launch(name, REFERENCE_SEED, OUT_ROOT / name / "record")
        if record.get("exit_code") != 0:
            print(f"error: {name}: {record.get('error', record)}", file=sys.stderr)
            return 1
        workloads[name] = {
            "verdicts": sorted(record["verdicts"]),
            "constants": {c: {"value": record["constants"][c], "rtol": rtol}
                          for c, rtol in RTOL[name].items()},
        }
        print(f"{name}: {workloads[name]['constants']}")
    REFERENCE.write_text(json.dumps({"seed": REFERENCE_SEED, "workloads": workloads},
                                    indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
