"""Smoke-sized self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks, at a budget of a few seconds per workload, that every end-to-end
metric named in BENCHMARK.json appears on the untraced result line of every
workload and every per-layer metric on the traced one, that no operation
fails, and that a deliberately wrong reference value trips failed_share on
point_estimates.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

SMOKE = run.Budget(
    search_density=9,
    square_density=5,
    profile_points=11,
    search_runs=500,
    point_runs=10_000,
    deep_runs=1 << 14,
    oracle_runs=200,
    setups=1,
)
SECONDS = 0.2


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads differ from {run.WORKLOADS}")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if units != run.LAYER_UNITS:
        problems.append(f"BENCHMARK.json per-layer units differ on {sorted(set(units.items()) ^ set(run.LAYER_UNITS.items()))}")

    pkg = run.load_package()
    setup = run.measure_setup(SMOKE.setups)
    for workload in run.WORKLOADS:
        for trace in (False, True):
            result = run.run_workload(pkg, workload, 7, SECONDS, trace, SMOKE)
            line = run.result_line([result], trace, setup)
            missing = (layers if trace else e2e) - set(line["metrics"])
            extra = set(line["metrics"]) - (layers if trace else e2e)
            if missing or extra:
                problems.append(f"{workload} trace={trace}: missing {sorted(missing)}, extra {sorted(extra)}")
            if not line["correct"] or line["failed"]:
                problems.append(f"{workload} trace={trace}: {line['failed']} of {line['attempted']} failed")
            print(f"{workload:17s} trace={int(trace)} attempted={line['attempted']} failed={line['failed']}")

    wrong = run.load_reference()
    wrong[run.POINTS[2]] = (wrong[run.POINTS[2]][0] + 0.05, wrong[run.POINTS[2]][1])
    result = run.run_workload(pkg, "point_estimates", 7, SECONDS, False, SMOKE, reference=wrong)
    share = result["failed"] / result["attempted"]
    print(f"wrong reference: failed_share={share:.3f}")
    if share <= 0.0:
        problems.append("a wrong reference value did not trip failed_share")

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
