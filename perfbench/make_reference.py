"""Regenerate reference.json: high-budget coverage values at the four point_estimates points.

Run from the root of a checkout:

    python3 perfbench/make_reference.py

Each value is a conditioned estimate at 2^22 runs; a naive estimate at the same
budget must agree with it within 4 combined SEs, or the script fails.  The
benchmark checks each 10k-run estimate against these values by tolerance
(4 SEs), never by bytes, so a change of random streams does not invalidate
the table.
"""

from __future__ import annotations

import json
import math
import sys

import run

RUNS = 1 << 22
SEED = 20_120_117


def main() -> int:
    pkg = run.load_package()
    mc, cfg = pkg["montecarlo"], pkg["config"]
    rows = []
    for point in run.POINTS:
        cond = mc.estimate_conditioned(point, cfg.geom, cfg.cfg, runs=RUNS, seed=SEED, n_jobs=run.nproc())
        naive = mc.estimate_naive(point, cfg.geom, cfg.cfg, runs=RUNS, seed=SEED, n_jobs=run.nproc())
        gap = abs(cond.estimate - naive.estimate)
        if gap > 4.0 * math.hypot(cond.se, naive.se):
            print(f"estimators disagree at {point}: {cond} vs {naive}", file=sys.stderr)
            return 1
        rows.append({"point": list(point), "value": cond.estimate, "se": cond.se, "naive": naive.estimate})
        print(f"{point}: {cond.estimate:.6f} +- {cond.se:.2e} (naive {naive.estimate:.6f})")
    doc = {
        "estimator": "conditioned",
        "runs": RUNS,
        "seed": SEED,
        "alpha": 0.05,
        "sig_tau": 0.10,
        "sig_xi": 0.10,
        "design": "bundled reference design",
        "points": rows,
    }
    run.REFERENCE.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
