"""Collect alternating parent/change perfbench records into one BENCH file.

perfbench/run.py writes one record per run to ``.perfbench_out/<workload>-seed<N>-trace0.json``
in the checkout it runs from, stamped with ``src_sha256``, a digest of that
checkout's ``src/``.  Run each seed once in a checkout of the parent commit and
once in the change's checkout, alternating which side goes first, then:

    python3 scripts/collect_bench.py --parent-src ../parent/src --change-src src \\
        --out BENCH_<n>.json ../parent/.perfbench_out .perfbench_out

Records are split into parent and change by comparing their ``src_sha256``
with the digests of the two ``src/`` trees (records of any other source are
skipped) and paired by (workload, seed).  The file gives every pair with
its end-to-end metrics and the workload's raw figures (for point_estimates,
the SE^2 x seconds of each estimator), and for each end-to-end metric of
BENCHMARK.json the medians and quartiles of both sides and the number of
pairs the change wins.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
from pathlib import Path

SIDES = ("parent", "change")


def src_digest(src: Path) -> str:
    """The digest perfbench/run.py stamps on a record: every file under src/ with its relative path."""
    digest = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _metrics(record: dict) -> dict:
    """The end-to-end metrics and failed share of a run, with the workload's raw figures under "named"."""
    result = record["result"]
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    values["failed_share"] = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    values["named"] = {name: entry["value"] for name, entry in record["named"][record["workload"]].items()}
    return values


def collect(record_dirs: list[Path], digests: dict, benchmark: dict) -> dict:
    side_of = {digest: side for side, digest in digests.items()}
    names = {workload["name"] for workload in benchmark["workloads"]}
    runs = {}  # (workload, seed) -> side -> (record, mtime)
    for directory in record_dirs:
        for path in sorted(directory.glob("*-seed*-trace0.json")):
            record = json.loads(path.read_text(encoding="utf-8"))
            side = side_of.get(record.get("src_sha256"))
            if side is None or record["workload"] not in names:
                continue
            slot = runs.setdefault((record["workload"], record["seed"]), {})
            if side in slot:
                raise SystemExit(f"two {side} records for {record['workload']} seed {record['seed']}: {path}")
            slot[side] = (record, path.stat().st_mtime)

    machine_keys = ("nproc", "python", "numpy", "scipy", "seconds", "budget")
    machine = None
    workloads: dict = {}
    for (workload, seed), slot in sorted(runs.items()):
        if set(slot) != set(SIDES):
            continue
        for record, _ in slot.values():
            this = {key: record[key] for key in machine_keys}
            if machine is None:
                machine = this
            elif this != machine:
                raise SystemExit(f"{workload} seed {seed} ran on another setup: {this} against {machine}")
        first = min(SIDES, key=lambda side: slot[side][1])
        pair = {"seed": seed, "first": first, **{side: _metrics(slot[side][0]) for side in SIDES}}
        workloads.setdefault(workload, {"pairs": []})["pairs"].append(pair)

    if not workloads:
        raise SystemExit("no complete parent/change pairs found")
    for entry in workloads.values():
        pairs = entry["pairs"]
        summary = {}
        for metric in [*benchmark["end_to_end"], {"name": "failed_share", "better": "lower"}]:
            name, sign = metric["name"], (1.0 if metric["better"] == "lower" else -1.0)
            if not all(name in p[side] for p in pairs for side in SIDES):
                continue
            row = {"better": metric["better"], "pairs": len(pairs)}
            for side in SIDES:
                q1, median, q3 = _quartiles([p[side][name] for p in pairs])
                row.update({f"{side}_q1": q1, f"{side}_median": median, f"{side}_q3": q3})
            row["change_better_in"] = sum(sign * (p["change"][name] - p["parent"][name]) < 0.0 for p in pairs)
            summary[name] = row
        entry["summary"] = summary
    return {
        "parent_src_sha256": digests["parent"],
        "change_src_sha256": digests["change"],
        "setup": machine,
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent-src", type=Path, required=True, help="src/ of the parent checkout")
    parser.add_argument("--change-src", type=Path, default=Path("src"), help="src/ of the change (default: src)")
    parser.add_argument("--benchmark", type=Path, default=Path("BENCHMARK.json"), help="(default: %(default)s)")
    parser.add_argument("--out", type=Path, required=True, help="BENCH file to write")
    parser.add_argument("record_dirs", type=Path, nargs="+", help="directories holding perfbench records")
    args = parser.parse_args(argv)

    digests = {"parent": src_digest(args.parent_src), "change": src_digest(args.change_src)}
    if digests["parent"] == digests["change"]:
        parser.error("the parent and change src/ trees are identical")
    benchmark = json.loads(args.benchmark.read_text(encoding="utf-8"))
    bench = collect(args.record_dirs, digests, benchmark)
    args.out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    for workload, entry in bench["workloads"].items():
        for name, row in entry["summary"].items():
            print(
                f"{workload:17s} {name:13s} parent {row['parent_median']:.6g} "
                f"[{row['parent_q1']:.6g}, {row['parent_q3']:.6g}]  change {row['change_median']:.6g} "
                f"[{row['change_q1']:.6g}, {row['change_q3']:.6g}]  change better in {row['change_better_in']}/{row['pairs']}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
