"""ancova-cp benchmark: four closed-loop workloads on the bundled reference design.

Run from the root of a checkout; the package is imported from ``src/``:

    python3 perfbench/run.py --workload point_estimates --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Every workload uses alpha 0.05 and both test levels 0.10, runs as a closed
loop with one client in one process, and uses at most ``nproc`` threads.
``ANCOVA_CP_THREADS`` must be unset, so inner estimates never open nested
pools; the benchmark refuses to run otherwise.

Workloads (one operation each):
  min_search        a restricted minimum search (9^3 cube lattice, two fitted
                    21-point line profiles, 9^2 slope-difference square, gate
                    corners; 2000 runs per point) at n_jobs=nproc, followed by
                    the ``min`` command's CSV and report.json outputs.
  point_estimates   one estimate_conditioned or estimate_naive call at 10k
                    runs and n_jobs=1, cycling over four slope points.  Each
                    call is the default ``cp`` call, seed 0 included; --seed
                    orders the requests.
  deep_point        one estimate of 2^18 runs (32 chunks) at (0, 0.1, 0) and
                    n_jobs=nproc, alternating the two estimators, seeded by
                    --seed and compared with an n_jobs=1 run made up front.
  oracle_agreement  one agreement_with_events call at the criterion-3 inputs
                    (beta (4, -2, 1.5, 0.3, -0.1, 0.2), sigma 2), 2000 runs.
Search and oracle operations each get their own seed derived from --seed.

With ``--trace 0`` the last line carries the end-to-end metrics, measured with
tracing off.  Operation times there are relative: each operation's wall time
divided by the time of a fixed calibration task run just before and just
after it, on as many threads as the operation uses (see Calibration for why).
  op_rel_p50    median relative time of one operation
  se2_rel       SE^2 x median relative time, averaged over the workload's
                distinct requests: work-normalised precision
  peak_rss_mb   peak resident set of the benchmark process
  setup_s       median over fresh interpreters of import, cli.resolve_config
                on a parsed argument list, geometry and cutoffs
The raw figures are printed above that line under the names the workload is
known by (search_s, estimate_ms_p50/p90, se2_s_conditioned/naive,
deep_draws_per_s, oracle_runs_per_s), with op_ms_p50, the tail percentile
and its sample count, the calibration time, and failed_share, which is the
result line's failed / attempted.

With ``--trace 1`` operations alternate between untraced and traced, spans
are kept in memory and written to ``.perfbench_out/`` when the run ends, and
the last line carries the per-layer metrics (see spans.py), the tracing
overhead and, on deep_point, the 1-thread against nproc-thread speed-up.

Each operation is checked; one that raises or fails its check counts as
failed.  A run record (nproc, Python/numpy/scipy versions, git revision or
source digest, seed, thread setting) is printed and written next to the
spans.  The reference values for the point checks come from reference.json,
which make_reference.py regenerates.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
from scipy import special

import spans

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
THREADS_ENV = "ANCOVA_CP_THREADS"

WORKLOADS = ("min_search", "point_estimates", "deep_point", "oracle_agreement")
SETUP_ARGV = ["cp", "--point", "0,0.1,0", "--alpha", "0.05", "--sig-tau", "0.10", "--sig-xi", "0.10"]
POINTS = ((0.0, 0.0, 0.0), (0.0, 0.05, 0.0), (0.0, 0.1, 0.0), (0.1, -0.05, 0.15))
DEEP_POINT = (0.0, 0.1, 0.0)
ORACLE_BETA = (4.0, -2.0, 1.5, 0.3, -0.1, 0.2)
ORACLE_SIGMA = 2.0
CP_DEFAULT_SEED = 0
CAL_SHARE = 0.05
ESTIMATORS = ("conditioned", "naive")

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
from ancova_cp import cli
run = cli.resolve_config(cli.build_parser().parse_args({argv!r}))
if run.geom.k != 3 or not run.cfg.l_tau > 0.0:
    raise SystemExit("unexpected reference configuration")
print(json.dumps({{"setup_s": time.perf_counter() - t0}}))
"""


# per-layer metrics: sums and counts are per traced request, 0 where the
# workload never enters the layer
LAYER_UNITS = {
    "design.setup_s": "s",
    "cli.setup_s": "s",
    "montecarlo.estimates": "count",
    "montecarlo.draws": "count",
    "montecarlo.estimate_s": "s",
    "montecarlo.self_s": "s",
    "montecarlo.ns_per_draw": "ns",
    "montecarlo.thread_speedup": "ratio",
    "montecarlo.se2_s_conditioned": "s",
    "montecarlo.se2_s_naive": "s",
    "conditional.rows": "count",
    "conditional.s": "s",
    "conditional.ns_per_row": "ns",
    "selection.batch_rows": "count",
    "selection.batch_s": "s",
    "selection.scalar_calls": "count",
    "selection.scalar_s": "s",
    "oracle.s": "s",
    "oracle.self_s": "s",
    "search.cube_s": "s",
    "search.profile_s": "s",
    "search.square_s": "s",
    "search.gate_s": "s",
    "search.fit_s": "s",
    "search.self_s": "s",
    "search.fanout_eff": "ratio",
    "search.estimates": "count",
    "search.write_s": "s",
    "search.bytes_written": "bytes",
    "trace.overhead_share": "ratio",
}


@dataclass(frozen=True)
class Budget:
    """Sizes of one operation per workload, and how many set-ups setup_s takes."""

    search_density: int = 9
    square_density: int = 9
    profile_points: int = 21
    search_runs: int = 2000
    point_runs: int = 10_000
    deep_runs: int = 1 << 18
    oracle_runs: int = 2000
    setups: int = 7


FULL = Budget()


class BenchError(Exception):
    """The benchmark cannot run here."""


@dataclass
class Op:
    key: str
    mode: str  # "plain", "traced", "serial" or "warmup"
    seconds: float
    work: int
    se: float
    ok: bool
    cal: float  # mean calibration time just before and just after

    @property
    def rel(self) -> float:
        return self.seconds / self.cal


class Calibration:
    """A fixed CPU task, independent of the package, timed next to every operation.

    On a 2-vCPU virtual machine whose cores are shared with other tenants,
    their load moved raw medians by up to 45% between runs of the same code.
    Dividing each operation's time by the time of this task, run just before
    and just after it, cancels most of that: over 15-second windows on that
    machine, the spread of the median fell from 17% to 7% on oracle_agreement
    and from 17% to 2% on point_estimates.  The task mixes what the package
    does: a Python loop of small matrix products (the oracle's per-run fits)
    and vectorised erfc over 8192-row blocks (the estimators' chunks).  It
    runs on as many threads at once as the workload's operations use, so a
    tenant loading either core shows in both.  One run takes about 3 ms;
    after a long operation it is repeated until it has taken about CAL_SHARE
    of the operation's time, so that the calibration of a one-second search
    is not a single 3 ms sample.
    """

    def __init__(self, threads: int):
        rng = np.random.default_rng(20120117)
        self._small = rng.standard_normal((6, 6))
        self._vec = rng.standard_normal(6)
        self._block = rng.standard_normal((8192, 3))
        self._threads = threads

    def _task(self, reps: int):
        for _ in range(reps):
            for _ in range(300):
                w = self._small @ self._vec
                math.sqrt(float(w @ w))
            for _ in range(3):
                special.erfc(self._block @ self._small[:3, :3]).sum()

    def __call__(self, reps: int = 1) -> float:
        """Run the task ``reps`` times on each thread; returns seconds per run."""
        start = time.perf_counter()
        if self._threads == 1:
            self._task(reps)
        else:
            workers = [threading.Thread(target=self._task, args=(reps,)) for _ in range(self._threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        return (time.perf_counter() - start) / reps


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load_package():
    """Import ancova_cp from the checkout's src/ and resolve the reference run config."""
    if os.environ.get(THREADS_ENV) is not None:
        raise BenchError(f"{THREADS_ENV} is set; unset it so estimates never open nested pools")
    if not (SRC / "ancova_cp" / "__init__.py").is_file():
        raise BenchError(f"no package at {SRC / 'ancova_cp'}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import ancova_cp
    from ancova_cp import cli, conditional, montecarlo, oracle, search

    if Path(ancova_cp.__file__).resolve().parent != (SRC / "ancova_cp").resolve():
        raise BenchError(f"imported ancova_cp from {ancova_cp.__file__}, not from {SRC}")
    pkg = {
        "cli": cli,
        "conditional": conditional,
        "montecarlo": montecarlo,
        "oracle": oracle,
        "search": search,
    }
    pkg["config"] = resolve(pkg)
    return pkg


def resolve(pkg):
    cli = pkg["cli"]
    return cli.resolve_config(cli.build_parser().parse_args(SETUP_ARGV))


def measure_setup(count: int) -> float:
    """Median set-up time over ``count`` fresh interpreters, after one warm-up."""
    code = SETUP_CODE.format(src=str(SRC), argv=SETUP_ARGV)
    times = []
    for _ in range(count + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times[1:])


def run_record(workload: str, seed: int, seconds: float, trace: bool, budget: Budget) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            rev = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            rev = None
    digest = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_revision": rev,
        "src_sha256": digest.hexdigest(),
        THREADS_ENV: "unset",
        "budget": dataclasses.asdict(budget),
    }


def load_reference(path=REFERENCE) -> dict:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return {tuple(row["point"]): (row["value"], row["se"]) for row in doc["points"]}


# ---------------------------------------------------------------------------
# workloads: each is a list of requests plus one call and one check per request
# ---------------------------------------------------------------------------


def op_seed(seed: int, i: int) -> int:
    """Estimator seed of operation i (-1 for the warm-up) of a run with workload seed ``seed``."""
    return seed * 100_000 + i + 1


def _search_request(pkg, seed: int, budget: Budget, tracer):
    search = pkg["search"]
    run = pkg["config"]

    def op_config(i):
        return search.SearchConfig(
            geom=run.geom,
            cfg=run.cfg,
            estimator="conditioned",
            cube=search.GridSpec((-0.25, 0.25), budget.search_density, budget.search_runs, op_seed(seed, i)),
            square=search.GridSpec((-0.2, 0.2), budget.square_density, budget.search_runs, op_seed(seed, i)),
            profile_points=budget.profile_points,
            n_jobs=nproc(),
        )
    out_dir = OUT / "min_search"

    def est_dict(est):
        return {
            "point": list(est.point.values),
            "estimate": est.estimate,
            "se": est.se,
            "runs": est.runs,
            "estimator": est.estimator,
            "seed": est.seed,
        }

    def write(report):
        out_dir.mkdir(parents=True, exist_ok=True)
        search.write_grid_csv(list(report.cube_table), out_dir / "cube.csv")
        search.write_grid_csv([(est.point, est) for _, est in report.square_table], out_dir / "square.csv")
        names = ["cube.csv", "square.csv", "report.json"]
        for i, profile in enumerate(report.profiles):
            search.write_profile_csv(profile, out_dir / f"profile_{i + 1}.csv")
            names.append(f"profile_{i + 1}.csv")
        payload = {
            "min1": est_dict(report.min1),
            "min2": est_dict(report.min2),
            "overall": est_dict(report.overall),
            "argmin": list(report.argmin.values),
            "lines": [
                {"direction": list(ln.direction), "offsets": list(ln.offsets), "c_range": list(ln.c_range)}
                for ln in report.lines or ()
            ],
            "profile_minima": [
                {"offsets": list(p.line.offsets), "c_min": p.c_min, "cp_min": p.cp_min} for p in report.profiles
            ],
            "diagnostics": report.diagnostics,
        }
        (out_dir / "report.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        return sum((out_dir / name).stat().st_size for name in names)

    def call(mode, i):
        report = search.min_cp_search(op_config(i))
        if mode == "traced":
            with tracer.span("search.write") as box:
                box["amount"] = write(report)
        else:
            write(report)
        draws = sum(est.runs for _, est in report.cube_table) + sum(est.runs for _, est in report.square_table)
        draws += sum(sum(est.runs for est in p.estimates) + budget.search_runs for p in report.profiles)
        draws += len(report.diagnostics["gates"]) * budget.search_runs
        return report, draws, report.overall.se

    def check(report):
        if report.lines is None or len(report.profiles) != 2:
            return False
        for profile in report.profiles:
            values = [est.estimate for est in profile.estimates]
            if not 0 < values.index(min(values)) < len(values) - 1:
                return False
        return report.overall.estimate < 0.75 and report.min1.estimate < report.min2.estimate

    return [("search", call, check)]


def _point_requests(pkg, seed: int, budget: Budget, reference: dict):
    mc = pkg["montecarlo"]
    run = pkg["config"]
    latest: dict = {}
    requests = []
    for point in POINTS:
        for name in ESTIMATORS:

            def call(mode, i, point=point, name=name):
                fn = getattr(mc, f"estimate_{name}")
                est = fn(point, run.geom, run.cfg, runs=budget.point_runs, seed=CP_DEFAULT_SEED, n_jobs=1)
                return est, est.runs, est.se

            def check(est, point=point, name=name):
                value, ref_se = reference[point]
                ok = abs(est.estimate - value) <= 4.0 * (est.se**2 + ref_se**2) ** 0.5
                other = latest.get((point, ESTIMATORS[1 - ESTIMATORS.index(name)]))
                if other is not None:
                    ok = ok and abs(est.estimate - other.estimate) <= 3.0 * (est.se**2 + other.se**2) ** 0.5
                latest[(point, name)] = est
                return ok

            requests.append((f"{name}@{point}", call, check))
    random.Random(seed).shuffle(requests)
    return requests


def _deep_requests(pkg, seed: int, budget: Budget):
    mc = pkg["montecarlo"]
    run = pkg["config"]
    requests = []
    for name in ESTIMATORS:
        fn = getattr(mc, f"estimate_{name}")
        # the n_jobs=1 reference is made here, outside the timed loop
        serial = fn(DEEP_POINT, run.geom, run.cfg, runs=budget.deep_runs, seed=seed, n_jobs=1)

        def call(mode, i, name=name):
            jobs = 1 if mode == "serial" else nproc()
            est = getattr(mc, f"estimate_{name}")(
                DEEP_POINT, run.geom, run.cfg, runs=budget.deep_runs, seed=seed, n_jobs=jobs
            )
            return est, est.runs, est.se

        def check(est, serial=serial):
            return est.estimate == serial.estimate and est.se == serial.se

        requests.append((name, call, check))
    return requests


def _oracle_request(pkg, seed: int, budget: Budget):
    oracle = pkg["oracle"]
    run = pkg["config"]
    a = np.asarray(run.contrast.a)

    def call(mode, i):
        rep = oracle.agreement_with_events(
            np.asarray(ORACLE_BETA), ORACLE_SIGMA, run.layout, run.geom, run.cfg, a,
            runs=budget.oracle_runs, seed=op_seed(seed, i),
        )
        return rep, rep.raw.runs, rep.raw.se

    def check(rep):
        return rep.agreement >= 0.999 and rep.worst_rss_rel_error <= 1e-8

    return [("oracle", call, check)]


def requests_for(workload, pkg, seed, budget, reference, tracer):
    if workload == "min_search":
        return _search_request(pkg, seed, budget, tracer)
    if workload == "point_estimates":
        return _point_requests(pkg, seed, budget, reference)
    if workload == "deep_point":
        return _deep_requests(pkg, seed, budget)
    return _oracle_request(pkg, seed, budget)


def closed_loop(requests, seconds: float, modes, tracer, threads: int) -> list[Op]:
    """One client: each request is sent when the previous one has returned.

    Every distinct request runs once untimed first, so lazy set-up and first
    thread-pool start are not timed; it is still checked and counted.
    """
    ops = []
    calibrate = Calibration(threads)
    cal_before = calibrate()

    def one(i, key, call, check, mode, timed):
        nonlocal cal_before
        if mode == "traced":
            tracer.request = i
            tracer.install()
        start = time.perf_counter()
        try:
            result, work, se = call(mode, i)
        except Exception:
            traceback.print_exc()
            result, work, se = None, 0, float("nan")
        elapsed = time.perf_counter() - start
        if mode == "traced":
            tracer.uninstall()
        cal_after = calibrate(max(1, int(CAL_SHARE * elapsed / cal_before)))
        cal = 0.5 * (cal_before + cal_after)
        cal_before = cal_after
        try:
            ok = result is not None and bool(check(result))
        except Exception:
            traceback.print_exc()
            ok = False
        ops.append(Op(key, mode if timed else "warmup", elapsed, work, se, ok, cal))

    for key, call, check in requests:
        one(-1, key, call, check, "plain", False)
    # modes change per full pass over the requests, so each mode sees every request
    passes = len(requests) * len(modes)
    deadline = time.perf_counter() + seconds
    i = 0
    while i < passes or time.perf_counter() < deadline:
        key, call, check = requests[i % len(requests)]
        one(i, key, call, check, modes[(i // len(requests)) % len(modes)], True)
        i += 1
    return ops


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail_percentile(n: int) -> float:
    """The highest of p90, p99 and p99.9 with at least ten of n samples beyond it, else p50."""
    return max([50.0] + [pct for pct in (90.0, 99.0, 99.9) if n * (100.0 - pct) / 100.0 >= 10.0])


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[round(pct / 100.0 * (len(ordered) - 1))]


def se2(ops: list[Op], rel: bool) -> float:
    """Mean SE^2 x median time per distinct request, averaged over the requests.

    The time is in seconds, or relative to the calibration task when ``rel``.
    """
    figures = []
    for key in sorted({op.key for op in ops}):
        mine = [op for op in ops if op.key == key]
        times = [op.rel if rel else op.seconds for op in mine]
        figures.append(statistics.fmean(op.se**2 for op in mine) * statistics.median(times))
    return statistics.fmean(figures)


def end_to_end(ops: list[Op]) -> dict:
    """The bounded metrics: operation time relative to the calibration task."""
    timed = [op for op in ops if op.mode == "plain"]
    return {
        "op_rel_p50": (statistics.median(op.rel for op in timed), "ratio"),
        "se2_rel": (se2(timed, rel=True), "ratio"),
    }


def named_metrics(workload: str, ops: list[Op]) -> dict:
    """Raw figures under the names the issue tracker uses, with the tail percentile."""
    timed = [op for op in ops if op.mode == "plain"]
    seconds = [op.seconds for op in timed]
    p50 = statistics.median(seconds)
    out: dict = {}
    if workload == "min_search":
        out["search_s"] = (p50, "s")
    elif workload == "point_estimates":
        out["estimate_ms_p50"] = (p50 * 1e3, "ms")
        out["estimate_ms_p90"] = (percentile(seconds, 90.0) * 1e3, "ms")
        for name in ESTIMATORS:
            out[f"se2_s_{name}"] = (se2([op for op in timed if op.key.startswith(name)], rel=False), "s")
    elif workload == "deep_point":
        out["deep_draws_per_s"] = (sum(op.work for op in timed) / sum(seconds), "1/s")
    else:
        out["oracle_runs_per_s"] = (sum(op.work for op in timed) / sum(seconds), "1/s")
    out["op_ms_p50"] = (p50 * 1e3, "ms")
    pct = tail_percentile(len(seconds))
    if pct > 50.0:
        out[f"op_ms_p{pct:g}"] = (percentile(seconds, pct) * 1e3, "ms")
    out["samples"] = (len(seconds), "count")
    out["calibration_ms_p50"] = (statistics.median(op.cal for op in timed) * 1e3, "ms")
    return out


def per_layer(ops: list[Op], tracer, n_jobs: int) -> dict:
    traced = [op for op in ops if op.mode == "traced"]
    plain = [op for op in ops if op.mode == "plain"]
    serial = [op for op in ops if op.mode == "serial"]
    layers = spans.workload_layers(
        [s for s in tracer.spans if isinstance(s[5], int)], len(traced), n_jobs
    )
    layers.update(spans.setup_layers([s for s in tracer.spans if isinstance(s[5], str)]))
    p50_plain = statistics.median(op.rel for op in plain)
    layers["trace.overhead_share"] = statistics.median(op.rel for op in traced) / p50_plain - 1.0
    layers["montecarlo.thread_speedup"] = (
        statistics.median(op.rel for op in serial) / p50_plain if serial else 0.0
    )
    for name in ESTIMATORS:
        mine = [op for op in plain if op.key.startswith(name)]
        layers[f"montecarlo.se2_s_{name}"] = se2(mine, rel=False) if mine else 0.0
    return layers


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_workload(pkg, workload, seed, seconds, trace, budget=FULL, reference=None) -> dict:
    """Run one workload; returns ops, metrics and its share of the result line."""
    reference = load_reference() if reference is None else reference
    tracer = spans.Tracer(spans.layer_bindings(pkg)) if trace else None
    if trace:
        modes = ["plain", "traced", "serial"] if workload == "deep_point" else ["plain", "traced"]
        # traced set-ups give design.setup_s and cli.setup_s
        for i in range(max(3, budget.setups)):
            tracer.request = f"setup-{i}"
            tracer.install()
            try:
                resolve(pkg)
            finally:
                tracer.uninstall()
    else:
        modes = ["plain"]
    requests = requests_for(workload, pkg, seed, budget, reference, tracer)
    threads = 1 if workload in ("point_estimates", "oracle_agreement") else nproc()
    ops = closed_loop(requests, seconds, modes, tracer, threads)
    failed = sum(not op.ok for op in ops)
    out = {"workload": workload, "attempted": len(ops), "failed": failed, "named": named_metrics(workload, ops)}
    if trace:
        layers = per_layer(ops, tracer, nproc())
        out["metrics"] = {name: (layers[name], unit) for name, unit in LAYER_UNITS.items()}
        out["tracer"] = tracer
    else:
        out["metrics"] = end_to_end(ops)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def result_line(results, trace: bool, setup=None) -> dict:
    """The last output line: one workload's metrics, or every workload's prefixed by its name."""
    common = {} if trace else {"setup_s": (setup, "s"), "peak_rss_mb": (peak_rss_mb(), "MB")}
    if len(results) == 1:
        metrics = {**results[0]["metrics"], **common}
    else:
        metrics = {
            f"{r['workload']}.{name}": m
            for r in results
            for name, m in (r["metrics"] if trace else {**r["named"], **r["metrics"]}).items()
        }
        metrics.update(common)
    failed = sum(r["failed"] for r in results)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")

    try:
        pkg = load_package()
        trace = bool(args.trace)
        setup = None if trace else measure_setup(FULL.setups)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    record = run_record(args.workload, args.seed, args.seconds, trace, FULL)
    print("record " + json.dumps(record))
    OUT.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(pkg, name, args.seed, args.seconds, trace) for name in names]
    line = result_line(results, trace, setup)
    for r in results:
        shown = {**r["named"], **({} if trace else r["metrics"])}
        shown["failed_share"] = (r["failed"] / r["attempted"], "ratio")
        for name, (value, unit) in shown.items():
            print(f"{r['workload']:17s} {name:28s} {value:.6g} {unit}")
        if trace:
            r["tracer"].write(OUT / f"spans-{r['workload']}-seed{args.seed}.jsonl.gz")
    for name in ("setup_s", "peak_rss_mb"):
        if name in line["metrics"]:
            print(f"{'(process)':17s} {name:28s} {line['metrics'][name]['value']:.6g} {line['metrics'][name]['unit']}")

    record["result"] = line
    record["named"] = {
        r["workload"]: {name: {"value": v, "unit": u} for name, (v, u) in r["named"].items()} for r in results
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
