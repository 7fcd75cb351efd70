"""Command line interface.

Subcommands: cp, grid, lines, profile, min, oracle, quantiles.  A JSON config
file supplies the design (keys k, n, x, contrast) and optional run defaults
(alpha, sig_tau, sig_xi, runs, seed, estimator); flags override file values;
without a config the bundled reference design is used.  Each subcommand takes
only the flags it reads: quantiles no --runs, --seed or --estimator, oracle no
--estimator, and only cp --estimator both.  The thread count for chunk fan-out
comes from the ANCOVA_CP_THREADS environment variable.

Every table row carries the seed, run count and estimator that produced it,
and rerunning a command with the same inputs reproduces output files byte
for byte.  Diagnostics (for example a boundary rejection probability below
its target) are printed as warnings; the exit status is nonzero only when a
computation could not be completed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__, montecarlo
from .design import (
    AncovaLayout,
    ContrastSpec,
    GeometryBundle,
    TwoStageConfig,
    _parse_design,
    _read_json_object,
    build_geometry,
    critical_values,
    reference_design,
)
from .errors import AncovaError, DomainError, check_count, check_real, check_reals
from .montecarlo import CoverageEstimate, default_workers
from .oracle import _check_inputs, agreement_with_events
from .search import (
    GridSpec,
    LineLocus,
    SearchConfig,
    fit_low_cp_lines,
    grid_eval,
    line_profile,
    min_cp_search,
    write_grid_csv,
    write_profile_csv,
)

_RUN_KEYS = ("alpha", "sig_tau", "sig_xi", "runs", "seed", "estimator")
# the lattice and search flags default to the library's own settings
_DEFAULTS = SearchConfig(geom=None, cfg=None)


@dataclass(frozen=True)
class RunConfig:
    """Resolved inputs of one CLI invocation."""

    layout: AncovaLayout
    contrast: ContrastSpec
    geom: GeometryBundle
    cfg: TwoStageConfig
    runs: int
    seed: int
    estimator: str
    out: str | None


def _parse_floats(text: str, what: str, expect: int | None = None) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what} must be comma-separated numbers, got {text!r}")
    if expect is not None and len(values) != expect:
        raise argparse.ArgumentTypeError(f"{what} needs {expect} values, got {len(values)}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ancova-cp",
        description="Coverage probability of the interval selected by a two-stage F-test "
        "procedure in one-way ANCOVA.",
        epilog="Thread count for parallel evaluation: set ANCOVA_CP_THREADS to a positive integer (default 1).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    levels = argparse.ArgumentParser(add_help=False)
    levels.add_argument("--config", help="JSON file with the design and run defaults")
    levels.add_argument("--alpha", type=float, help="nominal non-coverage level (default 0.05)")
    levels.add_argument("--sig-tau", type=float, help="level of the first-stage F test (default 0.10)")
    levels.add_argument("--sig-xi", type=float, help="level of the second-stage F test (default 0.10)")
    levels.add_argument("--out", help="output file (directory for min)")
    budget = argparse.ArgumentParser(add_help=False, parents=[levels])
    budget.add_argument("--runs", type=int, help="Monte Carlo runs per estimate (default 10000)")
    budget.add_argument("--seed", type=int, help="stream seed (default 0)")
    single = argparse.ArgumentParser(add_help=False, parents=[budget])
    single.add_argument("--estimator", choices=["naive", "conditioned"], help="estimator to use (default conditioned)")
    point_arg = functools.partial(_parse_floats, what="--point")
    pair_arg = functools.partial(_parse_floats, what="an interval flag", expect=2)

    sub = parser.add_subparsers(dest="command", required=True)

    p_cp = sub.add_parser("cp", parents=[budget], help="coverage probability at one slope point")
    p_cp.add_argument(
        "--estimator", choices=["naive", "conditioned", "both"], help="estimator to use (default conditioned)"
    )
    p_cp.add_argument("--point", type=point_arg, required=True, help="true scaled slopes, e.g. 0,0.1,0")
    p_cp.add_argument(
        "--thresholds-off",
        action="store_true",
        help="set both cutoffs to zero so the separate-slopes interval is always used",
    )

    cube, square = _DEFAULTS.cube, _DEFAULTS.square
    p_grid = sub.add_parser("grid", parents=[single], help="coverage over a lattice on the cube")
    p_lines = sub.add_parser("lines", parents=[single], help="fit the two low-coverage line loci")
    p_prof = sub.add_parser("profile", parents=[single], help="coverage along one line locus")
    p_min = sub.add_parser("min", parents=[single], help="restricted minimum-coverage search")
    for p in (p_grid, p_lines, p_min):
        p.add_argument("--bounds", type=pair_arg, default=cube.bounds, help="axis bounds lo,hi (default %(default)s)")
        p.add_argument("--density", type=int, default=cube.points_per_axis, help="axis points (default %(default)s)")
    for p in (p_lines, p_min):
        p.add_argument(
            "--threshold", type=float, default=_DEFAULTS.threshold, help="low-coverage cutoff (default %(default)s)"
        )
    p_min.add_argument(
        "--square-bounds", type=pair_arg, default=square.bounds, help="slope-difference bounds (default %(default)s)"
    )
    p_min.add_argument(
        "--square-density", type=int, default=square.points_per_axis, help="square axis points (default %(default)s)"
    )
    p_min.add_argument(
        "--profile-points", type=int, default=_DEFAULTS.profile_points, help="points per profile (default %(default)s)"
    )

    p_prof.add_argument(
        "--offsets", type=functools.partial(_parse_floats, what="--offsets"), required=True,
        help="per-axis offsets, e.g. 0,0.088,0.041",
    )
    p_prof.add_argument(
        "--c-range", type=pair_arg, default=cube.bounds, help="range of the line parameter (default %(default)s)"
    )
    p_prof.add_argument(
        "--points", type=int, default=_DEFAULTS.profile_points, help="profile points (default %(default)s)"
    )

    p_orc = sub.add_parser("oracle", parents=[budget], help="raw-data pipeline with agreement check")
    p_orc.add_argument("--point", type=point_arg, required=True, help="true scaled slopes")
    p_orc.add_argument("--sigma", type=float, default=1.0, help="error standard deviation (default 1.0)")

    sub.add_parser("quantiles", parents=[levels], help="print the cutoffs and t critical points")

    return parser


def _load_file_config(path: str | None) -> tuple[dict, AncovaLayout | None, ContrastSpec | None]:
    if path is None:
        return {}, None, None
    doc = _read_json_object(path)
    unknown = set(doc) - set(_RUN_KEYS) - {"k", "n", "x", "contrast"}
    if unknown:
        raise DomainError(f"{path}: unknown keys {sorted(unknown)}")
    layout = contrast = None
    if any(key in doc for key in ("k", "n", "x", "contrast")):
        layout, contrast = _parse_design(doc, path)
    # one document for every command: its budget and estimator are checked whether the command reads them or not
    for key, low in (("runs", 1), ("seed", 0)):
        check_count(key, doc.get(key, low), low)
    if doc.get("estimator", "both") not in ("naive", "conditioned", "both"):
        raise DomainError(f"estimator must be one of ['both', 'conditioned', 'naive'], got {doc['estimator']!r}")
    return {key: doc[key] for key in _RUN_KEYS if key in doc}, layout, contrast


def _check_out(command: str, out: str | None) -> None:
    """Refuse an --out that cannot be written, so no command computes before it fails to save."""
    if out is None:
        return
    path = Path(out)
    if command == "min":
        # min makes the directory, with any missing parents
        if path.exists() and not path.is_dir():
            raise DomainError(f"--out must name a directory for min, got the file {out!r}")
    elif path.is_dir() or not path.parent.is_dir():
        raise DomainError(f"--out must name a file in an existing directory, got {out!r}")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    _check_out(args.command, args.out)
    file_cfg, layout, contrast = _load_file_config(args.config)
    if layout is None:
        layout, contrast = reference_design()

    def pick(flag, key, fallback):
        if flag is not None:
            return flag
        return file_cfg.get(key, fallback)

    # quantiles takes no budget and only cp, grid, lines, profile and min an estimator
    runs = check_count("runs", pick(getattr(args, "runs", None), "runs", 10_000), 1)
    seed = check_count("seed", pick(getattr(args, "seed", None), "seed", 0), 0)
    estimator = str(pick(getattr(args, "estimator", None), "estimator", "conditioned"))

    geom = build_geometry(layout, contrast)
    cfg = critical_values(
        layout, pick(args.alpha, "alpha", 0.05), pick(args.sig_tau, "sig_tau", 0.10), pick(args.sig_xi, "sig_xi", 0.10)
    )
    return RunConfig(
        layout=layout,
        contrast=contrast,
        geom=geom,
        cfg=cfg,
        runs=runs,
        seed=seed,
        estimator=estimator,
        out=args.out,
    )


def _est_line(est: CoverageEstimate) -> str:
    point = ",".join(str(v) for v in est.point.values)
    return (
        f"point=({point}) estimator={est.estimator} estimate={est.estimate:.6f} "
        f"se={est.se:.6f} runs={est.runs} seed={est.seed}"
    )


def _est_dict(est: CoverageEstimate) -> dict:
    return {
        "point": list(est.point.values),
        "estimate": est.estimate,
        "se": est.se,
        "runs": est.runs,
        "estimator": est.estimator,
        "seed": est.seed,
    }


def _grid_spec(args, run: RunConfig) -> GridSpec:
    return GridSpec(bounds=args.bounds, points_per_axis=args.density, runs=run.runs, seed=run.seed)


def cmd_cp(args, run: RunConfig) -> int:
    cfg = run.cfg
    if args.thresholds_off:
        cfg = dataclasses.replace(cfg, l_tau=0.0, l_xi=0.0)
    names = ["naive", "conditioned"] if run.estimator == "both" else [run.estimator]
    estimates = [montecarlo.estimate_points([args.point], run.geom, cfg, name, run.runs, run.seed)[0] for name in names]
    for est in estimates:
        print(_est_line(est))
    if len(estimates) == 2:
        gap = abs(estimates[0].estimate - estimates[1].estimate)
        bar = 3.0 * float(np.hypot(estimates[0].se, estimates[1].se))
        if gap > bar:
            print(
                f"warning: estimators differ by {gap:.6f}, more than 3 combined SEs ({bar:.6f})",
                file=sys.stderr,
            )
    if run.out:
        write_grid_csv([(e.point, e) for e in estimates], run.out)
        print(f"wrote {run.out}")
    return 0


def cmd_grid(args, run: RunConfig) -> int:
    spec = _grid_spec(args, run)
    table = grid_eval(spec, run.estimator, run.geom, run.cfg)
    best = min((est for _, est in table), key=lambda e: e.estimate)
    out = run.out or "grid.csv"
    write_grid_csv(table, out)
    print(f"wrote {len(table)} rows to {out}")
    print("minimum " + _est_line(best))
    return 0


def _lines_payload(lines: tuple[LineLocus, LineLocus]) -> dict:
    return {
        f"line{i + 1}": {
            "direction": list(line.direction),
            "offsets": list(line.offsets),
            "c_range": list(line.c_range),
        }
        for i, line in enumerate(lines)
    }


def cmd_lines(args, run: RunConfig) -> int:
    spec = _grid_spec(args, run)
    table = grid_eval(spec, run.estimator, run.geom, run.cfg)
    lines = fit_low_cp_lines(table, args.threshold)
    payload = json.dumps(_lines_payload(lines), indent=2)
    if run.out:
        Path(run.out).write_text(payload + "\n", encoding="utf-8")
        print(f"wrote {run.out}")
    print(payload)
    return 0


def cmd_profile(args, run: RunConfig) -> int:
    line = LineLocus(direction=(1.0,) * run.geom.k, offsets=args.offsets, c_range=args.c_range)
    profile = line_profile(line, run.geom, run.cfg, args.points, run.runs, run.seed, run.estimator)
    out = run.out or "profile.csv"
    write_profile_csv(profile, out)
    print(f"wrote {len(profile.cs)} rows to {out}")
    print(f"profile minimum: c={profile.c_min:.6f} estimate={profile.cp_min:.6f}")
    return 0


def cmd_min(args, run: RunConfig) -> int:
    square = GridSpec(bounds=args.square_bounds, points_per_axis=args.square_density, runs=run.runs, seed=run.seed)
    config = SearchConfig(
        geom=run.geom,
        cfg=run.cfg,
        estimator=run.estimator,
        cube=_grid_spec(args, run),
        square=square,
        threshold=args.threshold,
        profile_points=args.profile_points,
    )
    report = min_cp_search(config)

    out_dir = Path(run.out or "min_search")
    out_dir.mkdir(parents=True, exist_ok=True)
    write_grid_csv(list(report.cube_table), out_dir / "cube.csv")
    write_grid_csv([(est.point, est) for _, est in report.square_table], out_dir / "square.csv")
    for i, profile in enumerate(report.profiles):
        write_profile_csv(profile, out_dir / f"profile_{i + 1}.csv")
    payload = {
        "min1": _est_dict(report.min1),
        "min2": _est_dict(report.min2),
        "overall": _est_dict(report.overall),
        "argmin": list(report.argmin.values),
        "lines": _lines_payload(report.lines) if report.lines else None,
        "profile_minima": [
            {"offsets": list(p.line.offsets), "c_min": p.c_min, "cp_min": p.cp_min}
            for p in report.profiles
        ],
        "diagnostics": report.diagnostics,
    }
    (out_dir / "report.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    # how the run was made: it varies with the machine and the thread count, so it stays out of report.json
    record = dict(
        threads=default_workers(), seed=run.seed, runs=run.runs, ancova_cp=__version__, numpy=np.__version__,
        scipy=scipy.__version__, malloc_thresholds_set=montecarlo.MALLOC_THRESHOLDS_SET,
    )
    (out_dir / "run.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print("min1    " + _est_line(report.min1))
    print("min2    " + _est_line(report.min2))
    print("overall " + _est_line(report.overall))
    print(f"wrote report and tables to {out_dir}")
    for warning in report.diagnostics["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def cmd_oracle(args, run: RunConfig) -> int:
    k = run.geom.k
    sigma = check_real("--sigma", args.sigma)
    slopes = [sigma * v for v in check_reals("--point", args.point, k).tolist()]
    beta, sigma, _ = _check_inputs(np.concatenate([np.zeros(k), slopes]), sigma, run.layout, ("--point", "--sigma"))
    report = agreement_with_events(
        beta,
        sigma,
        run.layout,
        run.geom,
        run.cfg,
        np.asarray(run.contrast.a),
        runs=run.runs,
        seed=run.seed,
    )
    print("raw     " + _est_line(report.raw))
    print(f"event-path rate={report.event_rate:.6f}")
    print(f"agreement={report.agreement:.6f} worst_rss_rel_error={report.worst_rss_rel_error:.3e}")
    if report.agreement < 0.999:
        print(f"warning: agreement {report.agreement:.6f} below 0.999", file=sys.stderr)
    if run.out:
        payload = {
            "raw": _est_dict(report.raw),
            "event_rate": report.event_rate,
            "agreement": report.agreement,
            "worst_rss_rel_error": report.worst_rss_rel_error,
        }
        Path(run.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {run.out}")
    return 0


def cmd_quantiles(args, run: RunConfig) -> int:
    cfg, layout = run.cfg, run.layout
    k, m = layout.k, layout.m
    rows = [
        (f"first-stage F cutoff (df {k}, {m}; level {cfg.sig_tau})", cfg.l_tau),
        (f"second-stage F cutoff (df {k - 1}, {m}; level {cfg.sig_xi})", cfg.l_xi),
        (f"t critical point, separate-slopes interval (df {m})", cfg.t_m),
        (f"t critical point, zero-slopes interval (df {m + k})", cfg.t_mk),
        (f"t critical point, common-slope interval (df {m + k - 1})", cfg.t_mk1),
    ]
    for label, value in rows:
        print(f"{label}: {value:.10f}")
    if run.out:
        Path(run.out).write_text(json.dumps(dataclasses.asdict(cfg), indent=2) + "\n", encoding="utf-8")
        print(f"wrote {run.out}")
    return 0


_COMMANDS = {
    "cp": cmd_cp,
    "grid": cmd_grid,
    "lines": cmd_lines,
    "profile": cmd_profile,
    "min": cmd_min,
    "oracle": cmd_oracle,
    "quantiles": cmd_quantiles,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run = resolve_config(args)
        return _COMMANDS[args.command](args, run)
    except (AncovaError, OSError, MemoryError) as exc:  # MemoryError: a lattice or profile too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
