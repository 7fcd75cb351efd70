"""Restricted search for the minimum coverage probability over slope space.

Coverage depends on the true gammas only through the slope block, so the
search space is the k-dimensional scaled slope space.  Outside a central
cube the first-stage test rejects with probability close to one and the
procedure degenerates to its second stage; the second-stage-only coverage
in turn depends only on slope differences and drops toward 1 - alpha once
those differences leave a central square.  The search therefore combines

  min1: minimum over a lattice on the cube, sharpened by fitting line loci
        through the low-coverage lattice points (slope-difference level
        sets run parallel to the all-ones direction) and profiling along
        those lines;
  min2: minimum of the second-stage-only coverage over a lattice of slope
        differences, realized by pinning the first slope at a large offset;

and reports the smaller of the two.  Gate probabilities on the region
boundaries are attached as diagnostics, since the restriction argument
needs the relevant test to reject there with probability close to one.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .design import GeometryBundle, TwoStageConfig
from .errors import DomainError, InsufficientLowCPPoints
from .montecarlo import (
    CoverageEstimate,
    SlopePoint,
    estimate_conditioned,
    estimate_naive,
    estimate_points,
    gate_probability,  # noqa: F401  kept importable here: perfbench/spans.py traces this name
    thread_pool,
)

__all__ = [
    "GridSpec",
    "LineLocus",
    "LineProfile",
    "SearchConfig",
    "MinSearchReport",
    "grid_points",
    "grid_eval",
    "fit_low_cp_lines",
    "line_profile",
    "second_test_only_cp",
    "min_cp_search",
    "write_grid_csv",
    "write_profile_csv",
]

_ESTIMATORS = {"naive": estimate_naive, "conditioned": estimate_conditioned}


def _resolve_estimator(name: str):
    try:
        return _ESTIMATORS[name]
    except KeyError:
        raise DomainError(f'estimator must be one of {sorted(_ESTIMATORS)}, got {name!r}') from None


def _estimate_at(points, estimator: str, geom, cfg, a, runs, seed, n_jobs):
    """Naive or conditioned estimates at every point, from one shared set of draws."""
    _resolve_estimator(estimator)
    return estimate_points(points, geom, cfg, estimator, a, runs=runs, seed=seed, n_jobs=n_jobs)


@dataclass(frozen=True)
class GridSpec:
    """A lattice over slope space: bounds, density, and the estimation budget.

    bounds is either one (lo, hi) pair applied to every axis or a tuple of
    per-axis pairs.
    """

    bounds: tuple = (-0.25, 0.25)
    points_per_axis: int = 21
    runs: int = 10_000
    seed: int = 0

    def axes(self, ndim: int) -> list[np.ndarray]:
        bounds = self.bounds
        if len(bounds) == 2 and not hasattr(bounds[0], "__len__"):
            bounds = (bounds,) * ndim
        if len(bounds) != ndim:
            raise DomainError(f"need bounds for {ndim} axes, got {len(bounds)}")
        if self.points_per_axis < 2:
            raise DomainError(f"points_per_axis must be at least 2, got {self.points_per_axis}")
        axes = []
        for lo, hi in bounds:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise DomainError(f"bad axis bounds ({lo}, {hi})")
            axes.append(np.linspace(lo, hi, self.points_per_axis))
        return axes


def grid_points(spec: GridSpec, ndim: int) -> list[SlopePoint]:
    """Lattice points in row-major order (first axis slowest)."""
    axes = spec.axes(ndim)
    return [SlopePoint.of(values) for values in itertools.product(*axes)]


def grid_eval(
    spec: GridSpec,
    estimator: str,
    geom: GeometryBundle,
    cfg: TwoStageConfig,
    a=None,
    n_jobs=None,
) -> list[tuple[SlopePoint, CoverageEstimate]]:
    """Estimate the coverage probability at every lattice point.

    Every point is evaluated against the same draws of (spec.seed,
    spec.runs), and each entry equals the estimate of that point alone.
    """
    points = grid_points(spec, geom.k)
    return list(zip(points, _estimate_at(points, estimator, geom, cfg, a, spec.runs, spec.seed, n_jobs)))


@dataclass(frozen=True)
class LineLocus:
    """A line c -> offsets + c * direction through slope space."""

    direction: tuple[float, ...]
    offsets: tuple[float, ...]
    c_range: tuple[float, float]

    def point_at(self, c: float) -> SlopePoint:
        return SlopePoint.of(np.asarray(self.offsets) + c * np.asarray(self.direction))


def fit_low_cp_lines(
    table: list[tuple[SlopePoint, CoverageEstimate]], threshold: float = 0.6
) -> tuple[LineLocus, LineLocus]:
    """Fit two lines parallel to the all-ones direction through the low-CP points.

    Lattice points with estimate below ``threshold`` are split into two
    clusters by the sign of their second-axis residual (second slope minus
    first slope); each cluster gets a unit-slope line, whose per-axis
    offsets are then just the mean residuals against the first axis.  The
    cluster with the nonnegative residual comes first.  Raises
    InsufficientLowCPPoints unless both clusters have at least two points.
    """
    low = np.asarray([pt.values for pt, est in table if est.estimate < threshold])
    if low.size == 0:
        raise InsufficientLowCPPoints(f"no lattice points below {threshold}")
    resid = low[:, 1] - low[:, 0]
    clusters = [low[resid >= 0.0], low[resid < 0.0]]
    if any(len(cluster) < 2 for cluster in clusters):
        raise InsufficientLowCPPoints(
            f"need at least two points below {threshold} on each side, "
            f"got {len(clusters[0])} and {len(clusters[1])}"
        )
    ndim = low.shape[1]
    c_lo = min(pt.values[0] for pt, _ in table)
    c_hi = max(pt.values[0] for pt, _ in table)
    lines = []
    for cluster in clusters:
        offsets = (cluster - cluster[:, :1]).mean(axis=0)
        offsets[0] = 0.0
        lines.append(
            LineLocus(
                direction=(1.0,) * ndim,
                offsets=tuple(float(v) for v in offsets),
                c_range=(c_lo, c_hi),
            )
        )
    return lines[0], lines[1]


@dataclass(frozen=True)
class LineProfile:
    """Coverage along one line locus, with the refined location of its minimum."""

    line: LineLocus
    cs: tuple[float, ...]
    estimates: tuple[CoverageEstimate, ...]
    c_min: float
    cp_min: float


def line_profile(
    line: LineLocus,
    geom: GeometryBundle,
    cfg: TwoStageConfig,
    a=None,
    n_points: int = 41,
    runs: int = 10_000,
    seed: int = 0,
    estimator: str = "conditioned",
    n_jobs=None,
) -> LineProfile:
    """Profile the coverage along a line and refine its minimum.

    The refinement fits a parabola through the three lowest profile values
    and takes its vertex; if the parabola is not convex or the vertex falls
    outside the profiled range, the lattice minimum stands.
    """
    if n_points < 3:
        raise DomainError(f"a profile needs at least 3 points, got {n_points}")
    cs = np.linspace(line.c_range[0], line.c_range[1], n_points)
    ests = _estimate_at([line.point_at(c) for c in cs], estimator, geom, cfg, a, runs, seed, n_jobs)
    values = np.asarray([e.estimate for e in ests])
    order = np.argsort(values, kind="stable")[:3]
    quad = np.polyfit(cs[order], values[order], 2)
    c_min = float(cs[order[0]])
    cp_min = float(values[order[0]])
    if quad[0] > 0.0:
        vertex = -0.5 * quad[1] / quad[0]
        if line.c_range[0] <= vertex <= line.c_range[1]:
            c_min = float(vertex)
            cp_min = float(np.polyval(quad, vertex))
    return LineProfile(line=line, cs=tuple(float(c) for c in cs), estimates=tuple(ests), c_min=c_min, cp_min=cp_min)


def second_test_only_cp(
    deltas,
    geom: GeometryBundle,
    cfg: TwoStageConfig,
    a=None,
    runs: int = 10_000,
    seed: int = 0,
    estimator: str = "conditioned",
    offset: float = 1000.0,
) -> CoverageEstimate:
    """Coverage of the procedure when the first test rejects essentially surely.

    The second-stage-only coverage is a function of slope differences alone;
    it is realized by putting the first slope at a large offset (default
    1000) and the remaining slopes at offset + deltas, which drives the
    first-stage rejection probability to one.
    """
    estimate = _resolve_estimator(estimator)
    return estimate(_far_point(deltas, offset, geom.k), geom, cfg, a, runs=runs, seed=seed)


def _far_point(deltas, offset: float, k: int) -> SlopePoint:
    """The slope point (offset, offset + deltas) that realizes second-stage-only coverage."""
    deltas = np.asarray(deltas, dtype=float)
    if deltas.shape != (k - 1,):
        raise DomainError(f"deltas must have length {k - 1}, got {deltas.shape}")
    if not math.isfinite(offset):
        raise DomainError(f"offset must be finite, got {offset}")
    return SlopePoint.of(np.concatenate([[offset], offset + deltas]))


@dataclass(frozen=True)
class SearchConfig:
    """Everything min_cp_search needs: design, procedure, lattices and budget."""

    geom: GeometryBundle
    cfg: TwoStageConfig
    estimator: str = "conditioned"
    cube: GridSpec = field(default_factory=GridSpec)
    square: GridSpec = field(default_factory=lambda: GridSpec(bounds=(-0.2, 0.2)))
    threshold: float = 0.6
    profile_points: int = 41
    offset: float = 1000.0
    gate_warn_below: float = 0.99
    n_jobs: int | None = None


@dataclass(frozen=True)
class MinSearchReport:
    """Outcome of the restricted minimum search."""

    min1: CoverageEstimate
    min2: CoverageEstimate
    overall: CoverageEstimate
    argmin: SlopePoint
    cube_table: tuple
    square_table: tuple
    lines: tuple | None
    profiles: tuple
    diagnostics: dict


def _boundary_points(axes: list[np.ndarray]) -> list[tuple[float, ...]]:
    """Corners of the box spanned by the axes."""
    return list(itertools.product(*[(float(ax[0]), float(ax[-1])) for ax in axes]))


def min_cp_search(config: SearchConfig) -> MinSearchReport:
    """Run the full restricted search and report min1, min2 and their minimum.

    min1 is the smallest coverage estimate found on the cube: the lattice
    minimum, improved where possible by profiling fitted low-CP lines and
    re-estimating at each profile's refined minimizer.  min2 is the lattice
    minimum of the second-stage-only coverage over the slope-difference
    square.  Boundary gate probabilities that do not clear
    ``gate_warn_below`` become warnings in the diagnostics, never errors.
    """
    with thread_pool(config.n_jobs):
        return _min_cp_search(config)


def _min_cp_search(config: SearchConfig) -> MinSearchReport:
    geom, cfg, a = config.geom, config.cfg, config.geom.a
    cube, square = config.cube, config.square
    warnings: list[str] = []

    cube_table = grid_eval(cube, config.estimator, geom, cfg, a, n_jobs=config.n_jobs)
    candidates = [min((est for _, est in cube_table), key=lambda e: e.estimate)]

    lines = None
    profiles: tuple[LineProfile, ...] = ()
    try:
        lines = fit_low_cp_lines(cube_table, config.threshold)
    except InsufficientLowCPPoints as exc:
        warnings.append(f"line fitting skipped: {exc}")
    if lines is not None:
        profiles = tuple(
            line_profile(
                line,
                geom,
                cfg,
                a,
                n_points=config.profile_points,
                runs=cube.runs,
                seed=cube.seed,
                estimator=config.estimator,
                n_jobs=config.n_jobs,
            )
            for line in lines
        )
        minima = [p.line.point_at(p.c_min) for p in profiles]
        candidates += _estimate_at(minima, config.estimator, geom, cfg, a, cube.runs, cube.seed, config.n_jobs)
    min1 = min(candidates, key=lambda e: e.estimate)

    square_axes = square.axes(geom.k - 1)
    deltas = list(itertools.product(*square_axes))
    far = [_far_point(delta, config.offset, geom.k) for delta in deltas]
    square_ests = _estimate_at(far, config.estimator, geom, cfg, a, square.runs, square.seed, config.n_jobs)
    square_table = list(zip(deltas, square_ests))
    min2 = min(square_ests, key=lambda e: e.estimate)

    overall = min1 if min1.estimate <= min2.estimate else min2

    # the cube restriction needs the first test to reject on its boundary,
    # the square restriction needs the second test to reject on its own
    gates = []
    cube_corners = _boundary_points(cube.axes(geom.k))
    square_corners = _boundary_points(square_axes)
    for test, stage, region, spec, corners, points in (
        ("tau", "first", "cube", cube, cube_corners, cube_corners),
        ("xi", "second", "square", square, square_corners, [_far_point(c, config.offset, geom.k) for c in square_corners]),
    ):
        ests = estimate_points(points, geom, cfg, f"gate_{test}", runs=spec.runs, seed=spec.seed, n_jobs=config.n_jobs)
        for corner, est in zip(corners, ests):
            reject = 1.0 - est.estimate
            gates.append({"test": test, "point": corner, "reject_prob": reject})
            if reject < config.gate_warn_below:
                warnings.append(
                    f"{stage}-stage rejection probability {reject:.4f} at {region} corner {corner} "
                    f"is below {config.gate_warn_below}"
                )
    return MinSearchReport(
        min1=min1,
        min2=min2,
        overall=overall,
        argmin=overall.point,
        cube_table=tuple(cube_table),
        square_table=tuple(square_table),
        lines=lines,
        profiles=profiles,
        diagnostics={"gates": gates, "warnings": warnings},
    )


# ---------------------------------------------------------------------------
# CSV emission.  Formats are stable: one row per point, slope coordinates
# first, then estimate, se, runs, estimator, seed.
# ---------------------------------------------------------------------------


def write_grid_csv(table, path) -> None:
    """Write (point, estimate) rows; columns gamma_1..gamma_k then the estimate fields."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        ndim = len(table[0][0].values)
        writer.writerow([f"gamma_{i + 1}" for i in range(ndim)] + ["estimate", "se", "runs", "estimator", "seed"])
        for point, est in table:
            writer.writerow(
                [str(v) for v in point.values]
                + [str(est.estimate), str(est.se), str(est.runs), est.estimator, str(est.seed)]
            )


def write_profile_csv(profile: LineProfile, path) -> None:
    """Write one profile; a leading c column, then the usual estimate columns."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        ndim = len(profile.line.offsets)
        writer.writerow(
            ["c"]
            + [f"gamma_{i + 1}" for i in range(ndim)]
            + ["estimate", "se", "runs", "estimator", "seed"]
        )
        for c, est in zip(profile.cs, profile.estimates):
            writer.writerow(
                [str(c)]
                + [str(v) for v in est.point.values]
                + [str(est.estimate), str(est.se), str(est.runs), est.estimator, str(est.seed)]
            )
