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
        differences, realized by pinning the first slope at FAR_OFFSET;

and reports the smaller of the two.  Each region's rejection probability at
its weakest boundary point is attached as a diagnostic, since the restriction
argument needs the region's test to reject there with probability close to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .design import GeometryBundle, TwoStageConfig
from .errors import VECTOR, DomainError, InsufficientLowCPPoints, check_count, check_real, check_reals
from .montecarlo import (
    MAX_RUNS,
    CoverageEstimate,
    SlopePoint,
    _checked_point,
    default_workers,
    estimate_conditioned,
    estimate_naive,
    estimate_points,
)
from .selection import gate_probability

__all__ = [
    "GridSpec",
    "LineLocus",
    "LineProfile",
    "SearchConfig",
    "MinSearchReport",
    "grid_eval",
    "fit_low_cp_lines",
    "line_profile",
    "second_test_only_cp",
    "min_cp_search",
    "write_grid_csv",
    "write_profile_csv",
]

_ESTIMATORS = {"naive": estimate_naive, "conditioned": estimate_conditioned}

# a boundary gate whose rejection probability falls below this becomes a warning
GATE_WARN_BELOW = 0.99
# the first slope of every far point of the search; min2 depends on the slope differences alone
FAR_OFFSET = 1000.0


def _resolve_estimator(name: str):
    if not isinstance(name, str) or name not in _ESTIMATORS:
        raise DomainError(f"estimator must be one of {sorted(_ESTIMATORS)}, got {name!r}")
    return _ESTIMATORS[name]


@dataclass(frozen=True)
class GridSpec:
    """A lattice over slope space: one (lo, hi) pair for every axis, the density, and the estimation budget.

    Each axis is _axis(lo, hi, points_per_axis).  Every field is checked when the spec is made (DomainError): the
    bounds by _interval, stored as floats, points_per_axis >= 2, runs from 1 to MAX_RUNS and seed >= 0.
    """

    bounds: tuple[float, float] = (-0.25, 0.25)
    points_per_axis: int = 21
    runs: int = 10_000
    seed: int = 0

    def __post_init__(self):
        check_count("points_per_axis", self.points_per_axis, 2)
        object.__setattr__(self, "bounds", _interval("axis bounds", self.bounds))
        check_count("runs", self.runs, 1, MAX_RUNS)  # the budget rule montecarlo._reduce applies
        check_count("seed", self.seed, 0)

    def lattice(self, ndim: int) -> np.ndarray:
        """Every combination of ndim axis values, one per row, in row-major order (first axis slowest): shape
        (points_per_axis^ndim, ndim).  It is allocated before its axis is built: one too large fails at once,
        MemoryError."""
        n = self.points_per_axis
        try:
            out = np.empty((n,) * ndim + (ndim,))
        except ValueError:  # more bytes than numpy can count
            raise MemoryError(f"a lattice of {n}^{ndim} points is too large to allocate") from None
        axis = _axis(*self.bounds, n)
        for i in range(ndim):
            out[..., i] = np.reshape(axis, (-1,) + (1,) * (ndim - 1 - i))
        return out.reshape(-1, ndim)


def _interval(name: str, pair) -> tuple[float, float]:
    """``pair`` as two floats (lo, hi) with lo < hi and a width hi - lo that does not overflow (linspace would step
    by inf), else DomainError."""
    lo, hi = check_reals(name, pair, 2, VECTOR).tolist()
    if not lo < hi:
        raise DomainError(f"{name} must have lo < hi, got {pair!r}")
    if math.isinf(hi - lo):
        raise DomainError(f"{name} ({lo}, {hi}) too wide: hi - lo overflows")
    return lo, hi


def _axis(lo: float, hi: float, n: int) -> np.ndarray:
    """np.linspace(lo, hi, n); if lo == -hi, its upper half is its negated lower half and an odd centre is 0.0."""
    axis = np.linspace(lo, hi, n)
    return np.concatenate([axis[: n // 2], np.zeros(n % 2), -axis[n // 2 - 1 :: -1]]) if lo == -hi else axis


def _halved(lattice: np.ndarray, points: np.ndarray, *args, memo=None) -> list[CoverageEstimate]:
    """estimate_points(points, *args, memo=memo), evaluating only the first ceil(P/2) rows if ``lattice`` is symmetric.

    Symmetric means that row P-1-i is -row i.  Coverage is even in the slopes, so row P-1-i then takes row i's
    estimate and SE, under its own point: its value on (-z, d).  This is the one place the search mirrors.
    """
    if not np.array_equal(lattice, -lattice[::-1]):
        return estimate_points(points, *args, memo=memo)
    half = estimate_points(points[: (len(points) + 1) // 2], *args, memo=memo)
    pairs = zip(half[: len(points) // 2][::-1], points[len(half) :].tolist())
    return half + [CoverageEstimate(e.estimate, e.se, e.runs, e.estimator, e.seed, _checked_point(r)) for e, r in pairs]


def grid_eval(
    spec: GridSpec,
    estimator: str,
    geom: GeometryBundle,
    cfg: TwoStageConfig,
    n_jobs=None,
    memo=None,
) -> list[tuple[SlopePoint, CoverageEstimate]]:
    """Estimate the coverage probability at every lattice point, against the draws of (spec.seed, spec.runs).

    Each entry equals the estimate of its point alone, except that on a centrally symmetric lattice
    (lo == -hi) row P-1-i of the second half carries row i's estimate and SE (see _halved).
    ``memo`` is passed to estimate_points.
    """
    _resolve_estimator(estimator)
    lattice = spec.lattice(geom.k)
    ests = _halved(lattice, lattice, geom, cfg, estimator, spec.runs, spec.seed, n_jobs, memo=memo)
    return [(est.point, est) for est in ests]


@dataclass(frozen=True)
class LineLocus:
    """A line c -> offsets + c * (1, ..., 1) through slope space, profiled over c in c_range."""

    offsets: tuple[float, ...]
    c_range: tuple[float, float]

    @property
    def direction(self) -> tuple[float, ...]:
        """(1.0, ..., 1.0): every locus runs along the all-ones direction."""
        return (1.0,) * len(self.offsets)


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
    threshold = check_real("threshold", threshold)
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
    first_axis = [pt.values[0] for pt, _ in table]
    lines = []
    for cluster in clusters:
        offsets = (cluster - cluster[:, :1]).mean(axis=0)
        offsets[0] = 0.0
        lines.append(LineLocus(tuple(float(v) for v in offsets), (min(first_axis), max(first_axis))))
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
    n_points: int = 41,
    runs: int = 10_000,
    seed: int = 0,
    estimator: str = "conditioned",
    n_jobs=None,
) -> LineProfile:
    """Profile the coverage along a line and refine its minimum.

    The c values are _axis(lo, hi, n_points), exactly antisymmetric when lo == -hi.  The refinement fits a
    parabola through the three lowest profile values and takes its vertex; if the parabola is not convex or
    the vertex falls outside the profiled range, the lattice minimum stands.
    """
    check_count("n_points", n_points, 3)
    lo, hi = _interval("c_range", line.c_range)
    offsets = check_reals("offsets of the line along its direction", line.offsets, geom.k, VECTOR)
    _resolve_estimator(estimator)
    cs = _axis(lo, hi, n_points)
    with np.errstate(over="ignore"):  # an overflowing point is refused by estimate_points
        points = offsets + cs[:, None]
    return _refined(line, cs, estimate_points(points, geom, cfg, estimator, runs, seed, n_jobs))


def _refined(line: LineLocus, cs: np.ndarray, ests: list[CoverageEstimate]) -> LineProfile:
    """The profile of ``line`` from its estimates at ``cs``, its minimum refined as line_profile says."""
    values = np.asarray([e.estimate for e in ests])
    order = np.argsort(values, kind="stable")[:3]
    quad = np.polyfit(cs[order], values[order], 2)
    c_min = float(cs[order[0]])
    cp_min = float(values[order[0]])
    if quad[0] > 0.0:
        vertex = -0.5 * quad[1] / quad[0]
        if cs[0] <= vertex <= cs[-1]:
            c_min = float(vertex)
            cp_min = float(np.polyval(quad, vertex))
    return LineProfile(line=line, cs=tuple(float(c) for c in cs), estimates=tuple(ests), c_min=c_min, cp_min=cp_min)


def second_test_only_cp(
    deltas,
    geom: GeometryBundle,
    cfg: TwoStageConfig,
    runs: int = 10_000,
    seed: int = 0,
    estimator: str = "conditioned",
    offset: float = FAR_OFFSET,
) -> CoverageEstimate:
    """Coverage of the procedure when the first test rejects essentially surely.

    The second-stage-only coverage is a function of slope differences alone;
    it is realized by putting the first slope at a large offset (default
    FAR_OFFSET) and the remaining slopes at offset + deltas, which drives the
    first-stage rejection probability to one.  An offset so large that
    offset + deltas loses a delta to rounding raises DomainError.
    """
    estimate = _resolve_estimator(estimator)
    deltas = check_reals("deltas", deltas, geom.k - 1, VECTOR)
    far = _far_points(deltas, check_real("offset", offset), "offset too large")
    return estimate(far, geom, cfg, runs=runs, seed=seed)


def _far_points(deltas: np.ndarray, offset: float, culprit: str) -> np.ndarray:
    """The far points (offset, offset + delta), one per checked delta row; DomainError led by ``culprit`` if one is
    lost to rounding."""
    with np.errstate(over="ignore"):  # a delta lost to overflow is refused below
        far = offset + deltas
    lost = np.abs((far - offset) - deltas) > 1e-9
    if lost.any():
        raise DomainError(f"{culprit}: {offset} + delta rounds away the delta {deltas[lost][0]}")
    return np.concatenate([np.full_like(far[..., :1], offset), far], axis=-1)


def _weakest(lo: float, hi: float, cov: np.ndarray) -> np.ndarray:
    """The point of least x' cov^-1 x, the least noncentrality, on the faces of the box [lo, hi]^ndim.

    On the plane x_i = c the least form is c^2 / cov_ii, at c cov_i / cov_ii, so over the faces it is
    min(lo^2, hi^2) / max_i cov_ii: on the nearer face (lo when |lo| <= |hi|) of the first axis with the largest
    cov_ii.  The box must contain the origin (lo <= 0 <= hi, as min_cp_search requires of its regions): then every
    point on or outside the boundary has a form at least this one's, and the point is on the boundary, since
    |cov_ij| <= cov_ii on that axis.  Zeros are +0.0.
    """
    i = int(np.argmax(np.diag(cov)))
    return (lo if abs(lo) <= abs(hi) else hi) * (cov[i] / cov[i, i]) + 0.0


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


def min_cp_search(config: SearchConfig) -> MinSearchReport:
    """Run the full restricted search and report min1, min2 and their minimum.

    min1 is the smallest coverage estimate found on the cube: the lattice minimum, improved where possible by
    profiling fitted low-CP lines and re-estimating at each profile's refined minimizer.  min2 is the lattice
    minimum of the second-stage-only coverage over the slope-difference square.  Both regions must contain the
    origin (DomainError otherwise).  diagnostics["gates"] holds the first test's rejection probability at the
    cube's weakest boundary point and the second's at the square's (see _weakest); one below GATE_WARN_BELOW
    becomes a warning in the diagnostics, never an error.  Every phase goes through _halved, so a centrally
    symmetric set of points evaluates one point of each mirrored pair: the cube and the square (its coverage is
    even in the slope differences) with lo == -hi, the profile minimizers, and the two profiles, stacked on their
    shared c axis, when the lines are each other's mirror.  The coverage estimates share one memo (see
    montecarlo._reduce), so each chunk is drawn once per search, not once per phase; it dies with the call.
    """
    geom, cfg = config.geom, config.cfg
    cube, square = config.cube, config.square
    # refuse a bad configuration before the first estimate, not after the cube phase (a GridSpec checks itself)
    check_count("profile_points", config.profile_points, 3)
    n_jobs = default_workers(config.n_jobs)
    check_real("threshold", config.threshold)
    for region, spec in (("cube", cube), ("square", square)):
        if not spec.bounds[0] <= 0.0 <= spec.bounds[1]:
            raise DomainError(f"{region} bounds must contain the origin, got {spec.bounds}")
    deltas = square.lattice(geom.k - 1)
    far = _far_points(deltas, FAR_OFFSET, f"square bounds {square.bounds} are too wide")
    warnings: list[str] = []
    memo: dict = {}  # the estimator's chunks, kept for every phase

    cube_table = grid_eval(cube, config.estimator, geom, cfg, n_jobs=n_jobs, memo=memo)
    candidates = [min((est for _, est in cube_table), key=lambda e: e.estimate)]

    lines, profiles = None, ()
    try:
        lines = fit_low_cp_lines(cube_table, config.threshold)
    except InsufficientLowCPPoints as exc:
        warnings.append(f"line fitting skipped: {exc}")
    else:
        cs = _axis(*lines[0].c_range, config.profile_points)  # the fitted lines share one c_range
        with np.errstate(over="ignore"):  # an overflowing point is refused by estimate_points
            points = np.concatenate([np.asarray(line.offsets) + cs[:, None] for line in lines])
        ests = _halved(points, points, geom, cfg, config.estimator, cube.runs, cube.seed, n_jobs, memo=memo)
        profiles = (_refined(lines[0], cs, ests[: len(cs)]), _refined(lines[1], cs, ests[len(cs) :]))
        minima = np.array([np.asarray(p.line.offsets) + p.c_min for p in profiles])
        candidates += _halved(minima, minima, geom, cfg, config.estimator, cube.runs, cube.seed, n_jobs, memo=memo)
    min1 = min(candidates, key=lambda e: e.estimate)

    square_ests = _halved(deltas, far, geom, cfg, config.estimator, square.runs, square.seed, n_jobs, memo=memo)
    square_table = [(tuple(delta), est) for delta, est in zip(deltas, square_ests)]
    min2 = min(square_ests, key=lambda e: e.estimate)

    overall = min1 if min1.estimate <= min2.estimate else min2

    gates = []
    for test, stage, region, spec, chol in (
        ("tau", "first", "cube", cube, geom.v22_chol),
        ("xi", "second", "square", square, geom.u @ geom.v22_chol),
    ):
        point = _weakest(*spec.bounds, chol @ chol.T)
        # U (0, delta) = -delta: the square's point has its far point's noncentrality
        slopes = point if test == "tau" else np.concatenate([[0.0], point])
        reject = 1.0 - gate_probability(slopes, geom, cfg, test)
        gates.append({"test": test, "point": tuple(point.tolist()), "reject_prob": reject})
        if reject < GATE_WARN_BELOW:
            warnings.append(
                f"{stage}-stage rejection probability {reject:.4f} at {region} boundary point "
                f"{tuple(point.tolist())} is below {GATE_WARN_BELOW}"
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

_ESTIMATE_COLUMNS = ["estimate", "se", "runs", "estimator", "seed"]


def _write_rows(path, header, rows) -> None:
    """Write the header and rows as CSV in one call: fields joined by commas, each row ended by CRLF.

    Every field is a number or an estimator name, which csv.writer would not
    quote, so the bytes are those it writes with its defaults.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(",".join(row) + "\r\n" for row in [header, *rows]))


def _fields(coords, est) -> list[str]:
    """The row of an estimate: its leading coordinates, then estimate, se, runs, estimator, seed."""
    return [str(v) for v in coords] + [str(est.estimate), str(est.se), str(est.runs), est.estimator, str(est.seed)]


def write_grid_csv(table, path) -> None:
    """Write (point, estimate) rows; columns gamma_1..gamma_k then the estimate fields."""
    if not len(table):
        raise DomainError("a grid table needs at least one row")
    header = [f"gamma_{i + 1}" for i in range(len(table[0][0].values))] + _ESTIMATE_COLUMNS
    _write_rows(path, header, [_fields(point.values, est) for point, est in table])


def write_profile_csv(profile: LineProfile, path) -> None:
    """Write one profile; a leading c column, then the usual estimate columns."""
    header = ["c"] + [f"gamma_{i + 1}" for i in range(len(profile.line.offsets))] + _ESTIMATE_COLUMNS
    _write_rows(path, header, [_fields((c, *est.point.values), est) for c, est in zip(profile.cs, profile.estimates)])
