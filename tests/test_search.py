import dataclasses
import math

import numpy as np
import pytest

from ancova_cp import montecarlo
from ancova_cp import (
    CoverageEstimate,
    DomainError,
    GridSpec,
    InsufficientLowCPPoints,
    LineLocus,
    SearchConfig,
    SlopePoint,
    estimate_conditioned,
    estimate_naive,
    fit_low_cp_lines,
    grid_eval,
    grid_points,
    line_profile,
    min_cp_search,
    second_test_only_cp,
    write_grid_csv,
    write_profile_csv,
)


def _fake_est(point, value):
    pt = SlopePoint.of(point)
    return pt, CoverageEstimate(value, 0.01, 1000, "conditioned", 0, pt)


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------


def test_grid_points_row_major():
    spec = GridSpec(bounds=(0.0, 1.0), points_per_axis=2)
    pts = grid_points(spec, 2)
    assert [p.values for p in pts] == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]


def test_grid_points_per_axis_bounds():
    spec = GridSpec(bounds=((0.0, 1.0), (-2.0, 2.0)), points_per_axis=3)
    pts = grid_points(spec, 2)
    assert len(pts) == 9
    assert pts[0].values == (0.0, -2.0)
    assert pts[-1].values == (1.0, 2.0)


def test_grid_spec_validation():
    with pytest.raises(DomainError):
        GridSpec(points_per_axis=1).axes(3)
    with pytest.raises(DomainError):
        GridSpec(bounds=(0.3, 0.1)).axes(2)
    with pytest.raises(DomainError):
        GridSpec(bounds=((0.0, 1.0),)).axes(2)
    with pytest.raises(DomainError):
        GridSpec(bounds=(0.0, math.inf)).axes(1)


def test_grid_eval_matches_direct_estimates(small):
    _, _, geom, cfg = small
    spec = GridSpec(bounds=(-0.1, 0.1), points_per_axis=2, runs=500, seed=3)
    table = grid_eval(spec, "conditioned", geom, cfg)
    assert len(table) == 4
    for point, est in table:
        direct = estimate_conditioned(point, geom, cfg, runs=500, seed=3)
        assert est.estimate == direct.estimate
        assert est.se == direct.se
    again = grid_eval(spec, "conditioned", geom, cfg)
    assert [e.estimate for _, e in again] == [e.estimate for _, e in table]


def test_grid_eval_signed_zero_bounds_are_bit_identical(ref):
    _, _, geom, cfg = ref
    plus = GridSpec(bounds=((-0.2, 0.0), (0.0, 0.2), (-0.2, 0.0)), points_per_axis=2, runs=3000, seed=1)
    minus = GridSpec(bounds=((-0.2, -0.0), (0.0, 0.2), (-0.2, -0.0)), points_per_axis=2, runs=3000, seed=1)
    for estimator in ("naive", "conditioned"):
        one = grid_eval(plus, estimator, geom, cfg)
        two = grid_eval(minus, estimator, geom, cfg)
        assert math.copysign(1.0, two[-1][0].values[0]) == -1.0
        assert [(e.estimate, e.se) for _, e in one] == [(e.estimate, e.se) for _, e in two]


@pytest.mark.parametrize("threads", ["2", "4"])
def test_grid_eval_thread_invariant_through_env(ref, monkeypatch, threads):
    _, _, geom, cfg = ref
    spec = GridSpec(bounds=(-0.2, 0.2), points_per_axis=3, runs=9000, seed=2)
    serial = grid_eval(spec, "conditioned", geom, cfg, n_jobs=1)
    monkeypatch.setenv("ANCOVA_CP_THREADS", threads)
    threaded = grid_eval(spec, "conditioned", geom, cfg)
    assert threaded == serial


def test_grid_eval_estimator_name(small):
    _, _, geom, cfg = small
    spec = GridSpec(points_per_axis=2, runs=10)
    with pytest.raises(DomainError):
        grid_eval(spec, "bogus", geom, cfg)


def test_grid_eval_nominal_when_forced_full(ref):
    _, _, geom, cfg = ref
    forced = dataclasses.replace(cfg, l_tau=0.0, l_xi=0.0)
    spec = GridSpec(bounds=(-0.2, 0.2), points_per_axis=2, runs=4000, seed=1)
    for _, est in grid_eval(spec, "conditioned", geom, forced):
        assert abs(est.estimate - 0.95) <= 3 * est.se


def test_coverage_symmetric_under_sign_flip(ref):
    _, _, geom, cfg = ref
    plus = estimate_conditioned((0.1, -0.05, 0.15), geom, cfg, runs=10_000, seed=2)
    minus = estimate_conditioned((-0.1, 0.05, -0.15), geom, cfg, runs=10_000, seed=2)
    assert abs(plus.estimate - minus.estimate) <= 3 * math.hypot(plus.se, minus.se)
    # same-seed estimates share their draws; an independent seed keeps the
    # combined-SE bound exact
    other = estimate_conditioned((-0.1, 0.05, -0.15), geom, cfg, runs=10_000, seed=3)
    assert abs(plus.estimate - other.estimate) <= 3 * math.hypot(plus.se, other.se)


def test_naive_se_shrinks_like_root_runs(ref):
    _, _, geom, cfg = ref
    coarse = estimate_naive((0.0, 0.0, 0.0), geom, cfg, runs=5000, seed=0)
    fine = estimate_naive((0.0, 0.0, 0.0), geom, cfg, runs=20_000, seed=0)
    assert 1.6 <= coarse.se / fine.se <= 2.4


# ---------------------------------------------------------------------------
# low-CP line fitting
# ---------------------------------------------------------------------------

UP = (0.0, 0.088, 0.041)
DOWN = (0.0, -0.088, -0.041)


def _synthetic_table(jitter=0.0, seed=0):
    rng = np.random.default_rng(seed)
    table = []
    for c in np.linspace(-0.2, 0.2, 9):
        for offs in (UP, DOWN):
            pt = np.array(offs) + c
            pt[1:] += jitter * rng.standard_normal(2)
            table.append(_fake_est(pt, 0.4))
        table.append(_fake_est((c, c + 0.2, c - 0.15), 0.9))
    return table


def test_fit_low_cp_lines_exact_recovery():
    up, down = fit_low_cp_lines(_synthetic_table(), threshold=0.6)
    assert up.direction == (1.0, 1.0, 1.0)
    assert down.direction == (1.0, 1.0, 1.0)
    assert np.allclose(up.offsets, UP, atol=1e-12)
    assert np.allclose(down.offsets, DOWN, atol=1e-12)
    assert up.offsets[0] == 0.0 and down.offsets[0] == 0.0
    assert up.c_range == (-0.2, 0.2)
    assert all(isinstance(v, float) for v in up.offsets + down.offsets + up.c_range)


def test_fit_low_cp_lines_jittered_recovery():
    up, down = fit_low_cp_lines(_synthetic_table(jitter=0.005, seed=7), threshold=0.6)
    assert np.allclose(up.offsets, UP, atol=0.01)
    assert np.allclose(down.offsets, DOWN, atol=0.01)


def test_fit_low_cp_lines_needs_low_points():
    table = [_fake_est((c, c, c), 0.9) for c in np.linspace(-0.2, 0.2, 9)]
    with pytest.raises(InsufficientLowCPPoints):
        fit_low_cp_lines(table, threshold=0.6)


def test_fit_low_cp_lines_needs_both_clusters():
    table = _synthetic_table()
    one_sided = [(pt, est) for pt, est in table if est.estimate > 0.6 or pt.values[1] >= pt.values[0]]
    with pytest.raises(InsufficientLowCPPoints):
        fit_low_cp_lines(one_sided, threshold=0.6)


def test_line_locus_point_at():
    line = LineLocus(direction=(1.0, 1.0), offsets=(0.0, 0.05), c_range=(-1.0, 1.0))
    assert line.point_at(0.1).values == (0.1, pytest.approx(0.15))


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


def test_line_profile_flat_when_forced_full(ref):
    _, _, geom, cfg = ref
    forced = dataclasses.replace(cfg, l_tau=0.0, l_xi=0.0)
    line = LineLocus(direction=(1.0, 1.0, 1.0), offsets=(0.0, 0.0, 0.0), c_range=(-0.1, 0.1))
    profile = line_profile(line, geom, forced, n_points=5, runs=4000, seed=3)
    for est in profile.estimates:
        assert abs(est.estimate - 0.95) <= 3 * est.se
    assert line.c_range[0] <= profile.c_min <= line.c_range[1]
    assert profile.cp_min <= min(e.estimate for e in profile.estimates) + 1e-12
    assert len(profile.cs) == 5


def test_line_profile_finds_interior_dip(ref):
    _, _, geom, cfg = ref
    line = LineLocus(direction=(1.0, 1.0, 1.0), offsets=(0.0, 0.069, 0.011), c_range=(-0.25, 0.25))
    profile = line_profile(line, geom, cfg, n_points=9, runs=2500, seed=4)
    assert profile.cp_min < 0.6
    assert -0.25 < profile.c_min < 0.25


def test_line_profile_needs_three_points(ref):
    _, _, geom, cfg = ref
    line = LineLocus(direction=(1.0, 1.0, 1.0), offsets=(0.0, 0.0, 0.0), c_range=(-0.1, 0.1))
    with pytest.raises(DomainError):
        line_profile(line, geom, cfg, n_points=2, runs=100, seed=0)


# ---------------------------------------------------------------------------
# second-stage-only coverage
# ---------------------------------------------------------------------------


def test_second_test_only_matches_far_point(ref):
    _, _, geom, cfg = ref
    est = second_test_only_cp((0.0, 0.0), geom, cfg, runs=3000, seed=5, offset=1000.0)
    direct = estimate_conditioned((1000.0, 1000.0, 1000.0), geom, cfg, runs=3000, seed=5)
    assert est.estimate == direct.estimate
    assert est.se == direct.se


def test_second_test_only_depends_only_on_differences(ref):
    _, _, geom, cfg = ref
    deltas = (-0.08, -0.04)
    ests = [
        second_test_only_cp(deltas, geom, cfg, runs=8000, seed=6, offset=off)
        for off in (500.0, 1000.0, 2000.0)
    ]
    for other in ests[1:]:
        assert abs(ests[0].estimate - other.estimate) <= 3 * math.hypot(ests[0].se, other.se)
        # shared draws: the offsets differ only through rounding
        assert abs(ests[0].estimate - other.estimate) <= 1e-9


def test_second_test_only_nominal_far_outside_square(ref):
    _, _, geom, cfg = ref
    est = second_test_only_cp((5.0, -5.0), geom, cfg, runs=6000, seed=7)
    assert abs(est.estimate - 0.95) <= 3 * est.se


def test_second_test_only_validation(ref):
    _, _, geom, cfg = ref
    with pytest.raises(DomainError):
        second_test_only_cp((0.1,), geom, cfg, runs=100, seed=0)
    with pytest.raises(DomainError):
        second_test_only_cp((0.1, 0.0), geom, cfg, runs=100, seed=0, offset=math.inf)


# ---------------------------------------------------------------------------
# full search
# ---------------------------------------------------------------------------


def _tiny_config(geom, cfg, runs=800):
    return SearchConfig(
        geom=geom,
        cfg=cfg,
        estimator="conditioned",
        cube=GridSpec(bounds=(-0.25, 0.25), points_per_axis=5, runs=runs, seed=0),
        square=GridSpec(bounds=(-0.2, 0.2), points_per_axis=3, runs=runs, seed=0),
        profile_points=5,
    )


def test_min_cp_search_small_budget(ref):
    _, _, geom, cfg = ref
    report = min_cp_search(_tiny_config(geom, cfg))
    assert len(report.cube_table) == 125
    assert len(report.square_table) == 9
    assert report.overall.estimate == min(report.min1.estimate, report.min2.estimate)
    assert report.overall in (report.min1, report.min2)
    assert report.argmin == report.overall.point
    assert report.min1.estimate <= min(e.estimate for _, e in report.cube_table)
    assert report.min2.estimate == min(e.estimate for _, e in report.square_table)
    gates = report.diagnostics["gates"]
    assert len(gates) == 8 + 4
    assert {g["test"] for g in gates} == {"tau", "xi"}
    for g in gates:
        assert 0.0 <= g["reject_prob"] <= 1.0

    # the winning estimate must be reproducible from its own metadata
    best = report.overall
    redo = estimate_conditioned(best.point, geom, cfg, runs=best.runs, seed=best.seed)
    assert redo.estimate == best.estimate
    assert redo.se == best.se


def _fine_config(geom, cfg, n_jobs=None):
    return SearchConfig(
        geom=geom,
        cfg=cfg,
        estimator="conditioned",
        cube=GridSpec(bounds=(-0.25, 0.25), points_per_axis=7, runs=900, seed=0),
        square=GridSpec(bounds=(-0.2, 0.2), points_per_axis=3, runs=900, seed=0),
        profile_points=5,
        n_jobs=n_jobs,
    )


@pytest.mark.parametrize("threads", ["2", "4"])
def test_min_cp_search_thread_invariant_through_env(ref, monkeypatch, threads):
    _, _, geom, cfg = ref
    serial = min_cp_search(_fine_config(geom, cfg, n_jobs=1))
    assert serial.lines is not None
    monkeypatch.setenv("ANCOVA_CP_THREADS", threads)
    assert min_cp_search(_fine_config(geom, cfg)) == serial


def test_min_cp_search_opens_one_pool(ref, monkeypatch):
    _, _, geom, cfg = ref
    opened = []

    class CountingPool(montecarlo.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setenv("ANCOVA_CP_THREADS", "2")
    report = min_cp_search(_fine_config(geom, cfg))
    assert report.lines is not None
    assert len(opened) == 1
    opened.clear()
    min_cp_search(_fine_config(geom, cfg, n_jobs=1))
    assert opened == []


def test_min_cp_search_skips_lines_on_coarse_lattice(ref):
    # a 5-per-axis lattice steps over the narrow low-CP band
    _, _, geom, cfg = ref
    report = min_cp_search(_tiny_config(geom, cfg))
    assert report.lines is None
    assert report.profiles == ()
    assert any("line fitting skipped" in w for w in report.diagnostics["warnings"])


def test_min_cp_search_profiles_on_fine_lattice(ref):
    _, _, geom, cfg = ref
    report = min_cp_search(_fine_config(geom, cfg))
    assert report.lines is not None
    up, down = report.lines
    assert up.offsets[1] >= up.offsets[0]
    assert len(report.profiles) == 2
    assert report.min1.estimate <= min(e.estimate for _, e in report.cube_table)
    assert report.min1.estimate < report.min2.estimate


def test_min_cp_search_nominal_when_forced_full(ref):
    _, _, geom, cfg = ref
    forced = dataclasses.replace(cfg, l_tau=0.0, l_xi=0.0)
    config = SearchConfig(
        geom=geom,
        cfg=forced,
        estimator="conditioned",
        cube=GridSpec(bounds=(-0.25, 0.25), points_per_axis=3, runs=3000, seed=0),
        square=GridSpec(bounds=(-0.2, 0.2), points_per_axis=3, runs=3000, seed=0),
        profile_points=3,
    )
    report = min_cp_search(config)
    assert 0.93 <= report.overall.estimate <= 0.97
    assert not any("rejection probability" in w for w in report.diagnostics["warnings"])


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def test_write_grid_csv_roundtrip(small, tmp_path):
    _, _, geom, cfg = small
    spec = GridSpec(bounds=(-0.1, 0.1), points_per_axis=2, runs=300, seed=0)
    table = grid_eval(spec, "naive", geom, cfg)
    path = tmp_path / "grid.csv"
    write_grid_csv(table, path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "gamma_1,gamma_2,estimate,se,runs,estimator,seed"
    assert len(lines) == 1 + len(table)
    first = lines[1].split(",")
    assert tuple(float(v) for v in first[:2]) == table[0][0].values
    assert float(first[2]) == table[0][1].estimate
    assert first[5] == "naive"

    twin = tmp_path / "again.csv"
    write_grid_csv(table, twin)
    assert twin.read_bytes() == path.read_bytes()


def test_write_profile_csv(ref, tmp_path):
    _, _, geom, cfg = ref
    line = LineLocus(direction=(1.0, 1.0, 1.0), offsets=(0.0, 0.05, 0.0), c_range=(-0.1, 0.1))
    profile = line_profile(line, geom, cfg, n_points=3, runs=200, seed=0)
    path = tmp_path / "profile.csv"
    write_profile_csv(profile, path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "c,gamma_1,gamma_2,gamma_3,estimate,se,runs,estimator,seed"
    assert len(lines) == 4
    row = lines[1].split(",")
    assert float(row[0]) == profile.cs[0]
    assert float(row[4]) == profile.estimates[0].estimate
