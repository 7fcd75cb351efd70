import csv
import dataclasses
import gc
import itertools
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ancova_cp import montecarlo
from ancova_cp import search as search_module
from ancova_cp import (
    CoverageEstimate,
    DomainError,
    GridSpec,
    InsufficientLowCPPoints,
    LineLocus,
    LineProfile,
    SearchConfig,
    SlopePoint,
    estimate_conditioned,
    estimate_points,
    estimate_naive,
    fit_low_cp_lines,
    gate_probability,
    grid_eval,
    grid_points,
    line_profile,
    min_cp_search,
    second_test_only_cp,
    write_grid_csv,
    write_profile_csv,
)
from ancova_cp.selection import SlopeTerms, acceptance
from oracles import direct_geometry, gate_prob_ncf


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
    # on a symmetric lattice the first ceil(P/2) rows are evaluated and row P-1-i is row i's
    # estimate on the mirrored draws, which equals the direct estimate at -(row P-1-i) bit for bit
    _, _, geom, cfg = small
    for density in (2, 3):
        spec = GridSpec(bounds=(-0.1, 0.1), points_per_axis=density, runs=500, seed=3)
        table = grid_eval(spec, "conditioned", geom, cfg)
        rows = search_module._lattice(spec.axes(2))
        assert len(table) == len(rows) == density**2
        for i, (row, (point, est)) in enumerate(zip(rows, table)):
            assert point is est.point and np.array(point.values).tobytes() == row.tobytes()
            at = row if i < (len(rows) + 1) // 2 else -row
            assert est == dataclasses.replace(estimate_conditioned(at, geom, cfg, runs=500, seed=3), point=point)
        again = grid_eval(spec, "conditioned", geom, cfg)
        assert again == table
    # an asymmetric lattice evaluates every row against the shared draws
    spec = GridSpec(bounds=(-0.1, 0.15), points_per_axis=3, runs=500, seed=3)
    table = grid_eval(spec, "conditioned", geom, cfg)
    assert len(table) == 9
    for row, (point, est) in zip(search_module._lattice(spec.axes(2)), table):
        assert np.array(point.values).tobytes() == row.tobytes()
        assert est == estimate_conditioned(point, geom, cfg, runs=500, seed=3)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.floats(1e-9, 1e9, allow_nan=False, allow_infinity=False, allow_subnormal=False),
    st.integers(2, 61),
    st.floats(0.5, 2.0, allow_nan=False).filter(lambda r: r != 1.0),
)
def test_symmetric_axes_are_exactly_antisymmetric(hi, n, ratio):
    axis = GridSpec(bounds=(-hi, hi), points_per_axis=n).axes(1)[0]
    spaced = np.linspace(-hi, hi, n)
    assert np.array_equal(axis, -axis[::-1])
    assert axis[: n // 2].tobytes() == spaced[: n // 2].tobytes()
    if n % 2:
        assert axis[n // 2] == 0.0 and math.copysign(1.0, axis[n // 2]) == 1.0
    # np.linspace is itself off antisymmetry by up to three ulps of hi (2 at (-0.1, 0.1, 23));
    # the mirrored entries are within that of it
    assert np.all(np.abs(axis - spaced) <= 3 * np.spacing(hi))
    # bounds with lo != -hi keep np.linspace's bits
    lo = -hi * ratio
    assert GridSpec(bounds=(lo, hi), points_per_axis=n).axes(1)[0].tobytes() == np.linspace(lo, hi, n).tobytes()


def test_symmetric_axes_repair_linspace_and_keep_dyadic_bits():
    assert np.linspace(-0.2, 0.2, 9)[6] == 0.10000000000000003
    assert GridSpec(bounds=(-0.2, 0.2), points_per_axis=9).axes(1)[0][6] == 0.1
    assert np.linspace(-0.1, 0.1, 23)[11] != 0.0
    assert GridSpec(bounds=(-0.1, 0.1), points_per_axis=23).axes(1)[0][11] == 0.0
    for n in (2, 3, 5, 9, 17, 33):  # steps of 2^-j: every linspace entry is exact
        assert GridSpec(points_per_axis=n).axes(1)[0].tobytes() == np.linspace(-0.25, 0.25, n).tobytes()


def _bench_config(geom, cfg, **change):
    """The search scripts/estimate_digest.py and the benchmark run: 9^3 cube, 9^2 square, 21-point profiles."""
    return dataclasses.replace(
        SearchConfig(
            geom=geom,
            cfg=cfg,
            cube=GridSpec((-0.25, 0.25), 9, 2000, 4),
            square=GridSpec((-0.2, 0.2), 9, 2000, 4),
            profile_points=21,
        ),
        **change,
    )


def test_symmetric_lattices_evaluate_one_point_of_each_pair(ref, monkeypatch):
    _, _, geom, cfg = ref
    calls = _count_estimates(monkeypatch)
    grid_eval(GridSpec((-0.25, 0.25), 9, 2000, 4), "conditioned", geom, cfg)
    assert [len(c[0]) for c in calls] == [365]
    calls.clear()
    grid_eval(GridSpec(((-0.25, 0.25), (-0.25, 0.25), (-0.25, 0.2)), 9, 2000, 4), "conditioned", geom, cfg)
    assert [len(c[0]) for c in calls] == [729]
    calls.clear()

    report = min_cp_search(_bench_config(geom, cfg))
    assert report.lines is not None
    # cube 365, the first 21-point profile (the second is its mirror), one of the two mirrored
    # minimizers, square 41; the gates are closed form and estimate nothing
    sizes = [len(c[0]) for c in calls]
    assert sizes == [365, 21, 1, 41] and sum(sizes) == 428
    for table in (report.cube_table, report.square_table):
        for (point, est), (mirror, twin) in zip(table, table[::-1]):
            # cube rows are SlopePoints, square rows tuples of slope differences
            coords, mirrored = (np.asarray(getattr(p, "values", p), dtype=float) for p in (point, mirror))
            assert np.array_equal(coords, -mirrored)
            assert (est.estimate, est.se) == (twin.estimate, twin.se)
    calls.clear()

    cube, square = GridSpec((-0.25, 0.3), 9, 2000, 4), GridSpec((-0.2, 0.25), 9, 2000, 4)
    min_cp_search(_bench_config(geom, cfg, cube=cube, square=square))
    sizes = [len(c[0]) for c in calls]
    assert sizes[0] == 729 and sizes[-1] == 81


def _count_streams(monkeypatch):
    """(seed, tag, chunk) of every stream montecarlo opens."""
    streams, real = [], montecarlo._stream
    monkeypatch.setattr(montecarlo, "_stream", lambda *key: streams.append(key) or real(*key))
    return streams


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_a_search_draws_each_chunk_once(ref, monkeypatch, n_jobs):
    # cube, profile, minimizers and square share the conditioned chunks: 1 stream at a bench-sized
    # budget (4 before the chunks were kept), 2 at two chunks per call
    _, _, geom, cfg = ref
    streams = _count_streams(monkeypatch)
    report = min_cp_search(_bench_config(geom, cfg, n_jobs=n_jobs))
    assert report.lines is not None
    assert streams == [(4, "conditioned", 0)]
    streams.clear()
    runs = montecarlo.CHUNK_SIZE + 100
    two = _bench_config(
        geom, cfg, cube=GridSpec((-0.25, 0.25), 9, runs, 4), square=GridSpec((-0.2, 0.2), 9, runs, 4), n_jobs=n_jobs
    )
    assert min_cp_search(two).lines is not None
    assert sorted(streams) == [(4, "conditioned", chunk) for chunk in (0, 1)]


def test_kept_chunks_move_no_estimate_and_die_with_the_search(ref, monkeypatch):
    _, _, geom, cfg = ref
    config = _bench_config(geom, cfg)
    # the square on another seed, then on another budget: its chunks are not the cube's
    squares = [GridSpec((-0.2, 0.2), 9, runs, seed) for runs, seed in ((2000, 5), (2100, 4))]
    configs = [config] + [_bench_config(geom, cfg, square=square) for square in squares]
    searched = [min_cp_search(c) for c in configs]
    # right after a search with another seed, a search equals the first bit for bit
    assert min_cp_search(_bench_config(geom, cfg, cube=GridSpec((-0.25, 0.25), 9, 2000, 5))).min1 != searched[0].min1
    assert min_cp_search(config) == searched[0]
    # and each equals the search whose every estimate draws its own chunks
    real = search_module.estimate_points
    monkeypatch.setattr(search_module, "estimate_points", lambda *args, memo, **kw: real(*args, **kw))
    for c, first in zip(configs, searched):
        alone = min_cp_search(c)
        assert alone == first
        for table, twin in ((alone.cube_table, first.cube_table), (alone.square_table, first.square_table)):
            values = [np.array([(e.estimate, e.se) for _, e in t]) for t in (table, twin)]
            assert values[0].tobytes() == values[1].tobytes()
    monkeypatch.undo()
    # every kept chunk is garbage once the search returns: no module attribute or cache holds one
    made = []

    class Tracked(montecarlo.KernelDraws):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(montecarlo, "KernelDraws", Tracked)
    assert min_cp_search(config) == searched[0]
    gc.collect()
    assert len(made) == 1 and all(ref() is None for ref in made)


def test_second_profile_is_the_mirror_of_the_first(ref):
    # fitted on a mirrored cube table, the two lines are exact mirrors over (-0.25, 0.25): entry j of
    # profile 2 is the estimate at -p_j (entry n-1-j of profile 1), carried at its own point p_j
    _, _, geom, cfg = ref
    first, second = min_cp_search(_bench_config(geom, cfg)).profiles
    assert second.line.offsets == tuple(-v for v in first.line.offsets) and second.cs == first.cs
    points = np.asarray(second.line.offsets) + np.asarray(second.cs)[:, None] * np.asarray(second.line.direction)
    assert [est.point.values for est in second.estimates] == [tuple(row) for row in points.tolist()]
    direct = estimate_points(-points, geom, cfg, "conditioned", 2000, 4)
    assert [(e.estimate, e.se) for e in second.estimates] == [(e.estimate, e.se) for e in direct]
    assert [(e.estimate, e.se) for e in second.estimates] == [(e.estimate, e.se) for e in first.estimates[::-1]]
    # an independent seed at a few of its points: a real check, unlike the shared draws above
    for j in (2, 7, 10, 15):
        est = second.estimates[j]
        other = estimate_conditioned(est.point, geom, cfg, runs=10_000, seed=11)
        assert abs(est.estimate - other.estimate) <= 3 * math.hypot(est.se, other.se)


def test_mirrored_cube_entries_agree_with_an_independent_seed(ref):
    # a mirrored entry and the direct estimate on the same seed are equal by construction;
    # another seed's draws are independent, so the combined-SE bound is a real check
    _, _, geom, cfg = ref
    table = grid_eval(GridSpec((-0.25, 0.25), 5, 10_000, 0), "conditioned", geom, cfg)
    for i in (63, 80, 100, 117, 124):
        point, est = table[i]
        other = estimate_conditioned(point, geom, cfg, runs=10_000, seed=1)
        assert abs(est.estimate - other.estimate) <= 3 * math.hypot(est.se, other.se)


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


def test_line_profile_c_values_are_antisymmetric_on_a_symmetric_range(ref):
    _, _, geom, cfg = ref
    symmetric = line_profile(LineLocus((1.0, 1.0, 1.0), (0.0, 0.05, 0.0), (-0.25, 0.25)), geom, cfg, 21, 300, 1)
    spaced = np.linspace(-0.25, 0.25, 21)
    assert symmetric.cs == tuple(-c for c in symmetric.cs[::-1]) and symmetric.cs[10] == 0.0
    # np.linspace misses antisymmetry by one ulp at 7 of its 21 values; the axis stays within one ulp of it
    assert np.count_nonzero(np.asarray(symmetric.cs) != spaced) == 7
    assert np.all(np.abs(np.asarray(symmetric.cs) - spaced) <= np.spacing(0.25))
    # an asymmetric range keeps np.linspace's values
    asymmetric = line_profile(LineLocus((1.0, 1.0, 1.0), (0.0, 0.05, 0.0), (-0.25, 0.3)), geom, cfg, 21, 300, 1)
    assert asymmetric.cs == tuple(np.linspace(-0.25, 0.3, 21).tolist())


def test_line_profile_needs_three_points(ref):
    _, _, geom, cfg = ref
    line = LineLocus(direction=(1.0, 1.0, 1.0), offsets=(0.0, 0.0, 0.0), c_range=(-0.1, 0.1))
    with pytest.raises(DomainError):
        line_profile(line, geom, cfg, n_points=2, runs=100, seed=0)


@pytest.mark.parametrize("c_range", [(0.25, -0.25), (0.1, 0.1), (math.nan, 0.1), (-0.1, math.inf), ("a", 0.1)])
def test_line_profile_refuses_degenerate_c_range(ref, monkeypatch, c_range):
    # a reversed range used to skip the parabola refinement, an empty one to
    # profile one point n_points times
    _, _, geom, cfg = ref
    calls = []
    real = search_module.estimate_points
    monkeypatch.setattr(search_module, "estimate_points", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    line = LineLocus(direction=(1.0, 1.0, 1.0), offsets=(0.0, 0.0, 0.0), c_range=c_range)
    with pytest.raises(DomainError, match="c_range"):
        line_profile(line, geom, cfg, n_points=5, runs=100, seed=0)
    assert calls == []


def _count_estimates(monkeypatch):
    """Calls that reach estimate_points, through montecarlo or through search's binding."""
    calls = []
    real = montecarlo.estimate_points

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "estimate_points", counting)
    monkeypatch.setattr(search_module, "estimate_points", counting)
    return calls


@pytest.mark.parametrize("n_points", [4.5, "5", 5.0, True])
def test_line_profile_refuses_non_integer_n_points(ref, monkeypatch, n_points):
    # 4.5 used to end in a bare TypeError from np.linspace, "5" in one from the comparison
    _, _, geom, cfg = ref
    calls = _count_estimates(monkeypatch)
    line = LineLocus(direction=(1.0, 1.0, 1.0), offsets=(0.0, 0.0, 0.0), c_range=(-0.1, 0.1))
    with pytest.raises(DomainError, match="n_points"):
        line_profile(line, geom, cfg, n_points=n_points, runs=100, seed=0)
    assert calls == []


@pytest.mark.parametrize(
    "direction, offsets",
    [
        ((1.0,), (0.0, 0.05, 0.0)),  # used to broadcast into a profile along (c, c + 0.05, c)
        ((1.0, 1.0), (0.0, 0.05, 0.0)),  # used to end in numpy's broadcast ValueError
        ((1.0, 1.0, 1.0), (0.0, math.nan, 0.0)),
        ((1.0, math.inf, 1.0), (0.0, 0.05, 0.0)),
        ((1.0, "a", 1.0), (0.0, 0.05, 0.0)),
        (((1.0, 1.0, 1.0),) * 2, ((0.0, 0.05, 0.0),) * 2),  # two lines where one is asked for
    ],
)
def test_line_profile_refuses_bad_line(ref, monkeypatch, direction, offsets):
    _, _, geom, cfg = ref
    calls = _count_estimates(monkeypatch)
    line = LineLocus(direction=direction, offsets=offsets, c_range=(-0.1, 0.1))
    with pytest.raises(DomainError, match="direction"):
        line_profile(line, geom, cfg, n_points=5, runs=100, seed=0)
    assert calls == []


@pytest.mark.parametrize("bounds", [(0, "a"), ("lo", "hi"), ((0.0, 1.0), 2.0, (0.0, 1.0)), ((0.0, 1.0, 2.0),) * 3])
def test_grid_bounds_must_be_number_pairs(ref, monkeypatch, bounds):
    # (0, "a") used to end in a bare TypeError from math.isfinite
    _, _, geom, cfg = ref
    calls = _count_estimates(monkeypatch)
    spec = GridSpec(bounds=bounds, points_per_axis=3, runs=100)
    with pytest.raises(DomainError, match="bounds"):
        spec.axes(3)
    with pytest.raises(DomainError, match="bounds"):
        grid_eval(spec, "conditioned", geom, cfg)
    with pytest.raises(DomainError, match="bounds"):
        min_cp_search(dataclasses.replace(_tiny_config(geom, cfg), cube=spec))
    assert calls == []


@pytest.mark.parametrize("threads", ["junk", "0", "-3"])
def test_min_cp_search_refuses_bad_threads_env_before_any_estimate(ref, monkeypatch, threads):
    _, _, geom, cfg = ref
    calls = _count_estimates(monkeypatch)
    monkeypatch.setenv("ANCOVA_CP_THREADS", threads)
    with pytest.raises(DomainError, match="ANCOVA_CP_THREADS"):
        min_cp_search(_tiny_config(geom, cfg))
    assert calls == []


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
    # at 1e15, (offset + 0.05) - offset == 0: the estimate was taken at the
    # wrong slope differences (0.919 against 0.288) without a word
    for offset in (1e9, 1e15, -1e15):
        with pytest.raises(DomainError, match="offset"):
            second_test_only_cp((0.05, 0.0), geom, cfg, runs=100, seed=0, offset=offset)


@pytest.mark.parametrize("design", ["ref", "small", "k4"])
def test_far_points_of_the_default_square_are_past_the_first_test(request, design):
    # the premise of one fixed FAR_OFFSET: at every far point of the default square the first test
    # accepts with closed-form probability 0.0, so min2 is second-stage-only coverage there
    _, _, geom, cfg = request.getfixturevalue(design)
    deltas = search_module._lattice(SearchConfig(geom=geom, cfg=cfg).square.axes(geom.k - 1))
    assert len(deltas) == 21 ** (geom.k - 1)
    terms = SlopeTerms.of(search_module._far_points(deltas, search_module.FAR_OFFSET, "unused"), geom)
    assert np.all(acceptance(terms, geom, cfg)[:, 0] == 0.0)
    assert terms.svs.min() > 1e7  # the smallest noncentrality: 3.1e9, 2.5e7 and 1.1e8


def test_min_cp_search_names_the_square_when_its_delta_is_lost(ref):
    _, _, geom, cfg = ref
    wide = 2.0**27 - 0.3  # 1000 + wide rounds to a multiple of 2**-25
    square = GridSpec(bounds=(-wide, wide), points_per_axis=3, runs=300)
    refusal = r"^square bounds \(-134217727.7, 134217727.7\) are too wide: .* the delta -?134217727.7$"
    with pytest.raises(DomainError, match=refusal):
        min_cp_search(dataclasses.replace(_tiny_config(geom, cfg), square=square))


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
    assert [(g["test"], len(g["point"])) for g in gates] == [("tau", 3), ("xi", 2)]
    for g in gates:
        assert set(g) == {"test", "point", "reject_prob"} and 0.0 <= g["reject_prob"] <= 1.0

    # the winning estimate must be reproducible from its own metadata
    best = report.overall
    redo = estimate_conditioned(best.point, geom, cfg, runs=best.runs, seed=best.seed)
    assert redo.estimate == best.estimate
    assert redo.se == best.se


def test_min_cp_search_over_an_overflowing_cube_is_warning_free(ref):
    # the cube's forms and the weakest face's squared bound used to overflow, an error under the warning filter
    _, _, geom, cfg = ref
    cube = GridSpec(bounds=(-1e200, 1e200), points_per_axis=3, runs=100, seed=0)
    report = min_cp_search(dataclasses.replace(_tiny_config(geom, cfg, runs=100), cube=cube, profile_points=3))
    tau, _ = report.diagnostics["gates"]
    assert tau["reject_prob"] == 1.0
    assert report.min2.estimate == min(e.estimate for _, e in report.square_table)


def test_min_cp_search_rejects_zero_n_jobs(ref):
    _, _, geom, cfg = ref
    with pytest.raises(DomainError, match="n_jobs"):
        min_cp_search(dataclasses.replace(_tiny_config(geom, cfg), n_jobs=0))


@pytest.mark.parametrize(
    "change",
    [
        {"square": GridSpec(bounds=(-0.2, 0.2), points_per_axis=1, runs=300)},
        {"square": GridSpec(bounds=(0.2, -0.2), points_per_axis=3, runs=300)},
        {"cube": GridSpec(bounds=((-0.2, 0.2),) * 2, points_per_axis=3, runs=300)},
        {"cube": GridSpec(bounds=(-0.2, 0.2), points_per_axis=3.0, runs=300)},
        {"profile_points": 2},
        {"profile_points": 4.0},
        {"threshold": math.nan},
        {"threshold": math.inf},
        # bounds whose width overflows: the square's used to be refused only after the whole cube phase
        {"square": GridSpec(bounds=(-1e308, 1e308), points_per_axis=3, runs=300)},
        {"cube": GridSpec(bounds=(-1e308, 1e308), points_per_axis=5, runs=300)},
        # a square delta that FAR_OFFSET + delta rounds away
        {"square": GridSpec(bounds=(-(2.0**27 - 0.3), 2.0**27 - 0.3), points_per_axis=3, runs=300)},
        {"threshold": "0.6"},
        {"square": GridSpec(bounds=((-0.2, 0.2), (-1e308, 1e308)), points_per_axis=3, runs=300)},
        # the budgets: the square's would otherwise be checked only after the cube and profile phases
        {"square": GridSpec(bounds=(-0.2, 0.2), points_per_axis=9, runs=0, seed=0)},
        {"square": GridSpec(bounds=(-0.2, 0.2), points_per_axis=3, runs=2.0)},
        {"square": GridSpec(bounds=(-0.2, 0.2), points_per_axis=3, runs=2**32 + 1)},
        {"square": GridSpec(bounds=(-0.2, 0.2), points_per_axis=3, runs=300, seed=-1)},
        {"square": GridSpec(bounds=(-0.2, 0.2), points_per_axis=3, runs=300, seed=1.0)},
        {"cube": GridSpec(bounds=(-0.25, 0.25), points_per_axis=5, runs=0)},
        {"cube": GridSpec(bounds=(-0.25, 0.25), points_per_axis=5, runs=800.0)},
        {"cube": GridSpec(bounds=(-0.25, 0.25), points_per_axis=5, runs=800, seed=-1)},
    ],
)
def test_min_cp_search_validates_before_any_estimate(ref, monkeypatch, change):
    _, _, geom, cfg = ref
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    real = montecarlo.estimate_points
    monkeypatch.setattr(montecarlo, "estimate_points", counting)
    monkeypatch.setattr(search_module, "estimate_points", counting)
    with pytest.raises(DomainError):
        min_cp_search(dataclasses.replace(_tiny_config(geom, cfg), **change))
    assert calls == []
    min_cp_search(_tiny_config(geom, cfg))
    assert calls


def test_min_cp_search_warns_on_low_boundary_rejection(ref):
    # on a +-0.05 cube the first test rejects at its weakest boundary point with
    # probability about 0.22, so the cube restriction does not hold: a warning, not an error
    _, _, geom, cfg = ref
    cube = GridSpec(bounds=(-0.05, 0.05), points_per_axis=3, runs=1000, seed=0)
    report = min_cp_search(dataclasses.replace(_tiny_config(geom, cfg, runs=1000), cube=cube))
    tau, _ = report.diagnostics["gates"]
    assert tau["test"] == "tau" and 0.2 < tau["reject_prob"] < 0.25
    gate_warnings = [w for w in report.diagnostics["warnings"] if "rejection probability" in w]
    assert [w.split(" rejection probability ")[0] for w in gate_warnings] == ["first-stage", "second-stage"]
    assert "cube boundary point" in gate_warnings[0] and "square boundary point" in gate_warnings[1]


def test_default_search_warns_on_the_square_boundary(ref):
    # the square's corners reject with probability near 1, but its edge point
    # (-0.2, -0.0728) rejects with 0.9517: the weakest boundary point, not a corner
    _, _, geom, cfg = ref
    report = min_cp_search(_tiny_config(geom, cfg, runs=200))
    tau, xi = report.diagnostics["gates"]
    assert tau == {"test": "tau", "point": (0.0, -0.25, 0.0), "reject_prob": pytest.approx(0.99953, abs=1e-5)}
    assert math.copysign(1.0, tau["point"][0]) == math.copysign(1.0, tau["point"][2]) == 1.0
    assert xi["test"] == "xi" and xi["reject_prob"] == pytest.approx(0.95172, abs=1e-5)
    assert xi["point"] == (-0.2, pytest.approx(-0.0727553, abs=1e-7))
    for corner in itertools.product((-0.2, 0.2), repeat=2):
        assert 1.0 - gate_probability(np.array([0.0, *corner]), geom, cfg, "xi") > search_module.GATE_WARN_BELOW
    warnings = [w for w in report.diagnostics["warnings"] if "rejection" in w]
    assert len(warnings) == 1 and warnings[0].startswith("second-stage rejection probability 0.9517 at square")


def _boundary_lattice(bounds, dim, n):
    """Every point of an n-point lattice on each face of the box [lo, hi]^dim."""
    axis = np.linspace(*bounds, n)
    inner = np.array(list(itertools.product(axis, repeat=dim - 1))).reshape(n ** (dim - 1), dim - 1)
    faces = [np.insert(inner, i, c, axis=1) for i in range(dim) for c in bounds]
    return np.concatenate(faces)


# (design, cube reject, square reject) at the default bounds
WEAKEST_GATES = [("ref", 0.9995, 0.9517), ("small", 0.1214, 0.1191), ("k4", 0.1259, 0.1139)]


@pytest.mark.parametrize("design,cube_reject,square_reject", WEAKEST_GATES)
def test_gates_sit_at_the_weakest_boundary_point(request, design, cube_reject, square_reject):
    # against a brute-force minimum over a fine lattice on every face: the least
    # noncentrality on the boundary, where the test rejects least often
    layout, contrast, geom, cfg = request.getfixturevalue(design)
    direct = direct_geometry(layout, np.asarray(contrast.a))
    config = _tiny_config(geom, cfg, runs=100)
    config = dataclasses.replace(config, cube=dataclasses.replace(config.cube, points_per_axis=2), profile_points=3)
    tau, xi = min_cp_search(config).diagnostics["gates"]
    for gate, bounds, dim, mat, reject in (
        (tau, (-0.25, 0.25), geom.k, direct["v22_inv"], cube_reject),
        (xi, (-0.2, 0.2), geom.k - 1, direct["w22_inv"], square_reject),
    ):
        lattice = _boundary_lattice(bounds, dim, 401 if dim < 3 else 41)
        lam = np.einsum("ni,ij,nj->n", lattice, mat, lattice)
        weakest = lattice[np.argmin(lam)]
        slopes = weakest if gate is tau else np.concatenate([[0.0], weakest])
        brute = 1.0 - gate_prob_ncf(geom, cfg, slopes, gate["test"])
        assert gate["reject_prob"] <= brute + 1e-12
        assert gate["reject_prob"] == pytest.approx(brute, abs=2e-4)
        assert round(gate["reject_prob"], 4) == reject
        assert np.max(np.abs(gate["point"])) == bounds[1] and np.all(np.abs(gate["point"]) <= bounds[1])


def _fine_config(geom, cfg, n_jobs=None, runs=900):
    return SearchConfig(
        geom=geom,
        cfg=cfg,
        estimator="conditioned",
        cube=GridSpec(bounds=(-0.25, 0.25), points_per_axis=7, runs=runs, seed=0),
        square=GridSpec(bounds=(-0.2, 0.2), points_per_axis=3, runs=runs, seed=0),
        profile_points=5,
        n_jobs=n_jobs,
    )


@pytest.mark.parametrize("threads", ["2", "4"])
def test_min_cp_search_thread_invariant_through_env(ref, monkeypatch, threads):
    # 900 runs is one chunk and runs serially; one more chunk makes the threads run
    _, _, geom, cfg = ref
    for runs in (900, montecarlo.CHUNK_SIZE + 100):
        config = _fine_config(geom, cfg, runs=runs)
        serial = min_cp_search(dataclasses.replace(config, n_jobs=1))
        assert serial.lines is not None
        monkeypatch.setenv("ANCOVA_CP_THREADS", threads)
        assert min_cp_search(config) == serial


def test_pools_open_only_for_several_chunks(ref, monkeypatch):
    # the chunk workers are shared by every call: count the helpers a call asks for and the threads that draw
    _, _, geom, cfg = ref
    helpers, threads = [], []
    workers, stream = montecarlo._workers, montecarlo._stream

    class CountingWorkers:
        def submit(self, fn):
            helpers.append(fn)
            return workers().submit(fn)

    monkeypatch.setattr(montecarlo, "_workers", CountingWorkers)
    monkeypatch.setattr(montecarlo, "_stream", lambda *key: threads.append(threading.get_ident()) or stream(*key))
    monkeypatch.setenv("ANCOVA_CP_THREADS", "2")
    # every phase of a 900-run search is one chunk: nothing to fan out, every chunk drawn by the calling thread
    assert min_cp_search(_fine_config(geom, cfg)).lines is not None
    assert helpers == [] and set(threads) == {threading.get_ident()}
    # three chunks need at most three threads: the caller and two helpers
    point = SlopePoint.of((0.0, 0.1, 0.0))
    for _ in range(3):
        threads.clear()
        estimate_conditioned(point, geom, cfg, runs=2 * montecarlo.CHUNK_SIZE + 1, seed=0, n_jobs=4)
        assert len(threads) == 3 and len(set(threads)) <= 3
    assert len(helpers) == 3 * 2
    helpers.clear()
    estimate_conditioned(point, geom, cfg, runs=2 * montecarlo.CHUNK_SIZE + 1, seed=0, n_jobs=1)
    min_cp_search(_fine_config(geom, cfg, n_jobs=1))
    assert helpers == []


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


def test_write_grid_csv_refuses_an_empty_table(tmp_path):
    path = tmp_path / "grid.csv"
    with pytest.raises(DomainError, match="at least one row"):
        write_grid_csv([], path)
    assert not path.exists()


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


def _csv_writer_bytes(rows, path) -> bytes:
    """The rows as csv.writer writes them with its defaults: minimal quoting, \\r\\n endings."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return path.read_bytes()


def test_csv_bytes_match_a_csv_writer_rendering(tmp_path):
    points = [SlopePoint.of(p) for p in ((-0.25, 1e-05, -0.0), (0.1, -1e-05, 0.0), (-1e-05, -0.0, -0.2))]
    ests = [
        CoverageEstimate(value, se, 2000, name, seed, point)
        for value, se, name, seed, point in zip(
            (1e-05, -0.0, 0.9412), (1e-05, 0.0, 0.0031), ("conditioned", "naive", "gate_tau"), (0, 7, 12), points
        )
    ]
    fields = [[str(e.estimate), str(e.se), str(e.runs), e.estimator, str(e.seed)] for e in ests]
    gammas = ["gamma_1", "gamma_2", "gamma_3"]
    tail = ["estimate", "se", "runs", "estimator", "seed"]

    write_grid_csv(list(zip(points, ests)), tmp_path / "grid.csv")
    rows = [gammas + tail] + [[str(v) for v in p.values] + f for p, f in zip(points, fields)]
    assert (tmp_path / "grid.csv").read_bytes() == _csv_writer_bytes(rows, tmp_path / "grid_ref.csv")
    assert b"-0.0," in (tmp_path / "grid.csv").read_bytes() and b"1e-05" in (tmp_path / "grid.csv").read_bytes()

    cs = (-0.1, -0.0, 1e-05)
    line = LineLocus(direction=(1.0, 1.0, 1.0), offsets=(0.0, -0.05, 1e-05), c_range=(-0.1, 0.1))
    write_profile_csv(LineProfile(line, cs, tuple(ests), -0.0, 1e-05), tmp_path / "profile.csv")
    rows = [["c"] + gammas + tail] + [[str(c)] + [str(v) for v in p.values] + f for c, p, f in zip(cs, points, fields)]
    assert (tmp_path / "profile.csv").read_bytes() == _csv_writer_bytes(rows, tmp_path / "profile_ref.csv")


# ---------------------------------------------------------------------------
# points the search builds itself are checked once, at their bounds
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4), min_size=1, max_size=4
    )
)
def test_lattice_is_itertools_product_bit_for_bit(axes):
    axes = [np.asarray(ax) for ax in axes]
    expected = np.array(list(itertools.product(*axes)), dtype=float).reshape(-1, len(axes))
    assert search_module._lattice(axes).tobytes() == expected.tobytes()


def _count_check_real(monkeypatch):
    """Calls of errors.check_real through every binding the package's modules hold."""
    from ancova_cp import errors

    calls = []
    real = errors.check_real

    def counting(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("ancova_cp") and getattr(module, "check_real", None) is real:
            monkeypatch.setattr(module, "check_real", counting)
    return calls


def test_search_checks_no_number_it_generated(ref, monkeypatch):
    # every lattice, profile and square point used to go through check_real once per coordinate
    _, _, geom, cfg = ref
    counts = []
    for density in (5, 9):
        calls = _count_check_real(monkeypatch)
        config = _tiny_config(geom, cfg, runs=300)
        cube = dataclasses.replace(config.cube, points_per_axis=density)
        # a threshold that the 5^3 lattice also fits lines to, so both searches run every phase
        report = min_cp_search(dataclasses.replace(config, cube=cube, threshold=0.8))
        assert report.lines is not None and len(report.cube_table) == density**3
        counts.append(len(calls))
        monkeypatch.undo()
    assert counts[0] == counts[1] > 0


def test_estimates_carry_the_checked_points_as_floats(ref):
    _, _, geom, cfg = ref
    rows = np.array([[-0.0, 0.1, 0.0], [0.25, -0.125, 5e-324]])
    for points in (rows, rows.astype(np.float32), rows.tolist(), [SlopePoint.of(r) for r in rows]):
        ests = estimate_points(points, geom, cfg, runs=100)
        expected = np.asarray(points if not isinstance(points[0], SlopePoint) else rows, dtype=float)
        for row, est in zip(expected, ests):
            assert est.point == SlopePoint.of(row)
            assert all(type(v) is float for v in est.point.values)
            assert np.array(est.point.values).tobytes() == row.tobytes()
    report = min_cp_search(_tiny_config(geom, cfg, runs=300))
    tables = [report.cube_table, [(est.point, est) for p in report.profiles for est in p.estimates]]
    for point, est in itertools.chain(*tables, [(e.point, e) for _, e in report.square_table]):
        assert est.point == SlopePoint.of(est.point.values) and point == est.point
        assert all(type(v) is float for v in est.point.values)
