import contextlib
import dataclasses
import math
import os
import select
import signal
import struct
import sys
import threading
import warnings
from concurrent.futures import Future

import numpy as np
import pytest

from ancova_cp import (
    AncovaLayout,
    ContrastSpec,
    DomainError,
    GridSpec,
    SlopePoint,
    batch_events,
    build_geometry,
    critical_values,
    estimate_conditioned,
    estimate_naive,
    estimate_points,
    event_probabilities,
    gate_probability,
    grid_eval,
    second_test_only_cp,
)
from ancova_cp import conditional, montecarlo
from ancova_cp.conditional import ConditionalKernel, separate_mean
from ancova_cp.montecarlo import BLOCK_CELLS, CHUNK_SIZE, _draw_full, _draw_slopes, _stream, default_workers
from ancova_cp.selection import EventNoise, SlopeNoise, SlopeTerms, acceptance, block_f, events
from oracles import assembled, direct_geometry, gate_prob_mc, gate_prob_ncf, past_radii, slope_draws

POINT = SlopePoint.of((0.05, 0.1, 0.0))


def test_slope_point_normalizes_and_validates():
    p = SlopePoint.of(np.array([0.25, -0.5]))
    assert p.values == (0.25, -0.5)
    assert all(isinstance(v, float) for v in p.values)
    with pytest.raises(DomainError):
        SlopePoint.of(())
    with pytest.raises(DomainError):
        SlopePoint.of((1.0, math.nan))


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("estimate", [estimate_naive, estimate_conditioned])
def test_rerun_is_bit_identical(ref, estimate):
    _, _, geom, cfg = ref
    one = estimate(POINT, geom, cfg, runs=4000, seed=3)
    two = estimate(POINT, geom, cfg, runs=4000, seed=3)
    assert one.estimate == two.estimate
    assert one.se == two.se


@pytest.mark.parametrize("estimate", [estimate_naive, estimate_conditioned])
def test_serial_equals_parallel(ref, estimate):
    _, _, geom, cfg = ref
    runs = 2 * CHUNK_SIZE + 500
    serial = estimate(POINT, geom, cfg, runs=runs, seed=7, n_jobs=1)
    threaded = estimate(POINT, geom, cfg, runs=runs, seed=7, n_jobs=4)
    assert serial.estimate == threaded.estimate
    assert serial.se == threaded.se


@pytest.mark.parametrize("estimator", ["naive", "conditioned"])
def test_block_matches_single_point_calls(ref, estimator):
    # several chunks, and more points than fit in one block of cells
    _, _, geom, cfg = ref
    runs = CHUNK_SIZE + 700
    assert BLOCK_CELLS // CHUNK_SIZE < 5
    points = [SlopePoint.of(p) for p in np.random.default_rng(5).uniform(-0.3, 0.3, (5, 3))]
    block = estimate_points(points, geom, cfg, estimator, runs=runs, seed=4)
    for point, est in zip(points, block):
        alone = estimate_points([point], geom, cfg, estimator, runs=runs, seed=4)[0]
        assert (est.estimate, est.se, est.point) == (alone.estimate, alone.se, point)
        assert est.estimator == estimator and est.runs == runs


@pytest.mark.parametrize("estimator", ["gate_tau", "gate_xi"])
def test_estimate_points_refuses_the_gate_tags(ref, estimator):
    # the gates are closed form (selection.gate_probability), no longer estimated
    _, _, geom, cfg = ref
    with pytest.raises(DomainError, match="estimator"):
        estimate_points([POINT], geom, cfg, estimator, runs=100, seed=0)


# (design, cutoffs, spread of the points about a common slope, spread of that slope)
MIXED_CASES = {
    "reference": ("ref", None, 0.1, 0.2),
    "small k=2": ("small", None, 0.6, 0.6),
    "unbalanced k=4": ("k4", None, 0.6, 0.6),
    "all region C": ("ref", (0.0, 0.0), 0.1, 0.2),
    "all region A": ("ref", (1e12, 1e12), 0.1, 0.2),
}


@pytest.mark.parametrize("case", list(MIXED_CASES))
def test_conditioned_block_matches_single_point_where_regions_mix(request, case):
    # 2000 runs make blocks of 8 points; region-C cells take the shared
    # per-draw value, region-A and region-B cells are evaluated per point
    design, cutoffs, spread, level = MIXED_CASES[case]
    _, _, geom, cfg = request.getfixturevalue(design)
    if cutoffs is not None:
        cfg = dataclasses.replace(cfg, l_tau=cutoffs[0], l_xi=cutoffs[1])
    runs, seed = 2000, 5
    step = BLOCK_CELLS // runs
    assert step == 8
    rng = np.random.default_rng(11)
    slopes = rng.uniform(-spread, spread, (3 * step + 2, geom.k)) + rng.uniform(-level, level, (3 * step + 2, 1))
    z, d = slope_draws(_stream(seed, "conditioned", 0), geom, runs)
    noise = _draw_slopes(_stream(seed, "conditioned", 0), geom, runs).noise
    # the draws the estimate makes for its one chunk
    assert all(np.array_equal(a, b) for a, b in zip(noise, SlopeNoise.of(z, d, geom)))
    ev = batch_events(np.concatenate([np.zeros_like(z), z], axis=1), noise.d, slopes, geom, cfg)
    for start in range(0, len(slopes), step):
        in_a, in_b = ev.in_a[start : start + step], ev.in_b[start : start + step]
        in_c = ~in_a & ~in_b
        if cutoffs is None:
            assert in_a.any() and in_b.any() and in_c.any()
        else:
            assert (in_c if cutoffs[0] == 0.0 else in_a).all()
    points = [SlopePoint.of(s) for s in slopes]
    block = estimate_points(points, geom, cfg, "conditioned", runs=runs, seed=seed)
    for point, est in zip(points, block):
        alone = estimate_points([point], geom, cfg, "conditioned", runs=runs, seed=seed)[0]
        assert (est.estimate, est.se) == (alone.estimate, alone.se)


@pytest.mark.parametrize("estimator", ["conditioned", "naive"])
def test_shared_draw_blocks_are_thread_invariant(ref, monkeypatch, estimator):
    # many 8-point blocks per chunk; 2000 runs is one chunk and runs serially,
    # CHUNK_SIZE + 100 is two chunks, one per thread
    _, _, geom, cfg = ref
    points = [SlopePoint.of(p) for p in np.random.default_rng(8).uniform(-0.3, 0.3, (37, 3))]
    for runs in (2000, CHUNK_SIZE + 100):
        spec = GridSpec(bounds=(-0.25, 0.25), points_per_axis=4, runs=runs, seed=6)
        serial = estimate_points(points, geom, cfg, estimator, runs=runs, seed=6, n_jobs=1)
        serial_grid = grid_eval(spec, estimator, geom, cfg, n_jobs=1)
        for n_jobs in (2, 4):
            threaded = estimate_points(points, geom, cfg, estimator, runs=runs, seed=6, n_jobs=n_jobs)
            assert [(e.estimate, e.se) for e in threaded] == [(e.estimate, e.se) for e in serial]
            assert grid_eval(spec, estimator, geom, cfg, n_jobs=n_jobs) == serial_grid
        monkeypatch.setenv("ANCOVA_CP_THREADS", "2")
        threaded = estimate_points(points, geom, cfg, estimator, runs=runs, seed=6)
        assert [(e.estimate, e.se) for e in threaded] == [(e.estimate, e.se) for e in serial]
        assert grid_eval(spec, estimator, geom, cfg) == serial_grid


def test_block_is_thread_invariant_through_env(ref, monkeypatch):
    _, _, geom, cfg = ref
    points = [SlopePoint.of(p) for p in np.random.default_rng(6).uniform(-0.3, 0.3, (7, 3))]
    runs = 3 * CHUNK_SIZE + 11
    serial = estimate_points(points, geom, cfg, "conditioned", runs=runs, seed=2, n_jobs=1)
    for threads in ("2", "4"):
        monkeypatch.setenv("ANCOVA_CP_THREADS", threads)
        threaded = estimate_points(points, geom, cfg, "conditioned", runs=runs, seed=2)
        assert [(e.estimate, e.se) for e in threaded] == [(e.estimate, e.se) for e in serial]


def test_estimate_points_validation(ref):
    _, _, geom, cfg = ref
    with pytest.raises(DomainError):
        estimate_points([], geom, cfg, "conditioned", runs=100)
    with pytest.raises(DomainError):
        estimate_points([POINT], geom, cfg, "events", runs=100)
    with pytest.raises(DomainError):
        estimate_points([POINT, (0.0, 0.0)], geom, cfg, "naive", runs=100)


# ---------------------------------------------------------------------------
# float representation of the point cannot matter
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("estimate", [estimate_naive, estimate_conditioned])
def test_signed_zero_gives_bit_identical_estimates(ref, estimate):
    _, _, geom, cfg = ref
    plus = estimate((0.0, 0.1, 0.0), geom, cfg, runs=20_000, seed=0)
    minus = estimate((-0.0, 0.1, -0.0), geom, cfg, runs=20_000, seed=0)
    assert (plus.estimate, plus.se) == (minus.estimate, minus.se)


def test_one_ulp_moves_estimate_negligibly(ref):
    _, _, geom, cfg = ref
    base = estimate_conditioned((0.0, 0.1, 0.0), geom, cfg, runs=20_000, seed=0)
    for moved in [
        (np.nextafter(0.0, 1.0), 0.1, 0.0),
        (0.0, np.nextafter(0.1, 1.0), 0.0),
        (0.0, 0.1, np.nextafter(0.0, -1.0)),
    ]:
        est = estimate_conditioned(moved, geom, cfg, runs=20_000, seed=0)
        assert abs(est.estimate - base.estimate) <= 1e-9


# ---------------------------------------------------------------------------
# chunk sums
# ---------------------------------------------------------------------------


def test_chunk_sums_give_the_moments_of_the_per_draw_values(ref):
    # every estimator's per-point statistics are plain sums that add across chunks: the naive indicators' sums,
    # and the conditioned values' region sums, from which v = c outside regions A and B gives the sum of v and of
    # its squares; at coverage-sized values the deviations those sums give lose only rounding to cancellation
    _, _, geom, cfg = ref
    points = np.array([(0.0, 0.1, 0.0), (0.1, -0.05, 0.15), (0.0, 0.0, 0.0)])
    regions, (total, squares) = _region_sums(ConditionalKernel(geom, cfg, points), RUNS_3, 3)
    for i, point in enumerate(points):
        v = _per_draw(geom, cfg, point, RUNS_3, 3)[0]
        counts, values, c, _, cc, vv = regions[:6, :, i].sum(axis=1)
        assert 0 < counts < RUNS_3
        mean = (values + total - c) / RUNS_3
        assert mean == pytest.approx(v.mean(), rel=1e-14)
        assert vv + squares - cc - RUNS_3 * mean * mean == pytest.approx(np.var(v) * RUNS_3, rel=1e-10)
    terms = SlopeTerms.of(points, geom)
    covers = np.concatenate(
        [
            events(EventNoise.of(*_draw_full(_stream(3, "naive", chunk), geom, size), geom), terms, geom, cfg)
            .covers_selected
            for chunk, size in enumerate(montecarlo._chunk_sizes(RUNS_3))
        ],
        axis=1,
    )
    for est, row in zip(estimate_points(points, geom, cfg, "naive", runs=RUNS_3, seed=3), covers):
        assert est.estimate == pytest.approx(row.mean(), rel=1e-15)
        assert est.se == pytest.approx(row.std(ddof=1) / math.sqrt(RUNS_3), rel=1e-12)


def test_partial_chunk_and_single_run(ref):
    _, _, geom, cfg = ref
    est = estimate_naive(POINT, geom, cfg, runs=CHUNK_SIZE + 7, seed=0)
    assert est.runs == CHUNK_SIZE + 7
    solo = estimate_conditioned(POINT, geom, cfg, runs=1, seed=0)
    assert solo.se == 0.0
    assert 0.0 <= solo.estimate <= 1.0


def test_seed_changes_estimate(ref):
    _, _, geom, cfg = ref
    a = estimate_naive(POINT, geom, cfg, runs=4000, seed=0)
    b = estimate_naive(POINT, geom, cfg, runs=4000, seed=1)
    assert a.estimate != b.estimate


def test_intercept_override_cannot_move_estimates(ref):
    _, _, geom, cfg = ref
    for estimate in (estimate_naive, estimate_conditioned):
        base = estimate(POINT, geom, cfg, runs=6000, seed=11)
        moved = estimate(POINT, geom, cfg, runs=6000, seed=11, intercepts=(5.0, -3.0, 2.0))
        assert base.estimate == moved.estimate
        assert base.se == moved.se


def test_estimate_metadata(ref):
    _, _, geom, cfg = ref
    est = estimate_naive((0.0, 0.0, 0.0), geom, cfg, runs=500, seed=4)
    assert est.estimator == "naive"
    assert est.seed == 4
    assert est.runs == 500
    assert est.point == SlopePoint.of((0.0, 0.0, 0.0))
    est2 = estimate_conditioned(POINT, geom, cfg, runs=500, seed=4)
    assert est2.estimator == "conditioned"


# ---------------------------------------------------------------------------
# sampling distribution of the sufficient statistics
# ---------------------------------------------------------------------------


def test_draw_full_moments(ref):
    # gamma_hat = gamma + L z has mean gamma and covariance (X'X)^-1; d has mean m
    layout, contrast, geom, _ = ref
    xtx_inv = direct_geometry(layout, np.asarray(contrast.a))["xtx_inv"]
    n = 4000
    delta, ds = _draw_full(np.random.default_rng(2024), geom, n)
    gamma = np.array([0, 0, 0, 0.05, 0.1, 0.0])
    gammas = gamma + delta
    mean_se = np.sqrt(np.diag(xtx_inv) / n)
    assert np.all(np.abs(gammas.mean(axis=0) - gamma) < 4 * mean_se)
    cov = np.cov(gammas.T)
    scale = np.sqrt(np.outer(np.diag(xtx_inv), np.diag(xtx_inv)))
    assert np.max(np.abs(cov - xtx_inv) / scale) < 0.15
    assert abs(ds.mean() - geom.m) < 4 * math.sqrt(2 * geom.m / n)


# ---------------------------------------------------------------------------
# exactness anchors
# ---------------------------------------------------------------------------


def test_forced_full_model_is_nominal(ref):
    _, _, geom, cfg = ref
    forced = dataclasses.replace(cfg, l_tau=0.0, l_xi=0.0)
    point = SlopePoint.of((0.3, -0.2, 0.1))
    for estimate in (estimate_naive, estimate_conditioned):
        est = estimate(point, geom, forced, runs=20_000, seed=5)
        assert abs(est.estimate - 0.95) <= 3 * est.se


def test_forced_reduced_model_is_nominal_at_null(ref):
    _, _, geom, cfg = ref
    forced_a = dataclasses.replace(cfg, l_tau=math.inf)
    zero = SlopePoint.of((0.0, 0.0, 0.0))
    for estimate in (estimate_naive, estimate_conditioned):
        est = estimate(zero, geom, forced_a, runs=20_000, seed=6)
        assert abs(est.estimate - 0.95) <= 3 * est.se


# ---------------------------------------------------------------------------
# gate probabilities: the noncentral F CDF, against scipy's ncf and a simulated F
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "which,slopes",
    [
        ("tau", (0.0, 0.0, 0.0)),
        ("tau", (0.1, 0.05, -0.05)),
        ("xi", (2.0, 2.05, 1.95)),
        ("xi", (0.0, 0.15, -0.1)),
    ],
)
def test_gate_probability_against_ncf(ref, which, slopes):
    # relative, not bit for bit: another scipy release may compute the CDF with other rounding
    _, _, geom, cfg = ref
    exact = gate_probability(SlopePoint.of(slopes), geom, cfg, which)
    assert type(exact) is float
    assert exact == pytest.approx(gate_prob_ncf(geom, cfg, np.asarray(slopes), which), rel=1e-9)
    assert gate_probability(np.asarray(slopes), geom, cfg, which) == exact


@pytest.mark.parametrize("design", ["ref", "small", "k4"])
def test_gate_probability_matches_a_simulated_f(request, design):
    # points in units of the slope noise, so that both tests accept and reject on a good share of draws
    layout, contrast, geom, cfg = request.getfixturevalue(design)
    rng = np.random.default_rng(21)
    points = rng.uniform(-2.0, 2.0, (3, geom.k)) @ geom.v22_chol.T
    for i, point in enumerate(points):
        for which in ("tau", "xi"):
            exact = gate_probability(point, geom, cfg, which)
            sim, se = gate_prob_mc(layout, contrast.a, cfg, point, which, runs=20_000, seed=30 + i)
            assert 0.01 < sim < 0.99
            assert abs(exact - sim) <= 3 * se, (point, which, exact, sim, se)


def test_gate_probability_null_level(ref):
    # at zero slopes F is central, so the first test accepts with probability 1 - sig_tau
    _, _, geom, cfg = ref
    assert gate_probability(SlopePoint.of((0.0, 0.0, 0.0)), geom, cfg, "tau") == pytest.approx(0.90, rel=1e-12)


def test_gate_probability_far_point_rejects(ref):
    _, _, geom, cfg = ref
    assert gate_probability(SlopePoint.of((10.0, 11.0, 9.0)), geom, cfg, "tau") < 1e-6
    # a noncentrality past about 1e19 made ncfdtr return NaN, which no gate warning compared below
    for point in ((1e10, 0.0, 0.0), (0.0, 1e10, -1e10), (1e200, -1e200, 0.0)):
        assert gate_probability(point, geom, cfg, "tau") == 0.0
        assert gate_probability(point, geom, cfg, "xi") == 0.0
    # at an infinite cutoff a test accepts on every draw, however far the point
    forced = dataclasses.replace(cfg, l_tau=math.inf)
    assert gate_probability((1e10, 0.0, 0.0), geom, forced, "tau") == 1.0


@pytest.mark.parametrize("estimate", [estimate_naive, estimate_conditioned])
def test_overflowing_slope_points_estimate_without_warnings(ref, estimate):
    # the point terms, forms and F statistics used to die on "overflow encountered in multiply" (and "invalid
    # value", inf - inf, at 1e308) under the RuntimeWarning filter; an overflowing one rejects, which gives the
    # right numbers (at 2e152 the forms are finite and only F overflows)
    _, _, geom, cfg = ref
    far = estimate((1e9, 0.0, 0.0), geom, cfg, runs=10_000, seed=3)
    for point in ((1e200, 0.0, 0.0), (1e308, 1e308, 0.0), (1e160, -1e160, 0.0), (2e152, -2e152, 0.0)):
        est = estimate(point, geom, cfg, runs=10_000, seed=3)
        assert (est.estimate, est.se) == (far.estimate, far.se), point
    # every slope difference 0: second-stage-only coverage at deltas (0, 0)
    second = second_test_only_cp((0.0, 0.0), geom, cfg, runs=10_000, seed=3, estimator=far.estimator)
    for point in ((1e200, 1e200, 1e200), (1e152, 1e152, 1e152)):
        est = estimate(point, geom, cfg, runs=10_000, seed=3)
        assert (est.estimate, est.se) == (second.estimate, second.se), point


@pytest.mark.parametrize("design", ["ref", "small", "k4"])
def test_acceptance_rows_equal_gate_probability_bit_for_bit(request, design):
    # one formula: the vector over rows of SlopeTerms and the one-point adapter, overflowing forms included
    _, _, geom, cfg = request.getfixturevalue(design)
    rng = np.random.default_rng(40)
    points = np.vstack([rng.uniform(-2.0, 2.0, (6, geom.k)) @ geom.v22_chol.T, np.full((1, geom.k), 1e200)])
    points[-1, 0] = -1e200
    terms = SlopeTerms.of(points, geom)  # warning-free, overflowing forms included
    accept = acceptance(terms, geom, cfg)
    assert np.isinf(terms.svs[-1, 0]) and accept[-1].tolist() == [0.0, 0.0]
    for point, row in zip(points, accept):
        assert row.tolist() == [gate_probability(point, geom, cfg, which) for which in ("tau", "xi")]
    # a row off ``live`` is not computed and reads 0.0; the live ones keep their bits
    live = np.zeros(accept.shape, dtype=bool)
    live[::2, 0] = live[1::2, 1] = True
    assert np.array_equal(acceptance(terms, geom, cfg, live), np.where(live, accept, 0.0))


def test_gate_probability_bad_test_name(ref):
    _, _, geom, cfg = ref
    with pytest.raises(DomainError):
        gate_probability(POINT, geom, cfg, "zeta")
    for point in ((0.1, 0.0), ((0.1, 0.0, 0.0),), (math.nan, 0.0, 0.0), ("0.1", 0.0, 0.0)):
        with pytest.raises(DomainError, match="slope point"):
            gate_probability(point, geom, cfg, "tau")


# ---------------------------------------------------------------------------
# control variates: the two tests' acceptance indicators and the region-C row in the conditioned estimator
# ---------------------------------------------------------------------------


def _region_sums(kernel, runs, seed):
    """The conditioned estimator's region sums (9, 2, P) and region-C row's sum and sum of squares over ``runs``."""
    return montecarlo._reduce("conditioned", _draw_slopes, kernel.chunk_sums, kernel.geom, runs, seed, 1)


def _per_draw(geom, cfg, point, runs, seed):
    """The conditioned estimator's per-draw values v, acceptance indicators a (first test) and x (second), and
    region-C row c."""
    parts = []
    for chunk, size in enumerate(montecarlo._chunk_sizes(runs)):
        draws = _draw_slopes(_stream(seed, "conditioned", chunk), geom, size)
        v = assembled(ConditionalKernel(geom, cfg, point).blocks(draws, 1), 1, draws.region_c(cfg)[0])[0]
        in_a, ok_xi = block_f(draws.noise, SlopeTerms.of(np.atleast_2d(point), geom), geom, cfg)[:2]
        parts.append((v, in_a[0], ok_xi[0], draws.region_c(cfg)[0]))
    return [np.concatenate(column) for column in zip(*parts)]


def _regressed(v, controls, means):
    """Intercept at the known control means and its SE, by least squares on the controls given."""
    design = np.column_stack([np.ones(len(v)), *(c - m for c, m in zip(controls, means))])
    coef, *_ = np.linalg.lstsq(design, v, rcond=None)
    rss = np.sum((v - design @ coef) ** 2)
    return coef[0], math.sqrt(rss / (len(v) - design.shape[1]) / len(v))


RUNS_2 = CHUNK_SIZE + 700  # two chunks: their sums are added once
RUNS_3 = 2 * CHUNK_SIZE + 700


def _varying(n, regions):
    """Per point, whether 1{A} and whether 1{x} vary over the n runs, from their region sums."""
    n_a, n_x = regions[0, 0], regions[0, 1] + regions[8, 0]
    return (n_a > 0) & (n_a < n), (n_x > 0) & (n_x < n)


def test_both_controls_match_a_least_squares_fit(ref):
    _, _, geom, cfg = ref
    for point in ((0.0, 0.1, 0.0), (0.1, -0.05, 0.15), (0.0, 0.0, 0.0)):
        v, a, x, c = _per_draw(geom, cfg, np.array(point), RUNS_2, 4)
        assert 0 < a.sum() < len(a) and 0 < x.sum() < len(x)
        means = [gate_probability(point, geom, cfg, which) for which in ("tau", "xi")] + [separate_mean(geom, cfg)]
        est = estimate_conditioned(point, geom, cfg, runs=RUNS_2, seed=4)
        value, se = _regressed(v, (a, x, c), means)
        assert est.estimate == pytest.approx(value, rel=1e-12) and est.se == pytest.approx(se, rel=1e-9)
        # the controls pay: the plain SE is larger
        assert est.se < v.std(ddof=1) / math.sqrt(len(v))


@pytest.mark.parametrize("point", [(0.05, 0.1, 0.0), (1.0, -1.0, 1.0)])
def test_a_control_without_variance_is_dropped(ref, point):
    # both tests reject on every draw: at zero cutoffs, or far out, where the block path certifies region C;
    # both indicators are dropped, and v is the region-C row on every draw, so the regression on that row is
    # exact: the point reads its exact mean with SE 0
    _, _, geom, cfg = ref
    if point[0] < 1.0:
        cfg = dataclasses.replace(cfg, l_tau=0.0, l_xi=0.0)
    v, a, x, c = _per_draw(geom, cfg, np.array(point), RUNS_2, 5)
    assert not a.any() and not x.any() and v.tobytes() == c.tobytes()
    for est in (
        estimate_conditioned(point, geom, cfg, runs=RUNS_2, seed=5),
        estimate_points([point, (0.0, 0.0, 0.0), (-1.0, 1.0, -1.0)], geom, cfg, runs=RUNS_2, seed=5)[0],
    ):
        assert est.estimate == separate_mean(geom, cfg) and est.se == 0.0


def test_an_always_accepting_first_test_leaves_the_second_control(ref):
    # at l_tau = inf, 1{A} is 1 on every draw and is dropped; 1{x} and the region-C row are kept
    _, _, geom, cfg = ref
    forced = dataclasses.replace(cfg, l_tau=math.inf)
    point = (0.0, 0.1, 0.0)
    v, a, x, c = _per_draw(geom, forced, np.array(point), RUNS_2, 6)
    assert a.all() and 0 < x.sum() < len(x)
    est = estimate_conditioned(point, geom, forced, runs=RUNS_2, seed=6)
    value, se = _regressed(v, (x, c), [gate_probability(point, geom, forced, "xi"), separate_mean(geom, forced)])
    assert est.estimate == pytest.approx(value, rel=1e-12) and est.se == pytest.approx(se, rel=1e-9)


def test_the_second_of_two_collinear_controls_is_dropped(ref):
    # synthetic region sums where the second indicator equals the first and the region-C row is 0, so v is 0
    # outside region A: one control, the first, is kept
    _, _, geom, cfg = ref
    rng = np.random.default_rng(8)
    a = rng.uniform(size=5000) < 0.4
    v = np.where(a, rng.uniform(size=5000), 0.0)[None]
    n_a, sum_a, squares_a = float(a.sum()), float(v[0, a].sum()), float(np.square(v[0, a]).sum())
    regions = np.zeros((9, 2, 1))
    regions[[0, 1, 5, 6, 8], 0, 0] = [n_a, sum_a, squares_a, sum_a, n_a]
    # n_Ax = n_A = n_x: every A cell accepts x, and no B cell exists
    assert regions[8, 0, 0] == regions[0, 0, 0] == regions[0, 1, 0] + regions[8, 0, 0] > 0.0
    assert all(varies.all() for varies in _varying(5000, regions))
    kernel = ConditionalKernel(geom, cfg, (0.0, 0.1, 0.0))
    value, rss, kept = kernel.controlled(5000, regions, np.zeros(2))
    p_a = gate_probability((0.0, 0.1, 0.0), geom, cfg, "tau")
    want, se = _regressed(v[0], (a,), [p_a])
    assert kept.tolist() == [1]
    assert value[0] == pytest.approx(want, rel=1e-12)
    assert math.sqrt(rss[0] / (5000 - 2) / 5000) == pytest.approx(se, rel=1e-9)


def test_a_point_wholly_in_region_c_is_within_its_acceptance_of_the_exact_mean(ref):
    # the estimate digest's wide 9^3 lattice on [-1, 1]^3 at 9000 runs: most rows see no region-A or region-B cell
    # and read p_c with SE 0; their true coverage lies within the sum of the two tests' exact acceptance
    # probabilities of p_c, which bounds what that SE leaves out, and raw coverage indicators on independent draws
    # agree at the rows where the bound is widest
    _, _, geom, cfg = ref
    p_c = separate_mean(geom, cfg)
    rows = grid_eval(GridSpec((-1.0, 1.0), 9, 9000, 7), "conditioned", geom, cfg)
    exact = np.array([point.values for point, est in rows if est.estimate == p_c and est.se == 0.0])
    assert len(rows) / 2 < len(exact) < len(rows)
    bound = acceptance(SlopeTerms.of(exact, geom), geom, cfg).sum(axis=1)
    assert bound.max() < 1e-4
    widest = np.argsort(bound)[-4:]
    for est, width in zip(estimate_points(exact[widest], geom, cfg, "naive", runs=200_000, seed=11), bound[widest]):
        assert abs(est.estimate - p_c) <= width + 3.0 * est.se, est


# at 10 000 runs this point sees no region-A cell and 0 to 4 region-B cells, by the seed
FEW_CELLS_POINT = (0.25, 0.125, 0.0)


def _few_cells(geom, cfg):
    """(region-A and region-B cell count, conditioned estimate) at FEW_CELLS_POINT, 10 000 runs, seeds 0 to 39."""
    kernel = ConditionalKernel(geom, cfg, FEW_CELLS_POINT)
    for seed in range(40):
        regions, _ = _region_sums(kernel, 10_000, seed)
        yield regions[0, :, 0].sum(), estimate_conditioned(FEW_CELLS_POINT, geom, cfg, runs=10_000, seed=seed)


def test_an_se_of_zero_reads_the_exact_mean(ref):
    # only a point with no region-A or region-B cell is exact: v is the region-C row on every draw
    _, _, geom, cfg = ref
    zero = [(cells, est) for cells, est in _few_cells(geom, cfg) if est.se == 0.0]
    assert zero and all(cells == 0 and est.estimate == separate_mean(geom, cfg) for cells, est in zero), zero


def test_a_point_with_a_region_a_or_b_cell_has_a_positive_se(ref):
    # with q <= 3 controls, each of 1 to 3 region-A/B cells can sit alone in its (a, x) pattern and be fit exactly,
    # which read SE 0 on an estimate that is not exact (9 of these 40 seeds under the Philox streams, with one
    # region-B cell); such a point keeps the region-C row c as its one control
    _, _, geom, cfg = ref
    live = [(cells, est) for cells, est in _few_cells(geom, cfg) if cells > 0]
    assert sorted({int(cells) for cells, _ in live if cells <= 3}) == [1, 2, 3]
    assert all(est.se > 0.0 and est.estimate != separate_mean(geom, cfg) for _, est in live), live


@pytest.mark.parametrize("runs", [1, 2, 3, 4, 5])
def test_tiny_runs_give_a_finite_se_without_warnings(ref, runs):
    # a control is kept only while n > q + 1, so the residual degrees of freedom n - 1 - q stay positive; at
    # seed 0 both indicators vary at the first point for runs 2 to 5, and the region-C row always does
    _, _, geom, cfg = ref
    points = np.array([(0.0, 0.1, 0.0), (0.0, 0.0, 0.0), (0.3, -0.2, 0.1), (0.02, 0.05, 0.0)])
    kernel = ConditionalKernel(geom, cfg, points)
    regions, free = _region_sums(kernel, runs, 0)
    assert runs == 1 or all(varies[0] for varies in _varying(runs, regions))
    assert (kernel.controlled(runs, regions, free)[2] <= max(0, runs - 2)).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ests = estimate_points(points, geom, cfg, runs=runs, seed=0)
    assert all(math.isfinite(e.se) and e.se >= 0.0 and 0.0 <= e.estimate <= 1.0 for e in ests)
    if runs == 1:
        assert all(e.se == 0.0 for e in ests)


def test_block_keeps_its_bits_alone_with_live_controls(ref):
    # the first point has no region-A cell, and the next ones have some: reduceat gives its empty A segment a
    # neighbour's cell, which must not reach its region sums; the last lies past both rejection radii on every
    # chunk, so it is in no group of the block and keeps the zeros its column starts with
    _, _, geom, cfg = ref
    points = np.array(
        [(0.1, -0.05, 0.15), (0.0, 0.0, 0.0), (0.0, 0.1, 0.0), (0.05, -0.02, 0.03), (-0.02, 0.04, 0.0), (1, -1, 1)]
    )
    for chunk, size in enumerate(montecarlo._chunk_sizes(RUNS_2)):
        noise = _draw_slopes(_stream(3, "conditioned", chunk), geom, size).noise
        assert past_radii(geom, cfg, noise, points[-1]).all() and not past_radii(geom, cfg, noise, points[:-1]).any()
    regions, _ = _region_sums(ConditionalKernel(geom, cfg, points), RUNS_2, 3)
    a_varies, x_varies = _varying(RUNS_2, regions)
    assert regions[0, 0, 0] == 0.0 and a_varies[1:-1].all() and x_varies[:-1].all()
    # the region-C row's sums over each region are live too
    assert (regions[2:5, 0, 1:-1] > 0.0).all() and (regions[7, 0, 1:-1] > 0.0).all()
    assert (regions[2:6, 1, :-1] > 0.0).all() and not regions[..., -1].any()
    block = estimate_points(points, geom, cfg, runs=RUNS_2, seed=3)
    for i, (point, est) in enumerate(zip(points, block)):
        alone = estimate_points([point], geom, cfg, runs=RUNS_2, seed=3)[0]
        assert (est.estimate, est.se) == (alone.estimate, alone.se)
        sums, _ = _region_sums(ConditionalKernel(geom, cfg, point), RUNS_2, 3)
        assert sums.tobytes() == regions[..., i : i + 1].tobytes()


def test_region_sums_over_chunks_equal_the_per_draw_masks(ref):
    # (0.21, 0, 0) has no region-A cell in the first and the third chunk at seed 5 and one in the second; in the
    # block its empty segments read a neighbour's cells, which a leak would add to its sums
    _, _, geom, cfg = ref
    points = np.array([(0.21, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.1, 0.0), (0.1, -0.05, 0.15)])
    regions, free = _region_sums(ConditionalKernel(geom, cfg, points), RUNS_3, 5)
    ests = estimate_points(points, geom, cfg, runs=RUNS_3, seed=5)
    for i, (point, est) in enumerate(zip(points, ests)):
        v, a, x, c = _per_draw(geom, cfg, point, RUNS_3, 5)
        if i == 0:
            assert [int(a[start : start + CHUNK_SIZE].sum()) for start in range(0, RUNS_3, CHUNK_SIZE)] == [0, 1, 0]
        b, ax = x & ~a, a & x
        region = regions[:, :, i]
        assert [region[0, 0], region[0, 1], region[8, 0]] == [a.sum(), b.sum(), ax.sum()]
        assert (region[6:, 1] == 0.0).all()
        # over A and over B the sums of v, c, v c, c^2 and v^2, over the A cells where x accepts of v and c, and
        # over all draws of c and c^2
        np.testing.assert_allclose(
            np.append(region[1:6].reshape(-1), [region[6, 0], region[7, 0], *free]),
            [part[mask].sum() for part in (v, c, v * c, c * c, v * v) for mask in (a, b)]
            + [v[ax].sum(), c[ax].sum(), c.sum(), (c * c).sum()],
            rtol=1e-12,
            atol=0.0,
        )
        # over three chunks the estimate is still the least-squares one
        means = [gate_probability(point, geom, cfg, which) for which in ("tau", "xi")] + [separate_mean(geom, cfg)]
        value, se = _regressed(v, (a, x, c), means)
        assert est.estimate == pytest.approx(value, rel=1e-12) and est.se == pytest.approx(se, rel=1e-12)


def test_a_mirrored_point_on_mirrored_draws_keeps_its_estimate(ref, monkeypatch):
    # both indicators and their exact means are even in the slopes: value(-s; -z, d) = value(s; z, d)
    _, _, geom, cfg = ref
    points = np.array([(0.0, 0.1, 0.0), (0.1, -0.05, 0.15)])
    with np.errstate(all="raise"):
        plus, minus = (SlopeTerms.of(sign * points, geom) for sign in (1.0, -1.0))
    assert acceptance(plus, geom, cfg).tobytes() == acceptance(minus, geom, cfg).tobytes()
    direct = estimate_points(points, geom, cfg, runs=RUNS_2, seed=9)

    def mirrored(rng, geom, size):
        z = rng.standard_normal((size, geom.k)) @ geom.v22_chol.T
        return conditional.KernelDraws(-z, rng.chisquare(geom.m, size), geom)

    monkeypatch.setattr(montecarlo, "_draw_slopes", mirrored)
    for est, other in zip(direct, estimate_points(-points, geom, cfg, runs=RUNS_2, seed=9)):
        assert other.estimate == pytest.approx(est.estimate, rel=1e-13, abs=1e-15)
        assert other.se == pytest.approx(est.se, rel=1e-11)


# ---------------------------------------------------------------------------
# variance reduction and estimator agreement
# ---------------------------------------------------------------------------


def test_conditioning_reduces_se_at_origin(ref):
    _, _, geom, cfg = ref
    zero = SlopePoint.of((0.0, 0.0, 0.0))
    wins = 0
    for seed in range(5):
        naive = estimate_naive(zero, geom, cfg, runs=10_000, seed=seed)
        cond = estimate_conditioned(zero, geom, cfg, runs=10_000, seed=seed)
        assert abs(naive.estimate - cond.estimate) <= 3 * math.hypot(naive.se, cond.se)
        wins += cond.se < naive.se
    assert wins >= 4


def test_conditioned_draws_lie_in_unit_interval(ref):
    # se of the conditioned estimator is the sample sd of values in [0,1],
    # so runs * (se^2 * (runs - 1)) stays bounded by runs / 4
    _, _, geom, cfg = ref
    est = estimate_conditioned(POINT, geom, cfg, runs=2000, seed=12)
    sample_var = est.se**2 * est.runs
    assert sample_var <= 0.25 + 1e-9


# ---------------------------------------------------------------------------
# joint event frequencies
# ---------------------------------------------------------------------------


def test_event_probabilities_bounds(ref):
    _, _, geom, cfg = ref
    for seed, slopes in [(0, (0.0, 0.05, 0.1)), (1, (0.2, -0.2, 0.0))]:
        out = event_probabilities(SlopePoint.of(slopes), geom, cfg, runs=10_000, seed=seed)
        assert set(out) == {"covers_tau", "covers_tau_and_accept", "reject_tau", "runs"}
        assert out["runs"] == 10_000
        for key in ("covers_tau", "covers_tau_and_accept", "reject_tau"):
            assert 0.0 <= out[key] <= 1.0
        gap = out["covers_tau"] - out["covers_tau_and_accept"]
        assert gap >= 0.0
        se = 3 * math.sqrt(3 * 0.25 / 10_000)
        assert gap <= out["reject_tau"] + se


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------


def test_estimator_input_validation(ref):
    _, _, geom, cfg = ref
    with pytest.raises(DomainError):
        estimate_naive((0.0, 0.0), geom, cfg, runs=100, seed=0)
    with pytest.raises(DomainError):
        estimate_naive(POINT, geom, cfg, runs=0, seed=0)
    with pytest.raises(DomainError):
        estimate_naive(POINT, geom, cfg, runs=100, seed=-1)
    with pytest.raises(DomainError):
        estimate_naive(POINT, geom, cfg, runs=100, seed=1.5)
    with pytest.raises(DomainError):
        estimate_naive(POINT, geom, cfg, runs=100, seed=0, intercepts=(1.0,))
    for estimate in (estimate_naive, estimate_conditioned):
        with pytest.raises(DomainError, match="intercept override must be one vector of 3 numbers"):
            estimate(POINT, geom, cfg, runs=100, seed=0, intercepts=np.zeros((2, 3)))


@pytest.mark.parametrize("runs", [100.5, 100.0, True, False, "100", None, -3, np.float64(100.0)])
@pytest.mark.parametrize("estimate", [estimate_naive, estimate_conditioned])
def test_runs_must_be_a_positive_integer(ref, estimate, runs):
    _, _, geom, cfg = ref
    with pytest.raises(DomainError):
        estimate(POINT, geom, cfg, runs=runs, seed=0)


def test_runs_accepts_numpy_integers(ref):
    _, _, geom, cfg = ref
    est = estimate_conditioned(POINT, geom, cfg, runs=np.int64(300), seed=np.int32(1))
    plain = estimate_conditioned(POINT, geom, cfg, runs=300, seed=1)
    assert (est.estimate, est.se) == (plain.estimate, plain.se)
    assert type(est.runs) is int and type(est.seed) is int
    with pytest.raises(DomainError):
        event_probabilities(POINT, geom, cfg, runs=True, seed=0)


@pytest.mark.parametrize("n_jobs", [2.7, True, "3", 0, -4])
def test_n_jobs_must_be_a_positive_integer(ref, n_jobs):
    _, _, geom, cfg = ref
    with pytest.raises(DomainError, match="n_jobs"):
        estimate_conditioned(POINT, geom, cfg, runs=100, seed=0, n_jobs=n_jobs)


def test_default_workers_env(monkeypatch):
    monkeypatch.delenv("ANCOVA_CP_THREADS", raising=False)
    assert default_workers() == 1
    monkeypatch.setenv("ANCOVA_CP_THREADS", "6")
    assert default_workers() == 6
    monkeypatch.setenv("ANCOVA_CP_THREADS", "")
    assert default_workers() == 1
    # these used to run one thread without a word
    for bad in ("junk", "0", "-3", "2.5"):
        monkeypatch.setenv("ANCOVA_CP_THREADS", bad)
        with pytest.raises(DomainError, match="ANCOVA_CP_THREADS"):
            default_workers()


def test_bad_threads_env_refused_before_any_draw(ref, monkeypatch):
    _, _, geom, cfg = ref
    monkeypatch.setenv("ANCOVA_CP_THREADS", "0")
    monkeypatch.setattr(montecarlo, "_stream", lambda *args: pytest.fail("drew before refusing"))
    with pytest.raises(DomainError, match="ANCOVA_CP_THREADS"):
        estimate_conditioned(POINT, geom, cfg, runs=100, seed=0)
    # an explicit n_jobs does not read the variable
    monkeypatch.undo()
    monkeypatch.setenv("ANCOVA_CP_THREADS", "0")
    assert estimate_conditioned(POINT, geom, cfg, runs=100, seed=0, n_jobs=1).runs == 100


def test_a_failing_chunk_fails_the_call_and_spares_the_workers(ref, monkeypatch):
    _, _, geom, cfg = ref
    want = estimate_conditioned(POINT, geom, cfg, runs=3 * CHUNK_SIZE, seed=0, n_jobs=1)

    def stream(seed, tag, chunk):
        if chunk == 1:
            raise MemoryError("chunk 1")
        return _stream(seed, tag, chunk)

    monkeypatch.setattr(montecarlo, "_stream", stream)
    for _ in range(3):
        with pytest.raises(MemoryError, match="chunk 1"):
            estimate_conditioned(POINT, geom, cfg, runs=3 * CHUNK_SIZE, seed=0, n_jobs=2)
    monkeypatch.undo()
    assert estimate_conditioned(POINT, geom, cfg, runs=3 * CHUNK_SIZE, seed=0, n_jobs=2) == want


def test_a_failed_submit_stops_the_helpers_already_queued(ref, monkeypatch):
    # the second submit fails (thread start-up, interpreter shutdown): the first helper is cancelled, and one that
    # starts anyway takes no chunk of the failed call
    _, _, geom, cfg = ref
    queued, drawn = [], []

    class FailingWorkers:
        def submit(self, fn):
            if queued:
                raise RuntimeError("cannot start a thread")
            queued.append((fn, Future()))
            return queued[-1][1]

    monkeypatch.setattr(montecarlo, "_workers", FailingWorkers)
    monkeypatch.setattr(montecarlo, "_stream", lambda *key: drawn.append(key) or _stream(*key))
    with pytest.raises(RuntimeError, match="cannot start a thread"):
        estimate_conditioned(POINT, geom, cfg, runs=3 * CHUNK_SIZE, seed=0, n_jobs=3)
    (work, future), = queued
    assert future.cancelled() and drawn == []
    work()
    assert drawn == []

def test_concurrent_calls_share_the_workers_and_keep_their_bits(ref):
    # more threads than cores, switching often: a chunk lost or taken twice by the shared workers would move a sum
    _, _, geom, cfg = ref
    points, runs = [POINT, (0.1, -0.05, 0.15)], 5 * CHUNK_SIZE + 3
    names = ("conditioned", "naive", "conditioned", "naive")
    want = {name: estimate_points(points, geom, cfg, name, runs=runs, seed=2, n_jobs=1) for name in set(names)}
    got = {}

    def call(i):
        got[i] = estimate_points(points, geom, cfg, names[i], runs=runs, seed=2, n_jobs=2 + i)

    threads = [threading.Thread(target=call, args=(i,)) for i in range(len(names))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [got.get(i) for i in range(len(names))] == [want[name] for name in names]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="os.fork on Linux only")
def test_a_forked_child_starts_its_own_workers_and_gets_the_parents_bits(ref):
    # the child has none of the parent's worker threads; without starting its own it could wait on them
    _, _, geom, cfg = ref

    def bits():
        est = estimate_conditioned(POINT, geom, cfg, runs=2 * CHUNK_SIZE + 1, seed=0, n_jobs=2)
        return struct.pack("dd", est.estimate, est.se)

    want = bits()  # the parent's workers now run
    read, write = os.pipe()
    with warnings.catch_warnings():  # Python 3.12 warns on a fork of a process with threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        try:
            os.write(write, bytes([montecarlo._workers.cache_info().currsize == 0]) + bits())
        finally:
            os._exit(0)
    os.close(write)
    try:
        ready = select.select([read], [], [], 60)[0]
        got = os.read(read, 64) if ready else b"timed out"
    finally:
        if not ready:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        os.close(read)
    assert got == b"\x01" + want


# ---------------------------------------------------------------------------
# the ufunc buffer: sized to a chunk's rows inside a task, the caller's outside
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _bufsize(size):
    old = np.setbufsize(size)
    try:
        yield
    finally:
        np.setbufsize(old)


def _spy(monkeypatch, fail_after=None):
    """Record NumPy's buffer size at each group of the conditional kernel; raise after ``fail_after`` groups."""
    blocks, seen = ConditionalKernel.blocks, []

    def spied(self, *args):
        for group in blocks(self, *args):
            if fail_after is not None and len(seen) >= fail_after:
                raise RuntimeError("block failed")
            seen.append(np.getbufsize())
            yield group

    monkeypatch.setattr(ConditionalKernel, "blocks", spied)
    return seen


@pytest.mark.parametrize("caller", [None, 4096])
def test_buffer_is_sized_per_chunk_and_restored(ref, monkeypatch, caller):
    _, _, geom, cfg = ref
    # more points than one 16-row group of the conditioned kernel at 2000 runs, so a chunk has a second block
    points = np.random.default_rng(3).uniform(-0.3, 0.3, (17, 3))
    with _bufsize(caller or np.getbufsize()):
        before = np.getbufsize()
        for runs, n_jobs, sizes in ((2000, 1, {2000}), (37, 1, {48}), (CHUNK_SIZE + 100, 2, {CHUNK_SIZE, 112})):
            seen = _spy(monkeypatch)
            estimate_points(points, geom, cfg, "conditioned", runs=runs, seed=1, n_jobs=n_jobs)
            monkeypatch.undo()
            assert set(seen) == sizes
            assert np.getbufsize() == before
        # the second block of a chunk raises
        for runs, n_jobs in ((2000, 1), (CHUNK_SIZE + 100, 2)):
            seen = _spy(monkeypatch, fail_after=1)
            with pytest.raises(RuntimeError, match="block failed"):
                estimate_points(points, geom, cfg, "conditioned", runs=runs, seed=1, n_jobs=n_jobs)
            monkeypatch.undo()
            assert seen and np.getbufsize() == before
        estimate_conditioned(POINT, geom, cfg, runs=100, seed=0)
        event_probabilities(POINT, geom, cfg, runs=100, seed=0)
        assert np.getbufsize() == before


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_each_chunk_sizes_its_blocks_from_its_own_length(ref, monkeypatch, n_jobs):
    # 10 000 runs are chunks of 8192 and 1808 draws: 2-point and 9-point blocks of at most BLOCK_CELLS
    # cells, which the conditioned kernel takes two at a time; here no point is proven to lie in region C
    _, _, geom, cfg = ref
    blocks, seen = ConditionalKernel.blocks, []

    def spied(self, draws, step):
        rows = []
        seen.append((len(draws.noise.d), rows))
        for group in blocks(self, draws, step):
            rows.append((len(group[0]), group[-1].shape[-1]))
            yield group

    monkeypatch.setattr(ConditionalKernel, "blocks", spied)
    points = np.random.default_rng(8).uniform(-0.1, 0.1, (20, 3))
    estimate_points(points, geom, cfg, "conditioned", runs=10_000, seed=2, n_jobs=n_jobs)
    assert sorted(seen) == [(1808, [(18, 18), (2, 2)]), (CHUNK_SIZE, [(4, 4)] * 5)]
    # with 20 points ten times as far out, a chunk's certified points are in no group
    seen.clear()
    estimate_points(np.concatenate([points, 10 * points]), geom, cfg, "conditioned", runs=10_000, seed=2, n_jobs=n_jobs)
    (_, short), (_, full) = sorted(seen)
    for groups, step in ((short, 18), (full, 4)):
        certified = 40 - sum(g for g, _ in groups)
        assert certified > 1
        assert all(g == b == step for g, b in groups[:-1]) and groups[-1][0] == groups[-1][1] <= step


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_region_c_certification_moves_no_bit(ref, monkeypatch, n_jobs):
    # a 5^3 lattice on [-1, 1]^3 at 9000 runs (chunks of 8192 and 808 draws): each chunk certifies part
    # of the points; certifying none must give every estimate and SE the same bits
    _, _, geom, cfg = ref
    axis = np.linspace(-1.0, 1.0, 5)
    points = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    blocks, certified = ConditionalKernel.blocks, []

    def counted(self, *args):
        # the points in no group are the certified ones
        count = len(self)
        for group in blocks(self, *args):
            count -= len(group[0])
            yield group
        certified.append(count)

    monkeypatch.setattr(ConditionalKernel, "blocks", counted)
    shipped = estimate_points(points, geom, cfg, "conditioned", runs=9000, seed=5, n_jobs=n_jobs)
    assert len(certified) == 2 and 0 < min(certified) and max(certified) < len(points)
    monkeypatch.undo()
    monkeypatch.setattr(conditional, "rejection_radii", lambda *args: np.full(2, np.inf))
    plain = estimate_points(points, geom, cfg, "conditioned", runs=9000, seed=5, n_jobs=n_jobs)
    fields = [np.array([(e.estimate, e.se, e.runs) for e in ests]) for ests in (shipped, plain)]
    assert fields[0].tobytes() == fields[1].tobytes()


def test_a_memo_shared_by_threads_draws_each_chunk_once(ref, monkeypatch):
    # four chunks on four threads, more than the cores, twice over one memo, switching threads every microsecond:
    # every stream is opened once and every estimate keeps the bits of a serial call without a memo
    _, _, geom, cfg = ref
    points = np.random.default_rng(12).uniform(-0.3, 0.3, (20, 3))
    runs = 3 * CHUNK_SIZE + 100
    serial = estimate_points(points, geom, cfg, "conditioned", runs=runs, seed=3, n_jobs=1)
    streams, real, memo = [], montecarlo._stream, {}
    monkeypatch.setattr(montecarlo, "_stream", lambda *key: streams.append(key) or real(*key))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(2):
            assert estimate_points(points, geom, cfg, "conditioned", runs=runs, seed=3, n_jobs=4, memo=memo) == serial
    finally:
        sys.setswitchinterval(interval)
    assert sorted(streams) == [(3, "conditioned", chunk) for chunk in range(4)]
    assert sorted(memo) == [("conditioned", 3, chunk, CHUNK_SIZE if chunk < 3 else 100, geom) for chunk in range(4)]


# before test parts were keyed by config, (0, 0.05, 0) at levels (0.10, 0.20, 0.20) read 0.1697 over a
# memo filled at the default levels, against 0.2646 fresh (2000 runs, seed 1)
MEMO_POINTS = [(0.0, 0.05, 0.0), (0.1, -0.05, 0.15), (0.0, 0.0, 0.0), (-0.2, 0.1, 0.05)]


def _fields(ests):
    return np.array([(e.estimate, e.se, e.runs) for e in ests]).tobytes()


def test_a_memo_reused_at_other_levels_gives_fresh_bits_and_draws_each_chunk_once(ref, monkeypatch):
    # two chunks, two configs over one memo, in both orders: each call keeps the bits of a call
    # without a memo, and each (tag, chunk) stream is opened once for both configs
    layout, _, geom, cfg = ref
    other = critical_values(layout, alpha=0.10, sig_tau=0.20, sig_xi=0.20)
    runs = CHUNK_SIZE + 2000
    fresh = {c: _fields(estimate_points(MEMO_POINTS, geom, c, runs=runs, seed=1)) for c in (cfg, other)}
    for order in ((cfg, other), (other, cfg)):
        streams, real, memo = [], montecarlo._stream, {}
        monkeypatch.setattr(montecarlo, "_stream", lambda *key: streams.append(key) or real(*key))
        for c in order + order:
            assert _fields(estimate_points(MEMO_POINTS, geom, c, runs=runs, seed=1, memo=memo)) == fresh[c]
        monkeypatch.undo()
        assert sorted(streams) == [(1, "conditioned", 0), (1, "conditioned", 1)]


def test_a_memo_reused_by_another_design_gives_fresh_bits(ref):
    # another k = 3 design over the memo of the reference design: its chunks are its own
    layout, _, geom, cfg = ref
    six = AncovaLayout(k=3, n=(6, 6, 6), x=tuple(xi[:6] for xi in layout.x))
    geom6 = build_geometry(six, ContrastSpec.treatment_difference(six, 1, 2))
    cfg6 = critical_values(six, 0.05, 0.1, 0.1)
    fresh = _fields(estimate_points(MEMO_POINTS, geom6, cfg6, runs=2000, seed=1))
    memo = {}
    estimate_points(MEMO_POINTS, geom, cfg, runs=2000, seed=1, memo=memo)
    assert _fields(estimate_points(MEMO_POINTS, geom6, cfg6, runs=2000, seed=1, memo=memo)) == fresh
    assert len(memo) == 2


def test_geometry_bundles_compare_and_hash_by_identity(ref):
    layout, contrast, geom, _ = ref
    twin = build_geometry(layout, contrast)
    assert geom == geom and geom != twin and hash(geom) != hash(twin)


@pytest.mark.parametrize("points, runs", [(8, 2000), (2, 8192), (9, 1808), (1, 37)])
def test_block_kernels_are_bit_identical_at_any_buffer_size(ref, points, runs):
    _, _, geom, cfg = ref
    slopes = np.random.default_rng(points).uniform(-0.3, 0.3, (points, 3))
    delta, d = _draw_full(_stream(4, "buffer", 1), geom, runs)

    def kernels():
        # fresh draws: the point-free work they keep is formed again at each buffer size
        draws = _draw_slopes(_stream(4, "buffer", 0), geom, runs)
        outs = block_f(draws.noise, SlopeTerms.of(slopes, geom), geom, cfg)
        outs += (assembled(ConditionalKernel(geom, cfg, slopes).blocks(draws, 3), len(slopes), draws.region_c(cfg)[0]),)
        for point in slopes[:2]:
            for _, *group in ConditionalKernel(geom, cfg, point).blocks(draws, 1):
                outs += tuple(group)
        outs += tuple(batch_events(delta, d, slopes, geom, cfg)) + tuple(batch_events(delta, d, slopes[0], geom, cfg))
        return [(out.dtype, out.shape, out.tobytes()) for out in outs]

    with _bufsize(8192):
        expected = kernels()
    for size in (16, 2000, 65536):
        with _bufsize(size):
            assert kernels() == expected


@pytest.mark.parametrize("caller", [16, 65536])
def test_estimates_are_bit_identical_under_a_caller_buffer_size(ref, caller):
    _, _, geom, cfg = ref
    points = np.random.default_rng(9).uniform(-0.3, 0.3, (11, 3))
    for estimator in ("naive", "conditioned"):
        for runs in (2000, 10_000):
            expected = estimate_points(points, geom, cfg, estimator, runs=runs, seed=5)
            with _bufsize(caller):
                got = estimate_points(points, geom, cfg, estimator, runs=runs, seed=5)
                assert np.getbufsize() == caller
            assert [(e.estimate, e.se) for e in got] == [(e.estimate, e.se) for e in expected]
