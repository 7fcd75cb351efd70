import contextlib
import dataclasses
import math
import sys

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
)
from ancova_cp import conditional, montecarlo
from ancova_cp.conditional import ConditionalKernel
from ancova_cp.montecarlo import BLOCK_CELLS, CHUNK_SIZE, _draw_full, _draw_slopes, _Moments, _stream, default_workers
from ancova_cp.selection import SlopeNoise, SlopeTerms, block_f
from oracles import assembled, direct_geometry, gate_prob_mc, gate_prob_ncf, slope_draws

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
# chunk merge
# ---------------------------------------------------------------------------


def test_moments_merge_is_cancellation_free():
    values = 1.0 - 1e-9 * np.random.default_rng(3).uniform(size=1_000_000)
    merged = None
    for start in range(0, values.size, CHUNK_SIZE):
        part = _Moments.of(values[start : start + CHUNK_SIZE])
        merged = part if merged is None else merged.merge(part)
    want = np.var(values, ddof=1)
    assert merged.n == values.size
    assert merged.mean == pytest.approx(values.mean(), rel=1e-15)
    assert merged.m2 / (merged.n - 1) == pytest.approx(want, rel=1e-6)
    # the sum-of-squares form it replaces loses every digit here
    s1, s2 = values.sum(), (values * values).sum()
    naive = (s2 - s1 * s1 / values.size) / (values.size - 1)
    assert abs(naive - want) > 1e-6 * want


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


def test_gate_probability_bad_test_name(ref):
    _, _, geom, cfg = ref
    with pytest.raises(DomainError):
        gate_probability(POINT, geom, cfg, "zeta")
    for point in ((0.1, 0.0), ((0.1, 0.0, 0.0),), (math.nan, 0.0, 0.0), ("0.1", 0.0, 0.0)):
        with pytest.raises(DomainError, match="slope point"):
            gate_probability(point, geom, cfg, "tau")


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


def _spy(monkeypatch, estimator, fail_after=None):
    """Record NumPy's buffer size at each block of ``estimator``; raise after ``fail_after`` blocks."""
    draw, values = montecarlo._ESTIMATORS[estimator]
    seen = []

    def spied(*args):
        for block in values(*args):
            if fail_after is not None and len(seen) >= fail_after:
                raise RuntimeError("block failed")
            seen.append(np.getbufsize())
            yield block

    monkeypatch.setitem(montecarlo._ESTIMATORS, estimator, (draw, spied))
    return seen


@pytest.mark.parametrize("caller", [None, 4096])
def test_buffer_is_sized_per_chunk_and_restored(ref, monkeypatch, caller):
    _, _, geom, cfg = ref
    # more points than one 16-row group of the conditioned kernel at 2000 runs, so a chunk has a second block
    points = np.random.default_rng(3).uniform(-0.3, 0.3, (17, 3))
    with _bufsize(caller or np.getbufsize()):
        before = np.getbufsize()
        for runs, n_jobs, sizes in ((2000, 1, {2000}), (37, 1, {48}), (CHUNK_SIZE + 100, 2, {CHUNK_SIZE, 112})):
            seen = _spy(monkeypatch, "conditioned")
            estimate_points(points, geom, cfg, "conditioned", runs=runs, seed=1, n_jobs=n_jobs)
            monkeypatch.undo()
            assert set(seen) == sizes
            assert np.getbufsize() == before
        # the second block of a chunk raises
        for runs, n_jobs in ((2000, 1), (CHUNK_SIZE + 100, 2)):
            seen = _spy(monkeypatch, "conditioned", fail_after=1)
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
    draw, values = montecarlo._ESTIMATORS["conditioned"]
    seen = []

    def spied(slopes, step, draws, geom, cfg):
        rows = []
        seen.append((len(draws.noise.d), rows))
        for points, block in values(slopes, step, draws, geom, cfg):
            rows.append((len(points), len(block)))
            yield points, block

    monkeypatch.setitem(montecarlo._ESTIMATORS, "conditioned", (draw, spied))
    points = np.random.default_rng(8).uniform(-0.1, 0.1, (20, 3))
    estimate_points(points, geom, cfg, "conditioned", runs=10_000, seed=2, n_jobs=n_jobs)
    assert sorted(seen) == [(1808, [(18, 18), (2, 2)]), (CHUNK_SIZE, [(4, 4)] * 5)]
    # with 20 points ten times as far out, a chunk's certified points come last, as one row
    seen.clear()
    estimate_points(np.concatenate([points, 10 * points]), geom, cfg, "conditioned", runs=10_000, seed=2, n_jobs=n_jobs)
    (_, short), (_, full) = sorted(seen)
    for blocks, step in ((short, 18), (full, 4)):
        *groups, (certified, one) = blocks
        assert one == 1 and certified > 1 and sum(g for g, _ in groups) + certified == 40
        assert all(g == b == step for g, b in groups[:-1]) and groups[-1][0] == groups[-1][1] <= step


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_region_c_certification_moves_no_bit(ref, monkeypatch, n_jobs):
    # a 5^3 lattice on [-1, 1]^3 at 9000 runs (chunks of 8192 and 808 draws): each chunk certifies part
    # of the points; certifying none must give every estimate and SE the same bits
    _, _, geom, cfg = ref
    axis = np.linspace(-1.0, 1.0, 5)
    points = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    draw, values = montecarlo._ESTIMATORS["conditioned"]
    certified = []

    def counted(*args):
        # the rows a one-row block stands for are the certified ones
        count = 0
        for rows, block in values(*args):
            count += len(rows) if len(rows) > len(block) else 0
            yield rows, block
        certified.append(count)

    monkeypatch.setitem(montecarlo._ESTIMATORS, "conditioned", (draw, counted))
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
        outs += (assembled(ConditionalKernel(geom, cfg, slopes).blocks(draws, 3), len(slopes)),)
        for point in slopes[:2]:
            outs += tuple(block for _, block in ConditionalKernel(geom, cfg, point).blocks(draws, 1))
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
