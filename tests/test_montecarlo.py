import dataclasses
import math

import numpy as np
import pytest

from ancova_cp import (
    DomainError,
    SlopePoint,
    estimate_conditioned,
    estimate_naive,
    estimate_points,
    event_probabilities,
    gate_probability,
    sample_stats,
)
from ancova_cp.montecarlo import BLOCK_CELLS, CHUNK_SIZE, _Moments, default_workers
from oracles import gate_prob_ncf

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


@pytest.mark.parametrize("estimator", ["naive", "conditioned", "gate_tau", "gate_xi"])
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


def test_sample_stats_zero_noise_hook(ref, zero_rng):
    _, _, geom, _ = ref
    stats = sample_stats(POINT, geom, zero_rng)
    assert np.array_equal(stats.gamma_hat, np.array([0, 0, 0, 0.05, 0.1, 0.0]))
    assert np.array_equal(stats.q, np.array([0.05, 0.1, 0.0]))
    assert stats.d == 0.0


def test_sample_stats_zero_noise_with_intercepts(ref, zero_rng):
    _, _, geom, _ = ref
    stats = sample_stats(POINT, geom, zero_rng, intercepts=(1.0, 2.0, 3.0))
    assert np.array_equal(stats.gamma_hat, np.array([1, 2, 3, 0.05, 0.1, 0.0]))


def test_sample_stats_moments(ref):
    _, _, geom, _ = ref
    rng = np.random.default_rng(2024)
    n = 4000
    gammas = np.empty((n, 6))
    ds = np.empty(n)
    for r in range(n):
        stats = sample_stats(POINT, geom, rng)
        gammas[r] = stats.gamma_hat
        ds[r] = stats.d
    gamma = np.array([0, 0, 0, 0.05, 0.1, 0.0])
    mean_se = np.sqrt(np.diag(geom.xtx_inv) / n)
    assert np.all(np.abs(gammas.mean(axis=0) - gamma) < 4 * mean_se)
    cov = np.cov(gammas.T)
    scale = np.sqrt(np.outer(np.diag(geom.xtx_inv), np.diag(geom.xtx_inv)))
    assert np.max(np.abs(cov - geom.xtx_inv) / scale) < 0.15
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
# gate probabilities against the noncentral F distribution
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
    _, _, geom, cfg = ref
    est = gate_probability(SlopePoint.of(slopes), geom, cfg, which, runs=40_000, seed=8)
    exact = gate_prob_ncf(geom, cfg, np.asarray(slopes), which)
    se = max(est.se, 1e-4)
    assert est.estimate == pytest.approx(exact, abs=3.5 * se)
    assert est.estimator == f"gate_{which}"


def test_gate_probability_null_level(ref):
    _, _, geom, cfg = ref
    est = gate_probability(SlopePoint.of((0.0, 0.0, 0.0)), geom, cfg, "tau", runs=40_000, seed=9)
    assert abs(est.estimate - 0.90) <= 3 * est.se


def test_gate_probability_far_point_rejects(ref):
    _, _, geom, cfg = ref
    est = gate_probability(SlopePoint.of((10.0, 11.0, 9.0)), geom, cfg, "tau", runs=5000, seed=10)
    assert est.estimate < 1e-3
    assert gate_prob_ncf(geom, cfg, np.array([10.0, 11.0, 9.0]), "tau") < 1e-6


def test_gate_probability_bad_test_name(ref):
    _, _, geom, cfg = ref
    with pytest.raises(DomainError):
        gate_probability(POINT, geom, cfg, "zeta", runs=100, seed=0)


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
    with pytest.raises(DomainError):
        estimate_conditioned(POINT, geom, cfg, a=np.ones(6), runs=100, seed=0)


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
        gate_probability(POINT, geom, cfg, "tau", runs=2.5, seed=0)
    with pytest.raises(DomainError):
        event_probabilities(POINT, geom, cfg, runs=True, seed=0)


def test_default_workers_env(monkeypatch):
    monkeypatch.delenv("ANCOVA_CP_THREADS", raising=False)
    assert default_workers() == 1
    monkeypatch.setenv("ANCOVA_CP_THREADS", "6")
    assert default_workers() == 6
    monkeypatch.setenv("ANCOVA_CP_THREADS", "junk")
    assert default_workers() == 1
    monkeypatch.setenv("ANCOVA_CP_THREADS", "0")
    assert default_workers() == 1
