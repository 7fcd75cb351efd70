"""End-to-end checks of the package's headline guarantees.

Each test prints one PASS/FAIL line (visible under pytest -s) and exercises
one guarantee at its full advertised budget, so this module is slower than
the unit modules.
"""

import dataclasses
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ancova_cp import (
    GridSpec,
    SearchConfig,
    SlopePoint,
    agreement_with_events,
    estimate_conditioned,
    estimate_cp_raw,
    estimate_naive,
    estimate_points,
    event_probabilities,
    min_cp_search,
    second_test_only_cp,
)
from oracles import mp_f_quantile, mp_t_quantile


@contextmanager
def criterion(n: int):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n}: FAIL")
        raise
    print(f"ACCEPTANCE {n}: PASS")


def _random_points(n, seed, lo=-0.25, hi=0.25):
    rng = np.random.default_rng(seed)
    return [SlopePoint(p) for p in rng.uniform(lo, hi, size=(n, 3))]


def test_criterion_01_degenerate_thresholds_nominal(ref):
    _, _, geom, cfg = ref
    with criterion(1):
        forced = dataclasses.replace(cfg, l_tau=0.0, l_xi=0.0)
        for point in _random_points(5, seed=1001):
            for estimate in (estimate_naive, estimate_conditioned):
                est = estimate(point, geom, forced, runs=100_000, seed=0)
                assert abs(est.estimate - 0.95) <= 3 * est.se, (point, est)


def test_criterion_02_reduced_models_nominal(ref):
    _, _, geom, cfg = ref
    with criterion(2):
        always_a = dataclasses.replace(cfg, l_tau=math.inf)
        zero = SlopePoint((0.0, 0.0, 0.0))
        for estimate in (estimate_naive, estimate_conditioned):
            est = estimate(zero, geom, always_a, runs=100_000, seed=0)
            assert abs(est.estimate - 0.95) <= 3 * est.se, est

        always_b = dataclasses.replace(cfg, l_tau=0.0, l_xi=math.inf)
        equal = SlopePoint((0.7, 0.7, 0.7))
        for estimate in (estimate_naive, estimate_conditioned):
            est = estimate(equal, geom, always_b, runs=100_000, seed=0)
            assert abs(est.estimate - 0.95) <= 3 * est.se, est


def test_criterion_03_raw_pipeline_agreement(ref):
    layout, contrast, geom, cfg = ref
    with criterion(3):
        beta = np.array([4.0, -2.0, 1.5, 0.3, -0.1, 0.2])
        report = agreement_with_events(
            beta, 2.0, layout, geom, cfg, contrast.a, runs=10_000, seed=0
        )
        assert report.agreement >= 0.999, report
        assert report.worst_rss_rel_error <= 1e-8, report


def test_criterion_04_estimators_agree(ref):
    _, _, geom, cfg = ref
    with criterion(4):
        for point in _random_points(20, seed=1004):
            naive = estimate_naive(point, geom, cfg, runs=10_000, seed=0)
            cond = estimate_conditioned(point, geom, cfg, runs=10_000, seed=0)
            gap = abs(naive.estimate - cond.estimate)
            assert gap <= 3 * math.hypot(naive.se, cond.se), (point, naive, cond)


def test_criterion_05_variance_reduction(ref):
    _, _, geom, cfg = ref
    with criterion(5):
        zero = SlopePoint((0.0, 0.0, 0.0))
        wins = 0
        for seed in range(10):
            naive = estimate_naive(zero, geom, cfg, runs=10_000, seed=seed)
            cond = estimate_conditioned(zero, geom, cfg, runs=10_000, seed=seed)
            wins += cond.se < naive.se
        assert wins >= 8, wins


def test_controlled_se_is_honest_over_seeds(ref):
    # the control variates make criteria 4 and 5 easier to pass, since they shrink the conditioned SE; this
    # checks that SE itself.  Over 1000 seeds at 2000 runs, at the valley floor, at (0, 0.1, 0) and at
    # (0.1, -0.05, 0.15), mostly region C, where all three controls are kept, the spread of the estimates matches
    # their mean reported SE, and their mean matches a 2^21-run naive estimate, plain Monte Carlo on independent
    # draws.  At (0.1, -0.05, 0.15), with about 62 region-B cells per 2000 runs, the SE reads about 8 % low
    # (spread / SE 1.069 over 1500 seeds, bootstrap 95 % interval 1.025-1.109; 0.982 at 10 000 runs): 200 seeds
    # read 1.110 or 1.152 by the luck of the stream, so the check needs the 1000 seeds to sit inside its bound
    _, _, geom, cfg = ref
    points = [(-0.0221, 0.0391, -0.0031), (0.0, 0.1, 0.0), (0.1, -0.05, 0.15)]
    seeds = range(1000)
    ests = np.array([[(e.estimate, e.se) for e in estimate_points(points, geom, cfg, runs=2000, seed=s)] for s in seeds])
    for point, (values, ses) in zip(points, ests.transpose(1, 2, 0)):
        spread = values.std(ddof=1)
        assert 0.85 <= spread / ses.mean() <= 1.15, (point, spread, ses.mean())
        naive = estimate_naive(point, geom, cfg, runs=2**21, seed=0)
        gap = abs(values.mean() - naive.estimate)
        assert gap <= 3 * math.hypot(spread / math.sqrt(len(seeds)), naive.se), (point, values.mean(), naive)


def test_criterion_06_intercepts_cannot_matter(ref):
    # the raw fits are the one route where intercepts enter the data; the estimators take none, and must agree
    layout, contrast, geom, cfg = ref
    with criterion(6):
        point, sigma = (0.05, 0.1, 0.0), 2.0
        intercepts = ((0.0, 0.0, 0.0), (3.0, -7.0, 11.0), (1e3, -2e3, 5e2))
        betas = [np.concatenate([c, sigma * np.array(point)]) for c in intercepts]
        raws = [estimate_cp_raw(beta, sigma, layout, cfg, contrast.a, runs=10_000, seed=3) for beta in betas]
        assert len({(r.estimate, r.se) for r in raws}) == 1, raws
        raw = raws[0]
        for estimate in (estimate_naive, estimate_conditioned):
            est = estimate(point, geom, cfg, runs=10_000, seed=3)
            assert abs(est.estimate - raw.estimate) <= 3 * math.hypot(est.se, raw.se), (raw, est)


def test_criterion_07_second_stage_shift_invariance(ref):
    _, _, geom, cfg = ref
    with criterion(7):
        deltas = (-0.08, -0.04)
        ests = [
            second_test_only_cp(deltas, geom, cfg, runs=10_000, seed=0, offset=off)
            for off in (900.0, 1000.0, 1005.0, 1010.0, 2000.0)
        ]
        for other in ests[1:]:
            gap = abs(ests[0].estimate - other.estimate)
            assert gap <= 3 * math.hypot(ests[0].se, other.se), (ests[0], other)
            # the five offsets share their draws, so only rounding separates them
            assert gap <= 1e-9, (ests[0], other)


def test_criterion_08_acceptance_gap_bound(ref):
    _, _, geom, cfg = ref
    with criterion(8):
        for point in _random_points(10, seed=1008):
            out = event_probabilities(point, geom, cfg, runs=10_000, seed=0)
            runs = out["runs"]

            def se(p):
                return math.sqrt(p * (1.0 - p) / runs)

            gap = out["covers_tau"] - out["covers_tau_and_accept"]
            combined = math.sqrt(
                se(out["covers_tau"]) ** 2
                + se(out["covers_tau_and_accept"]) ** 2
                + se(out["reject_tau"]) ** 2
            )
            assert gap >= 0.0, (point, out)
            assert gap <= out["reject_tau"] + 3 * combined, (point, out)


def test_criterion_09_minimum_search_reproduces_geometry(ref):
    _, _, geom, cfg = ref
    with criterion(9):
        start = time.monotonic()
        config = SearchConfig(
            geom=geom,
            cfg=cfg,
            estimator="conditioned",
            cube=GridSpec(bounds=(-0.25, 0.25), points_per_axis=21, runs=10_000, seed=0),
            square=GridSpec(bounds=(-0.2, 0.2), points_per_axis=21, runs=10_000, seed=0),
            profile_points=41,
            n_jobs=min(8, os.cpu_count() or 1),
        )
        report = min_cp_search(config)
        elapsed = time.monotonic() - start
        assert elapsed <= 900.0, elapsed

        assert report.overall.estimate < 0.75, report.overall
        assert report.min1.estimate < report.min2.estimate, (report.min1, report.min2)

        # the sub-0.6 lattice points must form two clusters whose principal
        # directions hug the all-ones diagonal
        low = np.asarray(
            [pt.values for pt, est in report.cube_table if est.estimate < 0.6]
        )
        assert len(low) >= 10, len(low)
        resid = low[:, 1] - low[:, 0]
        diagonal = np.ones(3) / math.sqrt(3.0)
        for cluster in (low[resid >= 0.0], low[resid < 0.0]):
            assert len(cluster) >= 5, len(cluster)
            centered = cluster - cluster.mean(axis=0)
            _, _, vt = np.linalg.svd(centered)
            cosine = abs(float(vt[0] @ diagonal))
            angle = math.degrees(math.acos(min(1.0, cosine)))
            assert angle <= 5.0, angle

        assert report.lines is not None
        assert len(report.profiles) == 2
        for profile in report.profiles:
            values = [e.estimate for e in profile.estimates]
            lowest = int(np.argmin(values))
            assert 0 < lowest < len(values) - 1, values
            assert values[0] > min(values) + 0.05, values
            assert values[-1] > min(values) + 0.05, values
            assert profile.line.c_range[0] < profile.c_min < profile.line.c_range[1]


def test_criterion_10_quantiles_match_independent_evaluation(ref):
    layout, _, _, cfg = ref
    with criterion(10):
        k, m = layout.k, layout.m
        assert (k, m) == (3, 18)
        assert cfg.l_tau == pytest.approx(mp_f_quantile(0.90, k, m), abs=1e-8)
        assert cfg.l_xi == pytest.approx(mp_f_quantile(0.90, k - 1, m), abs=1e-8)
        assert cfg.t_m == pytest.approx(mp_t_quantile(0.975, m), abs=1e-8)
        assert cfg.t_mk == pytest.approx(mp_t_quantile(0.975, m + k), abs=1e-8)
        assert cfg.t_mk1 == pytest.approx(mp_t_quantile(0.975, m + k - 1), abs=1e-8)
