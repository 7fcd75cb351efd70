"""Estimator properties on random designs.

Hypothesis draws designs with k from 2 to 8 groups of unequal sizes and
m above 64 residual degrees of freedom, a contrast between two of their
groups and a block of slope points, scaled by the slope noise.  Examples
come from derandomize=True and every Monte Carlo call uses a fixed seed,
so each run checks the same designs against the same draws.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ancova_cp import (
    AncovaLayout,
    ContrastSpec,
    SlopePoint,
    build_geometry,
    critical_values,
    estimate_points,
)
from ancova_cp.oracle import agreement_with_events

RUNS = 2000
SEED = 17
EXAMPLES = 20


@st.composite
def designs(draw):
    """(layout, geom, cfg, slope points) of a random unbalanced design with m > 64."""
    k = draw(st.integers(2, 8))
    n = draw(st.lists(st.integers(3, 40), min_size=k, max_size=k))
    n[0] += max(0, 65 + 2 * k - sum(n))  # m = sum(n) - 2k must exceed 64
    if len(set(n)) == 1:
        n[-1] += 1
    # covariates: a shifted, rescaled normal sample per group, as in a real study
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shift = rng.normal(70.0, 8.0, k)
    x = tuple(tuple(np.round(rng.normal(s, 12.0, size), 1).tolist()) for s, size in zip(shift, n))
    layout = AncovaLayout(k=k, n=tuple(n), x=x)
    i, j = draw(st.permutations(range(1, k + 1)))[:2]
    geom = build_geometry(layout, ContrastSpec.treatment_difference(layout, i, j))
    cfg = critical_values(layout, alpha=0.05, sig_tau=0.10, sig_xi=0.10)
    # slope points in units of the slope noise, so that every selection region occurs
    coords = st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False)
    points = draw(st.lists(st.tuples(*[coords] * k), min_size=2, max_size=20))
    return layout, geom, cfg, [SlopePoint.of(geom.v22_chol @ np.asarray(p)) for p in points]


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(designs())
def test_block_of_points_equals_each_point_alone(design):
    _, geom, cfg, points = design
    for estimator in ("conditioned", "naive"):
        block = estimate_points(points, geom, cfg, estimator, runs=RUNS, seed=SEED)
        alone = [estimate_points([p], geom, cfg, estimator, runs=RUNS, seed=SEED)[0] for p in points]
        assert block == alone


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(designs())
def test_naive_and_conditioned_agree(design):
    _, geom, cfg, points = design
    (naive,) = estimate_points(points[:1], geom, cfg, "naive", runs=RUNS, seed=SEED)
    (cond,) = estimate_points(points[:1], geom, cfg, "conditioned", runs=RUNS, seed=SEED)
    # different estimator tags, so the two estimates are independent
    assert abs(naive.estimate - cond.estimate) <= 3.0 * math.hypot(naive.se, cond.se)


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(designs())
def test_raw_oracle_agrees_with_event_path(design):
    layout, geom, cfg, points = design
    sigma = 1.5
    beta = np.concatenate([np.linspace(-1.0, 1.0, layout.k), sigma * points[0].as_array()])
    report = agreement_with_events(beta, sigma, layout, geom, cfg, geom.a, RUNS, SEED)
    assert report.agreement >= 0.999
    assert abs(report.raw.estimate - report.event_rate) <= 1e-3
