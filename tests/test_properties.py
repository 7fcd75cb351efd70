"""Estimator properties on random designs.

Hypothesis draws designs with k from 2 to 8 groups of unequal sizes and
m above 64 residual degrees of freedom, a contrast between two of their
groups and a block of slope points, scaled by the slope noise.  Examples
come from derandomize=True and every Monte Carlo call uses a fixed seed,
so each run checks the same designs against the same draws.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ancova_cp import (
    AncovaLayout,
    ConditionalKernel,
    ContrastSpec,
    SlopePoint,
    build_geometry,
    critical_values,
    estimate_points,
)
from ancova_cp.conditional import KernelDraws
from ancova_cp.montecarlo import _draw_full, _draw_slopes, _stream
from ancova_cp.oracle import agreement_with_events
from ancova_cp.selection import EventNoise, SlopeNoise, SlopeTerms, batch_events, block_f, f_thresholds, rejection_radii
from oracles import assembled, certified, event_noise_reference, full_draws, kernel_draws_reference, past_radii
from oracles import slope_draws, slope_noise_reference

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
    return layout, geom, cfg, [SlopePoint(geom.v22_chol @ np.asarray(p)) for p in points]


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
    beta = np.concatenate([np.linspace(-1.0, 1.0, layout.k), sigma * np.asarray(points[0].values)])
    report = agreement_with_events(beta, sigma, layout, geom, cfg, geom.a, RUNS, SEED)
    assert report.agreement >= 0.999
    assert abs(report.raw.estimate - report.event_rate) <= 1e-3


# ---------------------------------------------------------------------------
# the row-major noise parts and the Fortran-ordered draws keep the bits of the
# plain column-major products, for one draw (numpy's gemv) and for many (gemm)
# ---------------------------------------------------------------------------


def _layouts(a: np.ndarray):
    """a itself (C order), a Fortran-ordered copy and a strided view of the same values."""
    wide = np.empty((len(a), 2 * a.shape[1]))
    wide[:, 1::2] = a
    return {"C": a, "F": np.asfortranarray(a), "strided": wide[:, 1::2]}


def _same_bits(got, want) -> bool:
    if isinstance(want, tuple):
        return len(got) == len(want) and all(_same_bits(g, w) for g, w in zip(got, want))
    return np.asarray(got).shape == np.asarray(want).shape and np.array_equal(got, want)


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(designs(), st.sampled_from([1, 2, 3]) | st.integers(4, 3000), st.integers(0, 2**32 - 1))
def test_noise_parts_and_draws_have_the_column_major_bits(design, n, seed):
    _, geom, _, _ = design
    rng = np.random.default_rng(seed)
    # slope noise and full noise at their own scale, times a power of ten, so rounding is tested at every size
    z0, d = slope_draws(rng, geom, n)
    delta0 = full_draws(rng, geom, n)[0] * 10.0 ** rng.integers(-3, 4)
    for order, z in _layouts(z0).items():
        noise = SlopeNoise.of(z, d, geom)
        assert _same_bits(tuple(noise), slope_noise_reference(z, d, geom)), order
        assert all(row.flags.c_contiguous for row in (noise.vz[0], noise.wuz[0]))
        draws = KernelDraws(z, d, geom)
        assert _same_bits((tuple(draws.noise), draws.zs, draws.zv), kernel_draws_reference(z, d, geom)), order
    for order, delta in _layouts(delta0).items():
        parts = EventNoise.of(delta, d, geom)
        assert _same_bits((tuple(parts.noise), *parts[1:]), event_noise_reference(delta, d, geom)), order
    # each chunk's draws from its stream, one draw included
    for size in (1, 2, n):
        kept = _draw_slopes(_stream(seed, "conditioned", 0), geom, size)
        z, d = slope_draws(_stream(seed, "conditioned", 0), geom, size)
        assert _same_bits((tuple(kept.noise), kept.zs, kept.zv), kernel_draws_reference(z, d, geom))
        full = _draw_full(_stream(seed, "naive", 0), geom, size)
        assert _same_bits(full, full_draws(_stream(seed, "naive", 0), geom, size))


# ---------------------------------------------------------------------------
# the mirror identity value(-s; -z, d) = value(s; z, d), which lets the search
# evaluate one point of each (s, -s) pair of a symmetric lattice
# ---------------------------------------------------------------------------

MIRROR_DRAWS = 1000


def _draws(geom, dim, seed=SEED):
    """MIRROR_DRAWS draws of the noise (slope block, or the full 2k block) and d, from a fixed seed."""
    rng = np.random.default_rng(seed)
    chol = geom.v22_chol if dim == geom.k else geom.noise_chol
    return rng.standard_normal((MIRROR_DRAWS, dim)) @ chol.T, rng.chisquare(geom.m, MIRROR_DRAWS)


def _slopes(points):
    return np.array([p.values for p in points])


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(designs())
def test_conditional_kernel_is_even_under_the_mirror(design):
    _, geom, cfg, points = design
    z, d = _draws(geom, geom.k)
    slopes = _slopes(points)
    for step in (1, len(slopes)):
        plus, minus = (
            assembled(ConditionalKernel(geom, cfg, sign * slopes).blocks(draws, step), len(slopes), draws.region_c(cfg)[0])
            for sign, draws in ((1.0, KernelDraws(z, d, geom)), (-1.0, KernelDraws(-z, d, geom)))
        )
        # both sides take the same region on every cell; only the band's rounding differs
        np.testing.assert_allclose(minus, plus, rtol=0.0, atol=4 * np.finfo(float).eps)
    lone = ConditionalKernel(geom, cfg, slopes[0])
    mirrored = ConditionalKernel(geom, cfg, -slopes[0])
    q = slopes[0] + z
    np.testing.assert_allclose(
        mirrored.conditional_cp_batch(-q, d), lone.conditional_cp_batch(q, d), rtol=0.0, atol=4 * np.finfo(float).eps
    )


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(designs())
def test_selection_events_are_even_under_the_mirror(design):
    _, geom, cfg, points = design
    delta, d = _draws(geom, 2 * geom.k)
    slopes = _slopes(points)
    plus, minus = batch_events(delta, d, slopes, geom, cfg), batch_events(-delta, d, -slopes, geom, cfg)
    for name in ("in_a", "in_b", "covers_tau", "covers_xi", "covers_full"):
        assert np.array_equal(getattr(minus, name), getattr(plus, name)), name
    assert np.array_equal(minus.covers_selected, plus.covers_selected)
    z = delta[:, geom.k :]
    accept = block_f(SlopeNoise.of(z, d, geom), SlopeTerms.of(slopes, geom), geom, cfg)[:2]
    mirrored = block_f(SlopeNoise.of(-z, d, geom), SlopeTerms.of(-slopes, geom), geom, cfg)[:2]
    assert all(np.array_equal(m, a) for m, a in zip(mirrored, accept))


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(designs())
def test_certified_points_lie_in_region_c_on_every_draw(design):
    # the radii from f_thresholds' Q at the design's own cutoffs, at cutoffs of 0 (a margin relative
    # to the cutoff alone proves nothing there), of inf (no point can be certified) and at cutoffs
    # tied with the F of the first point on the first draw (that draw's Q is that point's form)
    _, geom, cfg, points = design
    z, d = _draws(geom, geom.k)
    noise = SlopeNoise.of(z, d, geom)
    slopes = _slopes(points)
    terms = SlopeTerms.of(slopes, geom)
    radii = np.sqrt(np.concatenate([terms.svs, terms.usu], axis=1))
    slopes, radii = slopes[(radii > 0.0).all(axis=1)], radii[(radii > 0.0).all(axis=1)]
    tie = [f[0, 0] for f in block_f(noise, terms, geom, cfg)[2:4]]
    for l_tau, l_xi in ((cfg.l_tau, cfg.l_xi), (0.0, 0.0), (0.0, math.inf), (math.inf, 0.0), tie):
        forced = dataclasses.replace(cfg, l_tau=l_tau, l_xi=l_xi)
        bounds = rejection_radii(geom, noise, f_thresholds(d, geom, forced))
        # each point scaled to clear each finite bound alone, and both, by one part in 1e12 and by 1 %:
        # (the tests it must be past, the points)
        finite = np.isfinite(bounds)
        scales = [(finite & (np.arange(2) == test), bounds[test] / radii[:, test]) for test in np.flatnonzero(finite)]
        scales += [(finite, (bounds / radii).max(axis=1))] if finite.all() else []
        blocks = [(np.zeros(2, bool), slopes)] + [
            (tests, slopes * (scale * factor)[:, None]) for tests, scale in scales for factor in (1.0 + 1e-12, 1.01)
        ]
        block = np.concatenate([points for _, points in blocks])
        past = past_radii(geom, forced, noise, block)
        in_a, ok_xi = block_f(noise, SlopeTerms.of(block, geom), geom, forced)[:2]
        # a point past one radius rejects that test on every draw, whatever the other test does
        assert not in_a[past[:, 0]].any() and not ok_xi[past[:, 1]].any()
        assert not (in_a | ok_xi)[certified(geom, forced, noise, block)].any()
        # every scaled point is past the radii it was scaled for; an infinite bound certifies nothing
        assert past[np.concatenate([np.broadcast_to(tests, points.shape[:1] + (2,)) for tests, points in blocks])].all()
        assert not past[:, ~finite].any()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    designs(),
    # d from the smallest subnormal up: tiny d makes q m/df subnormal at the threshold, huge d overflows it
    st.lists(st.floats(5e-324, 1e308) | st.sampled_from([5e-324, 1e-310, 1e-300, 1.0, 1e300, 1e308]), min_size=1),
    st.floats(0.0, 1e6, allow_subnormal=True),
    st.sampled_from(["design", "zero", "inf", "tie"]),
)
@np.errstate(over="ignore")  # F overflows to inf at a tiny d
def test_f_thresholds_are_the_largest_accepted_forms(design, d, q, cutoffs):
    # block_f on zero slopes forms quad = z'Az exactly, so it judges each threshold and the next double up
    _, geom, cfg, _ = design
    d = np.asarray(d)
    if cutoffs == "tie":
        # each cutoff equal to the F block_f forms from q on the first draw
        at_q = np.full(len(d), q)
        f_tau, f_xi = (f[0, 0] for f in block_f(_noise(geom, d, at_q, at_q), _zero(geom), geom, cfg)[2:4])
        cfg = dataclasses.replace(cfg, l_tau=f_tau, l_xi=f_xi)
    elif cutoffs != "design":
        cut = 0.0 if cutoffs == "zero" else math.inf
        cfg = dataclasses.replace(cfg, l_tau=cut, l_xi=cut)
    limits = f_thresholds(d, geom, cfg)
    assert limits.shape == (2, len(d)) and (limits >= 0.0).all()
    accept = block_f(_noise(geom, d, *limits), _zero(geom), geom, cfg)[:2]
    assert all(a.all() for a in accept)
    above = block_f(_noise(geom, d, *np.nextafter(limits, math.inf)), _zero(geom), geom, cfg)[:2]
    for a, cutoff in zip(above, (cfg.l_tau, cfg.l_xi)):
        assert a.all() if cutoff == math.inf else not a.any()
    if cutoffs == "tie":
        assert (limits[:, 0] >= q).all()


def _zero(geom):
    return SlopeTerms.of(np.zeros((1, geom.k)), geom)


def _noise(geom, d, zvz, zwz):
    """SlopeNoise whose forms at zero slopes are zvz and zwz themselves."""
    zeros = np.zeros((geom.k, len(d)))
    return SlopeNoise(d, zeros, np.asarray(zvz, dtype=float), zeros[1:], np.asarray(zwz, dtype=float))
