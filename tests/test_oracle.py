import dataclasses
import math
import weakref

import numpy as np
import pytest

from ancova_cp import (
    AncovaLayout,
    ContrastSpec,
    DomainError,
    SingularDesign,
    agreement_with_events,
    batch_events,
    build_geometry,
    critical_values,
    estimate_cp_raw,
    estimate_naive,
    simulate_and_fit,
)
from ancova_cp import oracle
from ancova_cp.design import build_design
from ancova_cp.montecarlo import CHUNK_SIZE
from ancova_cp.oracle import _RawPipeline, _raw_hits
from oracles import raw_fit_reference, restricted_fit_common_slope, restricted_fit_zero_slopes, rss_f_statistics

BETA = np.array([4.0, -2.0, 1.5, 0.3, -0.1, 0.2])


def _draw(layout, pipe, rng, beta=BETA, sigma=1.3):
    y = pipe.x_design @ beta + sigma * rng.standard_normal(layout.n_total)
    return y, pipe.fit(y)


def test_zero_noise_recovers_beta(ref, zero_rng):
    layout, _, _, _ = ref
    fit = simulate_and_fit(BETA, 1.0, layout, zero_rng)
    assert np.allclose(fit.beta_hat, BETA, atol=1e-10)
    assert fit.rss_full == pytest.approx(0.0, abs=1e-18)


def test_restricted_fits_match_projection(ref):
    # the G-matrix shortcut must agree with re-solving each restricted model
    layout, _, _, _ = ref
    pipe = _RawPipeline(layout)
    rng = np.random.default_rng(31)
    ys = []
    for _ in range(10):
        y, fit = _draw(layout, pipe, rng)
        ys.append(y)
        direct_tau = restricted_fit_zero_slopes(layout, y)
        direct_xi = restricted_fit_common_slope(layout, y)
        assert np.allclose(fit.beta_tau, direct_tau, rtol=1e-8, atol=1e-10)
        assert np.allclose(fit.beta_xi, direct_xi, rtol=1e-8, atol=1e-10)
    # the same responses fitted as one block, one row per data set
    block = pipe.fit(np.stack(ys))
    assert block.beta_tau.shape == (10, 2 * layout.k) and block.rss_tau.shape == (10,)
    for row, y in enumerate(ys):
        assert np.allclose(block.beta_tau[row], restricted_fit_zero_slopes(layout, y), rtol=1e-8, atol=1e-10)
        assert np.allclose(block.beta_xi[row], restricted_fit_common_slope(layout, y), rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("fixture", ["ref", "k4"])
def test_fit_has_the_bits_of_c_ordered_products(fixture, request):
    # Fortran-ordered matrices for many rows (gemm) and C-ordered ones for one row (gemv): the same bits either way
    layout = request.getfixturevalue(fixture)[0]
    pipe = _RawPipeline(layout)
    for name in ("x_design", "proj", "g_tau", "g_xi"):
        assert getattr(pipe, name).T.flags.c_contiguous, name
    rng = np.random.default_rng(33)
    y = 3.0 * rng.standard_normal((2000, layout.n_total)) + np.linspace(-5.0, 5.0, layout.n_total)
    for block in (y, y[:37], y[:2], y[:1], y[0], np.asfortranarray(y[:37]), y[::3]):
        want = raw_fit_reference(pipe, block)
        assert all(np.array_equal(got, w) for got, w in zip(dataclasses.astuple(pipe.fit(block)), want))
    beta = np.array([4.0, -2.0, 1.5, 0.3, -0.1, 0.2] + [0.7, -0.4] * (layout.k - 3))
    eps = 1.3 * np.random.default_rng(34).standard_normal(layout.n_total)
    want = raw_fit_reference(pipe, np.ascontiguousarray(pipe.x_design) @ beta + eps)
    got = simulate_and_fit(beta, 1.3, layout, np.random.default_rng(34))
    assert all(np.array_equal(g, w) for g, w in zip(dataclasses.astuple(got), want))


def test_projections_are_idempotent_on_fits(ref):
    layout, _, _, _ = ref
    pipe = _RawPipeline(layout)
    rng = np.random.default_rng(32)
    for _ in range(5):
        _, fit = _draw(layout, pipe, rng)
        assert np.allclose(pipe.g_tau @ fit.beta_tau, fit.beta_tau, atol=1e-10)
        assert np.allclose(pipe.g_xi @ fit.beta_xi, fit.beta_xi, atol=1e-10)


def test_rss_ordering_and_identities(ref):
    layout, _, _, _ = ref
    pipe = _RawPipeline(layout)
    rng = np.random.default_rng(33)
    for _ in range(20):
        _, fit = _draw(layout, pipe, rng)
        assert fit.rss_full <= fit.rss_xi <= fit.rss_tau
        slopes = fit.beta_hat[layout.k :]
        pred_tau = fit.rss_full + slopes @ pipe.v22_inv @ slopes
        assert fit.rss_tau == pytest.approx(pred_tau, rel=1e-8)
        xi_hat = pipe.c_xi.T @ fit.beta_hat
        pred_xi = fit.rss_full + xi_hat @ pipe.w22_inv @ xi_hat
        assert fit.rss_xi == pytest.approx(pred_xi, rel=1e-8)


def test_raw_f_matches_event_path_f(ref):
    # F from residual sums of squares vs F from the scaled statistics
    layout, _, geom, cfg = ref
    pipe = _RawPipeline(layout)
    rng = np.random.default_rng(34)
    sigma = 1.3
    for _ in range(10):
        y, fit = _draw(layout, pipe, rng, sigma=sigma)
        d = np.asarray([fit.rss_full / sigma**2])
        ev = batch_events((fit.beta_hat / sigma)[None, :], d, np.zeros(layout.k), geom, cfg)
        f_tau, f_xi = float(ev.f_tau[0]), float(ev.f_xi[0])
        want_tau, want_xi = rss_f_statistics(layout, y)
        assert f_tau == pytest.approx(want_tau, rel=1e-8)
        assert f_xi == pytest.approx(want_xi, rel=1e-8)


def test_residual_scale_is_unbiased(ref):
    layout, _, _, _ = ref
    pipe = _RawPipeline(layout)
    rng = np.random.default_rng(35)
    sigma = 2.0
    n = 2000
    vals = np.empty(n)
    for r in range(n):
        _, fit = _draw(layout, pipe, rng, sigma=sigma)
        vals[r] = fit.rss_full / sigma**2
    assert abs(vals.mean() - layout.m) < 4 * math.sqrt(2 * layout.m / n)


def test_coverage_indicator_is_scale_free(ref):
    # scaling (beta, sigma) by 2 rescales Y by 2 and must flip no decisions
    layout, contrast, _, cfg = ref
    pipe = _RawPipeline(layout)
    a = contrast.a
    scalars = pipe.contrast_scalars(np.asarray(a))
    rng = np.random.default_rng(36)
    theta1 = float(np.asarray(a) @ BETA)
    for _ in range(200):
        eps = rng.standard_normal(layout.n_total)
        y1 = pipe.x_design @ BETA + eps
        y2 = pipe.x_design @ (2.0 * BETA) + 2.0 * eps
        fit1, fit2 = pipe.fit(y1), pipe.fit(y2)
        hit1 = _raw_hits(pipe, cfg, np.asarray(a), scalars, theta1, fit1)
        hit2 = _raw_hits(pipe, cfg, np.asarray(a), scalars, 2.0 * theta1, fit2)
        assert hit1 == hit2
        f1 = (fit1.rss_tau - fit1.rss_full) / fit1.rss_full
        f2 = (fit2.rss_tau - fit2.rss_full) / fit2.rss_full
        assert f1 == f2


def test_agreement_with_event_path(ref):
    layout, contrast, geom, cfg = ref
    # CHUNK_SIZE + 100 runs: two chunks, the last one partial
    for runs in (3000, CHUNK_SIZE + 100):
        report = agreement_with_events(
            BETA, 1.7, layout, geom, cfg, contrast.a, runs=runs, seed=21
        )
        assert report.raw.runs == runs
        assert report.agreement == 1.0
        assert report.raw.estimate == report.event_rate
        assert report.worst_rss_rel_error < 1e-10


def test_raw_estimate_agrees_with_fast_estimator(ref):
    layout, contrast, geom, cfg = ref
    sigma = 1.4
    raw = estimate_cp_raw(BETA, sigma, layout, cfg, contrast.a, runs=8000, seed=22)
    fast = estimate_naive(BETA[layout.k :] / sigma, geom, cfg, runs=8000, seed=23)
    assert abs(raw.estimate - fast.estimate) <= 3 * math.hypot(raw.se, fast.se)
    assert raw.estimator == "oracle"
    assert raw.point.values == tuple(BETA[layout.k :] / sigma)


@pytest.mark.parametrize("seed", [0, 1])
def test_raw_estimate_invariant_to_intercepts(ref, seed):
    # unlike the event path, the raw pipeline fits data whose intercepts
    # really move, so this can fail if the fits leak intercepts into a decision
    layout, contrast, _, cfg = ref
    slopes = (0.3, -0.1, 0.2)
    estimates = {
        estimate_cp_raw(
            np.concatenate([intercepts, slopes]), 2.0, layout, cfg, contrast.a, runs=10_000, seed=seed
        ).estimate
        for intercepts in ((0.0, 0.0, 0.0), (3.0, -7.0, 11.0), (1e3, -2e3, 5e2))
    }
    assert len(estimates) == 1, estimates


def test_raw_estimate_nominal_when_forced_full(ref):
    layout, contrast, _, cfg = ref
    forced = dataclasses.replace(cfg, l_tau=0.0, l_xi=0.0)
    est = estimate_cp_raw(BETA, 2.0, layout, forced, contrast.a, runs=10_000, seed=24)
    assert abs(est.estimate - 0.95) <= 3 * est.se


def test_raw_estimate_reproducible(ref):
    layout, contrast, _, cfg = ref
    one = estimate_cp_raw(BETA, 1.3, layout, cfg, contrast.a, runs=1000, seed=5)
    two = estimate_cp_raw(BETA, 1.3, layout, cfg, contrast.a, runs=1000, seed=5)
    assert one.estimate == two.estimate


def test_input_validation(ref, zero_rng):
    layout, contrast, _, cfg = ref
    with pytest.raises(DomainError):
        simulate_and_fit(BETA, 0.0, layout, zero_rng)
    with pytest.raises(DomainError):
        simulate_and_fit(BETA[:4], 1.0, layout, zero_rng)
    with pytest.raises(DomainError):
        estimate_cp_raw(BETA, -1.0, layout, cfg, contrast.a, runs=10, seed=0)
    with pytest.raises(DomainError):
        estimate_cp_raw(BETA, 1.0, layout, cfg, contrast.a, runs=0, seed=0)
    with pytest.raises(DomainError, match="^beta must be one vector"):
        estimate_cp_raw(np.stack([BETA, BETA]), 1.0, layout, cfg, contrast.a, runs=10, seed=0)
    with pytest.raises(DomainError, match="^contrast must be one vector"):
        estimate_cp_raw(BETA, 1.0, layout, cfg, np.stack([contrast.a, contrast.a]), runs=10, seed=0)


@pytest.mark.parametrize("sigma", [1e-170, 1e-101, 1.1e100, 1e170, 1e300])
def test_sigma_outside_the_float_range_of_the_fits_is_refused(ref, sigma):
    # at (0, 0.1, 0), 2000 runs, seed 0 the raw estimate reads 0.47 at sigma 1; it read 0.0 at 1e-170 and 1.0 at
    # 1e170 and 1e300, and agreement_with_events died on a bare OverflowError from sigma**2 at 1e300
    layout, contrast, geom, cfg = ref
    beta = sigma * np.array([0.0, 0.0, 0.0, 0.0, 0.1, 0.0])
    with pytest.raises(DomainError, match="^sigma must be from 1e-100 to 1e"):
        estimate_cp_raw(beta, sigma, layout, cfg, contrast.a, runs=2000, seed=0)
    with pytest.raises(DomainError, match="^sigma"):
        agreement_with_events(beta, sigma, layout, geom, cfg, contrast.a, runs=2000, seed=0)


def test_sigma_at_the_ends_of_its_range_keeps_the_estimate(ref):
    layout, contrast, _, cfg = ref
    unit = np.array([0.0, 0.0, 0.0, 0.0, 0.1, 0.0])
    one = estimate_cp_raw(unit, 1.0, layout, cfg, contrast.a, runs=2000, seed=0)
    for sigma in oracle.SIGMA_RANGE:
        assert estimate_cp_raw(sigma * unit, sigma, layout, cfg, contrast.a, runs=2000, seed=0).estimate == one.estimate


@pytest.mark.parametrize("slope", [1e16, 1e120, -1e200])
def test_responses_that_swamp_the_noise_are_refused(ref, slope):
    # the fits round at about 1e-16 of the responses: at 1e16 the estimate read 1.0 and at 1e120 0.0, where the
    # coverage is 0.95, and the event path, fed the same fits, agreed on every run
    layout, contrast, geom, cfg = ref
    beta = np.array([0.0, 0.0, 0.0, slope, 0.0, 0.0])
    with pytest.raises(DomainError, match="^beta is too large: the responses reach .* sigmas"):
        estimate_cp_raw(beta, 1.0, layout, cfg, contrast.a, runs=100, seed=0)
    with pytest.raises(DomainError, match="^beta is too large"):
        agreement_with_events(beta, 1.0, layout, geom, cfg, contrast.a, runs=100, seed=0)


def test_signal_bound_keeps_the_raw_estimate(ref):
    # within SIGNAL_MAX sigmas the raw estimate at a far slope point is the one at a moderate one, run for run
    layout, contrast, _, cfg = ref
    design = build_design(layout)
    at = {}
    for slope in (1e3, oracle.SIGNAL_MAX / np.abs(design[:, 3]).max()):
        beta = np.array([0.0, 0.0, 0.0, slope, 0.0, 0.0])
        at[slope] = estimate_cp_raw(beta, 1.0, layout, cfg, contrast.a, runs=4000, seed=3).estimate
    assert len(set(at.values())) == 1
    # the signal counts in sigmas: a beta refused at sigma 1 is resolved at a sigma that makes it small
    beta = np.array([0.0, 0.0, 0.0, 1e16, 0.0, 0.0])
    assert estimate_cp_raw(beta, 1e12, layout, cfg, contrast.a, runs=100, seed=0).runs == 100


# ---------------------------------------------------------------------------
# one pipeline per layout, kept across calls
# ---------------------------------------------------------------------------


def _oracle_bits(layout, contrast, geom, cfg, runs=2000, seed=4):
    beta = np.linspace(-1.0, 1.5, 2 * layout.k)
    rep = agreement_with_events(beta, 1.3, layout, geom, cfg, np.asarray(contrast.a), runs=runs, seed=seed)
    raw = estimate_cp_raw(beta, 1.3, layout, cfg, contrast.a, runs=runs, seed=seed)
    fields = (rep.raw.estimate, rep.raw.se, rep.event_rate, rep.agreement, rep.worst_rss_rel_error, raw.estimate, raw.se)
    return tuple(float(v).hex() for v in fields)


def test_cold_and_warm_calls_give_the_same_bits(ref, small, k4):
    designs = (ref, small, k4)
    cold = []
    for design in designs:
        oracle._pipeline.cache_clear()  # and with the pipelines their contrast scalars
        cold.append(_oracle_bits(*design))
    for _ in range(2):  # interleaved, every pipeline and contrast kept
        assert [_oracle_bits(*design) for design in designs] == cold
    assert oracle._pipeline.cache_info().hits >= 2 * len(designs)


def test_layouts_equal_but_for_a_zeros_sign_share_one_pipeline():
    # the grand mean is 0.0, so a zero covariate's sign would reach the design rows: a layout stores -0.0 as 0.0
    pos = AncovaLayout(k=2, n=(4, 4), x=((-1.0, 0.0, 1.0, 3.0), (-2.0, 0.0, 1.0, -2.0)))
    neg = AncovaLayout(k=2, n=(4, 4), x=((-1.0, -0.0, 1.0, 3.0), (-2.0, 0.0, 1.0, -2.0)))
    assert pos == neg and hash(pos) == hash(neg) and not np.signbit(neg.x[0][1])
    assert oracle._RawPipeline(neg).rows.tobytes() == oracle._RawPipeline(pos).rows.tobytes()
    contrast = ContrastSpec.treatment_difference(pos, 1, 2)
    geom, cfg = build_geometry(pos, contrast), critical_values(pos, 0.05, 0.10, 0.10)
    results = []
    for order in ((pos, neg), (neg, pos)):
        oracle._pipeline.cache_clear()
        results.append([_oracle_bits(layout, contrast, geom, cfg) for layout in order])
        assert oracle._pipeline(pos) is oracle._pipeline(neg)
        assert oracle._pipeline.cache_info().currsize == 1
    assert results[0][0] == results[0][1] == results[1][0] == results[1][1]
    # a contrast that differs only in a zero's sign has its own scalars, whichever came first
    a = np.asarray(contrast.a)
    flipped = np.where(a == 0.0, -0.0, a)
    for order in ((a, flipped), (flipped, a)):
        pipe = oracle._RawPipeline(pos)
        got = {arr.tobytes(): pipe.contrast_scalars(arr) for arr in order}
        assert got == {arr.tobytes(): oracle._RawPipeline(pos).contrast_scalars(arr) for arr in order}


def test_contrast_scalars_are_kept_with_their_pipeline(ref):
    layout, contrast, geom, cfg = ref
    oracle._pipeline.cache_clear()
    _oracle_bits(layout, contrast, geom, cfg, runs=10)
    pipe = oracle._pipeline(layout)
    # nothing but the layout cache holds the pipeline: evicted, it is freed
    gone = weakref.ref(pipe)
    del pipe
    oracle._pipeline.cache_clear()
    assert gone() is None


def test_a_singular_layout_is_refused_on_every_call():
    singular = AncovaLayout(k=2, n=(4, 4), x=((1.0, 1.0, 1.0, 1.0), (1.0, 2.0, 3.0, 4.0)))
    cfg = critical_values(singular, 0.05, 0.10, 0.10)
    before = oracle._pipeline.cache_info().currsize
    for _ in range(3):
        with pytest.raises(SingularDesign):
            estimate_cp_raw(np.zeros(4), 1.0, singular, cfg, (1.0, -1.0, 0.0, 0.0), runs=10, seed=0)
        with pytest.raises(SingularDesign):
            simulate_and_fit(np.zeros(4), 1.0, singular, np.random.default_rng(0))
    assert oracle._pipeline.cache_info().currsize == before


@pytest.mark.parametrize("fixture", ["ref", "small", "k4"])
def test_kept_pipeline_arrays_are_read_only(fixture, request):
    pipe = oracle._pipeline(request.getfixturevalue(fixture)[0])
    arrays = {name: value for name, value in vars(pipe).items() if isinstance(value, np.ndarray)}
    assert set(arrays) == {"rows", "x_design", "xtx_inv", "proj", "c_xi", "v22_inv", "w22_inv", "g_tau", "g_xi"}
    for name, value in arrays.items():
        assert not value.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            value[0] = 1.0
    # the signal check's gemv reads the rows in C order (design.times_t)
    assert pipe.rows.flags.c_contiguous
