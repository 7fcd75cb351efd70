import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ancova_cp import (
    AncovaLayout,
    ConditionalKernel,
    ContrastSpec,
    DomainError,
    batch_events,
    build_geometry,
    coverage_indicator,
)
from ancova_cp.selection import EventBatch
from oracles import direct_geometry, rss_f_statistics


def _events(gamma_hat, d, geom, cfg, gamma=None):
    """batch_events of one draw given gamma_hat itself; the true gamma is zero unless given.

    With gamma zero the slope noise is q itself, so the F statistics are
    those of q and d alone.
    """
    gamma = np.zeros(2 * geom.k) if gamma is None else np.asarray(gamma, dtype=float)
    delta = (np.asarray(gamma_hat, dtype=float) - gamma)[None, :]
    return batch_events(delta, np.asarray([float(d)]), gamma[geom.k :], geom, cfg)


def _f(gamma_hat, d, geom, cfg):
    ev = _events(gamma_hat, d, geom, cfg)
    return float(ev.f_tau[0]), float(ev.f_xi[0])


def _from_q(q, k=3):
    return np.concatenate([np.zeros(k), q])


def _region(ev) -> str:
    """"A" zero slopes, "B" common slope, "C" separate slopes."""
    return "A" if ev.in_a[0] else "B" if ev.in_b[0] else "C"


def _covers(gamma_hat, d, geom, cfg, gamma) -> dict:
    ev = _events(gamma_hat, d, geom, cfg, gamma)
    return {"A": bool(ev.covers_tau[0]), "B": bool(ev.covers_xi[0]), "C": bool(ev.covers_full[0])}


def test_from_gamma_hat_slices_slope_block(ref):
    # the events read q from the last k entries of gamma_hat
    layout, contrast, geom, cfg = ref
    gh = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    q = np.array([4.0, 5.0, 6.0])
    want = direct_geometry(layout, np.asarray(contrast.a))
    f_tau, _ = _f(gh, 2.5, geom, cfg)
    assert f_tau == pytest.approx((geom.m / geom.k) * (q @ want["v22_inv"] @ q) / 2.5, rel=1e-10)
    assert _f(gh, 2.5, geom, cfg) == _f(_from_q(q), 2.5, geom, cfg)


# ---------------------------------------------------------------------------
# F statistics against raw least squares fits
# ---------------------------------------------------------------------------


def test_f_statistics_against_rss_route(ref):
    layout, _, geom, cfg = ref
    rng = np.random.default_rng(11)
    x = direct_geometry(layout, geom.a)["x_design"]
    proj = np.linalg.inv(x.T @ x) @ x.T
    for _ in range(10):
        beta = rng.standard_normal(6)
        y = x @ beta + rng.standard_normal(24)
        beta_hat = proj @ y
        rss_full = float(np.sum((y - x @ beta_hat) ** 2))
        f_tau, f_xi = _f(beta_hat, rss_full, geom, cfg)
        want_tau, want_xi = rss_f_statistics(layout, y)
        assert f_tau == pytest.approx(want_tau, rel=1e-8)
        assert f_xi == pytest.approx(want_xi, rel=1e-8)


def test_f_statistics_zero_q(ref):
    _, _, geom, cfg = ref
    f_tau, f_xi = _f(_from_q(np.zeros(3)), 18.0, geom, cfg)
    assert f_tau == 0.0 and f_xi == 0.0


def test_f_statistics_equal_slopes_kill_second_stat(ref):
    _, _, geom, cfg = ref
    f_tau, f_xi = _f(_from_q(np.array([0.7, 0.7, 0.7])), 18.0, geom, cfg)
    assert f_tau > 0.0
    assert f_xi == pytest.approx(0.0, abs=1e-14)


def test_f_statistics_requires_positive_d(ref):
    _, _, geom, cfg = ref
    with pytest.raises(DomainError):
        coverage_indicator(_from_q(np.zeros(3)), 0.0, geom, cfg, np.zeros(6))


@pytest.mark.parametrize("bad", [0.0, -0.0, -1.0])
def test_the_row_interfaces_refuse_a_d_that_is_not_positive_with_one_message(ref, bad):
    # one rule (selection.positive_d) for every interface that takes a scale-free d from outside
    _, _, geom, cfg = ref
    d = np.array([2.0, bad, 18.0])
    kernel = ConditionalKernel(geom, cfg, np.zeros(3))
    calls = {
        "batch_events": lambda: batch_events(np.zeros((3, 6)), d, np.zeros(3), geom, cfg),
        "coverage_indicator": lambda: coverage_indicator(np.zeros(6), bad, geom, cfg, np.zeros(6)),
        "conditional_cp_batch": lambda: kernel.conditional_cp_batch(np.zeros((3, 3)), d),
    }
    for name, call in calls.items():
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == f"d must be positive, got {bad}", name


# ---------------------------------------------------------------------------
# region selection
# ---------------------------------------------------------------------------


def test_select_region_never_reject(ref):
    _, _, geom, cfg = ref
    never = dataclasses.replace(cfg, l_tau=math.inf)
    assert _region(_events(_from_q(np.array([5.0, -3.0, 9.0])), 1.0, geom, never)) == "A"


def test_select_region_always_reject(ref):
    _, _, geom, cfg = ref
    always = dataclasses.replace(cfg, l_tau=0.0, l_xi=0.0)
    assert _region(_events(_from_q(np.array([5.0, -3.0, 9.0])), 1.0, geom, always)) == "C"


def test_select_region_zero_q_accepts_even_at_zero_cutoff(ref):
    _, _, geom, cfg = ref
    always = dataclasses.replace(cfg, l_tau=0.0, l_xi=0.0)
    ev = _events(_from_q(np.zeros(3)), float(geom.m), geom, always)
    assert _region(ev) == "A"
    assert ev.f_tau[0] == 0.0


def test_select_region_tie_accepts(ref):
    _, _, geom, cfg = ref
    gh = _from_q(np.array([0.4, -0.2, 0.1]))
    f_tau, f_xi = _f(gh, 12.0, geom, cfg)
    at_tie = dataclasses.replace(cfg, l_tau=f_tau)
    assert _region(_events(gh, 12.0, geom, at_tie)) == "A"
    below = dataclasses.replace(cfg, l_tau=f_tau * (1.0 - 1e-12), l_xi=f_xi)
    assert _region(_events(gh, 12.0, geom, below)) == "B"
    both_below = dataclasses.replace(cfg, l_tau=f_tau * (1.0 - 1e-12), l_xi=f_xi * (1.0 - 1e-12))
    assert _region(_events(gh, 12.0, geom, both_below)) == "C"


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    st.floats(0.1, 80.0),
)
def test_region_partition_property(qvals, d):
    import ancova_cp

    layout, contrast = ancova_cp.reference_design()
    geom = ancova_cp.build_geometry(layout, contrast)
    cfg = ancova_cp.critical_values(layout, 0.05, 0.10, 0.10)
    ev = _events(_from_q(np.asarray(qvals)), d, geom, cfg)
    region, f_tau, f_xi = _region(ev), ev.f_tau[0], ev.f_xi[0]
    assert region in {"A", "B", "C"}
    if region == "A":
        assert f_tau <= cfg.l_tau
    elif region == "B":
        assert f_tau > cfg.l_tau and f_xi <= cfg.l_xi
    else:
        assert f_tau > cfg.l_tau and f_xi > cfg.l_xi


# ---------------------------------------------------------------------------
# coverage events
# ---------------------------------------------------------------------------


def test_coverage_indicator_dispatch(ref):
    _, _, geom, cfg = ref
    rng = np.random.default_rng(3)
    gamma = np.concatenate([rng.standard_normal(3), [0.05, 0.1, 0.0]])
    for _ in range(50):
        gh = gamma + rng.standard_normal(6) @ geom.noise_chol.T
        d = float(rng.chisquare(geom.m))
        region = _region(_events(gh, d, geom, cfg))
        want = _covers(gh, d, geom, cfg, gamma)[region]
        assert coverage_indicator(gh, d, geom, cfg, gamma) == want


@pytest.mark.parametrize("shape", [(8192,), (5, 37)])
def test_covers_selected_matches_nested_where(shape):
    rng = np.random.default_rng(shape[0])
    in_a = rng.random(shape) < 0.3
    in_b = ~in_a & (rng.random(shape) < 0.5)
    tau, xi = (rng.random(shape) < 0.9 for _ in range(2))
    f = rng.random(shape)
    # as in batch_events, covers_full is one row per draw broadcast over the points (read-only)
    full = np.broadcast_to(rng.random(shape[-1]) < 0.9, shape)
    ev = EventBatch(in_a, in_b, tau, xi, full, f, f)
    want = np.where(in_a, tau, np.where(in_b, xi, ev.covers_full))
    assert ev.covers_selected.dtype == bool
    assert np.array_equal(ev.covers_selected, want)


def test_covers_centered_case(ref):
    # gamma_hat equal to gamma with zero slopes: every interval is centered
    _, _, geom, cfg = ref
    gamma = np.array([1.0, -2.0, 0.5, 0.0, 0.0, 0.0])
    covers = _covers(gamma.copy(), 10.0, geom, cfg, gamma)
    assert covers["A"]
    assert covers["B"]
    assert covers["C"]


def test_covers_degenerate_quantile(ref):
    # zero t quantile and an off-center estimate: interval has zero width
    _, _, geom, cfg = ref
    degenerate = dataclasses.replace(cfg, t_m=0.0, t_mk=0.0, t_mk1=0.0)
    gamma = np.zeros(6)
    gh = np.array([0.3, 0.0, 0.0, 0.2, -0.1, 0.4])
    covers = _covers(gh, 9.0, geom, degenerate, gamma)
    assert not covers["A"]
    assert not covers["B"]
    assert not covers["C"]


def test_intercept_shift_leaves_events_unchanged(ref):
    _, _, geom, cfg = ref
    rng = np.random.default_rng(5)
    shift = np.array([4.0, -7.0, 2.5])
    for _ in range(30):
        gamma = np.concatenate([rng.standard_normal(3), rng.uniform(-0.3, 0.3, 3)])
        gh = gamma + rng.standard_normal(6) @ geom.noise_chol.T
        d = float(rng.chisquare(geom.m))
        gamma2 = gamma.copy()
        gamma2[:3] += shift
        gh2 = gh.copy()
        gh2[:3] += shift
        assert _f(gh, d, geom, cfg) == _f(gh2, d, geom, cfg)
        assert _covers(gh, d, geom, cfg, gamma) == _covers(gh2, d, geom, cfg, gamma2)
        assert coverage_indicator(gh, d, geom, cfg, gamma) == coverage_indicator(gh2, d, geom, cfg, gamma2)


def test_doubling_scale_is_bit_exact(ref):
    # gamma, gamma_hat, sqrt(d) doubled: every comparison is a power-of-two
    # rescaling, so indicators and F statistics match bit for bit
    _, _, geom, cfg = ref
    rng = np.random.default_rng(17)
    for _ in range(50):
        gamma = np.concatenate([rng.standard_normal(3), rng.uniform(-0.5, 0.5, 3)])
        gh = gamma + rng.standard_normal(6) @ geom.noise_chol.T
        d = float(rng.chisquare(geom.m))
        assert _f(gh, d, geom, cfg) == _f(2.0 * gh, 4.0 * d, geom, cfg)
        assert coverage_indicator(gh, d, geom, cfg, gamma) == coverage_indicator(
            2.0 * gh, 4.0 * d, geom, cfg, 2.0 * gamma
        )


def test_quadratic_form_monotone_in_q(ref):
    _, _, geom, cfg = ref
    q = np.array([0.3, -0.1, 0.2])
    d = 12.0
    f_small, _ = _f(_from_q(q), d, geom, cfg)
    f_large, _ = _f(_from_q(2.0 * q), d, geom, cfg)
    assert f_large > f_small


def test_batch_events_matches_scalar_path(ref):
    _, _, geom, cfg = ref
    rng = np.random.default_rng(23)
    slopes = np.array([0.05, 0.1, 0.0])
    gamma = np.concatenate([np.zeros(3), slopes])
    delta = rng.standard_normal((40, 6)) @ geom.noise_chol.T
    d = rng.chisquare(geom.m, 40)
    ev = batch_events(delta, d, slopes, geom, cfg)
    for r in range(40):
        # one draw at a time, the F statistics from q itself
        gh = gamma + delta[r]
        one = _events(gh, d[r], geom, cfg)
        covers = _covers(gh, d[r], geom, cfg, gamma)
        assert ev.in_a[r] == (_region(one) == "A")
        assert ev.in_b[r] == (_region(one) == "B")
        assert ev.f_tau[r] == pytest.approx(one.f_tau[0], rel=1e-12)
        assert ev.covers_tau[r] == covers["A"]
        assert ev.covers_xi[r] == covers["B"]
        assert ev.covers_full[r] == covers["C"]


def test_scalar_input_validation(ref):
    _, _, geom, cfg = ref
    gh = _from_q(np.zeros(3))
    with pytest.raises(DomainError):
        coverage_indicator(gh, 5.0, geom, cfg, np.zeros(4))
    with pytest.raises(DomainError):
        coverage_indicator(gh, -1.0, geom, cfg, np.zeros(6))
    with pytest.raises(DomainError, match=r"^gamma_hat must be one vector of 6 numbers, got shape \(2, 6\)$"):
        coverage_indicator(np.stack([gh, gh]), 5.0, geom, cfg, np.zeros(6))
    one = build_geometry(AncovaLayout(k=1, n=(4,), x=((0.0, 1.0, 2.0, 4.0),)), ContrastSpec(a=(1.0, 1.0)))
    with pytest.raises(DomainError, match="the two-stage procedure needs at least two groups and m >= 1$"):
        coverage_indicator(np.zeros(2), 1.0, one, cfg, np.zeros(2))
