import dataclasses
import math

import mpmath
import numpy as np
import pytest

from scipy import special

from ancova_cp import ConditionalKernel, DomainError, batch_events
from oracles import conditional_coverage_mc

N_DRAWS = 100_000


def _region_of(geom, cfg, slopes, q, d):
    """The region batch_events selects for slope estimate q and d at true slopes."""
    slopes = np.asarray(slopes, dtype=float)
    delta = np.concatenate([np.zeros(geom.k), np.asarray(q, dtype=float) - slopes])[None, :]
    ev = batch_events(delta, np.asarray([d]), slopes, geom, cfg)
    return "A" if ev.in_a[0] else "B" if ev.in_b[0] else "C"


def _cp(kernel, q, d):
    """Conditional coverage of the selected interval for one row (q, d)."""
    return float(kernel.conditional_cp_batch(np.asarray(q, dtype=float)[None, :], np.asarray([d]))[0])


def _parts(kernel, q, d):
    """(p_tau, p_xi, p_full): the coverage on the region batch_events selects, zero on the others."""
    region = _region_of(kernel.geom, kernel.cfg, kernel.slopes[0], q, d)
    p = _cp(kernel, q, d)
    return tuple(p if region == r else 0.0 for r in "ABC")


# ---------------------------------------------------------------------------
# closed form versus conditional resampling, one case per region
# ---------------------------------------------------------------------------


def test_p_tau_matches_conditional_brute_force(ref):
    layout, _, geom, cfg = ref
    slopes = np.array([0.05, 0.1, 0.0])
    q = np.array([0.01, -0.02, 0.015])
    d = 18.0
    assert _region_of(geom, cfg, slopes, q, d) == "A"
    kernel = ConditionalKernel(geom, cfg, slopes)
    want, se = conditional_coverage_mc(layout, cfg, geom.a, slopes, q, d, "tau", N_DRAWS, seed=101)
    p_tau, p_xi, p_full = _parts(kernel, q, d)
    assert p_tau == pytest.approx(want, abs=3 * se + 1e-4)
    assert _cp(kernel, q, d) == p_tau
    assert p_xi == 0.0
    assert p_full == 0.0


def test_p_xi_matches_conditional_brute_force(ref):
    layout, _, geom, cfg = ref
    slopes = np.array([0.05, 0.1, 0.0])
    q = np.array([1.0, 1.02, 0.98])
    d = 18.0
    assert _region_of(geom, cfg, slopes, q, d) == "B"
    kernel = ConditionalKernel(geom, cfg, slopes)
    want, se = conditional_coverage_mc(layout, cfg, geom.a, slopes, q, d, "xi", N_DRAWS, seed=102)
    p_tau, p_xi, p_full = _parts(kernel, q, d)
    assert p_xi == pytest.approx(want, abs=3 * se + 1e-4)
    assert _cp(kernel, q, d) == p_xi
    assert p_tau == 0.0
    assert p_full == 0.0


def test_p_full_matches_conditional_brute_force(ref):
    layout, _, geom, cfg = ref
    slopes = np.array([0.05, 0.1, 0.0])
    q = np.array([2.0, -1.0, 0.5])
    d = 18.0
    assert _region_of(geom, cfg, slopes, q, d) == "C"
    kernel = ConditionalKernel(geom, cfg, slopes)
    want, se = conditional_coverage_mc(layout, cfg, geom.a, slopes, q, d, "full", N_DRAWS, seed=103)
    p_tau, p_xi, p_full = _parts(kernel, q, d)
    assert p_full == pytest.approx(want, abs=3 * se + 1e-4)
    assert _cp(kernel, q, d) == p_full
    assert p_tau == 0.0
    assert p_xi == 0.0


# ---------------------------------------------------------------------------
# symmetric closed forms
# ---------------------------------------------------------------------------


def test_p_tau_symmetric_case(ref):
    _, _, geom, cfg = ref
    kernel = ConditionalKernel(geom, cfg, np.zeros(3))
    d = 18.0
    e = cfg.t_mk * math.sqrt(d / (geom.m + geom.k)) * math.sqrt(geom.v_star)
    want = 2.0 * float(special.ndtr(e / math.sqrt(geom.v_star))) - 1.0
    assert _parts(kernel, np.zeros(3), d)[0] == pytest.approx(want, abs=1e-12)


def test_p_xi_symmetric_case(ref):
    _, _, geom, cfg = ref
    slopes = np.array([0.8, 0.8, 0.8])
    d = 10.0
    assert _region_of(geom, cfg, slopes, slopes, d) == "B"
    kernel = ConditionalKernel(geom, cfg, slopes)
    e = cfg.t_mk1 * math.sqrt(d / (geom.m + geom.k - 1)) * math.sqrt(geom.w_star)
    want = 2.0 * float(special.ndtr(e / math.sqrt(geom.w_cond))) - 1.0
    assert _parts(kernel, slopes, d)[1] == pytest.approx(want, abs=1e-12)


def test_p_full_symmetric_case(ref):
    _, _, geom, cfg = ref
    slopes = np.array([2.0, -1.0, 0.5])
    d = 18.0
    assert _region_of(geom, cfg, slopes, slopes, d) == "C"
    kernel = ConditionalKernel(geom, cfg, slopes)
    e = cfg.t_m * math.sqrt(d / geom.m) * math.sqrt(geom.v11)
    want = 2.0 * float(special.ndtr(e / math.sqrt(geom.v_star))) - 1.0
    assert _parts(kernel, slopes, d)[2] == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


def test_exactly_one_branch_active(ref):
    _, _, geom, cfg = ref
    kernel = ConditionalKernel(geom, cfg, np.array([0.05, 0.1, 0.0]))
    rng = np.random.default_rng(9)
    for _ in range(200):
        q = rng.uniform(-1.5, 1.5, 3)
        d = float(rng.chisquare(geom.m))
        parts = _parts(kernel, q, d)
        total = _cp(kernel, q, d)
        assert 0.0 <= total <= 1.0
        assert sum(parts) == pytest.approx(total, abs=1e-15)
        assert sum(1 for p in parts if p > 0.0) <= 1


def test_always_full_when_cutoffs_zero(ref):
    _, _, geom, cfg = ref
    forced = dataclasses.replace(cfg, l_tau=0.0, l_xi=0.0)
    kernel = ConditionalKernel(geom, forced, np.array([0.05, 0.1, 0.0]))
    rng = np.random.default_rng(13)
    for _ in range(50):
        q = rng.uniform(-1.0, 1.0, 3)
        d = float(rng.chisquare(geom.m))
        # the other two branches are never consulted; p_full itself can
        # underflow to zero when q is far from the true slopes
        p_tau, p_xi, p_full = _parts(kernel, q, d)
        assert _cp(kernel, q, d) == p_full
        assert p_tau == 0.0
        assert p_xi == 0.0


def test_batch_matches_scalar(ref):
    _, _, geom, cfg = ref
    kernel = ConditionalKernel(geom, cfg, np.array([0.05, 0.1, 0.0]))
    rng = np.random.default_rng(29)
    q = rng.uniform(-1.5, 1.5, (300, 3))
    d = rng.chisquare(geom.m, 300)
    batch = kernel.conditional_cp_batch(q, d)
    # blocked matrix products round differently than single-row ones, so
    # agreement is to tight float tolerance, not bit equality
    for r in range(300):
        assert batch[r] == pytest.approx(_cp(kernel, q[r], float(d[r])), abs=5e-13)


def test_kernel_validation(ref):
    _, _, geom, cfg = ref
    with pytest.raises(DomainError):
        ConditionalKernel(geom, cfg, np.zeros(4))
    kernel = ConditionalKernel(geom, cfg, np.zeros(3))
    with pytest.raises(DomainError):
        _cp(kernel, np.zeros(3), 0.0)
    with pytest.raises(DomainError):
        _cp(kernel, np.zeros(3), -2.0)
    with pytest.raises(DomainError):
        _cp(kernel, np.zeros(2), 1.0)


def test_phi_accuracy():
    # the normal CDF the kernel evaluates
    phi = special.ndtr
    assert phi(0.0) == 0.5
    for x in (-10.0, -5.0, -1.96, -0.5, 0.5, 1.96, 5.0, 10.0):
        assert float(phi(x)) == pytest.approx(float(mpmath.ncdf(x)), abs=1e-13)
    arr = phi(np.array([-1.0, 0.0, 1.0]))
    assert arr.shape == (3,)
    assert arr[0] + arr[2] == pytest.approx(1.0, abs=1e-15)
