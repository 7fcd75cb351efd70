import dataclasses
import math

import mpmath
import numpy as np
import pytest

from scipy import special

from ancova_cp import ConditionalKernel, DomainError, batch_events
from ancova_cp.conditional import KernelDraws, separate_mean
from ancova_cp.montecarlo import BLOCK_CELLS, _draw_slopes, _stream
from ancova_cp.selection import SlopeTerms, block_f, f_thresholds, quad_form
from oracles import assembled, certified, conditional_cells, conditional_coverage_mc, past_radii, slope_draws

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
# one formula per selection region against the nested-np.where reference
# ---------------------------------------------------------------------------

# (design, cutoffs (l_tau, l_xi) or None for the design's own, spread of the
# points about a common slope, spread of that slope)
REGION_CASES = {
    "reference": ("ref", None, 0.1, 0.2),
    "small k=2": ("small", None, 0.6, 0.6),
    "unbalanced k=4": ("k4", None, 0.6, 0.6),
    "all region A": ("ref", (math.inf, math.inf), 0.1, 0.2),
    "all region C": ("ref", (0.0, 0.0), 0.1, 0.2),
    # 7 to 10 of the 11 points certified to lie in region C on every draw, the others in regions B and C
    "wide, mostly certified": ("ref", None, 0.45, 1.0),
    # a first-test cutoff of 60: 1 to 9 of the 11 points past the second radius only, their cells in regions A and C
    "lenient first test": ("ref", (60.0, None), 0.6, 0.0),
}


def region_sums(pairs, points: int) -> np.ndarray:
    """(9, 2, points) from a kernel's (rows, controls) pairs; a point in no pair has no region-A or region-B cell."""
    out = np.zeros((9, 2, points))
    for rows, controls in pairs:
        out[:, :, rows] = controls
    return out


@pytest.mark.parametrize("case", list(REGION_CASES))
def test_region_formulas_match_the_nested_where_reference(request, case):
    design, cutoffs, spread, level = REGION_CASES[case]
    _, _, geom, cfg = request.getfixturevalue(design)
    if cutoffs is not None:
        cfg = dataclasses.replace(cfg, l_tau=cutoffs[0], l_xi=cfg.l_xi if cutoffs[1] is None else cutoffs[1])
    rng = np.random.default_rng(23)
    slopes = rng.uniform(-spread, spread, (11, geom.k)) + rng.uniform(-level, level, (11, 1))
    terms = SlopeTerms.of(slopes, geom)
    for runs in (1, 37, 1808, 2000, 8192):
        z, d = slope_draws(_stream(6, "conditioned", 0), geom, runs)
        draws = KernelDraws(z, d, geom)
        noise = draws.noise
        in_a, ok_xi, _, _, quad_v, quad_w = block_f(noise, terms, geom, cfg)
        in_b, in_c = ok_xi & ~in_a, ~(in_a | ok_xi)
        sure_c = certified(geom, cfg, noise, slopes)
        kind = past_radii(geom, cfg, noise, slopes) @ np.array([1, 2])
        if case.startswith("wide"):
            assert sure_c.any() and not sure_c.all()
        elif case.startswith("lenient"):
            assert (kind == 2).any() and in_a[kind == 2].any() and not in_b[kind == 2].any()
        elif cutoffs is None and runs >= 1808:
            assert in_a.any() and in_b.any() and in_c.any()
        elif cutoffs is not None:
            assert (in_c if cutoffs[0] == 0.0 else in_a).all()
        want = conditional_cells(
            geom, cfg, noise.d, z @ geom.vproj, in_a=in_a, ok_xi=ok_xi, quad_v=quad_v, quad_w=quad_w,
            vs=terms.vs, wus=terms.wus, zs=z @ geom.sproj,
        )
        # per point, over region A and over region B: the cell count and, with c the region-C row, the sums of
        # v, c, v c, c^2 and v^2; then over the region-A cells where the second test accepts the sums of v, c and 1
        # (0 over region B); and of c and c^2 over all draws, once
        both, none = in_a & ok_xi, np.zeros(len(slopes))
        c = conditional_cells(geom, cfg, noise.d, z @ geom.vproj)
        reference = np.array(
            [[in_a.sum(1), in_b.sum(1)]]
            + [[(part * mask).sum(1) for mask in (in_a, in_b)] for part in (want, c, want * c, c * c, want * want)]
            + [[(part * both).sum(1), none] for part in (want, c, 1.0)]
        )
        assert draws.region_c(cfg)[1] == pytest.approx([c.sum(), (c * c).sum()], rel=1e-12)
        # the shipped group size, as chunk_sums passes it; then groups of 4 points (the last one
        # short).  Every row, the certified ones included, must be the reference's; the points
        # come by class (past neither radius, past the first only, past the second only), each in
        # point order and in groups of step, and the points past both radii in no group
        block_sums = []
        for step in (2 * max(1, BLOCK_CELLS // runs), 4):
            groups = [(list(r), *rest) for r, *rest in ConditionalKernel(geom, cfg, slopes).blocks(draws, step)]
            block_sums.append(region_sums(((r, sums) for r, *_, sums in groups), len(slopes)))
            got = block_sums[-1]
            assert np.array_equal(got[0], reference[0]) and np.array_equal(got[8], reference[8])
            np.testing.assert_allclose(got, reference, rtol=1e-12, atol=1e-12)
            assert assembled(groups, len(slopes), draws.region_c(cfg)[0]).tobytes() == want.tobytes()
            classes = [np.flatnonzero(kind == which).tolist() for which in range(3)]
            assert [rows for rows, *_ in groups] == [c[i : i + step] for c in classes for i in range(0, len(c), step)]
        # one reduction per row and region: the same bits at any group size
        assert block_sums[0].tobytes() == block_sums[1].tobytes()
        # a lone point: its values and sums keep their bits
        for i, (point, row) in enumerate(zip(slopes, want)):
            group = next(ConditionalKernel(geom, cfg, point).blocks(draws, 1))
            assert list(group[0]) == [0] and assembled([group], 1, draws.region_c(cfg)[0])[0].tobytes() == row.tobytes()
            assert region_sums([(group[0], group[-1])], 1)[..., 0].tobytes() == block_sums[0][..., i].tobytes()


@pytest.mark.parametrize("design", ["ref", "small", "k4"])
def test_region_c_row_has_its_exact_mean(request, design):
    # the region-C row is the conditioned estimator's third control, whose exact mean would hide an error in the
    # separate-slopes formula from every estimate: the row's own plain mean must agree with that exact mean
    _, _, geom, cfg = request.getfixturevalue(design)
    for seed in range(3):
        c = KernelDraws(*slope_draws(_stream(seed, "region C", 0), geom, N_DRAWS), geom).region_c(cfg)[0]
        assert abs(c.mean() - separate_mean(geom, cfg)) <= 3.0 * c.std(ddof=1) / math.sqrt(len(c)), (seed, c.mean())


@pytest.mark.parametrize("design", ["ref", "small", "k4"])
def test_shared_path_decisions_equal_block_f_with_ties(request, design):
    # the shared path decides on quad <= threshold, block_f on F <= cutoff: every cell must agree, at the
    # design's cutoffs and at cutoffs equal to a cell's F (a tie, which accepts) inside a block of 6 points
    _, _, geom, cfg = request.getfixturevalue(design)
    slopes = np.random.default_rng(31).uniform(-0.1, 0.1, (6, geom.k))
    terms = SlopeTerms.of(slopes, geom)
    noise = _draw_slopes(_stream(9, "conditioned", 0), geom, 2000).noise
    _, _, f_tau, f_xi, _, _ = block_f(noise, terms, geom, cfg)
    # first-test tie at point 2; second-test tie at the first draw where point 3 rejects the first test
    tie_xi = int(np.flatnonzero(f_tau[3] > f_tau[2, 7])[0])
    tied = dataclasses.replace(cfg, l_tau=f_tau[2, 7], l_xi=f_xi[3, tie_xi])
    for forced in (cfg, tied):
        draws = _draw_slopes(_stream(9, "conditioned", 0), geom, 2000)
        assert not past_radii(geom, forced, draws.noise, slopes).any()
        in_a, ok_xi, _, _, quad_v, quad_w = block_f(draws.noise, terms, geom, forced)
        limits = f_thresholds(draws.noise.d, geom, forced)
        for test, accept in ((0, in_a), (1, ok_xi)):
            quad = quad_form(draws.noise, terms, test, np.empty_like(quad_v), np.empty_like(quad_v))
            assert np.array_equal(quad <= limits[test], accept)
        if forced is tied:
            assert in_a[2, 7] and ok_xi[3, tie_xi] and not in_a[3, tie_xi]
        want = conditional_cells(
            geom, forced, draws.noise.d, draws.zv, in_a=in_a, ok_xi=ok_xi, quad_v=quad_v, quad_w=quad_w,
            vs=terms.vs, wus=terms.wus, zs=draws.zs,
        )
        got = assembled(ConditionalKernel(geom, forced, slopes).blocks(draws, 6), len(slopes), draws.region_c(forced)[0])
        assert got.tobytes() == want.tobytes()


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
    # the row interface reads the one point's slopes
    with pytest.raises(DomainError, match="kernel built for one slope point"):
        ConditionalKernel(geom, cfg, np.zeros((2, 3))).conditional_cp_batch(np.zeros((4, 3)), np.ones(4))


def test_phi_accuracy():
    # the normal CDF the kernel evaluates
    phi = special.ndtr
    assert phi(0.0) == 0.5
    for x in (-10.0, -5.0, -1.96, -0.5, 0.5, 1.96, 5.0, 10.0):
        assert float(phi(x)) == pytest.approx(float(mpmath.ncdf(x)), abs=1e-13)
    arr = phi(np.array([-1.0, 0.0, 1.0]))
    assert arr.shape == (3,)
    assert arr[0] + arr[2] == pytest.approx(1.0, abs=1e-15)
