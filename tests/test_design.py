import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ancova_cp import (
    AncovaLayout,
    ConditionalKernel,
    ConditioningFailure,
    ContrastSpec,
    DomainError,
    GridSpec,
    LineLocus,
    SearchConfig,
    SingularDesign,
    TwoStageConfig,
    agreement_with_events,
    batch_events,
    build_design,
    build_geometry,
    coverage_indicator,
    critical_values,
    estimate_conditioned,
    estimate_cp_raw,
    estimate_naive,
    estimate_points,
    event_probabilities,
    f_quantile,
    gate_probability,
    grid_eval,
    line_profile,
    load_design,
    min_cp_search,
    reference_design,
    second_test_only_cp,
    t_quantile,
)
from oracles import direct_geometry, mp_f_quantile, mp_t_quantile

# mpmath oracle values, frozen; implementation must match to 1e-8
FROZEN_CUTOFFS = {
    "l_tau": 2.416005377178,  # F_0.90(3, 18)
    "l_xi": 2.623946985134,  # F_0.90(2, 18)
    "t_m": 2.100922040241,  # t_0.975(18)
    "t_mk": 2.079613844728,  # t_0.975(21)
    "t_mk1": 2.085963447266,  # t_0.975(20)
}


# ---------------------------------------------------------------------------
# layout and design matrix
# ---------------------------------------------------------------------------


def test_layout_properties(ref):
    layout, _, _, _ = ref
    assert layout.k == 3
    assert layout.n == (8, 8, 8)
    assert layout.n_total == 24
    assert layout.m == 18
    flat = [v for xi in layout.x for v in xi]
    assert layout.grand_mean == pytest.approx(sum(flat) / 24, abs=1e-12)
    assert layout.max_abs_centered() == pytest.approx(
        max(abs(v - layout.grand_mean) for v in flat), abs=1e-12
    )


def test_layout_validation_errors():
    with pytest.raises(DomainError):
        AncovaLayout(k=0, n=(), x=())
    with pytest.raises(DomainError):
        AncovaLayout(k=2, n=(3,), x=((1, 2, 3), (4, 5, 6)))
    with pytest.raises(DomainError):
        AncovaLayout(k=1, n=(0,), x=((),))
    with pytest.raises(DomainError):
        AncovaLayout(k=1, n=(2,), x=((1.0, math.nan),))
    with pytest.raises(DomainError):
        AncovaLayout(k=2, n=(2, 2), x=((1, 2), (3, 4, 5)))
    with pytest.raises(DomainError, match="x must have 2 groups, got 1"):
        AncovaLayout(k=2, n=(2, 2), x=((1, 2),))


def test_build_design_single_group_rows():
    layout = AncovaLayout(k=1, n=(2,), x=((0.0, 2.0),))
    x = build_design(layout)
    assert np.array_equal(x, np.array([[1.0, -1.0], [1.0, 1.0]]))


def test_build_design_singular_tiny():
    layout = AncovaLayout(k=2, n=(1, 1), x=((0.0,), (0.0,)))
    with pytest.raises(SingularDesign):
        build_design(layout)


def test_build_design_singular_constant_group():
    layout = AncovaLayout(k=2, n=(3, 3), x=((5.0, 5.0, 5.0), (1.0, 2.0, 3.0)))
    with pytest.raises(SingularDesign):
        build_design(layout)


def test_design_matrix_column_sums(ref):
    # column sums recomputed from the layout alone
    layout, _, _, _ = ref
    x = build_design(layout)
    assert x.shape == (24, 6)
    xbar = sum(v for xi in layout.x for v in xi) / 24
    for i in range(3):
        assert x[:, i].sum() == pytest.approx(layout.n[i], abs=1e-12)
        expected = sum(v - xbar for v in layout.x[i])
        assert x[:, 3 + i].sum() == pytest.approx(expected, abs=1e-10)
    # rows of group i have zeros in every other group's columns
    assert np.count_nonzero(x[:, 0]) == 8
    assert np.count_nonzero(x[8:16, 0]) == 0


# ---------------------------------------------------------------------------
# contrast construction
# ---------------------------------------------------------------------------


def test_treatment_difference_shape(ref):
    layout, contrast, _, _ = ref
    c = layout.max_abs_centered()
    assert contrast.a == (1.0, -1.0, 0.0, c, -c, 0.0)


def test_treatment_difference_numeric_point():
    layout = AncovaLayout(k=2, n=(3, 3), x=((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)))
    spec = ContrastSpec.treatment_difference(layout, 2, 1, x_star=5.0)
    c = 5.0 - layout.grand_mean
    assert spec.a == (-1.0, 1.0, -c, c)


def test_contrast_validation():
    layout = AncovaLayout(k=2, n=(3, 3), x=((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)))
    with pytest.raises(DomainError):
        ContrastSpec.treatment_difference(layout, 1, 1)
    with pytest.raises(DomainError):
        ContrastSpec.treatment_difference(layout, 0, 2)
    with pytest.raises(DomainError):
        ContrastSpec.treatment_difference(layout, 1, 2, x_star="midpoint")
    with pytest.raises(DomainError):
        ContrastSpec(a=(1.0, 2.0, 3.0))
    with pytest.raises(DomainError):
        ContrastSpec(a=(0.0, 0.0))
    with pytest.raises(DomainError):
        ContrastSpec(a=(1.0, math.inf))


# ---------------------------------------------------------------------------
# geometry against an independent recomputation
# ---------------------------------------------------------------------------

_GEOM_FIELDS = [
    "u",
    "v11",
    "v_star",
    "w_star",
    "w_cond",
    "v22_inv",
    "w22_inv",
    "vproj",
    "wproj",
    "sproj",
    "ga_tau",
    "ga_xi",
]


def _assert_geometry_matches(layout, contrast):
    geom = build_geometry(layout, contrast)
    want = direct_geometry(layout, np.asarray(contrast.a, dtype=float))
    for name in _GEOM_FIELDS:
        got = getattr(geom, name)
        np.testing.assert_allclose(got, want[name], atol=1e-10, err_msg=name)
    assert (geom.k, geom.m) == (layout.k, layout.m)
    np.testing.assert_array_equal(geom.a, contrast.a)
    np.testing.assert_allclose(geom.noise_chol @ geom.noise_chol.T, want["xtx_inv"], atol=1e-10)
    np.testing.assert_allclose(geom.v22_chol @ geom.v22_chol.T, want["v22"], atol=1e-10)


def test_geometry_matches_direct_reference(ref):
    layout, contrast, _, _ = ref
    _assert_geometry_matches(layout, contrast)


def test_geometry_matches_direct_small(small):
    layout, contrast, _, _ = small
    _assert_geometry_matches(layout, contrast)


def test_geometry_matches_direct_unbalanced():
    layout = AncovaLayout(
        k=4,
        n=(3, 5, 4, 6),
        x=(
            (1.0, 4.0, 2.5),
            (0.0, 1.0, 3.0, 7.0, 2.0),
            (5.0, 6.0, 4.0, 8.0),
            (2.0, 9.0, 1.0, 0.5, 3.5, 6.5),
        ),
    )
    contrast = ContrastSpec.treatment_difference(layout, 2, 4)
    _assert_geometry_matches(layout, contrast)


def test_geometry_identity_structure():
    # X'X = 2I for this layout, so the slope block and projections collapse:
    # (X'X)^-1 = I/2, V22 = [[1/2]], G_tau = diag(1, 0) and G_xi = I
    layout = AncovaLayout(k=1, n=(2,), x=((0.0, 2.0),))
    geom = build_geometry(layout, ContrastSpec(a=(1.0, 1.0)))
    np.testing.assert_allclose(geom.noise_chol @ geom.noise_chol.T, 0.5 * np.eye(2), atol=1e-14)
    np.testing.assert_allclose(geom.v22_chol @ geom.v22_chol.T, [[0.5]], atol=1e-14)
    np.testing.assert_allclose(geom.ga_tau, np.array([[1.0, 0.0], [0.0, 0.0]]).T @ geom.a, atol=1e-14)
    np.testing.assert_allclose(geom.ga_xi, np.eye(2).T @ geom.a, atol=1e-14)
    assert geom.v11 == pytest.approx(1.0, abs=1e-14)
    assert geom.v_star == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("call", [gate_probability, estimate_conditioned, estimate_naive])
@pytest.mark.parametrize("x", [(0.0, 2.0), (0.0, 1.0, 2.0, 4.0)])
def test_one_group_geometry_has_no_f_tests(ref, call, x):
    # critical_values refuses k = 1, so a config made for another design is the only way in; an estimate used to
    # end in a ZeroDivisionError or numpy's "df <= 0" at m = 0, and the conditioned one in an IndexError at m = 2
    geom = build_geometry(AncovaLayout(k=1, n=(len(x),), x=(x,)), ContrastSpec(a=(1.0, 1.0)))
    with pytest.raises(DomainError, match="need.? at least two groups"):
        call((0.1,), geom, ref[3])


@pytest.mark.parametrize(
    "call",
    [
        lambda lay, a, geom, cfg: estimate_cp_raw(np.zeros(2), 1.0, lay, cfg, a, runs=100, seed=0),
        lambda lay, a, geom, cfg: agreement_with_events(np.zeros(2), 1.0, lay, geom, cfg, a, runs=100, seed=0),
        lambda lay, a, geom, cfg: ConditionalKernel(geom, cfg, (0.1,)),
    ],
    ids=["estimate_cp_raw", "agreement_with_events", "ConditionalKernel"],
)
def test_a_one_group_design_is_refused_without_a_warning(ref, call):
    # a config made by hand for one group used to pass: the oracle read 0.86 after a RuntimeWarning (a NaN F)
    # and the kernel raised an IndexError; now no config names k = 1, and another design's is refused
    layout = AncovaLayout(k=1, n=(4,), x=((0.0, 1.0, 2.0, 4.0),))
    a = np.array([1.0, 1.0])
    geom = build_geometry(layout, ContrastSpec(a=tuple(a)))
    for config in (lambda: ref[3], lambda: dataclasses.replace(ref[3], k=1, m=2)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="at least two groups|at least 2"):
                call(layout, a, geom, config())


def _assert_geometry_invariants(layout, contrast, atol, bound_tol):
    """G_tau, G_xi are projections that null the slope and slope-difference estimates."""
    geom = build_geometry(layout, contrast)
    want = direct_geometry(layout, np.asarray(contrast.a, dtype=float))
    # G' a of an idempotent G is fixed by G'
    np.testing.assert_allclose(want["g_tau"].T @ geom.ga_tau, geom.ga_tau, atol=atol)
    np.testing.assert_allclose(want["g_xi"].T @ geom.ga_xi, geom.ga_xi, atol=atol)
    np.testing.assert_allclose(geom.ga_tau @ want["xtx_inv"] @ want["c_tau"], 0.0, atol=atol)
    np.testing.assert_allclose(geom.ga_xi @ want["xtx_inv"] @ want["c_xi"], 0.0, atol=atol)
    assert 0.0 < geom.v_star <= geom.v11 + bound_tol
    assert 0.0 < geom.w_star <= geom.v11 + bound_tol
    assert geom.w_cond > 0.0
    return geom, want


def test_geometry_invariants(ref):
    layout, contrast, _, _ = ref
    geom, want = _assert_geometry_invariants(layout, contrast, 1e-10, 1e-12)
    rng = np.random.default_rng(7)
    for _ in range(5):
        v = rng.standard_normal(2 * geom.k)
        np.testing.assert_allclose(want["c_xi"].T @ v, geom.u @ (want["c_tau"].T @ v), atol=1e-12)
    np.testing.assert_allclose(geom.noise_chol @ geom.noise_chol.T, want["xtx_inv"], atol=1e-12)
    np.testing.assert_allclose(geom.v22_chol @ geom.v22_chol.T, want["v22"], atol=1e-12)
    np.testing.assert_allclose(want["v22"] @ geom.v22_inv, np.eye(geom.k), atol=1e-10)
    np.testing.assert_allclose(want["w22"] @ geom.w22_inv, np.eye(geom.k - 1), atol=1e-10)


@pytest.mark.parametrize("fixture", ["ref", "small", "k4"])
def test_hot_path_transposes_are_c_contiguous(fixture, request):
    # a transposed view of a C-ordered matrix takes numpy's slow route, three times the time per product
    geom = request.getfixturevalue(fixture)[2]
    for name in ("noise_chol", "v22_chol", "u"):
        assert getattr(geom, name).T.flags.c_contiguous, name


def test_geometry_contrast_length_error(ref):
    layout, _, _, _ = ref
    with pytest.raises(DomainError):
        build_geometry(layout, ContrastSpec(a=(1.0, -1.0, 0.0, 0.0)))


@st.composite
def layouts(draw):
    k = draw(st.integers(min_value=2, max_value=4))
    n = tuple(draw(st.integers(min_value=3, max_value=6)) for _ in range(k))
    x = []
    for ni in n:
        vals = draw(
            st.lists(
                st.integers(min_value=0, max_value=40),
                min_size=ni,
                max_size=ni,
            ).filter(lambda vs: len(set(vs)) >= 2)
        )
        x.append(tuple(float(v) for v in vals))
    return AncovaLayout(k=k, n=n, x=tuple(x))


@settings(max_examples=25, deadline=None)
@given(layouts(), st.data())
def test_geometry_invariants_random_layouts(layout, data):
    i = data.draw(st.integers(min_value=1, max_value=layout.k))
    j = data.draw(st.integers(min_value=1, max_value=layout.k).filter(lambda v: v != i))
    contrast = ContrastSpec.treatment_difference(layout, i, j)
    _assert_geometry_invariants(layout, contrast, 1e-8, 1e-10)


# ---------------------------------------------------------------------------
# quantiles against the mpmath oracle
# ---------------------------------------------------------------------------


def test_critical_values_frozen(ref):
    layout, _, _, cfg = ref
    assert cfg.l_tau == pytest.approx(FROZEN_CUTOFFS["l_tau"], abs=1e-8)
    assert cfg.l_xi == pytest.approx(FROZEN_CUTOFFS["l_xi"], abs=1e-8)
    assert cfg.t_m == pytest.approx(FROZEN_CUTOFFS["t_m"], abs=1e-8)
    assert cfg.t_mk == pytest.approx(FROZEN_CUTOFFS["t_mk"], abs=1e-8)
    assert cfg.t_mk1 == pytest.approx(FROZEN_CUTOFFS["t_mk1"], abs=1e-8)
    assert cfg.alpha == 0.05 and cfg.sig_tau == 0.10 and cfg.sig_xi == 0.10


@pytest.mark.parametrize(
    "p,d1,d2",
    [(0.5, 1, 1), (0.99, 5, 7), (0.95, 2, 30), (0.25, 4, 4), (0.90, 3, 18)],
)
def test_f_quantile_oracle(p, d1, d2):
    assert f_quantile(p, d1, d2) == pytest.approx(mp_f_quantile(p, d1, d2), abs=1e-8)


def test_f_quantile_median_of_f11():
    assert f_quantile(0.5, 1, 1) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("p,df", [(0.9, 1), (0.975, 5), (0.999, 30), (0.6, 12), (0.975, 18)])
def test_t_quantile_oracle(p, df):
    assert t_quantile(p, df) == pytest.approx(mp_t_quantile(p, df), abs=1e-8)


def test_t_quantile_symmetry():
    assert t_quantile(0.5, 9) == 0.0
    assert t_quantile(0.025, 18) == -t_quantile(0.975, 18)


def test_f_quantile_monotone_limits():
    grid = [f_quantile(p, 3, 18) for p in (0.05, 0.3, 0.6, 0.9, 0.99)]
    assert all(lo < hi for lo, hi in zip(grid, grid[1:]))
    assert f_quantile(0.001, 3, 18) < 0.05
    assert f_quantile(0.9999, 3, 18) > 10.0


def test_critical_values_monotone_in_significance(ref):
    layout, _, _, _ = ref
    loose = critical_values(layout, 0.05, 0.20, 0.20)
    tight = critical_values(layout, 0.05, 0.02, 0.02)
    assert loose.l_tau < tight.l_tau
    assert loose.l_xi < tight.l_xi


@pytest.mark.parametrize(
    "levels, name", [((1e-300, 0.1, 0.1), "alpha"), ((0.05, 1e-300, 0.1), "sig_tau"), ((0.05, 0.1, 1e-17), "sig_xi")]
)
def test_critical_values_name_a_level_too_small_for_its_quantile(ref, levels, name):
    # 1 - alpha / 2 rounds to 1, which was refused as "quantile level must be in (0, 1), got 1.0"
    layout = ref[0]
    with pytest.raises(DomainError, match=rf"^{name} is too small: .* rounds to 1, got {min(levels)}$"):
        critical_values(layout, *levels)
    # the smallest levels whose quantile level is below 1 keep working
    assert math.isfinite(critical_values(layout, 2.3e-16, 1.2e-16, 1.2e-16).t_m)


def test_quantile_domain_errors(ref):
    layout, _, _, _ = ref
    with pytest.raises(DomainError):
        f_quantile(0.0, 3, 18)
    with pytest.raises(DomainError):
        f_quantile(1.0, 3, 18)
    with pytest.raises(DomainError):
        f_quantile(0.9, 0, 18)
    with pytest.raises(DomainError):
        t_quantile(0.9, 0)
    with pytest.raises(DomainError):
        critical_values(layout, 0.0, 0.1, 0.1)
    with pytest.raises(DomainError):
        critical_values(layout, 0.05, 1.0, 0.1)
    # too few residual degrees of freedom
    tiny = AncovaLayout(k=2, n=(2, 2), x=((1.0, 2.0), (3.0, 4.0)))
    with pytest.raises(DomainError):
        critical_values(tiny, 0.05, 0.1, 0.1)
    # a single group cannot run the two-stage procedure
    single = AncovaLayout(k=1, n=(4,), x=((1.0, 2.0, 3.0, 4.0),))
    with pytest.raises(DomainError):
        critical_values(single, 0.05, 0.1, 0.1)


def test_degenerate_cutoffs_by_replace(ref):
    _, _, _, cfg = ref
    forced_full = dataclasses.replace(cfg, l_tau=0.0, l_xi=0.0)
    assert forced_full.l_tau == 0.0 and forced_full.l_xi == 0.0
    forced_a = dataclasses.replace(cfg, l_tau=math.inf)
    assert math.isinf(forced_a.l_tau)
    assert (forced_full.k, forced_full.m) == (forced_a.k, forced_a.m) == (cfg.k, cfg.m) == (3, 18)


_GEOMETRY_AND_CONFIG = {
    "estimate_conditioned": lambda lay, a, geom, cfg: estimate_conditioned((0.0, 0.1), geom, cfg, runs=100),
    "estimate_naive": lambda lay, a, geom, cfg: estimate_naive((0.0, 0.1), geom, cfg, runs=100),
    "estimate_points": lambda lay, a, geom, cfg: estimate_points([(0.0, 0.1)], geom, cfg, "naive", runs=100),
    "event_probabilities": lambda lay, a, geom, cfg: event_probabilities((0.0, 0.1), geom, cfg, runs=100),
    "gate_probability": lambda lay, a, geom, cfg: gate_probability((0.0, 0.1), geom, cfg),
    "ConditionalKernel": lambda lay, a, geom, cfg: ConditionalKernel(geom, cfg, (0.0, 0.1)),
    "batch_events": lambda lay, a, geom, cfg: batch_events(np.zeros((1, 4)), np.ones(1), np.zeros(2), geom, cfg),
    "coverage_indicator": lambda lay, a, geom, cfg: coverage_indicator(np.zeros(4), 1.0, geom, cfg, np.zeros(4)),
    "grid_eval": lambda lay, a, geom, cfg: grid_eval(GridSpec(points_per_axis=2, runs=100), "naive", geom, cfg),
    "line_profile": lambda lay, a, geom, cfg: line_profile(LineLocus((0.0, 0.1), (-0.1, 0.1)), geom, cfg),
    "second_test_only_cp": lambda lay, a, geom, cfg: second_test_only_cp((0.1,), geom, cfg, runs=100),
    "min_cp_search": lambda lay, a, geom, cfg: min_cp_search(SearchConfig(geom, cfg, cube=GridSpec(runs=100))),
    "estimate_cp_raw": lambda lay, a, geom, cfg: estimate_cp_raw(np.zeros(4), 1.0, lay, cfg, a, runs=100, seed=0),
    "agreement_with_events": lambda lay, a, geom, cfg: agreement_with_events(
        np.zeros(4), 1.0, lay, geom, cfg, a, runs=100, seed=0
    ),
}


@pytest.mark.parametrize("call", _GEOMETRY_AND_CONFIG.values(), ids=_GEOMETRY_AND_CONFIG)
def test_a_config_made_for_another_design_is_refused(ref, small, call):
    # with the reference design's cutoffs the two-group design read 0.786 at (0, 0.1), 2000 runs, against 0.879
    # with its own: every function that takes a geometry and a config checks the config's (k, m)
    layout, contrast, geom, cfg = small
    for other in (ref[3], dataclasses.replace(ref[3], l_tau=0.0), dataclasses.replace(cfg, m=cfg.m + 1)):
        with pytest.raises(DomainError, match=f"^the config was made for a design with k = {other.k} and m = "):
            call(layout, np.asarray(contrast.a), geom, other)
    call(layout, np.asarray(contrast.a), geom, cfg)  # its own config passes


def test_a_config_names_its_design():
    # k and m have no default, so a config made by hand names the design it is for
    with pytest.raises(TypeError, match="missing 2 required positional arguments: 'k' and 'm'"):
        TwoStageConfig(alpha=0.05, sig_tau=0.1, sig_xi=0.1, l_tau=3.0, l_xi=3.0, t_m=2.0, t_mk=2.0, t_mk1=2.0)


# ---------------------------------------------------------------------------
# design file ingestion
# ---------------------------------------------------------------------------


def test_load_design_roundtrip(tmp_path):
    doc = {
        "k": 2,
        "n": [3, 3],
        "x": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
        "contrast": [1.0, -1.0, 0.5, -0.5],
    }
    path = tmp_path / "design.json"
    path.write_text(json.dumps(doc))
    layout, contrast = load_design(path)
    assert layout.k == 2 and layout.n == (3, 3)
    assert contrast.a == (1.0, -1.0, 0.5, -0.5)


def test_load_design_symbolic_contrast(tmp_path):
    doc = {
        "k": 2,
        "n": [3, 3],
        "x": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
        "contrast": {"i": 1, "j": 2, "x_star": "max_abs_centered"},
    }
    path = tmp_path / "design.json"
    path.write_text(json.dumps(doc))
    layout, contrast = load_design(path)
    c = layout.max_abs_centered()
    assert contrast.a == (1.0, -1.0, c, -c)


def test_load_design_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    with pytest.raises(DomainError):
        load_design(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2, 3]")
    with pytest.raises(DomainError):
        load_design(arr)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"k": 2, "n": [3, 3]}))
    with pytest.raises(DomainError):
        load_design(missing)
    badsym = tmp_path / "badsym.json"
    badsym.write_text(
        json.dumps(
            {"k": 2, "n": [1, 1], "x": [[1.0], [2.0]], "contrast": {"i": 1}}
        )
    )
    with pytest.raises(DomainError):
        load_design(badsym)


@pytest.mark.parametrize(
    "override",
    [
        {"k": 3.7},
        {"k": 2.0},
        {"k": True},
        {"n": [3.9, 3]},
        {"n": [3, True]},
        {"contrast": {"i": 1, "j": 2.0}},
        {"contrast": {"i": False, "j": 2}},
    ],
)
def test_load_design_rejects_non_integer_counts(tmp_path, override):
    # "k": 3.7 used to become 3 and "n": [3.9, 3] to become (3, 3)
    doc = {"k": 2, "n": [3, 3], "x": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], "contrast": {"i": 1, "j": 2}}
    path = tmp_path / "design.json"
    path.write_text(json.dumps(dict(doc, **override)))
    with pytest.raises(DomainError, match="must be an integer"):
        load_design(path)


def test_reference_design_loads():
    layout, contrast = reference_design()
    assert layout.k == 3
    assert layout.n == (8, 8, 8)
    assert layout.m == 18
    assert len(contrast.a) == 6
    # builds cleanly
    build_geometry(layout, contrast)


def test_conditioning_failure_is_distinct_error():
    assert issubclass(ConditioningFailure, Exception)
    assert not issubclass(ConditioningFailure, DomainError)


@pytest.mark.parametrize("a", [(0, 0, 0, 1, 0, 0), (0, 0, 0, 1, -1, 0)])
def test_contrast_without_intercept_part_is_refused(ref, a):
    # v_star is exactly 0 for both; rounding used to leave 0.0 for the first
    # (ConditioningFailure) and 4.3e-19 for the second, which then passed
    layout = ref[0]
    with pytest.raises(ConditioningFailure, match="v_star"):
        build_geometry(layout, ContrastSpec(a=a))
