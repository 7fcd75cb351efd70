"""One number rule at the package boundary: outside scalars go through errors.check_real or check_count,
outside vectors through errors.check_reals.

Each case below used to be accepted as something else (a bool or a numeric
string read as a number, NaN or inf carried into an estimate), to end in a
bare TypeError or ValueError, or to raise the wrong error class.
"""

import dataclasses
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ancova_cp import montecarlo
from ancova_cp import oracle as oracle_module
from ancova_cp import search as search_module
from ancova_cp import (
    AncovaLayout,
    ConditionalKernel,
    ContrastSpec,
    CoverageEstimate,
    DomainError,
    GridSpec,
    LineLocus,
    SearchConfig,
    SlopePoint,
    batch_events,
    coverage_indicator,
    critical_values,
    estimate_conditioned,
    estimate_cp_raw,
    estimate_points,
    event_probabilities,
    f_quantile,
    fit_low_cp_lines,
    gate_probability,
    grid_eval,
    line_profile,
    load_design,
    min_cp_search,
    reference_design,
    second_test_only_cp,
    t_quantile,
)
from ancova_cp.cli import main
from ancova_cp.errors import check_count, check_real, check_reals


def _low_table():
    """A 5^3-like table whose low points fit both lines, so only the threshold can fail."""
    rows = []
    for c in (-0.1, 0.0, 0.1):
        for delta, value in (((0.05, 0.02), 0.3), ((-0.05, -0.02), 0.3), ((0.0, 0.2), 0.9)):
            point = SlopePoint((c, c + delta[0], c + delta[1]))
            rows.append((point, CoverageEstimate(value, 0.01, 1000, "conditioned", 0, point)))
    return rows


def _layout():
    return reference_design()[0]


def _grid(bounds):
    return lambda g, c: grid_eval(GridSpec(bounds=bounds, points_per_axis=2, runs=100), "conditioned", g, c)


def _far(deltas, offset):
    return lambda g, c: second_test_only_cp(deltas, g, c, runs=100, offset=offset)


def _raw(beta, sigma):
    return lambda g, c: estimate_cp_raw(beta, sigma, _layout(), c, g.a, runs=100, seed=0)


def _threshold(value):
    return lambda g, c: fit_low_cp_lines(_low_table(), threshold=value)


# case -> (call with one bad outside number, the same call with it fixed, or None where nothing is estimated)
CASES = {
    "grid bounds bools": (_grid((False, True)), _grid((0.0, 1.0))),
    "offset bool": (_far((0.05, 0.0), True), _far((0.05, 0.0), 1000.0)),
    "delta string": (_far(("a", 0), 1000.0), _far((0.0, 0.0), 1000.0)),
    "oracle beta strings": (_raw(("0",) * 6, 1.0), _raw((0,) * 6, 1.0)),
    "oracle sigma inf": (_raw(np.zeros(6), math.inf), _raw(np.zeros(6), 2)),
    "oracle sigma string": (_raw(np.zeros(6), "2"), _raw(np.zeros(6), 2)),
    "threshold string": (_threshold("0.6"), None),
    "threshold nan": (_threshold(math.nan), None),
    "threshold bool": (_threshold(True), None),
    "slope numeric string": (lambda g, c: SlopePoint(("0.1", 0, 0)), None),
    "slope bool": (lambda g, c: SlopePoint((True, 0, 0)), None),
    "slope string": (lambda g, c: SlopePoint(("a", 0, 0)), None),
    "covariate string": (lambda g, c: AncovaLayout(k=1, n=(2,), x=((1.0, "2"),)), None),
    "contrast string": (lambda g, c: ContrastSpec(a=("1", 0.0)), None),
    "x_star None": (lambda g, c: ContrastSpec.treatment_difference(_layout(), 1, 2, None), None),
    "x_star bool": (lambda g, c: ContrastSpec.treatment_difference(_layout(), 1, 2, True), None),
    "f_quantile string": (lambda g, c: f_quantile("0.9", 3, 18), None),
    "f_quantile df string": (lambda g, c: f_quantile(0.9, "3", 18), None),
    "t_quantile df float": (lambda g, c: t_quantile(0.975, 18.5), None),
    "group label bool": (lambda g, c: ContrastSpec.treatment_difference(_layout(), True, 2), None),
    "t_quantile string": (lambda g, c: t_quantile("0.975", 18), None),
    "critical_values string": (lambda g, c: critical_values(_layout(), "0.05", 0.1, 0.1), None),
    "kernel nan slope": (lambda g, c: ConditionalKernel(g, c, (math.nan, 0.0, 0.0)), None),
    "kernel nan q": (
        lambda g, c: ConditionalKernel(g, c, (0.0, 0.1, 0.0)).conditional_cp_batch([[math.nan, 0.0, 0.0]], [18.0]),
        None,
    ),
    "indicator inf d": (lambda g, c: coverage_indicator(np.zeros(6), math.inf, g, c, np.zeros(6)), None),
    # the array adapters used to read "0.1" and True as numbers, and a ragged list ended in numpy's ValueError
    "kernel string and bool slopes": (lambda g, c: ConditionalKernel(g, c, ("0.1", True, 0)), None),
    "kernel string and bool q, string d": (
        lambda g, c: ConditionalKernel(g, c, (0.0, 0.1, 0.0)).conditional_cp_batch([["0.1", True, 0]], ["18"]),
        None,
    ),
    "indicator strings and bool": (lambda g, c: coverage_indicator(["0"] * 6, 18.0, g, c, [True] + [0] * 5), None),
    "kernel ragged slopes": (lambda g, c: ConditionalKernel(g, c, [[0.0, 0.1, 0.0], [0.0, 0.1]]), None),
    "kernel slopes of three axes": (lambda g, c: ConditionalKernel(g, c, np.zeros((1, 2, 3))), None),
    # an int beyond the float range ended in a bare OverflowError, a longdouble one was read as inf
    "slope int beyond float": (lambda g, c: SlopePoint((10**400, 0, 0)), None),
    "offset int beyond float": (_far((0.05, 0.0), 10**400), _far((0.05, 0.0), 1000)),
    "grid bounds longdouble beyond float": (
        _grid(np.array([-1, 1]) * np.longdouble("1e400")),
        _grid(np.array([-0.1, 0.1], dtype=np.longdouble)),
    ),
    # a NaN t point gave a NaN estimate; a NaN or negative cutoff read as 0, with a RuntimeWarning
    "cutoff nan": (lambda g, c: dataclasses.replace(c, l_tau=math.nan), None),
    "cutoff negative": (lambda g, c: dataclasses.replace(c, l_tau=-1.0), None),
    "cutoff string": (lambda g, c: dataclasses.replace(c, l_xi="3"), None),
    "cutoff bool": (lambda g, c: dataclasses.replace(c, l_xi=True), None),
    "cutoff minus inf": (lambda g, c: dataclasses.replace(c, l_xi=-math.inf), None),
    "t point nan": (lambda g, c: dataclasses.replace(c, t_m=math.nan), None),
    "t point inf": (lambda g, c: dataclasses.replace(c, t_mk=math.inf), None),
    "t point negative": (lambda g, c: dataclasses.replace(c, t_mk1=-0.5), None),
    # the design a config was made for is a pair of counts, required: a config that names none would fit any design
    "config k zero": (lambda g, c: dataclasses.replace(c, k=0), None),
    "config k float": (lambda g, c: dataclasses.replace(c, k=3.0), None),
    "config m negative": (lambda g, c: dataclasses.replace(c, m=-1), None),
    "config m None": (lambda g, c: dataclasses.replace(c, m=None), None),
    "config m bool": (lambda g, c: dataclasses.replace(c, m=True), None),
    # the procedure needs two groups (the equal-slopes test has k - 1 numerator df) and m >= 1 (every t point)
    "config k one": (lambda g, c: dataclasses.replace(c, k=1), None),
    "config m zero": (lambda g, c: dataclasses.replace(c, m=0), None),
    # batch_events is public: its slopes go through check_reals, delta and d are checked by shape
    "events slopes of two": (lambda g, c: batch_events(np.zeros((2, 6)), np.ones(2), np.zeros(2), g, c), None),
    "events slope string": (lambda g, c: batch_events(np.zeros((2, 6)), np.ones(2), ("0.1", 0, 0), g, c), None),
    "events nan slopes": (lambda g, c: batch_events(np.zeros((2, 6)), np.ones(2), [[math.nan, 0, 0]], g, c), None),
    "events slopes of three axes": (
        lambda g, c: batch_events(np.zeros((2, 6)), np.ones(2), np.zeros((1, 1, 3)), g, c),
        None,
    ),
    "events delta of 5 columns": (lambda g, c: batch_events(np.zeros((2, 5)), np.ones(2), np.zeros(3), g, c), None),
    "events delta one row": (lambda g, c: batch_events(np.zeros(6), np.ones(1), np.zeros(3), g, c), None),
    "events delta strings": (lambda g, c: batch_events(np.full((2, 6), "0"), np.ones(2), np.zeros(3), g, c), None),
    "events d of 3 for 2 rows": (lambda g, c: batch_events(np.zeros((2, 6)), np.ones(3), np.zeros(3), g, c), None),
    # NaN noise read all-False coverage and an infinite d all-True, without a word; d <= 0 warned first
    "events nan delta": (lambda g, c: batch_events(np.full((2, 6), math.nan), np.ones(2), np.zeros(3), g, c), None),
    "events inf d": (lambda g, c: batch_events(np.zeros((2, 6)), [1.0, math.inf], np.zeros(3), g, c), None),
    "events zero d": (lambda g, c: batch_events(np.zeros((2, 6)), np.array([1.0, 0.0]), np.zeros(3), g, c), None),
    "events negative d": (lambda g, c: batch_events(np.zeros((2, 6)), -np.ones(2), np.zeros(3), g, c), None),
    "points longdouble beyond float": (
        # the test module's own binding: estimate_points refuses before any draw
        lambda g, c: estimate_points(np.array([[np.longdouble("1e400"), 0, 0]]), g, c, "naive", runs=100),
        lambda g, c: montecarlo.estimate_points(np.array([[np.longdouble("0.1"), 0, 0]]), g, c, "naive", runs=100),
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_outside_numbers_follow_one_rule(ref, monkeypatch, case):
    _, _, geom, cfg = ref
    bad, good = CASES[case]
    calls = []
    real_points, real_stream = montecarlo.estimate_points, oracle_module._stream

    def counting(*args, **kwargs):
        calls.append(args)
        return real_points(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "estimate_points", counting)
    monkeypatch.setattr(search_module, "estimate_points", counting)
    monkeypatch.setattr(oracle_module, "_stream", lambda *a: calls.append(a) or real_stream(*a))
    with pytest.raises(DomainError):
        bad(geom, cfg)
    assert calls == []
    if good is not None:
        # the count sees an estimate once the value is fixed
        good(geom, cfg)
        assert calls


def test_configs_keep_degenerate_cutoffs_and_zero_t_points_as_floats(ref):
    # cutoffs 0 and inf force a test, any float cutoff may tie a computed F, t = 0 is a zero-width
    # interval; -0.0 is stored as 0.0, so configs that select alike compare and hash alike
    _, _, _, cfg = ref
    f = np.float64(cfg.l_tau) * 0.75
    for change in ({"l_tau": 0.0, "l_xi": np.inf}, {"l_tau": f}, {"t_m": 0, "t_mk": 0.0, "t_mk1": np.float64(2.5)}):
        kept = dataclasses.replace(cfg, **change)
        assert all(getattr(kept, key) == value and type(getattr(kept, key)) is float for key, value in change.items())
    signed = dataclasses.replace(cfg, l_tau=-0.0, t_m=-0.0)
    assert math.copysign(1.0, signed.l_tau) == math.copysign(1.0, signed.t_m) == 1.0
    plain = dataclasses.replace(cfg, l_tau=0.0, t_m=0.0)
    assert signed == plain and hash(signed) == hash(plain)


def _search(geom, cfg, estimator):
    cube = GridSpec(points_per_axis=2, runs=100)
    return min_cp_search(SearchConfig(geom=geom, cfg=cfg, estimator=estimator, cube=cube, square=cube))


@pytest.mark.parametrize("name", [["conditioned"], {"a": 1}, {"naive"}, np.array(["naive"])], ids=type)
@pytest.mark.parametrize("call", ["estimate_points", "grid_eval", "line_profile", "second_test_only_cp", "min_cp_search"])
def test_estimator_names_must_be_strings(ref, monkeypatch, name, call):
    # an unhashable name ended in a bare TypeError from the estimators' dict lookup
    _, _, geom, cfg = ref
    calls = {
        "estimate_points": lambda: montecarlo.estimate_points([[0, 0, 0]], geom, cfg, name, 100),
        "grid_eval": lambda: grid_eval(GridSpec(points_per_axis=2, runs=100), name, geom, cfg),
        "line_profile": lambda: line_profile(LineLocus((0.0,) * 3, (-0.1, 0.1)), geom, cfg, 5, 100, 0, name),
        "second_test_only_cp": lambda: second_test_only_cp((0.05, 0.0), geom, cfg, runs=100, estimator=name),
        "min_cp_search": lambda: _search(geom, cfg, name),
    }
    estimates, streams = [], []
    real = montecarlo.estimate_points
    monkeypatch.setattr(search_module, "estimate_points", lambda *a, **kw: estimates.append(a) or real(*a, **kw))
    monkeypatch.setattr(montecarlo, "_stream", lambda *a: streams.append(a))
    with pytest.raises(DomainError, match="estimator must be one of"):
        calls[call]()
    assert estimates == [] and streams == []


@pytest.mark.parametrize(
    "x_first, a_fourth", [("78", 20.5), (78, "0"), (78, True)], ids=["x string", "contrast string", "contrast bool"]
)
def test_design_file_numbers_follow_one_rule(capsys, tmp_path, x_first, a_fourth):
    # the file values used to go through float() first, so "78" and true were read as numbers
    x = [list(group) for group in _layout().x]
    x[0][0] = x_first
    doc = {"k": 3, "n": [8, 8, 8], "x": x, "contrast": [1, -1, 0, a_fourth, -20.5, 0]}
    design = tmp_path / "design.json"
    design.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DomainError, match="must be a number"):
        load_design(design)
    rc = main(["cp", "--config", str(design), "--point", "0,0.1,0", "--runs", "100"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:") and "must be a number" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("value", [0.25, -3, np.float64(1e300), np.int64(7), np.float32(0.5)])
def test_check_real_accepts_finite_reals_as_floats(value):
    out = check_real("x", value)
    assert type(out) is float and out == float(value)


@pytest.mark.parametrize(
    "value",
    [True, np.bool_(False), "0.1", None, math.nan, -math.inf, [1.0], 1j]
    + [
        pytest.param(10**400, id="int beyond float"),
        pytest.param(-(10**400), id="negative int beyond float"),
        pytest.param(Fraction(10**400, 3), id="fraction beyond float"),
        pytest.param(np.longdouble("1e400"), id="longdouble beyond float"),
    ],
)
def test_check_real_refuses_everything_else(value):
    with pytest.raises(DomainError, match="x must be a number"):
        check_real("x", value)


def test_config_number_beyond_float_exits_one(capsys, tmp_path):
    # a 401-digit alpha ended in a traceback from the bare OverflowError
    config = tmp_path / "big.json"
    config.write_text('{"alpha": ' + "1" * 401 + "}", encoding="utf-8")
    rc = main(["quantiles", "--config", str(config)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: alpha must be a number")
    assert captured.out == ""
    # the value is cut in the middle: the line held all 401 digits (467 characters)
    assert len(captured.err.splitlines()) == 1 and len(captured.err.rstrip("\n")) <= 120
    assert "111...111" in captured.err


@pytest.mark.parametrize(
    "check, value",
    [
        (lambda v: check_count("x", v, 1), -(10**400)),
        (lambda v: check_count("x", v, 1, 10), 10**5000),
        (lambda v: check_count("x", v, 1, 10), 10**400),
        (lambda v: check_real("x", v), 10**400),
        (lambda v: check_real("x", v), "9" * 500),
        (lambda v: check_reals("x", [v, 0.0], 2), "9" * 500),
    ],
    ids=["count below", "count past str() digits", "count above", "real", "string real", "string in a vector"],
)
def test_refusal_messages_stay_short(check, value):
    with pytest.raises(DomainError, match="^x must") as info:
        check(value)
    assert len(str(info.value)) <= 120


@pytest.mark.parametrize("runs", [montecarlo.MAX_RUNS + 1, 10**87, 10**5000], ids=["cap + 1", "10**87", "10**5000"])
@pytest.mark.parametrize("call", ["estimate_points", "estimate_conditioned", "oracle"])
def test_runs_beyond_the_cap_are_refused_before_any_draw(ref, monkeypatch, runs, call):
    # 10**87 runs ended in an OverflowError from the list of chunk sizes; a smaller huge count would build that list
    _, _, geom, cfg = ref
    streams = []
    for module in (montecarlo, oracle_module):
        monkeypatch.setattr(module, "_stream", lambda *a: streams.append(a))
    calls = {
        "estimate_points": lambda: estimate_points(np.zeros((2, 3)), geom, cfg, "naive", runs=runs),
        "estimate_conditioned": lambda: estimate_conditioned((0.0, 0.1, 0.0), geom, cfg, runs=runs),
        "oracle": lambda: estimate_cp_raw(np.zeros(6), 1.0, _layout(), cfg, geom.a, runs=runs, seed=0),
    }
    with pytest.raises(DomainError, match=f"runs must be an integer of at most {montecarlo.MAX_RUNS}"):
        calls[call]()
    assert streams == []


def test_cli_refuses_runs_beyond_the_cap(capsys):
    rc = main(["cp", "--point", "0,0.1,0", "--runs", str(10**87)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith(f"error: runs must be an integer of at most {montecarlo.MAX_RUNS}")
    assert len(captured.err.splitlines()[0]) <= 120


def test_oracle_refuses_infinite_sigma(capsys):
    # inf used to pass the CLI's own check and reach the oracle as a NaN beta, with a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["oracle", "--point", "0,0.1,0", "--sigma", "inf", "--runs", "100"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: --sigma must be a number")


@pytest.mark.parametrize(
    "call",
    [
        lambda g, c: estimate_points(np.array([0.0, 0.1, 0.0]), g, c, runs=100),
        lambda g, c: estimate_points([], g, c, runs=100),
        lambda g, c: estimate_points(np.array([[False, True, False]]), g, c, runs=100),
        lambda g, c: estimate_conditioned(0.1, g, c, runs=100),
        lambda g, c: estimate_conditioned(np.zeros((1, 3)), g, c, runs=100),
        lambda g, c: event_probabilities(0.1, g, c, runs=100),
        lambda g, c: SlopePoint(0.1),
        lambda g, c: SlopePoint([[0.0, 0.1], [0.0, 0.2]]),
        lambda g, c: SlopePoint(values=5),
        lambda g, c: SlopePoint(values=None),
        lambda g, c: ContrastSpec(a=None),
        lambda g, c: ContrastSpec(a=5),
        lambda g, c: AncovaLayout(k=2, n=(2, 2), x=((1, 2), 5)),
        lambda g, c: AncovaLayout(k=2, n=(2, 2), x=None),
        lambda g, c: AncovaLayout(k=2, n=None, x=((1, 2), (3, 4))),
    ],
    ids=[
        "1-D points",
        "no points",
        "bool points",
        "scalar point",
        "point of two axes",
        "events scalar point",
        "of scalar",
        "of matrix",
        "point of a scalar",
        "point of None",
        "contrast of None",
        "contrast of a scalar",
        "covariates of a scalar",
        "covariates of None",
        "group sizes of None",
    ],
)
def test_bad_points_are_domain_errors(ref, call):
    # a scalar used to end in a bare TypeError (a float is not iterable), bools were read as numbers
    _, _, geom, cfg = ref
    with pytest.raises(DomainError):
        call(geom, cfg)


@pytest.mark.parametrize(
    "call, message",
    [
        (_far(np.zeros((2, 2)), 1000.0), "deltas must be one vector of 2 numbers, got shape (2, 2)"),
        (_raw(np.zeros((2, 6)), 1.0), "beta must be one vector of 6 numbers, got shape (2, 6)"),
        (
            lambda g, c: estimate_cp_raw(np.zeros(6), 1.0, _layout(), c, np.stack([g.a, g.a]), runs=100, seed=0),
            "contrast must be one vector of 6 numbers, got shape (2, 6)",
        ),
        (
            lambda g, c: ConditionalKernel(g, c, np.zeros((1, 2, 3))),
            "slopes must be one vector or a nonempty stack of vectors of 3 numbers, got shape (1, 2, 3)",
        ),
        (
            lambda g, c: gate_probability(np.zeros((3, 1)), g, c),
            "slope point must be one vector of 3 numbers, got shape (3, 1)",
        ),
        (
            lambda g, c: coverage_indicator(np.zeros((1, 6)), 18.0, g, c, np.zeros(6)),
            "gamma_hat must be one vector of 6 numbers, got shape (1, 6)",
        ),
        (
            lambda g, c: line_profile(LineLocus((0.0,) * 3, ((-0.1, 0.1),)), g, c, 5, 100),
            "c_range must be one vector of 2 numbers, got shape (1, 2)",
        ),
    ],
    ids=["deltas", "beta", "contrast", "kernel slopes", "gate point", "gamma_hat", "c_range"],
)
def test_a_vector_of_the_wrong_axes_is_refused_with_one_message(ref, call, message):
    # each of these checks was written out at its own call site, with its own message or none
    _, _, geom, cfg = ref
    with pytest.raises(DomainError) as info:
        call(geom, cfg)
    assert str(info.value) == message


def test_profile_names_the_offsets_of_the_wrong_length(capsys):
    # the offsets and the direction were checked as one array, so the error line named both
    rc = main(["profile", "--offsets", "0,0.1", "--points", "5", "--runs", "100"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("error: offsets") and "got shape (2,)" in captured.err
    assert "direction and offsets" not in captured.err


@pytest.mark.parametrize(
    "values",
    [[0.25, -3], (np.float64(1e300), np.int64(7)), np.array([1, 2]), np.array([0.5, 1.5], dtype=np.float32)],
    ids=["list", "numpy scalars", "int array", "float32 array"],
)
def test_check_reals_accepts_finite_reals_as_floats(values):
    out = check_reals("x", values, 2)
    assert out.dtype == np.float64 and out.tolist() == [float(v) for v in values]


def test_check_reals_keeps_the_leading_axes_and_every_bit():
    values = np.array([[-0.0, 5e-324], [1e308, -2.5]])
    out = check_reals("x", values, 2)
    assert out.shape == (2, 2) and out.tobytes() == values.tobytes()
    listed = check_reals("x", values.tolist(), 2)
    assert listed.shape == (2, 2) and listed.tobytes() == values.tobytes()


@pytest.mark.parametrize(
    "values",
    [
        np.array([True, False]),
        np.array(["0.1", "0.2"]),
        np.array([0.1, 0.2], dtype=object).astype(str),
        ["0.1", 0.2],
        [0.1, None],
        [0.1, True],
        np.array([0.1, math.nan]),
        np.array([[0.1, 0.2], [0.3, -math.inf]]),
        np.array([1 + 0j, 2 + 0j]),
        0.1,
        np.float64(0.1),
        np.array(0.1),
        [0.1, 0.2, 0.3],
        np.zeros((2, 3)),
        [[0.1, 0.2], [0.3]],
        [np.zeros((2, 2)), np.zeros((2, 3))],
        [10**400, 0],
        np.array([np.longdouble("1e400"), 0]),
    ],
    ids=[
        "bool array",
        "string array",
        "str dtype",
        "numeric string",
        "None",
        "bool",
        "nan array",
        "inf matrix",
        "complex array",
        "scalar",
        "numpy scalar",
        "0-d array",
        "wrong length",
        "wrong last axis",
        "ragged list",
        "ragged arrays",
        "int beyond float",
        "longdouble beyond float",
    ],
)
def test_check_reals_refuses_everything_else(values):
    with pytest.raises(DomainError, match="^x must"):
        check_reals("x", values, 2)


def test_check_reals_checks_a_numeric_array_without_check_real(monkeypatch):
    from ancova_cp import errors

    calls = []
    monkeypatch.setattr(errors, "check_real", lambda *a: calls.append(a))
    check_reals("x", np.zeros((1000, 3)), 3)
    assert calls == []
