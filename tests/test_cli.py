import dataclasses
import json
import warnings
from importlib import resources

import numpy as np
import pytest
import scipy

import ancova_cp
from ancova_cp import montecarlo, search
from ancova_cp.cli import main

SMALL_DESIGN = {
    "k": 2,
    "n": [4, 4],
    "x": [[1, 2, 3, 4], [2, 4, 6, 8]],
    "contrast": {"i": 1, "j": 2, "x_star": "max_abs_centered"},
}


def _run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_version_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_missing_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_malformed_point_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["cp", "--point", "0,zero,0"])
    assert exc.value.code == 2


def test_quantiles_output(ref, capsys):
    _, _, _, cfg = ref
    rc, out, err = _run(capsys, "quantiles")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    values = [float(line.rsplit(":", 1)[1]) for line in lines]
    want = [cfg.l_tau, cfg.l_xi, cfg.t_m, cfg.t_mk, cfg.t_mk1]
    assert values == pytest.approx(want, abs=1e-9)


def test_quantiles_json(ref, capsys, tmp_path):
    _, _, _, cfg = ref
    out_file = tmp_path / "q.json"
    rc, _, _ = _run(capsys, "quantiles", "--out", str(out_file))
    assert rc == 0
    doc = json.loads(out_file.read_text(encoding="utf-8"))
    assert doc["l_tau"] == cfg.l_tau
    assert doc["t_mk1"] == cfg.t_mk1
    assert doc["alpha"] == 0.05
    assert (doc["k"], doc["m"]) == (3, 18)  # the design the cutoffs were made for


def test_cp_default_estimator(capsys):
    rc, out, err = _run(capsys, "cp", "--point", "0,0.1,0", "--runs", "2000", "--seed", "1")
    assert rc == 0
    line = out.strip()
    assert line.startswith("point=(0.0,0.1,0.0) estimator=conditioned ")
    assert "runs=2000 seed=1" in line
    estimate = float(line.split("estimate=")[1].split()[0])
    assert 0.0 <= estimate <= 1.0


def test_cp_both_estimators(capsys):
    rc, out, _ = _run(capsys, "cp", "--point", "0,0,0", "--runs", "3000", "--estimator", "both")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "estimator=naive" in lines[0]
    assert "estimator=conditioned" in lines[1]


def test_cp_thresholds_off_is_nominal(capsys):
    rc, out, _ = _run(
        capsys, "cp", "--point", "0.2,-0.1,0", "--thresholds-off", "--runs", "20000"
    )
    assert rc == 0
    estimate = float(out.split("estimate=")[1].split()[0])
    assert 0.94 <= estimate <= 0.96


def test_cp_wrong_point_length(capsys):
    rc, _, err = _run(capsys, "cp", "--point", "0,0.1", "--runs", "100")
    assert rc == 1
    assert err.startswith("error:")


def test_grid_is_reproducible(capsys, tmp_path):
    args = ["grid", "--density", "3", "--runs", "300", "--bounds=-0.1,0.1"]
    one = tmp_path / "one.csv"
    two = tmp_path / "two.csv"
    rc1, out, _ = _run(capsys, *args, "--out", str(one))
    rc2, _, _ = _run(capsys, *args, "--out", str(two))
    assert rc1 == rc2 == 0
    assert "minimum point=" in out
    body = one.read_bytes()
    assert body == two.read_bytes()
    assert len(body.decode().strip().splitlines()) == 1 + 27


def test_grid_rejects_both(capsys, tmp_path, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["grid", "--estimator", "both", "--runs", "100", "--density", "2"])
    assert exc.value.code == 2
    assert "argument --estimator: invalid choice: 'both'" in capsys.readouterr().err
    # from a config file, the library's own check refuses it before any estimate
    calls = _count_estimates(monkeypatch)
    path, out = tmp_path / "cfg.json", tmp_path / "grid.csv"
    path.write_text(json.dumps({"estimator": "both"}), encoding="utf-8")
    rc, stdout, err = _run(capsys, "grid", "--config", str(path), "--runs", "100", "--density", "2", "--out", str(out))
    assert rc == 1 and stdout == "" and calls == [] and not out.exists()
    assert err == "error: estimator must be one of ['conditioned', 'naive'], got 'both'\n"


def test_config_file_defaults_and_flag_override(capsys, tmp_path):
    config = dict(SMALL_DESIGN, runs=500, seed=9, estimator="naive")
    path = tmp_path / "design.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    rc, out, _ = _run(capsys, "cp", "--config", str(path), "--point", "0,0.05")
    assert rc == 0
    assert "estimator=naive" in out and "runs=500 seed=9" in out
    rc, out, _ = _run(capsys, "cp", "--config", str(path), "--point", "0,0.05", "--runs", "700")
    assert rc == 0
    assert "runs=700 seed=9" in out


def test_config_file_unknown_key(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"runs": 10, "sigma": 2.0}), encoding="utf-8")
    rc, _, err = _run(capsys, "cp", "--config", str(path), "--point", "0,0,0")
    assert rc == 1
    assert "unknown keys" in err


def test_config_file_not_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("runs: 10", encoding="utf-8")
    rc, _, err = _run(capsys, "cp", "--config", str(path), "--point", "0,0,0")
    assert rc == 1
    assert "not valid JSON" in err


def test_oracle_reports_agreement(capsys):
    rc, out, err = _run(capsys, "oracle", "--point", "0,0.1,0", "--runs", "1500", "--sigma", "1.5")
    assert rc == 0
    assert out.splitlines()[0].startswith("raw     point=")
    assert "agreement=1.000000" in out
    assert "warning" not in err


def test_oracle_rejects_bad_sigma(capsys):
    rc, _, err = _run(capsys, "oracle", "--point", "0,0,0", "--sigma", "0", "--runs", "100")
    assert rc == 1
    assert "--sigma" in err


def test_profile_writes_csv(capsys, tmp_path):
    out_file = tmp_path / "prof.csv"
    rc, out, _ = _run(
        capsys,
        "profile",
        "--offsets", "0,0.069,0.011",
        "--points", "5",
        "--runs", "400",
        "--out", str(out_file),
    )
    assert rc == 0
    assert "profile minimum: c=" in out
    assert out_file.read_text(encoding="utf-8").startswith("c,gamma_1")


def test_lines_payload(capsys, tmp_path):
    out_file = tmp_path / "lines.json"
    rc, out, _ = _run(
        capsys,
        "lines",
        "--density", "7",
        "--runs", "800",
        "--out", str(out_file),
    )
    assert rc == 0
    doc = json.loads(out_file.read_text(encoding="utf-8"))
    assert set(doc) == {"line1", "line2"}
    assert doc["line1"]["direction"] == [1.0, 1.0, 1.0]
    assert doc["line1"]["offsets"][1] >= doc["line2"]["offsets"][1]


def test_lines_fails_cleanly_on_coarse_lattice(capsys):
    rc, _, err = _run(capsys, "lines", "--density", "5", "--runs", "500")
    assert rc == 1
    assert "below" in err


def test_min_writes_report_and_tables(capsys, tmp_path):
    out_dir = tmp_path / "search"
    rc, out, err = _run(
        capsys,
        "min",
        "--density", "7",
        "--square-density", "3",
        "--profile-points", "5",
        "--runs", "600",
        "--out", str(out_dir),
    )
    assert rc == 0
    for name in ("cube.csv", "square.csv", "profile_1.csv", "profile_2.csv", "report.json"):
        assert (out_dir / name).exists()
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert report["overall"]["estimate"] == min(
        report["min1"]["estimate"], report["min2"]["estimate"]
    )
    assert report["argmin"] == report["overall"]["point"]
    assert [gate["test"] for gate in report["diagnostics"]["gates"]] == ["tau", "xi"]
    assert "min1    point=" in out
    assert "overall point=" in out
    cube_rows = (out_dir / "cube.csv").read_text(encoding="utf-8").strip().splitlines()
    assert len(cube_rows) == 1 + 7**3


def test_min_writes_a_run_record_and_keeps_it_out_of_the_reproducible_files(capsys, tmp_path, monkeypatch):
    args = ("--density", "5", "--square-density", "3", "--profile-points", "5", "--runs", "300", "--seed", "7")
    files = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("ANCOVA_CP_THREADS", threads)
        out_dir = tmp_path / threads
        rc, _, _ = _run(capsys, "min", *args, "--out", str(out_dir))
        assert rc == 0
        record = json.loads((out_dir / "run.json").read_text(encoding="utf-8"))
        assert record == {
            "threads": int(threads),
            "seed": 7,
            "runs": 300,
            "ancova_cp": ancova_cp.__version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "malloc_thresholds_set": montecarlo.MALLOC_THRESHOLDS_SET,
        }
        files[threads] = {path.name: path.read_bytes() for path in out_dir.iterdir() if path.name != "run.json"}
    assert "run" not in json.loads(files["1"]["report.json"])
    assert files["1"] == files["2"]


@pytest.mark.parametrize(
    "values",
    [{"runs": 100.5}, {"runs": True}, {"runs": "abc"}, {"runs": 100.0}, {"seed": 1.9}, {"seed": False}],
)
def test_config_file_rejects_non_integer_counts(capsys, tmp_path, values):
    # a non-integer count used to be truncated (100.5 -> 100 runs, true -> 1 run,
    # seed 1.9 -> 1) or to end in a bare ValueError
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(values), encoding="utf-8")
    rc, out, err = _run(capsys, "cp", "--config", str(path), "--point", "0,0.1,0")
    assert rc == 1
    assert err.startswith("error:") and "must be an integer" in err
    assert out == ""


@pytest.mark.parametrize(
    "values",
    [{"alpha": "abc"}, {"alpha": "0.05"}, {"sig_tau": None}, {"sig_xi": True}, {"alpha": [0.05]}],
)
def test_config_file_rejects_non_number_levels(capsys, tmp_path, values):
    # "abc" used to end in a bare ValueError, null in a TypeError, and the
    # string "0.05" was silently read as a number
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(values), encoding="utf-8")
    rc, out, err = _run(capsys, "quantiles", "--config", str(path))
    assert rc == 1
    assert err.startswith("error:") and "must be a number" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("grid", "--density", "0"),
        ("lines", "--density", "0"),
        ("min", "--density", "0"),
        ("min", "--density", "3", "--square-density", "0"),
    ],
)
def test_zero_density_is_refused(capsys, tmp_path, argv):
    # a density of 0 used to fall back to the default of 21 points per axis
    rc, out, err = _run(capsys, *argv, "--runs", "100", "--out", str(tmp_path / "out"))
    assert rc == 1
    assert err.startswith("error:") and "at least 2" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "override",
    [
        {"k": 2.7},
        {"k": True},
        {"n": [4.9, 4]},
        {"n": [4, "4"]},
        {"contrast": {"i": 1.5, "j": 2}},
        {"contrast": {"i": 1, "j": True}},
    ],
)
def test_config_file_rejects_non_integer_design_counts(capsys, tmp_path, override):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(SMALL_DESIGN, **override)), encoding="utf-8")
    rc, out, err = _run(capsys, "cp", "--config", str(path), "--point", "0,0.1", "--runs", "100")
    assert rc == 1
    assert err.startswith("error:") and "must be an integer" in err
    assert out == ""


@pytest.mark.parametrize(
    "flag",
    [
        ("--square-density", "0"),
        ("--profile-points", "2"),
        ("--threshold", "nan"),
        # a width that overflows used to be refused only as a NaN slope point, the square's after the whole cube
        ("--square-bounds=-1e308,1e308",),
        ("--bounds=-1e308,1e308",),
    ],
)
def test_min_refuses_bad_search_settings_before_any_estimate(capsys, tmp_path, monkeypatch, flag):
    # these used to be seen only after the whole cube phase, or (threshold nan)
    # to skip line fitting without a word
    from ancova_cp import montecarlo, search

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return montecarlo_estimate_points(*args, **kwargs)

    montecarlo_estimate_points = montecarlo.estimate_points
    monkeypatch.setattr(montecarlo, "estimate_points", counting)
    monkeypatch.setattr(search, "estimate_points", counting)
    rc, out, err = _run(capsys, "min", "--density", "3", *flag, "--runs", "100", "--out", str(tmp_path / "out"))
    assert rc == 1
    assert err.startswith("error:")
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", ["junk", "0", "-3"])
def test_min_refuses_bad_threads_env_before_any_estimate(capsys, tmp_path, monkeypatch, threads):
    # such a value used to run one thread without a word
    from ancova_cp import montecarlo, search

    calls = []
    real = montecarlo.estimate_points
    monkeypatch.setattr(montecarlo, "estimate_points", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    monkeypatch.setattr(search, "estimate_points", montecarlo.estimate_points)
    monkeypatch.setenv("ANCOVA_CP_THREADS", threads)
    rc, out, err = _run(capsys, "min", "--density", "3", "--runs", "100", "--out", str(tmp_path / "out"))
    assert rc == 1
    assert err.startswith("error:") and "ANCOVA_CP_THREADS" in err
    assert calls == []
    assert not (tmp_path / "out").exists()
    rc, out, err = _run(capsys, "cp", "--point", "0,0.1,0", "--runs", "100")
    assert rc == 1 and "ANCOVA_CP_THREADS" in err


@pytest.mark.parametrize("c_range", ["0.25,-0.25", "0.1,0.1"])
def test_profile_refuses_degenerate_c_range(capsys, tmp_path, c_range):
    # a reversed range used to report an unrefined minimum, an empty one to
    # profile one point 41 times
    out = tmp_path / "profile.csv"
    argv = ["profile", "--offsets", "0,0.069,0.011", f"--c-range={c_range}", "--runs", "100", "--out", str(out)]
    rc, _, err = _run(capsys, *argv)
    assert rc == 1
    assert err.startswith("error:") and "c_range" in err
    assert not out.exists()


def test_search_flag_defaults_are_the_library_defaults():
    from ancova_cp.cli import build_parser
    from ancova_cp.search import GridSpec, SearchConfig

    config = SearchConfig(geom=None, cfg=None)
    args = build_parser().parse_args(["min"])
    assert (args.bounds, args.density) == (config.cube.bounds, config.cube.points_per_axis)
    assert (args.square_bounds, args.square_density) == (config.square.bounds, config.square.points_per_axis)
    assert (args.threshold, args.profile_points) == (config.threshold, config.profile_points)
    for command in ("grid", "lines"):
        args = build_parser().parse_args([command])
        assert (args.bounds, args.density) == (GridSpec().bounds, GridSpec().points_per_axis)
    assert build_parser().parse_args(["lines"]).threshold == config.threshold


def _reference_doc():
    return json.loads(resources.files("ancova_cp").joinpath("data/reference_design.json").read_text())


@pytest.mark.parametrize("contrast", [[0, 0, 0, 1, 0, 0], [0, 0, 0, 1, -1, 0]])
def test_contrast_without_intercept_part_exits_one(capsys, tmp_path, contrast):
    # the second used to leave v_star at 4.3e-19 from rounding and print an estimate with exit 0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(_reference_doc(), contrast=contrast)), encoding="utf-8")
    rc, out, err = _run(capsys, "cp", "--config", str(path), "--point", "0,0.1,0", "--runs", "100")
    assert rc == 1
    assert err.startswith("error:") and "v_star" in err
    assert out == ""


def test_min_prints_boundary_warnings_and_exits_zero(capsys, tmp_path):
    # a low boundary rejection probability is a warning on stderr, never a failure
    out_dir = tmp_path / "search"
    argv = ["min", "--bounds=-0.05,0.05", "--density", "3", "--square-density", "3", "--profile-points", "3"]
    rc, out, err = _run(capsys, *argv, "--runs", "1000", "--out", str(out_dir))
    assert rc == 0
    assert "overall point=" in out
    warnings = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))["diagnostics"]["warnings"]
    assert sum(w.startswith("first-stage rejection probability") for w in warnings) == 1
    assert sum(w.startswith("second-stage rejection probability") for w in warnings) == 1
    assert err.splitlines() == [f"warning: {w}" for w in warnings]


def test_min_report_stays_valid_json_at_huge_bounds(capsys, tmp_path):
    # past a noncentrality of about 1e19 the F CDF came back NaN: report.json got the invalid token NaN
    # and no warning could fire; there the first test rejects surely
    out_dir = tmp_path / "search"
    argv = ["min", "--bounds=-1e9,1e9", "--density", "3", "--square-density", "3", "--profile-points", "3"]
    rc, _, err = _run(capsys, *argv, "--runs", "200", "--out", str(out_dir))
    assert rc == 0
    text = (out_dir / "report.json").read_text(encoding="utf-8")
    report = json.loads(text, parse_constant=lambda token: pytest.fail(f"report.json holds {token}"))
    tau, _ = report["diagnostics"]["gates"]
    assert tau["reject_prob"] == 1.0 and "first-stage rejection" not in err


def test_cp_both_writes_one_csv_row_per_estimator(capsys, tmp_path):
    out_file = tmp_path / "cp.csv"
    rc, out, _ = _run(
        capsys, "cp", "--point", "0,0.1,0", "--estimator", "both", "--runs", "2000", "--out", str(out_file)
    )
    assert rc == 0
    header, *rows = out_file.read_text(encoding="utf-8").splitlines()
    assert header == "gamma_1,gamma_2,gamma_3,estimate,se,runs,estimator,seed"
    printed = [line for line in out.splitlines() if line.startswith("point=")]
    assert len(rows) == len(printed) == 2
    for row, line in zip(rows, printed):
        g1, g2, g3, estimate, se, runs, estimator, seed = row.split(",")
        assert line == (
            f"point=({g1},{g2},{g3}) estimator={estimator} estimate={float(estimate):.6f} "
            f"se={float(se):.6f} runs={runs} seed={seed}"
        )
    assert [row.split(",")[6] for row in rows] == ["naive", "conditioned"]
    assert f"wrote {out_file}" in out


def test_oracle_writes_report_json(capsys, tmp_path):
    out_file = tmp_path / "oracle.json"
    rc, out, _ = _run(capsys, "oracle", "--point", "0,0.1,0", "--runs", "1000", "--sigma", "2", "--out", str(out_file))
    assert rc == 0
    doc = json.loads(out_file.read_text(encoding="utf-8"))
    assert set(doc) == {"raw", "event_rate", "agreement", "worst_rss_rel_error"}
    assert doc["raw"]["estimator"] == "oracle" and doc["raw"]["runs"] == 1000
    assert f"raw     point=(0.0,0.1,0.0) estimator=oracle estimate={doc['raw']['estimate']:.6f}" in out
    assert f"event-path rate={doc['event_rate']:.6f}" in out
    assert f"agreement={doc['agreement']:.6f} worst_rss_rel_error={doc['worst_rss_rel_error']:.3e}" in out


@pytest.mark.parametrize(
    "argv, word",
    [(("profile", "--offsets", "0,0.069"), "offsets"), (("oracle", "--point", "0,0.1"), "--point")],
)
def test_wrong_length_vectors_are_refused(capsys, tmp_path, argv, word):
    out = tmp_path / "out"
    rc, stdout, err = _run(capsys, *argv, "--runs", "100", "--out", str(out))
    assert rc == 1
    assert err.startswith("error:") and word in err
    assert stdout == ""
    assert not out.exists()


def _count_estimates(monkeypatch):
    """Route every estimate_points call through a counter; returns its list of calls."""
    from ancova_cp import montecarlo, search

    calls = []
    real = montecarlo.estimate_points
    monkeypatch.setattr(montecarlo, "estimate_points", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    monkeypatch.setattr(search, "estimate_points", montecarlo.estimate_points)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ("grid", "--density", "3"),
        ("profile", "--offsets", "0,0.088,0.041", "--points", "5"),
        ("cp", "--point", "0,0.1,0"),
    ],
)
@pytest.mark.parametrize("where", ["missing/out.csv", "."])
def test_unwritable_out_file_is_refused_before_any_estimate(capsys, tmp_path, monkeypatch, argv, where):
    # a missing directory used to be seen only when the finished table was written
    calls = _count_estimates(monkeypatch)
    out = tmp_path / where
    rc, stdout, err = _run(capsys, *argv, "--runs", "100", "--out", str(out))
    assert rc == 1
    assert err.startswith("error:") and "--out" in err
    assert calls == [] and stdout == ""
    assert not (tmp_path / "missing").exists()


def test_min_out_naming_a_file_is_refused_before_any_estimate(capsys, tmp_path, monkeypatch):
    calls = _count_estimates(monkeypatch)
    out = tmp_path / "taken"
    out.write_text("keep\n", encoding="utf-8")
    rc, stdout, err = _run(capsys, "min", "--density", "3", "--runs", "100", "--out", str(out))
    assert rc == 1
    assert err.startswith("error:") and "--out" in err
    assert calls == [] and stdout == ""
    assert out.read_text(encoding="utf-8") == "keep\n"


@pytest.mark.parametrize("command", ["grid", "min"])
def test_a_lattice_too_large_to_allocate_is_an_error_line(capsys, tmp_path, command):
    # a 100 000-point axis asks numpy for a 21.3 PiB cube lattice, which fails at once; it used to end in a
    # MemoryError traceback
    rc, stdout, err = _run(capsys, command, "--density", "100000", "--runs", "100", "--out", str(tmp_path / "out"))
    assert rc == 1 and stdout == "" and "Traceback" not in err
    assert err.startswith("error:") and "PiB" in err and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("density", ["100000000", "10000000000"])
def test_an_oversized_square_fails_before_any_axis_is_built(capsys, tmp_path, monkeypatch, density):
    # the square lattice is allocated before its axes: two 10^8-point axes (800 MB each) used to come first, and
    # 10^10 points per axis are more bytes than numpy can count, which is a MemoryError too
    built = []
    monkeypatch.setattr(search, "_axis", lambda *args: built.append(args))
    rc, stdout, err = _run(capsys, "min", "--square-density", density, "--runs", "100", "--out", str(tmp_path / "o"))
    assert rc == 1 and stdout == "" and "Traceback" not in err
    assert err.startswith("error:") and "allocate" in err and len(err.splitlines()) == 1
    assert built == [] and not (tmp_path / "o").exists()


def test_min_out_may_need_new_parent_directories(capsys, tmp_path):
    out = tmp_path / "new" / "search"
    rc, _, _ = _run(
        capsys, "min", "--density", "5", "--square-density", "3", "--profile-points", "5", "--runs", "300",
        "--out", str(out),
    )
    assert rc == 0
    assert (out / "report.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("--point", "nan,0.1,0"),
        ("--point", "0,inf,0"),
        ("--point", "1e200,0.1,0", "--sigma", "1e200"),
        ("--point", "1e16,0,0"),
        ("--point", "1e120,0,0"),
    ],
)
def test_oracle_names_the_bad_point_without_warnings(capsys, tmp_path, argv):
    # the point used to reach the library as beta = sigma * point: NaN was
    # reported as a bad "beta" and an overflowing product printed a numpy warning;
    # responses that swamp the noise read 1.000000 at 1e16 and 0.000000 at 1e120
    out = tmp_path / "oracle.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, stdout, err = _run(capsys, "oracle", *argv, "--runs", "100", "--out", str(out))
    assert rc == 1
    assert err.startswith("error:") and "--point" in err and "beta" not in err
    assert caught == [] and "Warning" not in err
    assert stdout == "" and not out.exists()


def test_min_has_no_offset_flag(capsys):
    # min2 depends on the slope differences alone, so the far point's first slope is no setting
    with pytest.raises(SystemExit) as exc:
        main(["min", "--offset", "1000", "--runs", "100"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --offset" in capsys.readouterr().err


@pytest.mark.parametrize("sigma", ["1e300", "1e-170", "1e-320"])
def test_oracle_refuses_a_sigma_the_raw_fits_cannot_resolve(capsys, tmp_path, sigma):
    # the raw fits read 0.0 at sigma 1e-170 and 1.0 at 1e300 (0.47 at sigma 1), or died on a bare OverflowError
    out = tmp_path / "oracle.json"
    rc, stdout, err = _run(capsys, "oracle", "--point", "0,0.1,0", "--sigma", sigma, "--runs", "100", "--out", str(out))
    assert rc == 1
    assert err.startswith("error: --sigma must be from 1e-100 to 1e+100") and len(err.splitlines()) == 1
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize(
    "argv, name",
    [
        (("cp", "--point", "0,0.1,0", "--alpha", "1e-300", "--runs", "100"), "alpha"),
        (("quantiles", "--sig-tau", "1e-300"), "sig_tau"),
    ],
)
def test_tiny_levels_are_refused_in_their_own_names(capsys, argv, name):
    # 1 - alpha / 2 rounds to 1, which was refused as "quantile level must be in (0, 1), got 1.0"
    rc, out, err = _run(capsys, *argv)
    assert rc == 1 and out == ""
    assert err.startswith(f"error: {name} is too small") and "1e-300" in err


@pytest.mark.parametrize(
    "argv",
    [("grid", "--bounds=-1e308,1e308"), ("profile", "--offsets", "0,0,0", "--c-range=-1e308,1e308")],
)
def test_ranges_whose_width_overflows_are_refused(capsys, tmp_path, argv):
    # linspace used to warn and step by inf, and the NaN it made was refused as a slope point
    out = tmp_path / "table.csv"
    rc, stdout, err = _run(capsys, *argv, "--runs", "100", "--out", str(out))
    assert rc == 1 and stdout == "" and not out.exists()
    assert err.startswith("error:") and "(-1e+308, 1e+308) too wide" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("quantiles", "--runs", "5"), "--runs"),
        (("quantiles", "--seed", "1"), "--seed"),
        (("quantiles", "--estimator", "naive"), "--estimator"),
        (("oracle", "--point", "0,0.1,0", "--estimator", "naive", "--runs", "100"), "--estimator"),
    ],
)
def test_commands_refuse_the_flags_they_never_read(capsys, argv, flag):
    # every command used to take --runs, --seed and --estimator, and those that never read them ignored them
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("lines", "--density", "3"),
        ("profile", "--offsets", "0,0.069,0.011", "--points", "5"),
        ("min", "--density", "3", "--square-density", "3", "--profile-points", "5"),
    ],
    ids=lambda argv: argv[0],
)
def test_single_estimator_commands_refuse_both(capsys, tmp_path, monkeypatch, argv):
    # as grid does (test_grid_rejects_both)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--estimator", "both", "--runs", "100"])
    assert exc.value.code == 2
    assert "argument --estimator: invalid choice: 'both'" in capsys.readouterr().err
    # from a config file, the library refuses it before any estimate
    calls = _count_estimates(monkeypatch)
    path, out = tmp_path / "cfg.json", tmp_path / "out"
    path.write_text(json.dumps({"estimator": "both"}), encoding="utf-8")
    rc, stdout, err = _run(capsys, *argv, "--config", str(path), "--runs", "100", "--out", str(out))
    assert rc == 1 and stdout == "" and calls == [] and not out.exists()
    assert err == "error: estimator must be one of ['conditioned', 'naive'], got 'both'\n"


@pytest.mark.parametrize(
    "doc, word",
    [
        ({"estimator": "bogus"}, "estimator"),
        ({"estimator": 1}, "estimator"),
        ({"runs": 0}, "runs"),
        ({"seed": -1}, "seed"),
    ],
)
@pytest.mark.parametrize(
    "argv", [("oracle", "--point", "0,0.1,0", "--runs", "200"), ("quantiles",)], ids=lambda argv: argv[0]
)
def test_a_config_file_is_checked_whatever_the_command_reads(capsys, tmp_path, monkeypatch, argv, doc, word):
    # the file is shared by every command: oracle reads no estimator and quantiles neither budget nor estimator,
    # yet a bad value is refused before anything is computed
    from ancova_cp import cli

    calls = []
    monkeypatch.setattr(cli, "agreement_with_events", lambda *a, **kw: calls.append(a))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc, out, err = _run(capsys, *argv, "--config", str(path))
    assert rc == 1 and out == "" and calls == []
    assert err.startswith(f"error: {word} must be")
    if word == "estimator":
        assert err == f"error: estimator must be one of ['both', 'conditioned', 'naive'], got {doc[word]!r}\n"


def test_a_config_file_may_name_both_for_commands_that_read_no_estimator(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"estimator": "both", "runs": 200}), encoding="utf-8")
    assert _run(capsys, "quantiles", "--config", str(path))[0] == 0
    assert _run(capsys, "oracle", "--point", "0,0.1,0", "--config", str(path))[0] == 0


@pytest.mark.parametrize("flag", ["--bounds", "--square-bounds"])
def test_a_one_value_interval_is_a_usage_error(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["min", f"{flag}=0.1", "--runs", "100"])
    assert exc.value.code == 2
    assert "an interval flag needs 2 values, got 1" in capsys.readouterr().err


def test_cp_both_warns_when_the_estimators_disagree(capsys, monkeypatch):
    # two estimates 0.1 apart, each with SE 0.01: 0.1 exceeds 3 combined SEs (0.042)
    def fake(points, geom, cfg, name, runs, seed):
        value = 0.9 if name == "naive" else 0.8
        return [montecarlo.CoverageEstimate(value, 0.01, runs, name, seed, montecarlo.SlopePoint.of(points[0]))]

    monkeypatch.setattr(montecarlo, "estimate_points", fake)
    rc, out, err = _run(capsys, "cp", "--point", "0,0.1,0", "--estimator", "both", "--runs", "100")
    assert rc == 0 and len(out.splitlines()) == 2
    assert err == "warning: estimators differ by 0.100000, more than 3 combined SEs (0.042426)\n"


def test_oracle_warns_when_the_two_routes_disagree(capsys, monkeypatch):
    from ancova_cp import cli, oracle

    def fake(*args, **kwargs):
        return dataclasses.replace(oracle.agreement_with_events(*args, **kwargs), agreement=0.99)

    monkeypatch.setattr(cli, "agreement_with_events", fake)
    rc, out, err = _run(capsys, "oracle", "--point", "0,0.1,0", "--runs", "100")
    assert rc == 0 and "agreement=0.990000" in out
    assert err == "warning: agreement 0.990000 below 0.999\n"
