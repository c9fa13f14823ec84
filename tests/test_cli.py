"""Command-line interface: outputs, overrides, exit codes, reproducibility."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_readme import CONFIGS as README_CONFIGS

from siou import _csvformat, cli
from siou.cli import main
from siou.gaussian import SAMPLE_BLOCK_ROWS, RngSeed
from siou.sheet import GridSpec, batch_paths


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


KERNEL_BASE = {
    "dimension": 2,
    "measure": {"kind": "lebesgue"},
    "kernel": {"lambda": 1.0, "sigma": math.sqrt(2.0)},
}


def test_frontier_stdout_json(capsys):
    code, out, _ = run_cli(["frontier", "--a", "2,2", "--b", "1,2;2,1"], capsys)
    assert code == 0
    payload = json.loads(out)
    entries = {(tuple(e["corner"]), e["sign"]) for e in payload["results"]}
    assert entries == {((1.0, 2.0), 1), ((2.0, 1.0), 1), ((1.0, 1.0), -1)}


def test_frontier_empty_union(capsys):
    code, out, _ = run_cli(["frontier", "--a", "1.5,2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["results"] == [{"corner": [0.0, 0.0], "sign": 1}]


def test_frontier_bad_corner_is_usage_error(capsys):
    code, _, err = run_cli(["frontier", "--a", "1,oops"], capsys)
    assert code == 2
    assert "configuration error" in err


def test_frontier_reports_a_net_of_minus_two(capsys):
    # The three pairwise meets all equal the triple meet (1,1,1): 3 - 3 + 1 would leave it at -2.
    code, out, _ = run_cli(["frontier", "--a", "2,2,2", "--b", "2,1,1;1,2,1;1,1,2"], capsys)
    assert code == 0
    entries = {(tuple(e["corner"]), e["sign"]) for e in json.loads(out)["results"]}
    assert entries == {((1.0, 1.0, 1.0), -2), ((1.0, 1.0, 2.0), 1), ((1.0, 2.0, 1.0), 1), ((2.0, 1.0, 1.0), 1)}


def test_kernel_cov_stationary(tmp_path, capsys):
    cfg = write_config(tmp_path, "k.json", {
        **KERNEL_BASE, "op": "cov_stationary", "u": [1.0, 1.0], "v": [2.0, 1.0]})
    code, out, _ = run_cli(["kernel", "--config", cfg], capsys)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["results"][0]["value"] - math.exp(-1.0)) < 1e-15


def test_kernel_transition_weights(tmp_path, capsys):
    cfg = write_config(tmp_path, "k.json", {
        **KERNEL_BASE, "op": "transition", "a": [2.0, 2.0], "b": [[1.0, 2.0], [2.0, 1.0]]})
    code, out, _ = run_cli(["kernel", "--config", cfg], capsys)
    assert code == 0
    res = json.loads(out)["results"][0]
    weights = {tuple(w["corner"]): w["weight"] for w in res["weights"]}
    assert abs(weights[(1.0, 2.0)] - math.exp(-2.0)) < 1e-15
    assert abs(weights[(2.0, 1.0)] - math.exp(-2.0)) < 1e-15
    assert abs(weights[(1.0, 1.0)] + math.exp(-3.0)) < 1e-15
    want_var = 1.0 - 2.0 * math.exp(-4.0) + math.exp(-6.0)
    assert abs(res["variance"] - want_var) < 1e-15


def test_kernel_sigma_override(tmp_path, capsys):
    cfg = write_config(tmp_path, "k.json", {
        **KERNEL_BASE, "op": "cov_stationary", "u": [1.0, 1.0], "v": [1.0, 1.0]})
    code, out, _ = run_cli(["kernel", "--config", cfg, "--sigma", "2.0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["results"][0]["value"] - 2.0) < 1e-15
    assert payload["config"]["kernel"]["sigma"] == 2.0


def test_kernel_unknown_op(tmp_path, capsys):
    cfg = write_config(tmp_path, "k.json", {**KERNEL_BASE, "op": "nope"})
    code, _, err = run_cli(["kernel", "--config", cfg], capsys)
    assert code == 2
    assert "unknown kernel op" in err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning")
def test_overflowing_measure_is_reported_as_overflow(tmp_path, capsys):
    cfg = write_config(tmp_path, "k.json", {
        **KERNEL_BASE, "op": "cov_stationary", "u": [1e200, 1e200], "v": [1e200, 1e200]})
    code, _, err = run_cli(["kernel", "--config", cfg], capsys)
    assert code == 1
    assert "InvalidGeometryError" in err and "overflows float64" in err
    # The sequential sampler takes measure gaps, never symmetric differences: the same corner still samples.
    cfg = write_config(tmp_path, "s.json", {
        **KERNEL_BASE, "corners": [[1e200, 1e200], [1.0, 2.0]], "replicates": 4, "seed": 1})
    code, _, _ = run_cli(["sample", "--config", cfg, "--csv", str(tmp_path / "x.csv"),
                          "--json", str(tmp_path / "x.json")], capsys)
    assert code == 0


@pytest.mark.parametrize("measure, lam, u, v, code, want", [
    ({"kind": "lebesgue"}, 4.0, [0.5, 1.7e308, 1.0], [0.5, 1.0, 1.0], 0, ""),
    ({"kind": "axis", "alpha": [1e16, 1.0]}, 1.0, [1.7e308, 1.0], [1.0, 1.0], 1,
     "error: InvalidGeometryError: symmetric difference came out inf: a rectangle's measure overflows float64\n"),
    ({"kind": "lebesgue"}, 1.0, [1e200, 1e200], [1e200, 1e200], 1,
     "error: InvalidGeometryError: symmetric difference came out nan: a rectangle's measure overflows float64\n"),
], ids=["exponent_gives_weight_zero", "axis_measure_raises", "two_infinite_measures_raise"])
def test_an_overflow_that_inf_absorbs_prints_no_numpy_warning(tmp_path, capsys, measure, lam, u, v, code, want):
    # The suite turns warnings into errors, so a numpy overflow warning fails this test.
    cfg = write_config(tmp_path, "k.json", {"dimension": len(u), "measure": measure, "op": "cov_stationary",
                                            "kernel": {"lambda": lam, "sigma": 1.0}, "u": u, "v": v})
    got, out, err = run_cli(["kernel", "--config", cfg], capsys)
    assert (got, err) == (code, want)
    if code == 0:
        assert json.loads(out)["results"][0]["value"] == 0.0


def sample_config(tmp_path, **extra):
    return write_config(tmp_path, "s.json", {
        **KERNEL_BASE,
        "corners": [[1.0, 2.0], [2.0, 1.0], [2.0, 2.0]],
        "initial": {"kind": "dirac", "x0": 0.7},
        "replicates": 50,
        "seed": 11,
        **extra,
    })


def test_sample_csv_and_sidecar(tmp_path, capsys):
    cfg = sample_config(tmp_path)
    csv_path, json_path = str(tmp_path / "out.csv"), str(tmp_path / "out.json")
    code, _, _ = run_cli(["sample", "--config", cfg, "--csv", csv_path, "--json", json_path], capsys)
    assert code == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    # origin + meet (1,1) added by closure: 5 columns, header then 50 rows
    assert rows[0][0] == "0.0,0.0"
    assert rows[0] == ["0.0,0.0", "1.0,1.0", "1.0,2.0", "2.0,1.0", "2.0,2.0"]
    assert len(rows) == 51
    assert all(float(rows[r][0]) == 0.7 for r in range(1, 51))
    sidecar = json.loads(Path(json_path).read_text())
    steps = sidecar["results"][0]["plan"]["steps"]
    assert len(steps) == 4
    assert sidecar["config"]["seed"] == {"seed": 11, "stream": 0}


def test_sample_seed_and_replicates_overrides(tmp_path, capsys):
    cfg = sample_config(tmp_path)
    a_csv, a_json = str(tmp_path / "a.csv"), str(tmp_path / "a.json")
    b_csv, b_json = str(tmp_path / "b.csv"), str(tmp_path / "b.json")
    run_cli(["sample", "--config", cfg, "--csv", a_csv, "--json", a_json,
             "--seed", "99", "--replicates", "7"], capsys)
    run_cli(["sample", "--config", cfg, "--csv", b_csv, "--json", b_json,
             "--seed", "99", "--replicates", "7"], capsys)
    assert Path(a_csv).read_text() == Path(b_csv).read_text()
    with open(a_csv, newline="") as fh:
        assert len(list(csv.reader(fh))) == 8
    assert json.loads(Path(a_json).read_text())["config"]["seed"]["seed"] == 99


def test_sample_requires_corners(tmp_path, capsys):
    cfg = write_config(tmp_path, "s.json", {**KERNEL_BASE, "corners": [], "replicates": 5, "seed": 1})
    code, _, err = run_cli(["sample", "--config", cfg, "--csv", str(tmp_path / "x.csv"),
                            "--json", str(tmp_path / "x.json")], capsys)
    assert code == 2
    assert "corners" in err


def test_sample_requires_seed(tmp_path, capsys):
    cfg = write_config(tmp_path, "s.json", {
        **KERNEL_BASE, "corners": [[1.0, 1.0]], "replicates": 5})
    code, _, err = run_cli(["sample", "--config", cfg, "--csv", str(tmp_path / "x.csv"),
                            "--json", str(tmp_path / "x.json")], capsys)
    assert code == 2
    assert "seed" in err


def sheet_config(tmp_path, **extra):
    return write_config(tmp_path, "sh.json", {
        "grid": {"lower": [-6.0], "upper": [1.0], "steps": [140]},
        "alpha": [1.0],
        "sigma": 1.0,
        "points": [[0.5], [1.0]],
        "mode": "stationary",
        "replicates": 4000,
        "seed": 3,
        **extra,
    })


def test_sheet_outputs_and_moments(tmp_path, capsys):
    cfg = sheet_config(tmp_path)
    csv_path, json_path = str(tmp_path / "sh.csv"), str(tmp_path / "sh.json")
    code, _, _ = run_cli(["sheet", "--config", cfg, "--csv", csv_path, "--json", json_path], capsys)
    assert code == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["replicate", "t", "value"]
    assert len(rows) == 1 + 4000 * 2
    report = json.loads(Path(json_path).read_text())["results"][0]
    # matched kernel for alpha=(1,): sv = sigma^2/2; empirical within MC error
    assert abs(report["theory_cov"][0][0] - 0.5) < 1e-12
    assert abs(report["empirical_cov"][0][0] - 0.5) < 0.1
    assert report["matched_kernel"]["measure"]["kind"] == "axis"


def test_sheet_bad_mode(tmp_path, capsys):
    cfg = sheet_config(tmp_path, mode="warp")
    code, _, err = run_cli(["sheet", "--config", cfg, "--csv", str(tmp_path / "x.csv"),
                            "--json", str(tmp_path / "x.json")], capsys)
    assert code == 2
    assert "mode" in err


@pytest.mark.parametrize("extra, message", [
    ({"alpha": [-1.0]}, "alpha must be finite and positive, got (-1.0,)"),
    ({"points": [[0.5], [1.5]]}, "outside the grid upper corner"),
    ({"points": []}, "a sheet needs at least one point"),
])
def test_sheet_bad_alpha_or_point_is_a_configuration_error(tmp_path, capsys, extra, message):
    cfg = sheet_config(tmp_path, **extra)
    code, _, err = run_cli(["sheet", "--config", cfg, *_outputs(tmp_path)], capsys)
    assert code == 2
    assert "configuration error" in err
    assert message in err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("sigma, shown", [(math.nan, "nan"), (math.inf, "inf"), (0.0, "0.0"), (-1.0, "-1.0")])
def test_sheet_bad_sigma_exits_2_before_any_draw(tmp_path, capsys, monkeypatch, sigma, shown):
    def no_draws(*args, **kwargs):
        raise AssertionError("batch_paths ran")

    monkeypatch.setattr("siou.cli.batch_paths", no_draws)
    cfg = sheet_config(tmp_path, sigma=sigma)
    code, _, err = run_cli(["sheet", "--config", cfg, *_outputs(tmp_path)], capsys)
    assert code == 2
    assert f"configuration error: sigma must be finite and positive, got {shown}" in err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("override", [["--lambda", "1e-310", "--sigma", "1"], ["--sigma", "1e200"], ["--sigma", "1e-200"]])
def test_a_kernel_scale_that_is_not_finite_or_zero_is_a_configuration_error(tmp_path, capsys, override):
    # s = sigma^2 / (2 lambda) is inf, inf (sigma^2 overflows) and 0 (sigma^2 underflows).
    code, _, err = run_cli(["sample", "--config", sample_config(tmp_path), *_outputs(tmp_path), *override], capsys)
    assert code == 2
    assert err.startswith("configuration error: lambda ") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("extra", [
    {"sigma": 1e200},
    {"grid": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "steps": [4, 4]}, "alpha": [1e-300, 1e-300],
     "points": [[0.5, 0.5]]},
], ids=["sigma_squared_overflows", "alpha_product_underflows"])
def test_sheet_without_a_finite_matched_kernel_exits_2_before_any_draw(tmp_path, capsys, monkeypatch, extra):
    def no_draws(*args, **kwargs):
        raise AssertionError("batch_paths ran")

    monkeypatch.setattr("siou.cli.batch_paths", no_draws)
    code, _, err = run_cli(["sheet", "--config", sheet_config(tmp_path, **extra), *_outputs(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("configuration error: alpha ") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("extra, shown", [
    ({"grid": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0], "steps": [4, 4]}, "alpha": [1e200, 1e200],
      "points": [[0.5, 0.5]]}, "alpha (1e+200, 1e+200) and sigma 1.0 have no valid matched kernel: prod(alpha) = inf"),
    ({"sigma": 1e-200}, "alpha (1.0,) and sigma 1e-200 have no valid matched kernel: prod(alpha) = 1.0"),
], ids=["alpha_product_overflows", "sigma_squared_underflows"])
def test_sheet_whose_matched_sigma_is_zero_names_alpha_and_sigma(tmp_path, capsys, extra, shown):
    # sigma_eff is 0 although the config's sigma is positive; numpy must not warn on the way.
    code, _, err = run_cli(["sheet", "--config", sheet_config(tmp_path, **extra), *_outputs(tmp_path)], capsys)
    assert code == 2
    assert err == f"configuration error: {shown}, sigma_eff = 0.0\n"
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "x.json").exists()


def test_sheet_needs_two_replicates(tmp_path, capsys):
    # One replicate leaves the empirical covariance undefined (NaN in the JSON).
    cfg = sheet_config(tmp_path, replicates=1)
    csv_path, json_path = tmp_path / "x.csv", tmp_path / "x.json"
    code, _, err = run_cli(["sheet", "--config", cfg, "--csv", str(csv_path), "--json", str(json_path)], capsys)
    assert code == 2
    assert "replicates" in err
    assert not json_path.exists()
    code, _, _ = run_cli(["sheet", "--config", sheet_config(tmp_path), "--csv", str(csv_path),
                          "--json", str(json_path), "--replicates", "2"], capsys)
    assert code == 0


def test_sheet_csv_is_the_csv_writer_rendering_of_the_values(tmp_path, capsys):
    payload = {
        "grid": {"lower": [-2.0, -2.0], "upper": [1.0, 1.0], "steps": [30, 30]},
        "alpha": [1.0, 2.0], "sigma": 1.0, "points": [[0.5, 0.25], [1.0, 1.0]],
        "mode": "dirac", "y0": 0.3, "replicates": 50, "seed": 4,
    }
    cfg = write_config(tmp_path, "sh2.json", payload)
    csv_path, json_path = tmp_path / "sh2.csv", tmp_path / "sh2.json"
    code, _, _ = run_cli(["sheet", "--config", cfg, "--csv", str(csv_path), "--json", str(json_path)], capsys)
    assert code == 0
    grid = GridSpec((-2.0, -2.0), (1.0, 1.0), (30, 30))
    values = batch_paths(grid, (1.0, 2.0), 1.0, payload["points"], 50, RngSeed(4), y0=0.3)
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["replicate", "t", "value"])
    for r, row in enumerate(values):
        for point, v in zip(payload["points"], row):
            writer.writerow([r, ",".join(repr(float(c)) for c in point), repr(float(v))])
    assert csv_path.read_bytes() == want.getvalue().encode("utf-8")


def test_verify_deterministic_passes(tmp_path, capsys):
    json_path = str(tmp_path / "v.json")
    code, out, err = run_cli(["verify", "--suite", "deterministic", "--seed", "42",
                              "--json", json_path], capsys)
    assert code == 0
    assert "OK" in err
    report = json.loads(Path(json_path).read_text())
    assert report["passed"] is True
    assert report["config"] == {"suite": "deterministic", "seed": {"seed": 42, "stream": 0}}
    assert all(r["passed"] for r in report["results"])
    names = [r["name"] for r in report["results"]]
    assert len(names) == len(set(names))


def test_verify_stdout_is_json_when_no_path(capsys):
    code, out, err = run_cli(["verify", "--suite", "deterministic", "--seed", "2026"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert "PASS" in err


# SHA-256 of the `siou verify --suite deterministic --seed 7 --json` report.
# Any change in a check's draws, statistic, label or order changes it.
GOLDEN_VERIFY_DETERMINISTIC = "b833380aa9e8ab8fe9ea921ca4de506fc7a6d95a86d0e6c4f7f9eea0c026f194"


def test_verify_report_matches_golden_digest(tmp_path, capsys):
    json_path = tmp_path / "v.json"
    code, _, _ = run_cli(["verify", "--suite", "deterministic", "--seed", "7", "--json", str(json_path)], capsys)
    assert code == 0
    assert hashlib.sha256(json_path.read_bytes()).hexdigest() == GOLDEN_VERIFY_DETERMINISTIC


def test_verify_stderr_lines_end_in_the_check_seconds(capsys):
    code, out, err = run_cli(["verify", "--suite", "mc", "--seed", "5"], capsys)
    assert code == 0
    lines = [line for line in err.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert len(lines) == len(json.loads(out)["results"]) == 6
    assert all(re.fullmatch(r"PASS \S+ statistic=\S+ tolerance=\S+ seconds=\d+\.\d{4}", line) for line in lines)
    assert "seconds" not in out


def test_verify_requires_seed():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "deterministic"])
    assert exc.value.code == 2


def test_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["fold"])
    assert exc.value.code == 2


def test_missing_config_file(tmp_path, capsys):
    code, _, err = run_cli(["kernel", "--config", str(tmp_path / "absent.json")], capsys)
    assert code == 2
    assert "cannot read config" in err


def _outputs(tmp_path):
    return ["--csv", str(tmp_path / "x.csv"), "--json", str(tmp_path / "x.json")]


@pytest.mark.parametrize("argv", [
    lambda tmp: ["verify", "--suite", "mc", "--seed", "-3"],
    lambda tmp: ["sample", "--config", sample_config(tmp, seed={"seed": "x"}), *_outputs(tmp)],
    lambda tmp: ["kernel", "--config", write_config(tmp, "k.json", {
        **KERNEL_BASE, "kernel": {"lambda": "abc", "sigma": 1.0}, "op": "cov_stationary",
        "u": [1.0, 1.0], "v": [1.0, 2.0]})],
    lambda tmp: ["sample", "--config", sample_config(tmp, replicates="ten"), *_outputs(tmp)],
    lambda tmp: ["sample", "--config", sample_config(tmp, initial={"kind": "dirac"}), *_outputs(tmp)],
    lambda tmp: ["kernel", "--config", write_config(tmp, "k.json", {
        **KERNEL_BASE, "op": "mean_dirac", "u": [1.0, 1.0]})],
    lambda tmp: ["sheet", "--config", sheet_config(tmp, mode="dirac", y0="z"), *_outputs(tmp)],
    lambda tmp: ["kernel", "--config", write_config(tmp, "k.json", {
        **KERNEL_BASE, "measure": "lebesgue", "op": "cov_stationary", "u": [1.0, 1.0], "v": [1.0, 2.0]})],
    lambda tmp: ["sample", "--config", sample_config(tmp, initial=[1]), *_outputs(tmp)],
], ids=["negative_seed", "string_seed", "string_lambda", "string_replicates", "dirac_without_x0",
        "mean_dirac_without_x0", "string_y0", "string_measure", "list_initial"])
def test_malformed_input_is_a_configuration_error(tmp_path, capsys, argv):
    code, _, err = run_cli(argv(tmp_path), capsys)
    assert code == 2
    assert "configuration error" in err


@pytest.mark.parametrize("command, make_config, extra, message", [
    ("sample", sample_config, {"replicates": 3.9}, "replicates must be an integer, got 3.9"),
    ("sheet", sheet_config, {"replicates": 40.5}, "replicates must be an integer, got 40.5"),
    ("sheet", sheet_config, {"grid": {"lower": [-6.0], "upper": [1.0], "steps": [10.7]}},
     "cell counts must be integers, got 10.7"),
    ("sheet", sheet_config, {"grid": {"lower": [-6.0], "upper": [1.0], "steps": [True]}},
     "cell counts must be integers, got True"),
    ("sample", sample_config, {"seed": {"seed": 2.7, "stream": 1.5}}, "seed must be an integer, got 2.7"),
    ("sample", sample_config, {"seed": {"seed": 2, "stream": 1.5}}, "stream must be an integer, got 1.5"),
    ("sample", sample_config, {"seed": {"stream": 3}}, "missing config entry 'seed.seed'"),
    ("sheet", sheet_config, {"seed": True}, "seed must be an integer, got True"),
    ("sample", sample_config, {"dimension": 2.5}, "dimension must be an integer, got 2.5"),
    ("sample", sample_config, {"initial": {"kind": "dirac"}}, "missing config entry 'initial.x0'"),
    ("sheet", sheet_config, {"grid": {"lower": [-6.0], "upper": [1.0]}}, "missing config entry 'grid.steps'"),
], ids=["fractional_replicates", "fractional_sheet_replicates", "fractional_steps", "boolean_steps",
        "fractional_seed", "fractional_stream", "stream_without_seed", "boolean_seed", "fractional_dimension",
        "dirac_without_x0", "grid_without_steps"])
def test_config_integers_are_not_truncated(tmp_path, capsys, command, make_config, extra, message):
    code, _, err = run_cli([command, "--config", make_config(tmp_path, **extra), *_outputs(tmp_path)], capsys)
    assert code == 2
    assert err == f"configuration error: {message}\n"
    assert not (tmp_path / "x.json").exists()


def mean_dirac_config(tmp_path, **extra):
    return write_config(tmp_path, "k.json", {**KERNEL_BASE, "op": "mean_dirac", "u": [1.0, 1.0], "x0": 0.5, **extra})


@pytest.mark.parametrize("command, make_config, extra, message", [
    ("sheet", sheet_config, {"alpha": [True]}, "alpha must be a number, got True"),
    ("sheet", sheet_config, {"sigma": True}, "sigma must be a number, got True"),
    ("sheet", sheet_config, {"mode": "dirac", "y0": False}, "y0 must be a number, got False"),
    ("kernel", lambda tmp, **extra: write_config(tmp, "k.json", {
        **KERNEL_BASE, "op": "cov_stationary", "u": [1.0, 1.0], "v": [1.0, 2.0], **extra}),
     {"kernel": {"lambda": True, "sigma": 1.0}}, "lambda must be a number, got True"),
    ("kernel", lambda tmp, **extra: write_config(tmp, "k.json", {
        **KERNEL_BASE, "op": "cov_stationary", "u": [1.0, 1.0], "v": [1.0, 2.0], **extra}),
     {"kernel": {"lambda": 1.0, "sigma": True}}, "sigma must be a number, got True"),
    ("sheet", sheet_config, {"seed": {"seed": 3, "steam": 2}},
     "unknown seed keys ['steam']; a seed object takes seed and stream"),
    ("sample", sample_config, {"seed": {"seed": 3, "stream": 1, "sed": 4}},
     "unknown seed keys ['sed']; a seed object takes seed and stream"),
    ("sample", sample_config, {"corners": [["1.5", True]]}, "corner must be a number, got '1.5'"),
    ("sample", sample_config, {"initial": {"kind": "normal", "mu": "0", "var": False}}, "mu must be a number, got '0'"),
    ("sample", sample_config, {"initial": {"kind": "normal", "mu": 0, "var": False}},
     "var must be a number, got False"),
    ("sample", sample_config, {"initial": {"kind": "empirical", "values": "123"}},
     "values must be a list of numbers, got '123'"),
    ("kernel", mean_dirac_config, {"u": [True], "x0": "2"}, "corner must be a number, got True"),
    ("kernel", mean_dirac_config, {"x0": "2"}, "x0 must be a number, got '2'"),
    ("kernel", mean_dirac_config, {"measure": {"kind": "axis", "alpha": [1.0, "2"]}},
     "alpha must be a number, got '2'"),
    ("sheet", sheet_config, {"grid": {"lower": ["-6"], "upper": [1.0], "steps": [140]}},
     "grid lower must be a number, got '-6'"),
], ids=["boolean_alpha", "boolean_sigma", "boolean_y0", "boolean_lambda", "boolean_kernel_sigma", "misspelt_stream",
        "extra_seed_key", "string_corner", "string_mu", "boolean_var", "string_values", "boolean_u", "string_x0",
        "string_axis_alpha", "string_grid_bound"])
def test_config_reals_and_seed_keys_are_checked(tmp_path, capsys, command, make_config, extra, message):
    argv = [command, "--config", make_config(tmp_path, **extra)]
    code, out, err = run_cli(argv + ([] if command == "kernel" else _outputs(tmp_path)), capsys)
    assert code == 2
    assert err == f"configuration error: {message}\n"
    assert out == ""
    assert not (tmp_path / "x.json").exists()


def kernel_config(tmp_path, **extra):
    return write_config(tmp_path, "k.json", {**KERNEL_BASE, "op": "cov_stationary", "u": [1.0, 1.0],
                                             "v": [1.0, 2.0], **extra})


def _renamed(make_config, old, new):
    """A config maker whose key ``old`` is spelt ``new``."""
    def make(tmp_path):
        path = Path(make_config(tmp_path))
        payload = json.loads(path.read_text())
        payload[new] = payload.pop(old)
        path.write_text(json.dumps(payload))
        return str(path)
    return make


@pytest.mark.parametrize("command, make_config, key", [
    ("sample", _renamed(sample_config, "initial", "inital"), "inital"),
    ("sample", lambda tmp: sample_config(tmp, tiebreak="lex"), "tiebreak"),
    ("sheet", _renamed(lambda tmp: sheet_config(tmp, mode="dirac"), "mode", "Mode"), "Mode"),
    ("sheet", lambda tmp: sheet_config(tmp, mode="dirac", y_0=3.0), "y_0"),
    ("kernel", lambda tmp: kernel_config(tmp, kernel={"lamda": 1.0, "sigma": 1.0}), "lamda"),
    ("kernel", lambda tmp: kernel_config(tmp, measure={"kind": "lebesgue", "alpha": [1.0, 1.0]}), "alpha"),
    ("kernel", lambda tmp: kernel_config(tmp, x0=0.5), "x0"),
    ("sample", lambda tmp: sample_config(tmp, initial={"kind": "dirac", "x0": 0.7, "var": 1.0}), "var"),
    ("sheet", lambda tmp: sheet_config(tmp, grid={"lower": [-6.0], "upper": [1.0], "step": [140]}), "step"),
], ids=["sample_inital", "sample_tiebreak", "sheet_Mode", "sheet_y_0", "kernel_lamda", "lebesgue_alpha",
        "cov_stationary_x0", "dirac_var", "grid_step"])
def test_unknown_config_keys_are_configuration_errors(tmp_path, capsys, command, make_config, key):
    argv = [command, "--config", make_config(tmp_path)]
    code, out, err = run_cli(argv + ([] if command == "kernel" else _outputs(tmp_path)), capsys)
    assert code == 2
    assert err.startswith("configuration error: unknown ") and err.count("\n") == 1
    assert repr([key]) in err
    assert out == ""
    assert not (tmp_path / "x.json").exists() and not (tmp_path / "x.csv").exists()


def test_integral_float_config_values_give_the_integer_bytes(tmp_path, capsys):
    grid = {"lower": [-6.0], "upper": [1.0]}
    for command, make_config, ints, floats in (
        ("sample", sample_config, {}, {"replicates": 50.0, "seed": {"seed": 11.0, "stream": 0.0}}),
        ("sheet", sheet_config, {"grid": {**grid, "steps": [140]}, "replicates": 150},
         {"grid": {**grid, "steps": [140.0]}, "replicates": 150.0}),
    ):
        outs = []
        for tag, extra in (("int", ints), ("float", floats)):
            csv_path, json_path = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
            code, _, _ = run_cli([command, "--config", make_config(tmp_path, **extra), "--csv", str(csv_path),
                                  "--json", str(json_path)], capsys)
            assert code == 0
            outs.append(csv_path.read_bytes() + json_path.read_bytes())
        assert outs[0] == outs[1]


@pytest.mark.parametrize("command, make_config", [("sample", sample_config), ("sheet", sheet_config)])
def test_unallocatable_output_is_one_error_line(tmp_path, capsys, command, make_config):
    # 10^14 replicates ask for petabytes and 1e20 more rows than numpy's dimension limit:
    # numpy refuses either before anything is drawn.
    for replicates in (10**14, 1e20):
        cfg = make_config(tmp_path, replicates=replicates)
        code, _, err = run_cli([command, "--config", cfg, *_outputs(tmp_path)], capsys)
        assert code == 1
        assert err.startswith("error: MemoryError: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists() and not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("steps, message", [
    (1.7976931348623157e308, "at least 2^1023 cells: Maximum allowed size exceeded"),
    (10**400, "at least 2^1328 cells: int too large to convert to float"),
], ids=["past_the_size_limit", "no_float_width"])
def test_a_grid_axis_too_large_to_allocate_is_one_memory_error_line(tmp_path, capsys, steps, message):
    cfg = sheet_config(tmp_path, grid={"lower": [-6.0], "upper": [1.0], "steps": [steps]})
    code, out, err = run_cli(["sheet", "--config", cfg, *_outputs(tmp_path)], capsys)
    assert code == 1
    assert err == f"error: MemoryError: cannot allocate an axis of {message}\n"
    assert out == ""
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "x.json").exists()


def _run_at_blas_threads(command, cfg, out, threads):
    """Run ``siou <command>`` in a child pinned to the given OpenBLAS thread count; write out.csv and out.json."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "siou", command, "--config", cfg, "--csv", f"{out}.csv", "--json", f"{out}.json"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": str(threads)})
    assert proc.returncode == 0, proc.stderr


def test_sample_bytes_do_not_depend_on_blas_threads(tmp_path):
    # The top corner of a 12-corner antichain sums 23 weighted parent columns;
    # 4,096 + 811 replicates give a full block and a partial one. The sampler
    # makes no BLAS call, so the bytes must not move with the thread count.
    m = 12
    corners = [[0.25 * i, 0.25 * (m + 1 - i)] for i in range(1, m + 1)] + [[0.25 * (m + 1)] * 2]
    cfg = sample_config(tmp_path, corners=corners, replicates=4096 + 811)
    for threads in (1, 2):
        _run_at_blas_threads("sample", cfg, tmp_path / f"t{threads}", threads)
    for ext in ("csv", "json"):
        assert (tmp_path / f"t1.{ext}").read_bytes() == (tmp_path / f"t2.{ext}").read_bytes()


def test_sheet_bytes_do_not_depend_on_blas_threads(tmp_path):
    # Four 3-D points, so the covariance passes through LAPACK's Cholesky; two
    # whole row blocks, the second padded past its 17 rows, go through the
    # one-thread BLAS product.
    cfg = write_config(tmp_path, "sh3.json", {
        "grid": {"lower": [-2.0, -2.0, -2.0], "upper": [1.0, 1.0, 1.0], "steps": [9, 9, 9]},
        "alpha": [1.0, 0.5, 2.0],
        "sigma": 0.9,
        "points": [[0.5, 1.0, 0.25], [1.0, 0.5, 0.5], [0.25, 0.25, 1.0], [1.0, 1.0, 1.0]],
        "mode": "stationary",
        "replicates": SAMPLE_BLOCK_ROWS + 17,
        "seed": {"seed": 41, "stream": 2},
    })
    for threads in (1, 2):
        _run_at_blas_threads("sheet", cfg, tmp_path / f"t{threads}", threads)
    for ext in ("csv", "json"):
        assert (tmp_path / f"t1.{ext}").read_bytes() == (tmp_path / f"t2.{ext}").read_bytes()


def test_reruns_are_byte_identical(tmp_path, capsys):
    cfg = sample_config(tmp_path)
    outs = []
    for tag in ("r1", "r2"):
        csv_path = str(tmp_path / f"{tag}.csv")
        json_path = str(tmp_path / f"{tag}.json")
        code, _, _ = run_cli(["sample", "--config", cfg, "--csv", csv_path, "--json", json_path], capsys)
        assert code == 0
        outs.append(Path(csv_path).read_bytes() + Path(json_path).read_bytes())
    assert outs[0] == outs[1]


def test_module_entry_point_runs():
    # The child does not inherit pytest's pythonpath setting, so hand it the source tree.
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "siou", "frontier", "--a", "1,1", "--b", "1,1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["results"] == [{"corner": [1.0, 1.0], "sign": 1}]


# SHA-256 of `siou sample` outputs for two fixed-seed configs. Any change
# in the draws or in how values are serialized changes these digests.
GOLDEN_SAMPLE = {
    "lebesgue_2d_dirac": (
        {
            **KERNEL_BASE,
            "corners": [[0.5, 0.5], [1.0, 2.0], [2.0, 1.0], [2.0, 2.0]],
            "initial": {"kind": "dirac", "x0": 0.7},
            "replicates": 300,
            "seed": 11,
        },
        "ab8891cf498a08b86e7c75c66954e309c43fd402daa1b2da5388c3c1cb8b84f7",
        "e74d5cb30de3e968128ed50b6ea36ec676b2a933cc4b4538b06124271a05caf4",
    ),
    "axis_3d_normal": (
        {
            "dimension": 3,
            "measure": {"kind": "axis", "alpha": [1.0, 0.5, 2.0]},
            "kernel": {"lambda": 0.8, "sigma": 1.3},
            "corners": [[0.25, 1.0, 0.5], [1.0, 0.25, 0.75], [1.0, 1.0, 1.0], [0.5, 0.5, 1.5]],
            "initial": {"kind": "normal", "mu": 0.3, "var": 0.4},
            "replicates": 300,
            "seed": {"seed": 5, "stream": 2},
        },
        "25535adfddb54c4697b24984e73e149461c97cf9896d062ce7fc01e4f753067c",
        "d63679c5a84e31854a4e53eed68d97d568c83411d09acaa232d796fccca0ec8f",
    ),
    # The 12 x 12 quarter grid: a 145-corner plan whose frontiers all come from the fold.
    "lebesgue_2d_quarter_grid": (
        {
            **KERNEL_BASE,
            "corners": [[0.25 * i, 0.25 * j] for i in range(1, 13) for j in range(1, 13)],
            "initial": {"kind": "dirac", "x0": 0.7},
            "replicates": 50,
            "seed": 23,
        },
        "4977fe05c430f03e88433e4b8e056008beb8881576f76c6a1a97b74568807c2d",
        "3bcf4a6eb57cdfad96bf311fad8d9ccf4762947530d5ac14c4dbf76f275ee9cd",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SAMPLE))
def test_sample_outputs_match_golden_digests(tmp_path, capsys, name):
    payload, csv_digest, json_digest = GOLDEN_SAMPLE[name]
    cfg = write_config(tmp_path, "g.json", payload)
    csv_path, json_path = tmp_path / "g.csv", tmp_path / "g.out.json"
    code, _, _ = run_cli(["sample", "--config", cfg, "--csv", str(csv_path), "--json", str(json_path)], capsys)
    assert code == 0
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_digest
    assert hashlib.sha256(json_path.read_bytes()).hexdigest() == json_digest


# SHA-256 of `siou sheet` outputs for two fixed-seed configs. Any change in
# the sheet's draws, its weights or how values are serialized changes these digests.
GOLDEN_SHEET = {
    "dirac_2d": (
        {
            "grid": {"lower": [-2.0, -2.0], "upper": [1.0, 1.0], "steps": [12, 12]},
            "alpha": [1.0, 2.0],
            "sigma": 0.8,
            "points": [[0.5, 0.5], [1.0, 0.25], [1.0, 1.0]],
            "mode": "dirac",
            "y0": 0.4,
            "replicates": 150,
            "seed": 31,
        },
        "986c04a12884972cb52d8908bda07b185cd551289f6595ff9de1dbfaf7241084",
        "bcecedf902cdfe7924c79b9a71eba3390e582743bb1b7335118d81fa68a80e5c",
    ),
    "stationary_1d": (
        {
            "grid": {"lower": [-4.0], "upper": [1.0], "steps": [50]},
            "alpha": [1.2],
            "sigma": 1.0,
            "points": [[0.3], [0.75], [1.0]],
            "mode": "stationary",
            "replicates": 150,
            "seed": {"seed": 7, "stream": 3},
        },
        "4ddb7fc65b3ed46b4ea3d1ae7f3c9bbe1f4f1919ecc39bfca4cafb201131f4d7",
        "e79f0ba7d22b0e9172868fe47035f0070dd38be7bd2cc8c3f575a3b5f267262e",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHEET))
def test_sheet_outputs_match_golden_digests(tmp_path, capsys, name):
    payload, csv_digest, json_digest = GOLDEN_SHEET[name]
    cfg = write_config(tmp_path, "g.json", payload)
    csv_path, json_path = tmp_path / "g.csv", tmp_path / "g.out.json"
    code, _, _ = run_cli(["sheet", "--config", cfg, "--csv", str(csv_path), "--json", str(json_path)], capsys)
    assert code == 0
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_digest
    assert hashlib.sha256(json_path.read_bytes()).hexdigest() == json_digest


@pytest.mark.parametrize("op", [["x"], {}], ids=["list", "object"])
def test_an_unhashable_kernel_op_is_a_configuration_error(tmp_path, capsys, op):
    code, out, err = run_cli(["kernel", "--config", kernel_config(tmp_path, op=op)], capsys)
    assert code == 2
    assert err == f"configuration error: unknown kernel op {op!r}; pick cov_stationary, cov_dirac, mean_dirac or transition\n"
    assert out == ""


@pytest.mark.parametrize("command, make_config, key, value", [
    ("kernel", mean_dirac_config, "x0", math.nan),
    ("kernel", mean_dirac_config, "x0", -math.inf),
    ("sheet", lambda tmp, **extra: sheet_config(tmp, mode="dirac", **extra), "y0", math.inf),
    ("sheet", lambda tmp, **extra: sheet_config(tmp, mode="dirac", **extra), "y0", math.nan),
], ids=["nan_x0", "infinite_x0", "infinite_y0", "nan_y0"])
def test_a_non_finite_start_value_is_a_configuration_error(tmp_path, capsys, command, make_config, key, value):
    outputs = _outputs(tmp_path) if command == "sheet" else ["--json", str(tmp_path / "x.json")]
    code, out, err = run_cli([command, "--config", make_config(tmp_path, **{key: value}), *outputs], capsys)
    assert code == 2
    assert err == f"configuration error: {key} must be finite, got {value!r}\n"
    assert out == ""
    assert not (tmp_path / "x.json").exists() and not (tmp_path / "x.csv").exists()


def _lambda_digits(tmp_path, zeros):
    """A kernel config whose lambda is the JSON integer 1 followed by ``zeros`` zeros, written as text."""
    path = Path(kernel_config(tmp_path))
    path.write_text(path.read_text().replace('"lambda": 1.0', '"lambda": 1' + "0" * zeros))
    return str(path)


@pytest.mark.parametrize("zeros, message", [
    (400, "lambda must fit in a float, got an integer of 1329 bits"),
    (5000, "cannot read config {cfg}: Exceeds the limit (4300 digits) for integer string conversion"),
], ids=["too_large_for_a_float", "past_the_digit_limit"])
def test_a_config_integer_that_no_float_holds_is_a_configuration_error(tmp_path, capsys, zeros, message):
    cfg = _lambda_digits(tmp_path, zeros)
    code, out, err = run_cli(["kernel", "--config", cfg, "--json", str(tmp_path / "x.json")], capsys)
    assert code == 2
    assert err.startswith(f"configuration error: {message.format(cfg=cfg)}") and err.count("\n") == 1
    assert out == ""
    assert not (tmp_path / "x.json").exists()


def _top_level_list(make_config):
    def make(tmp_path):
        path = Path(make_config(tmp_path))
        path.write_text(json.dumps([json.loads(path.read_text())]))
        return str(path)
    return make


@pytest.mark.parametrize("command, make_config, message", [
    ("kernel", _top_level_list(kernel_config), "kernel config must be a JSON object"),
    ("sample", _top_level_list(sample_config), "sample config must be a JSON object"),
    ("kernel", lambda tmp: write_config(tmp, "k.json", {**KERNEL_BASE, "op": "transition", "a": [2.0, 2.0], "b": 5}),
     "b must be a list of corners, got 5"),
    ("sheet", lambda tmp: sheet_config(tmp, points=5), "points must be a list of corners, got 5"),
    ("sample", lambda tmp: sample_config(tmp, corners=None), "corners must be a list of corners, got None"),
    ("sheet", lambda tmp: sheet_config(tmp, grid={"lower": [-6.0], "upper": [1.0], "steps": "12"}),
     "steps must be a list of integers, got '12'"),
], ids=["kernel_list", "sample_list", "number_b", "number_points", "null_corners", "string_steps"])
def test_shape_errors_name_their_key(tmp_path, capsys, command, make_config, message):
    argv = [command, "--config", make_config(tmp_path)]
    code, out, err = run_cli(argv + ([] if command == "kernel" else _outputs(tmp_path)), capsys)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith(f"configuration error: {message}")
    assert out == ""
    assert not (tmp_path / "x.json").exists() and not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("a, b, corner", [("2,,2", "", "2,,2"), ("2,2,", "", "2,2,"), ("2,2", "1,,2;2,1", "1,,2")],
                         ids=["inner", "trailing", "in_union"])
def test_an_empty_frontier_corner_field_is_a_configuration_error(capsys, a, b, corner):
    code, out, err = run_cli(["frontier", "--a", a, "--b", b], capsys)
    assert code == 2
    assert err.startswith(f"configuration error: cannot parse corner {corner!r}") and err.count("\n") == 1
    assert out == ""


# Bases for the mutation property: the README's kernel (transition), sample and
# sheet configs, and one config for each of the other kernel ops.
MUTATION_BASES = [(command, json.loads(body)) for command, body in README_CONFIGS] + [
    ("kernel", {**KERNEL_BASE, "op": "cov_stationary", "u": [1.0, 1.0], "v": [2.0, 1.0]}),
    ("kernel", {**KERNEL_BASE, "op": "cov_dirac", "u": [1.0, 1.0], "v": [2.0, 1.0]}),
    ("kernel", {**KERNEL_BASE, "op": "mean_dirac", "u": [1.0, 1.0], "x0": 0.5}),
]
# Keys that have a default, or that the same object takes without them: dropping or adding them is no error.
OPTIONAL_KEYS = {"b", "initial", "mode", "y0", "stream"}


def _leaves(node, path=()):
    """``(path, value)`` for every key and list entry below ``node``."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))


def _one_edit(key):
    """The strings one insertion, deletion, substitution or adjacent swap away from ``key``."""
    letters = "abcdefghijklmnopqrstuvwxyz_0"
    splits = [(key[:i], key[i:]) for i in range(len(key) + 1)]
    return ({a + b[1:] for a, b in splits if b} | {a + b[1] + b[0] + b[2:] for a, b in splits if len(b) > 1}
            | {a + c + b[1:] for a, b in splits if b for c in letters} | {a + c + b for a, b in splits for c in letters})


def _sites(cfg):
    """``(path, how)`` for each way to break one leaf of ``cfg``."""
    for path, value in _leaves(cfg):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path, "number"
        if path[-1] in ("op", "kind", "mode"):
            yield path, "enum"
        if isinstance(path[-1], str):
            yield path, "near_key"
            if path[-1] not in OPTIONAL_KEYS:
                yield path, "drop"


@st.composite
def mutated_configs(draw):
    command, cfg = draw(st.sampled_from(MUTATION_BASES))
    cfg = json.loads(json.dumps(cfg))
    path, how = draw(st.sampled_from(list(_sites(cfg))))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if how == "number":
        parent[key] = draw(st.sampled_from(["1.5", True, False, [parent[key]], None]))
    elif how == "enum":
        parent[key] = draw(st.sampled_from(["nope", "", parent[key].upper(), [parent[key]]]))
    elif how == "drop":
        del parent[key]
    else:
        parent[draw(st.sampled_from(sorted(_one_edit(key) - set(parent) - OPTIONAL_KEYS)))] = parent[key]
    return command, cfg


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutated_configs())
def test_a_config_with_one_broken_leaf_is_one_configuration_error(mutated):
    command, cfg = mutated
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "c.json").write_text(json.dumps(cfg))
        argv = [command, "--config", str(out / "c.json"), "--json", str(out / "x.json")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv if command == "kernel" else argv + ["--csv", str(out / "x.csv")])
        assert code == 2
        assert err.getvalue().startswith("configuration error: ") and err.getvalue().count("\n") == 1
        assert sorted(p.name for p in out.iterdir()) == ["c.json"]


# Values whose repr is easy to get wrong: signed zero, infinities, nan, the
# smallest subnormal, and the switches to and from exponent notation.
SPECIAL = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 1e-5, 0.1]


def _special_values(nrows):
    values = np.random.default_rng(nrows).standard_normal((nrows, len(SPECIAL)))
    flat = values.reshape(-1)
    flat[::7] = np.resize(SPECIAL, flat[::7].size)
    values[0], values[-1] = SPECIAL, SPECIAL[::-1]
    return values


@pytest.fixture
def blocks(monkeypatch, tmp_path):
    """Cut the CSV writer's work into blocks: each call sets the values per block. Temp files go under tmp_path."""
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    return lambda values: monkeypatch.setattr(_csvformat, "BLOCK_VALUES", values)


def _no_child_left(tmp_path):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert list((tmp_path / "tmp").iterdir()) == []


def _csv_line(fields):
    buf = io.StringIO(newline="")
    csv.writer(buf).writerow(fields)
    return buf.getvalue()


@pytest.mark.parametrize("nrows", [1, 1023, 1024, 1025, 3 * 1024 + 7])
@pytest.mark.parametrize("parts", [1, 2, 3, 4])
def test_the_csv_bytes_do_not_depend_on_the_split(tmp_path, blocks, nrows, parts):
    # The rows are cut into `parts` blocks, and nearly every row holds a value outside the formatter's class.
    blocks(len(SPECIAL) * -(-nrows // parts))
    values = _special_values(nrows)
    wide, long = tmp_path / "wide.csv", tmp_path / "long.csv"
    labels = [f"{c!r},0.5" for c in range(len(SPECIAL))]
    cli._write_csv(str(wide), labels, values)
    want = _csv_line(labels) + "".join(",".join(map(repr, row)) + "\r\n" for row in values.tolist())
    assert wide.read_bytes() == want.encode()
    # The long format, with braces in the labels: one line per value, led by the row index.
    blocks(3 * -(-nrows // parts))
    _check_long(long, values[:, :3], ["{0},{1}", "}{", "7.5"])
    _no_child_left(tmp_path)


def _check_long(path, values, labels):
    """Write ``values`` in sheet's long format through cli._write_csv and compare with a line-by-line reference."""
    fields = [_csv_line([label]).strip() for label in labels]
    cli._write_csv(str(path), ["replicate", "t", "value"], values, labels)
    want = "replicate,t,value\r\n" + "".join(f"{r},{f},{v!r}\r\n" for r, vs in enumerate(values.tolist())
                                              for f, v in zip(fields, vs))
    assert path.read_bytes() == want.encode()


def test_a_row_template_past_one_argument_limit_still_splits(tmp_path, blocks):
    # A row of 6,000 sheet points with long labels, wider than a block, is a block of its own.
    blocks(1)
    values = np.random.default_rng(5).standard_normal((5, 6000))
    labels = [f"{i / 7!r},{i / 3!r}" for i in range(6000)]
    assert len("".join(labels)) > 131_072
    _check_long(tmp_path / "wide.csv", values, labels)
    _no_child_left(tmp_path)


@pytest.mark.parametrize("command, golden", [("sample", GOLDEN_SAMPLE), ("sheet", GOLDEN_SHEET)])
def test_split_outputs_match_golden_digests_and_leave_no_helper(tmp_path, capsys, blocks, command, golden):
    blocks(7)
    for name, (payload, csv_digest, _) in golden.items():
        cfg = write_config(tmp_path, "g.json", payload)
        code, _, err = run_cli([command, "--config", cfg, *_outputs(tmp_path)], capsys)
        assert code == 0, err
        assert hashlib.sha256((tmp_path / "x.csv").read_bytes()).hexdigest() == csv_digest, name
        _no_child_left(tmp_path)


def test_sample_and_sheet_start_no_child_process_and_leave_no_temporary_file(tmp_path, capsys, blocks, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a child process was started")

    for name in ("fork", "posix_spawn", "posix_spawnp", "system"):
        monkeypatch.setattr(os, name, refuse, raising=False)
    monkeypatch.setattr(subprocess.Popen, "__init__", refuse)
    for command, make_config in (("sample", sample_config), ("sheet", sheet_config)):
        code, _, err = run_cli([command, "--config", make_config(tmp_path), *_outputs(tmp_path)], capsys)
        assert code == 0, err
    _no_child_left(tmp_path)


@pytest.mark.parametrize("command, make_config", [("sample", sample_config), ("sheet", sheet_config)])
@pytest.mark.parametrize("bad", ["csv", "json"])
def test_an_unwritable_output_is_one_error_line(tmp_path, capsys, command, make_config, bad):
    # A bad --json path fails after the CSV is written.
    paths = {"csv": str(tmp_path / "x.csv"), "json": str(tmp_path / "x.json")}
    paths[bad] = str(tmp_path / "missing" / f"x.{bad}")
    code, _, err = run_cli([command, "--config", make_config(tmp_path), "--csv", paths["csv"],
                            "--json", paths["json"]], capsys)
    assert code == 1
    assert err.startswith("error: OSError: [Errno 2] ")
    assert err.count("\n") == 1
