"""Command-line interface: outputs, overrides, exit codes, reproducibility."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from siou.cli import main
from siou.gaussian import RngSeed
from siou import sheet
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
GOLDEN_VERIFY_DETERMINISTIC = "592c959b738600876c4f9b2f495b484d3b8dfbaa54ccb6fbf3775b8ec90e4aad"


def test_verify_report_matches_golden_digest(tmp_path, capsys):
    json_path = tmp_path / "v.json"
    code, _, _ = run_cli(["verify", "--suite", "deterministic", "--seed", "7", "--json", str(json_path)], capsys)
    assert code == 0
    assert hashlib.sha256(json_path.read_bytes()).hexdigest() == GOLDEN_VERIFY_DETERMINISTIC


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
    ("sample", sample_config, {"seed": {"stream": 3}}, "missing config entry 'seed'"),
    ("sheet", sheet_config, {"seed": True}, "seed must be an integer, got True"),
    ("sample", sample_config, {"dimension": 2.5}, "dimension must be an integer, got 2.5"),
], ids=["fractional_replicates", "fractional_sheet_replicates", "fractional_steps", "boolean_steps",
        "fractional_seed", "fractional_stream", "stream_without_seed", "boolean_seed", "fractional_dimension"])
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


def test_integral_float_config_values_give_the_integer_bytes(tmp_path, capsys):
    outs = []
    for tag, extra in (("int", {}), ("float", {"replicates": 50.0, "seed": {"seed": 11.0, "stream": 0.0}})):
        csv_path, json_path = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
        code, _, _ = run_cli(["sample", "--config", sample_config(tmp_path, **extra), "--csv", str(csv_path),
                              "--json", str(json_path)], capsys)
        assert code == 0
        outs.append(csv_path.read_bytes() + json_path.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command, make_config", [("sample", sample_config), ("sheet", sheet_config)])
def test_unallocatable_output_is_one_error_line(tmp_path, capsys, command, make_config):
    # 10^14 replicates ask for petabytes: numpy refuses before anything is drawn.
    cfg = make_config(tmp_path, replicates=10**14)
    code, _, err = run_cli([command, "--config", cfg, *_outputs(tmp_path)], capsys)
    assert code == 1
    assert err.startswith("error: MemoryError: ")
    assert err.count("\n") == 1


def test_sample_bytes_do_not_depend_on_blas_threads(tmp_path, capsys):
    # The top corner of a 12-corner antichain sums 23 weighted parent columns;
    # 4,096 + 811 replicates give a full block and a partial one. The sampler
    # makes no BLAS call, so the bytes must not move with the thread count.
    m = 12
    corners = [[0.25 * i, 0.25 * (m + 1 - i)] for i in range(1, m + 1)] + [[0.25 * (m + 1)] * 2]
    cfg = sample_config(tmp_path, corners=corners, replicates=4096 + 811)
    here, alone = tmp_path / "here.csv", tmp_path / "alone.csv"
    code, _, _ = run_cli(["sample", "--config", cfg, "--csv", str(here), "--json", str(tmp_path / "here.json")], capsys)
    assert code == 0
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "siou", "sample", "--config", cfg, "--csv", str(alone),
         "--json", str(tmp_path / "alone.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    assert here.read_bytes() == alone.read_bytes()


def test_sheet_bytes_do_not_depend_on_blas_threads(tmp_path, capsys):
    # Four 3-D points split the support into seven regions; three whole row
    # blocks and a short one of 17 rows go through the einsum product.
    cfg = write_config(tmp_path, "sh3.json", {
        "grid": {"lower": [-2.0, -2.0, -2.0], "upper": [1.0, 1.0, 1.0], "steps": [9, 9, 9]},
        "alpha": [1.0, 0.5, 2.0],
        "sigma": 0.9,
        "points": [[0.5, 1.0, 0.25], [1.0, 0.5, 0.5], [0.25, 0.25, 1.0], [1.0, 1.0, 1.0]],
        "mode": "stationary",
        "replicates": 3 * sheet._BLOCK_ROWS + 17,
        "seed": {"seed": 41, "stream": 2},
    })
    code, _, _ = run_cli(["sheet", "--config", cfg, "--csv", str(tmp_path / "here.csv"),
                          "--json", str(tmp_path / "here.json")], capsys)
    assert code == 0
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "siou", "sheet", "--config", cfg, "--csv", str(tmp_path / "alone.csv"),
         "--json", str(tmp_path / "alone.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    for ext in ("csv", "json"):
        assert (tmp_path / f"here.{ext}").read_bytes() == (tmp_path / f"alone.{ext}").read_bytes()


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
        "cb02c62f43f44e6893f436d389b833e8a6231821c931dd8aef56bf9533326593",
        "5541cc80b0a7ade8a2fc5de706e058a638ab586f3c4b26fb3284aaec7c722541",
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
        "15bbb9a42c1e75baa3b4d06e32dbce6ba818f9a298a9bcb0dc9f0a2a33197e06",
        "e1309c1cc5c972bbfb9a7bebe82ca057e4211fef6e87371864f7b33a730f0e31",
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
        "7b8469c2bfd0c843459f225f07dfd54a3aa9941e9a4cba54e711776a150789a2",
        "b65ce791541dab04cbda37ffbff137f67a4f35246b3f3fa53d8128b68b110961",
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
        "d9d7ab1ef07a2dd60560622e1c87a38795eab3cdbf3c098895bb9254f5d6f10e",
        "55cdfc2dad26168cf90e5ed4a42fe9811acf646b10cb357cf2e139a47211e964",
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
        "b12d77068ceecf25d96431caf6dfc8b14aeb12c5d48a6dd06a0afc5616555690",
        "84131408782c778a567190139b4e8736d8b46a2733c1e4e5623b54789b4a9239",
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
