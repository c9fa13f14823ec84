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


def test_frontier_net_beyond_one_is_numerical_error(capsys):
    code, _, err = run_cli(
        ["frontier", "--a", "2,2,2", "--b", "2,1,1;1,2,1;1,1,2"], capsys)
    assert code == 1
    assert "error" in err


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
    sidecar = json.loads(open(json_path).read())
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
    assert open(a_csv).read() == open(b_csv).read()
    with open(a_csv, newline="") as fh:
        assert len(list(csv.reader(fh))) == 8
    assert json.loads(open(a_json).read())["config"]["seed"]["seed"] == 99


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
    report = json.loads(open(json_path).read())["results"][0]
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
    report = json.loads(open(json_path).read())
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
GOLDEN_VERIFY_DETERMINISTIC = "e41adc6921ac4e8a93bc3c00500f2242a1c529ffc4edae77c68fe970ba1cb10b"


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


@pytest.mark.parametrize("command, make_config", [("sample", sample_config), ("sheet", sheet_config)])
def test_unallocatable_output_is_one_error_line(tmp_path, capsys, command, make_config):
    # 10^14 replicates ask for petabytes: numpy refuses before anything is drawn.
    cfg = make_config(tmp_path, replicates=10**14)
    code, _, err = run_cli([command, "--config", cfg, *_outputs(tmp_path)], capsys)
    assert code == 1
    assert err.startswith("error: MemoryError: ")
    assert err.count("\n") == 1


def test_sample_bytes_do_not_depend_on_blas_threads(tmp_path, capsys):
    # The top corner of a 12-corner antichain has 23 parents; 4,096 + 811
    # replicates give a full block, a partial one and 11 tail rows.
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


def test_reruns_are_byte_identical(tmp_path, capsys):
    cfg = sample_config(tmp_path)
    outs = []
    for tag in ("r1", "r2"):
        csv_path = str(tmp_path / f"{tag}.csv")
        json_path = str(tmp_path / f"{tag}.json")
        code, _, _ = run_cli(["sample", "--config", cfg, "--csv", csv_path, "--json", json_path], capsys)
        assert code == 0
        outs.append(open(csv_path, "rb").read() + open(json_path, "rb").read())
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
        "689ed5188e08d16e52480edc9848db470fdd42062b09447c38a1d79f957767aa",
        "601ea33dbb39e4546aaeccd0de5c4d3caf39c4c7ff503a9501ac82afc5bcb654",
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
        "60eade9b8454e1744a94892da4dbbb4aafd238dac35f729737a9ff3cd0bf456e",
        "7c502eba1ded884beefa9ee2667591356f2bad53d801366c40b6bad4aee51aa4",
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
        "cd697eb1f64c6b668d91e27888d17f29d9317eec8128c4d59f32700c3406a2b6",
        "6e2e87af561c47e2042afd482d0ff90cd1e8ba645a3cf236f35322ea27b7b62e",
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
        "63e41319c32434ff306c376133ec36da69913a3422751fb5d3ff88ebb9dd8e88",
        "edb276863634b977ab8280e9c5115d9d445e2ac729445489736694cf53a353f0",
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
        "6dcb2abf248c823810ad349b593d19427761f89f1deef43f0d2708d87d0e9b74",
        "a7d9974cee7e9e1657416ddb9bf2d78e960ed88221c9422ad4838e05e81e7d8c",
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
