"""The four benchmark workloads: inputs made from a seed, and output gates.

Each workload function writes its inputs under the run's work directory and returns
the child processes one repetition runs, in order, plus a gate that checks
the outputs the last repetition left on disk. Every seed gives the same
amount of work: the seed picks kernel parameters, random streams and
coordinates, never sizes. Why each workload exists is in README.md.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

README_FAMILY = [[0.5, 0.5], [1.0, 2.0], [2.0, 1.0], [2.0, 2.0]]

SAMPLE_REPLICATES = 200_000
ORACLE_GRID_SIDE = 12  # the k x k quarter grid; its closure adds the origin
ORACLE_REPLICATES = 20_000
# Columns of the 145-corner plan that the moment checks read. With all 145,
# each check takes the largest of about 10,700 z-scores, and the union bound
# puts its chance of passing 5 standard errors on a correct sampler near 2% per
# seed. 13 columns (about 300 z-scores over the three checks) put it near 2e-4.
ORACLE_CHECK_COLUMNS = list(range(0, ORACLE_GRID_SIDE**2 + 1, 12))
ANTICHAIN_SIZE = 18
SHEET_STEP = 0.05
SHEET_REPLICATES = 10_000


@dataclass
class Invocation:
    """One child process: its spec (job and inputs) and the files it writes."""

    name: str
    spec: dict
    outputs: list[Path]


@dataclass
class Workload:
    invocations: list[Invocation]
    # Checks the outputs on disk; returns (problems found, values delivered).
    gate: Callable[[], tuple[list[str], int]]
    inputs: dict = field(default_factory=dict)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(abs(int(seed)))


def _write(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8")
    return str(path)


def sample_csv(seed: int, work: Path) -> Workload:
    g = _rng(seed)
    lam, sigma, x0 = float(g.uniform(0.5, 1.5)), float(g.uniform(1.0, 2.0)), 0.7
    cfg = {
        "dimension": 2,
        "measure": {"kind": "lebesgue"},
        "kernel": {"lambda": lam, "sigma": sigma},
        "corners": README_FAMILY,
        "initial": {"kind": "dirac", "x0": x0},
        "replicates": SAMPLE_REPLICATES,
        "seed": int(g.integers(0, 2**31)),
    }
    config = _write(work / "sample.json", cfg)
    values_csv, plan_json = work / "values.csv", work / "plan.json"
    inv = Invocation("sample", {"job": "cli", "argv": ["sample", "--config", config, "--csv", str(values_csv),
                                                       "--json", str(plan_json)]}, [values_csv, plan_json])

    def gate() -> tuple[list[str], int]:
        from siou import Corner, KernelParams, MeasureSpec
        from siou.verify import check_mc_moments, theory_dirac

        plan = json.loads(plan_json.read_text(encoding="utf-8"))["results"][0]["plan"]
        corners = [Corner(tuple(c)) for c in plan["corners"]]
        with open(values_csv, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh))
        values = np.loadtxt(values_csv, delimiter=",", skiprows=1, ndmin=2)
        problems = []
        if len(corners) != 6:
            problems.append(f"plan has {len(corners)} corners, expected 6")
        if header != [",".join(repr(c) for c in corner.coords) for corner in corners]:
            problems.append(f"CSV header {header} does not list the plan corners")
        if values.shape != (SAMPLE_REPLICATES, len(corners)):
            problems.append(f"CSV holds {values.shape}, expected ({SAMPLE_REPLICATES}, {len(corners)})")
        else:
            params = KernelParams(lam, sigma, MeasureSpec.lebesgue())
            rep = check_mc_moments(values, theory_dirac(params, corners, x0), name="sample_csv.moments")
            if not rep.passed:
                problems.append(f"CSV moments: z = {rep.statistic:.3f} > 5 ({rep.details})")
        return problems, int(values.size)

    return Workload([inv], gate, inputs=cfg)


def antichain_frontier(antichain) -> set[tuple[tuple[float, ...], int]]:
    """Closed form of a 2D antichain's frontier: +1 per corner, -1 per meet of neighbours."""
    cs = sorted(tuple(c) for c in antichain)
    out = {(c, 1) for c in cs}
    out |= {((a[0], b[1]), -1) for a, b in zip(cs, cs[1:])}
    return out


def oracle_grid(seed: int, work: Path) -> Workload:
    g = _rng(seed)
    k = ORACLE_GRID_SIDE
    grid = [[0.25 * i, 0.25 * j] for i in range(1, k + 1) for j in range(1, k + 1)]
    grid = [grid[i] for i in g.permutation(len(grid))]
    xs = np.sort(g.choice(np.arange(1, 41), size=ANTICHAIN_SIZE, replace=False)) * 0.25
    ys = np.sort(g.choice(np.arange(1, 41), size=ANTICHAIN_SIZE, replace=False))[::-1] * 0.25
    antichain = [[float(x), float(y)] for x, y in zip(xs, ys)]
    antichain = [antichain[i] for i in g.permutation(ANTICHAIN_SIZE)]
    top = [float(xs.max() + 0.25 * g.integers(0, 4)), float(ys.max() + 0.25 * g.integers(0, 4))]
    cfg = {
        "lambda": float(g.uniform(0.5, 1.5)),
        "sigma": float(g.uniform(1.0, 2.0)),
        "x0": float(g.uniform(-1.0, 1.0)),
        "grid": grid,
        "antichain": antichain,
        "top": top,
        "replicates": ORACLE_REPLICATES,
        "seed": int(g.integers(0, 2**31)),
        "check_columns": ORACLE_CHECK_COLUMNS,
    }
    inputs = _write(work / "oracle_inputs.json", cfg)
    out = work / "oracle.json"
    inv = Invocation("oracle", {"job": "oracle_grid", "inputs": inputs, "out": str(out)}, [out])
    want_frontier = antichain_frontier(antichain)

    def gate() -> tuple[list[str], int]:
        res = json.loads(out.read_text(encoding="utf-8"))
        problems = []
        n = len(res["plan_corners"])
        if n != k * k + 1:
            problems.append(f"plan has {n} corners, expected {k * k + 1}")
        problems += [f"{r['name']}: z = {r['statistic']:.3f} > 5 ({r['details']})" for r in res["reports"] if not r["passed"]]
        if len(res["reports"]) != 3:
            problems.append(f"expected 3 moment reports, got {len(res['reports'])}")
        got = {(tuple(e["corner"]), e["sign"]) for e in res["frontier"]}
        if got != want_frontier or len(res["frontier"]) != 2 * ANTICHAIN_SIZE - 1:
            problems.append(f"antichain frontier has {len(res['frontier'])} entries and differs from the closed form "
                            f"({len(want_frontier)} entries)")
        return problems, 2 * ORACLE_REPLICATES * n

    return Workload([inv], gate, inputs=cfg)


def sheet_dirac(seed: int, work: Path) -> Workload:
    g = _rng(seed)
    cfg = {
        "grid": {"lower": [-3.5, -3.5], "upper": [2.0, 2.0], "steps": [110, 110]},
        "alpha": [1.0, 2.0],
        "sigma": 1.0,
        "points": [[0.5, 0.5], [1.0, 1.0], [2.0, 1.5]],
        "mode": "dirac",
        "y0": float(g.uniform(-1.0, 1.0)),
        "replicates": SHEET_REPLICATES,
        "seed": int(g.integers(0, 2**31)),
    }
    config = _write(work / "sheet.json", cfg)
    values_csv, moments_json = work / "sheet_values.csv", work / "moments.json"
    inv = Invocation("sheet", {"job": "cli", "argv": ["sheet", "--config", config, "--csv", str(values_csv),
                                                      "--json", str(moments_json)]}, [values_csv, moments_json])

    def gate() -> tuple[list[str], int]:
        from siou import Corner
        from siou.kernel import cov_dirac, mean_dirac
        from siou.sheet import equivalent_kernel_params

        res = json.loads(moments_json.read_text(encoding="utf-8"))["results"][0]
        points = [Corner(tuple(p)) for p in cfg["points"]]
        eq = equivalent_kernel_params(cfg["alpha"], cfg["sigma"])
        n = SHEET_REPLICATES
        problems = []
        # Acceptance criterion 8: each covariance within 5 SE plus 2 grid steps.
        for i, pi in enumerate(points):
            vii = cov_dirac(eq, pi, pi)
            mean_err = abs(res["empirical_mean"][i] - mean_dirac(eq, cfg["y0"], pi))
            if mean_err > 5.0 * math.sqrt(vii / n):
                problems.append(f"mean[{i}] off by {mean_err:.5f}, over 5 SE")
            for j, pj in enumerate(points):
                want = cov_dirac(eq, pi, pj)
                se = math.sqrt((vii * cov_dirac(eq, pj, pj) + want**2) / n)
                if abs(res["empirical_cov"][i][j] - want) > 5.0 * se + 2.0 * SHEET_STEP:
                    problems.append(f"cov[{i},{j}] = {res['empirical_cov'][i][j]:.5f}, want {want:.5f}")
        with open(values_csv, encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != n * len(points):
            problems.append(f"CSV has {rows} value rows, expected {n * len(points)}")
        return problems, rows

    return Workload([inv], gate, inputs=cfg)


def verify_suites(seed: int, work: Path) -> Workload:
    suite_seed = int(_rng(seed).integers(0, 2**31))
    invs = []
    for suite in ("deterministic", "mc"):
        report = work / f"verify_{suite}.json"
        argv = ["verify", "--suite", suite, "--seed", str(suite_seed), "--json", str(report)]
        invs.append(Invocation(suite, {"job": "cli", "argv": argv}, [report]))

    def gate() -> tuple[list[str], int]:
        problems, checks = [], 0
        for inv in invs:
            payload = json.loads(inv.outputs[0].read_text(encoding="utf-8"))
            checks += len(payload["results"])
            failed = [r["name"] for r in payload["results"] if not r["passed"]]
            if failed or not payload["passed"] or not payload["results"]:
                problems.append(f"{inv.name} suite: failed checks {failed}")
        return problems, checks

    return Workload(invs, gate, inputs={"seed": suite_seed})


WORKLOADS = {
    "sample_csv": sample_csv,
    "oracle_grid": oracle_grid,
    "sheet_dirac": sheet_dirac,
    "verify_suites": verify_suites,
}
