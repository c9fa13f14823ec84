"""Command-line interface.

Subcommands: frontier (signed frontier of an increment), kernel (evaluate
covariance or transition formulas), sample (run the Markov sampler to CSV
plus a JSON plan sidecar), sheet (sheet-integral Monte Carlo to CSV plus a
JSON moment report), verify (run a check suite).

Conventions: run configuration comes from a JSON file where a subcommand
takes one, with flags overriding file values; every JSON output embeds the
fully resolved configuration under "config" with the payload under
"results"; outputs are byte-identical across reruns of the same
invocation. Exit codes: 0 success, 1 failed checks, numerical errors or
outputs too large to allocate, 2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, SiouError
from .gaussian import SAMPLE_BLOCK_ROWS, RngSeed
from .geometry import Corner, Increment, canonicalize, frontier
from .kernel import KernelParams, cov_dirac, cov_stationary, mean_dirac, transition_params
from .measures import MeasureSpec
from .sheet import GridSpec, _check_alpha, _check_point, _check_sigma, batch_paths, equivalent_kernel_params
from .simulator import InitialLaw, plan, simulate
from .verify import run_suite, theory_dirac, theory_stationary

__all__ = ["main"]


@contextmanager
def _config_phase():
    """Reclassify errors hit while resolving user input as config errors.

    Package errors, and the ValueError/TypeError/KeyError that malformed
    JSON values or missing entries raise, all mean the input is unusable.
    """
    try:
        yield
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"missing config entry {exc}") from exc
    except (SiouError, ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _parse_corner(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"cannot parse corner {text!r}: {exc}") from exc


def _parse_union(text: str) -> list[list[float]]:
    if not text.strip():
        return []
    return [_parse_corner(part) for part in text.split(";")]


def _corner(coords, dim: int | None = None) -> Corner:
    c = Corner(_reals(coords, "corner"))
    if dim is not None and c.dim != dim:
        raise ConfigError(f"corner {c.coords} has dimension {c.dim}, expected {dim}")
    return c


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _integer(value, name: str) -> int:
    """A config integer: an int or an integral float, never a bool, so 3.9 or true is an error, not 3 or 1."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _real(value, name: str) -> float:
    """A config real number: an int or a float, never a bool or a string, so true is an error, not 1.0."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{name} must be a number, got {value!r}")


def _reals(values, name: str) -> tuple[float, ...]:
    """A config list of reals, each checked by :func:`_real`, so a string is an error, not its characters."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{name} must be a list of numbers, got {values!r}")
    return tuple(_real(v, name) for v in values)


def _initial_from(data) -> InitialLaw:
    """The initial law of a config, with its parameters checked as reals."""
    if isinstance(data, dict):
        data = {key: _real(v, key) if key in ("x0", "mu", "var") else _reals(v, key) if key == "values" else v
                for key, v in data.items()}
    return InitialLaw.from_json(data)


def _seed_from(value, override: int | None) -> RngSeed:
    if override is not None:
        return RngSeed(override)
    if value is None:
        raise ConfigError("a seed is required: set it in the config or pass --seed")
    if isinstance(value, dict):
        if unknown := sorted(set(value) - {"seed", "stream"}):
            raise ConfigError(f"unknown seed keys {unknown}; a seed object takes seed and stream")
        return RngSeed(_integer(value["seed"], "seed"), _integer(value.get("stream", 0), "stream"))
    return RngSeed(_integer(value, "seed"))


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _corner_label(coords) -> str:
    return ",".join(repr(float(c)) for c in coords)


def _rows(values: np.ndarray):
    """Rows of a 2-D array as lists of floats, converted ``SAMPLE_BLOCK_ROWS`` rows at a time to bound memory."""
    for start in range(0, len(values), SAMPLE_BLOCK_ROWS):
        yield from values[start : start + SAMPLE_BLOCK_ROWS].tolist()


def _csv_field(text: str) -> str:
    """``text`` as csv.writer writes one field, quoted if it needs to be."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow([text])
    return buf.getvalue()


def _cmd_frontier(args) -> int:
    with _config_phase():
        a = Corner(tuple(_parse_corner(args.a)))
        b = canonicalize([_corner(c, a.dim) for c in _parse_union(args.b)])
    fr = frontier(Increment(a, b))
    payload = {
        "config": {"a": a.to_json(), "b": b.to_json()},
        "results": fr.to_json(),
    }
    _write_json(args.json, payload)
    return 0


def _kernel_params_from(cfg: dict, args) -> tuple[KernelParams, int]:
    with _config_phase():
        dim = _integer(cfg["dimension"], "dimension")
        measure = MeasureSpec.from_json(cfg["measure"])
        _reals(cfg["measure"].get("alpha", []), "alpha")  # MeasureSpec reads ["1"] as (1.0,)
        kcfg = dict(cfg["kernel"])
        if getattr(args, "lam", None) is not None:
            kcfg["lambda"] = args.lam
        if getattr(args, "sigma", None) is not None:
            kcfg["sigma"] = args.sigma
        params = KernelParams(_real(kcfg["lambda"], "lambda"), _real(kcfg["sigma"], "sigma"), measure)
        measure.check_dim(dim)
    return params, dim


def _cmd_kernel(args) -> int:
    cfg = _load_json(args.config)
    params, dim = _kernel_params_from(cfg, args)
    op = cfg.get("op")
    results: list[dict]
    if op in ("cov_stationary", "cov_dirac"):
        with _config_phase():
            u, v = _corner(cfg["u"], dim), _corner(cfg["v"], dim)
        cov = cov_stationary if op == "cov_stationary" else cov_dirac
        results = [{"op": op, "u": u.to_json(), "v": v.to_json(), "value": cov(params, u, v)}]
    elif op == "mean_dirac":
        with _config_phase():
            u = _corner(cfg["u"], dim)
            x0 = _real(cfg["x0"], "x0")
        results = [{"op": op, "u": u.to_json(), "x0": x0, "value": mean_dirac(params, x0, u)}]
    elif op == "transition":
        with _config_phase():
            a = _corner(cfg["a"], dim)
            b = canonicalize([_corner(c, dim) for c in cfg.get("b", [])])
        tp = transition_params(params, Increment(a, b))
        results = [{"op": op, **tp.to_json()}]
    else:
        raise ConfigError(f"unknown kernel op {op!r}; pick cov_stationary, cov_dirac, mean_dirac or transition")
    resolved = {**cfg, "kernel": params.to_json()}
    _write_json(args.json, {"config": resolved, "results": results})
    return 0


def _cmd_sample(args) -> int:
    cfg = _load_json(args.config)
    params, dim = _kernel_params_from(cfg, args)
    with _config_phase():
        corners = [_corner(c, dim) for c in cfg.get("corners", [])]
        if not corners:
            raise ConfigError("sample config needs a nonempty corners list")
        initial = _initial_from(cfg.get("initial", {"kind": "normal", "mu": 0.0, "var": params.stationary_variance}))
        replicates = _integer(args.replicates if args.replicates is not None else cfg.get("replicates", 0),
                              "replicates")
        if replicates < 1:
            raise ConfigError(f"replicates must be >= 1, got {replicates}")
        seed = _seed_from(cfg.get("seed"), args.seed)
    pl = plan(corners)
    path = simulate(pl, params, initial, replicates, seed)
    labels = [_corner_label(c.coords) for c in path.corners]
    with open(args.csv, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(labels)
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in _rows(path.values))
    transitions = [{"index": step.index, **tp.to_json()} for step, tp in zip(pl.steps, path.transitions)]
    resolved = {
        **cfg,
        "kernel": params.to_json(),
        "initial": initial.to_json(),
        "replicates": replicates,
        "seed": seed.to_json(),
    }
    payload = {"config": resolved, "results": [{"plan": pl.to_json(), "transitions": transitions}]}
    _write_json(args.json, payload)
    return 0


def _cmd_sheet(args) -> int:
    cfg = _load_json(args.config)
    with _config_phase():
        grid = GridSpec(_reals(cfg["grid"]["lower"], "grid lower"), _reals(cfg["grid"]["upper"], "grid upper"),
                        tuple(cfg["grid"]["steps"]))
        alpha = _reals(cfg["alpha"], "alpha")
        sigma = _check_sigma(_real(cfg["sigma"], "sigma"))
        _check_alpha(alpha, grid.dim)
        points = [_corner(p, grid.dim) for p in cfg["points"]]
        if not points:
            raise ConfigError("a sheet needs at least one point")
        for p in points:
            _check_point(grid, p)
        mode = cfg.get("mode", "stationary")
        if mode not in ("stationary", "dirac"):
            raise ConfigError(f"unknown sheet mode {mode!r}; pick stationary or dirac")
        y0 = _real(cfg.get("y0", 0.0), "y0")
        replicates = _integer(args.replicates if args.replicates is not None else cfg.get("replicates", 0),
                              "replicates")
        if replicates < 2:
            raise ConfigError(f"sheet replicates must be >= 2 for the empirical covariance, got {replicates}")
        seed = _seed_from(cfg.get("seed"), args.seed)
    values = batch_paths(grid, alpha, sigma, points, replicates, seed,
                         y0=y0, stationary=(mode == "stationary"))
    eq = equivalent_kernel_params(alpha, sigma)
    theory = theory_stationary(eq, points) if mode == "stationary" else theory_dirac(eq, points, y0)
    labels = [_csv_field(_corner_label(p.coords)) for p in points]
    with open(args.csv, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["replicate", "t", "value"])
        fh.writelines(f"{r},{label},{v!r}\r\n" for r, row in enumerate(_rows(values))
                      for label, v in zip(labels, row))
    emp_mean = values.mean(axis=0)
    emp_cov = np.atleast_2d(np.cov(values, rowvar=False, ddof=1))
    resolved = {**cfg, "mode": mode, "y0": y0, "replicates": replicates, "seed": seed.to_json(),
                "grid": grid.to_json()}
    results = [{
        "points": [p.to_json() for p in points],
        "empirical_mean": [float(v) for v in emp_mean],
        "empirical_cov": [[float(v) for v in row] for row in emp_cov],
        "theory_mean": [float(v) for v in theory.mean],
        "theory_cov": [[float(v) for v in row] for row in theory.cov],
        "matched_kernel": eq.to_json(),
    }]
    _write_json(args.json, {"config": resolved, "results": results})
    return 0


def _cmd_verify(args) -> int:
    with _config_phase():
        seed = RngSeed(args.seed)
    reports = run_suite(args.suite, seed)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} {rep.name} statistic={rep.statistic:.6e} tolerance={rep.tolerance:.6e}",
              file=sys.stderr)
    all_passed = all(rep.passed for rep in reports)
    payload = {
        "config": {"suite": args.suite, "seed": seed.to_json()},
        "passed": all_passed,
        "results": [rep.to_json() for rep in reports],
    }
    _write_json(args.json, payload)
    print(f"{'OK' if all_passed else 'FAILED'}: {sum(r.passed for r in reports)}/{len(reports)} checks passed",
          file=sys.stderr)
    return 0 if all_passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="siou", description="Set-indexed OU process toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_frontier = sub.add_parser("frontier", help="signed frontier of an increment")
    p_frontier.add_argument("--a", required=True, help="increment corner, e.g. 2,2")
    p_frontier.add_argument("--b", default="", help="union corners separated by ';', e.g. 1,2;2,1")
    p_frontier.add_argument("--json", default=None, help="write the report here instead of stdout")
    p_frontier.set_defaults(func=_cmd_frontier)

    p_kernel = sub.add_parser("kernel", help="evaluate covariance/transition formulas from a JSON config")
    p_kernel.add_argument("--config", required=True)
    p_kernel.add_argument("--lambda", dest="lam", type=float, default=None, help="override kernel lambda")
    p_kernel.add_argument("--sigma", type=float, default=None, help="override kernel sigma")
    p_kernel.add_argument("--json", default=None, help="write the report here instead of stdout")
    p_kernel.set_defaults(func=_cmd_kernel)

    p_sample = sub.add_parser("sample", help="run the Markov sampler: CSV values plus JSON plan sidecar")
    p_sample.add_argument("--config", required=True)
    p_sample.add_argument("--csv", required=True, help="output CSV path (one row per replicate)")
    p_sample.add_argument("--json", required=True, help="output JSON sidecar path")
    p_sample.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sample.add_argument("--replicates", type=int, default=None, help="override the config replicate count")
    p_sample.add_argument("--lambda", dest="lam", type=float, default=None, help="override kernel lambda")
    p_sample.add_argument("--sigma", type=float, default=None, help="override kernel sigma")
    p_sample.set_defaults(func=_cmd_sample)

    p_sheet = sub.add_parser("sheet", help="sheet-integral Monte Carlo: CSV values plus JSON moment report")
    p_sheet.add_argument("--config", required=True)
    p_sheet.add_argument("--csv", required=True)
    p_sheet.add_argument("--json", required=True)
    p_sheet.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sheet.add_argument("--replicates", type=int, default=None, help="override the config replicate count")
    p_sheet.set_defaults(func=_cmd_sheet)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=["deterministic", "mc", "all"])
    p_verify.add_argument("--seed", type=int, required=True)
    p_verify.add_argument("--json", default=None, help="also write the full report here")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SiouError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy raises a private subclass for arrays it cannot allocate.
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
