"""Command-line interface.

Subcommands: frontier (signed frontier of an increment), kernel (evaluate
covariance or transition formulas), sample (run the Markov sampler to CSV
plus a JSON plan sidecar), sheet (sheet-integral Monte Carlo to CSV plus a
JSON moment report), verify (run a check suite).

Conventions: run configuration comes from a JSON file where a subcommand
takes one, with flags laid over the file's values; one table per subcommand
(``_TABLES``) gives each key's kind and default, and :func:`_walk` checks a
config against it. Commands build from the walked values, every default
filled, and echo them as the JSON output's "config" beside its "results",
so a config block runs again as given; reruns are byte-identical. Exit
codes: 0 success, 1 failed checks, numerical errors, outputs too large
to allocate or outputs that cannot be written, 2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from . import _csvformat
from .errors import ConfigError, SiouError
from .gaussian import RngSeed
from .geometry import Corner, Increment, canonicalize, frontier
from .kernel import KernelParams, cov_dirac, cov_stationary, mean_dirac, transition_params
from .measures import MeasureSpec
from .sheet import GridSpec, _cell_count, _check_alpha, _check_point, _check_sigma, batch_paths, equivalent_kernel_params
from .simulator import InitialLaw, plan, simulate
from .verify import run_suite, theory_dirac, theory_stationary

__all__ = ["main"]


@contextmanager
def _config_phase():
    """Reclassify the errors library code raises on config values, in the walk or after it, as config errors."""
    try:
        yield
    except (SiouError, ValueError) as exc:  # RngSeed raises ValueError for an out-of-range seed
        raise ConfigError(str(exc)) from exc


def _parse_corner(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse corner {text!r}: {exc}") from exc


def _parse_union(text: str) -> list[list[float]]:
    if not text.strip():
        return []
    return [_parse_corner(part) for part in text.split(";")]


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # a JSONDecodeError, or an integer past Python's digit limit
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _names(words, conjunction: str) -> str:
    return f"{', '.join(words[:-1])} {conjunction} {words[-1]}" if len(words) > 1 else words[0]


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
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{name} must fit in a float, got an integer of {value.bit_length()} bits") from None
    raise ConfigError(f"{name} must be a number, got {value!r}")


def _list_of(kind, of: str = "numbers", item: str | None = None):
    """The kind of a config list whose entries have ``kind``, named ``item`` (default: the list's name) in messages."""
    def check(values, name: str) -> tuple:
        if not isinstance(values, list):
            raise ConfigError(f"{name} must be a list of {of}, got {values!r}")
        return tuple(kind(v, item or name) for v in values)
    return check


_reals = _list_of(_real)
_corner = _list_of(_real, item="corner")
_corners = _list_of(_corner, "corners", "corner")


def _start(value, name: str) -> float:
    """A start value ``x0`` or ``y0``: a real that is not NaN or infinite."""
    x = _real(value, name)
    if not np.isfinite(x):
        raise ConfigError(f"{name} must be finite, got {x!r}")
    return x


def _one_of(*choices: str):
    """The kind of an enum: one of the strings ``choices``."""
    def check(value, name: str) -> str:
        if not isinstance(value, str) or value not in choices:
            raise ConfigError(f"unknown {name} {value!r}; pick {_names(choices, 'or')}")
        return value
    return check


def _seed(value, name: str) -> dict:
    """A seed: an integer, or an object with an integer ``seed`` and ``stream``."""
    if isinstance(value, dict):
        return _walk(value, _SEED, name, f"{name}.")
    return {"seed": _integer(value, name), "stream": 0}


class _Field(NamedTuple):
    """A key of a config table: a kind function ``(value, name)``, a nested table, or a dict of tag cases."""

    key: str
    kind: object
    default: object = ...  # ... marks a required key
    label: str | None = None  # the value's name in messages, if not the key


def _walk(obj, table: tuple, where: str, path: str = "") -> dict:
    """The values of config object ``obj`` checked against ``table`` in table order, up to the first error.

    A tag is read first, since its case adds fields to the table. A key
    outside the table is an error, so a misspelt key is not a silent
    default. A missing key takes its default, unchecked, or is named by
    its dotted path from the config's top (``path`` is the object's).
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {obj!r}")
    fields = list(table)
    for f in table:
        if isinstance(f.kind, dict):
            tag = _one_of(*f.kind)(obj.get(f.key), f.label or f.key)
            fields, where = fields + list(f.kind[tag]), f"{tag} {where}"
    keys = [f.key for f in fields]
    if unknown := sorted(set(obj) - set(keys)):
        raise ConfigError(f"unknown {where} keys {unknown}; a {where} object takes {_names(keys, 'and')}")
    out = {}
    for f in fields:
        if f.key not in obj:
            if f.default is ...:
                raise ConfigError(f"missing config entry {path + f.key!r}")
            out[f.key] = f.default
        elif isinstance(f.kind, dict):  # a tag, read above
            out[f.key] = obj[f.key]
        elif isinstance(f.kind, tuple):
            out[f.key] = _walk(obj[f.key], f.kind, f.label or f.key, f"{path}{f.key}.")
        else:
            out[f.key] = f.kind(obj[f.key], f.label or f.key)
    return out


_SEED = (_Field("seed", _integer), _Field("stream", _integer, 0))
_MEASURE = (_Field("kind", {"lebesgue": (), "axis": (_Field("alpha", _reals),)}, label="measure kind"),)
_MODEL = (_Field("dimension", _integer), _Field("measure", _MEASURE),
          _Field("kernel", (_Field("lambda", _real), _Field("sigma", _real))))
_INITIAL = (_Field("kind", {"dirac": (_Field("x0", _real),), "normal": (_Field("mu", _real), _Field("var", _real)),
                            "empirical": (_Field("values", _reals),)}, label="initial law kind"),)
_GRID = (_Field("lower", _list_of(_real, item="grid lower")), _Field("upper", _list_of(_real, item="grid upper")),
         _Field("steps", _list_of(lambda v, name: _cell_count(v), "integers")))
_TABLES = {
    "kernel": _MODEL + (_Field("op", {
        "cov_stationary": (_Field("u", _corner), _Field("v", _corner)),
        "cov_dirac": (_Field("u", _corner), _Field("v", _corner)),
        "mean_dirac": (_Field("u", _corner), _Field("x0", _start)),
        "transition": (_Field("a", _corner), _Field("b", _corners, ())),
    }, label="kernel op"),),
    "sample": _MODEL + (_Field("corners", _corners), _Field("initial", _INITIAL, None, "initial law"),
                        _Field("replicates", _integer), _Field("seed", _seed)),
    "sheet": (_Field("grid", _GRID), _Field("alpha", _reals), _Field("sigma", _real), _Field("points", _corners),
              _Field("mode", _one_of("stationary", "dirac"), "stationary", "sheet mode"), _Field("y0", _start, 0.0),
              _Field("replicates", _integer), _Field("seed", _seed)),
}


def _config(args, command: str) -> dict:
    """The values walked from the config file of ``args`` with each flag given laid over its key.

    A flag replaces the file's value, which is not read. The walked values,
    every default filled, are also the output's "config": they run as given.
    """
    cfg = _load_json(args.config)
    if isinstance(cfg, dict):
        cfg = {**cfg, **{key: getattr(args, key) for key in ("seed", "replicates") if getattr(args, key) is not None}}
        if isinstance(cfg.get("kernel"), dict):
            flags = {"lambda": args.lam, "sigma": args.sigma}
            cfg["kernel"] = {**cfg["kernel"], **{key: value for key, value in flags.items() if value is not None}}
    with _config_phase():
        return _walk(cfg, _TABLES[command], f"{command} config")


def _corner_in(coords, dim: int) -> Corner:
    c = Corner(coords)
    if c.dim != dim:
        raise ConfigError(f"corner {c.coords} has dimension {c.dim}, expected {dim}")
    return c


def _kernel_params(vals: dict) -> KernelParams:
    params = KernelParams(vals["kernel"]["lambda"], vals["kernel"]["sigma"], MeasureSpec(**vals["measure"]))
    params.measure.check_dim(vals["dimension"])
    return params


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _corner_label(coords) -> str:
    return ",".join(repr(float(c)) for c in coords)


def _csv_field(text: str) -> str:
    """``text`` as csv.writer writes one field, quoted if it needs to be."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow([text])
    return buf.getvalue()


def _write_csv(path: str, header: list[str], values: np.ndarray, labels: list[str] | None = None) -> None:
    """Write the ``header`` fields and the rows of 2-D ``values``: one line per row, or with ``labels``, one per value.

    A value line holds its row index, its column's label and the value; see ``_csvformat.write_csv``.
    """
    with open(path, "wb") as fh:
        fh.write((",".join(map(_csv_field, header)) + "\r\n").encode("utf-8"))
        _csvformat.write_csv(fh, values, None if labels is None else [_csv_field(label) for label in labels])


def _cmd_frontier(args) -> int:
    vals = _walk({"a": _parse_corner(args.a), "b": _parse_union(args.b)},
                 (_Field("a", _corner), _Field("b", _corners)), "frontier")
    with _config_phase():
        a = Corner(vals["a"])
        b = canonicalize([_corner_in(row, a.dim) for row in vals["b"]])
    fr = frontier(Increment(a, b))
    payload = {
        "config": {"a": a.to_json(), "b": b.to_json()},
        "results": fr.to_json(),
    }
    _write_json(args.json, payload)
    return 0


def _cmd_kernel(args) -> int:
    vals = _config(args, "kernel")
    op, dim = vals["op"], vals["dimension"]
    with _config_phase():
        params = _kernel_params(vals)
        u, v, a = (_corner_in(vals[key], dim) if key in vals else None for key in ("u", "v", "a"))
        b = canonicalize([_corner_in(row, dim) for row in vals.get("b", ())])
    if op in ("cov_stationary", "cov_dirac"):
        cov = cov_stationary if op == "cov_stationary" else cov_dirac
        results = [{"op": op, "u": u.to_json(), "v": v.to_json(), "value": cov(params, u, v)}]
    elif op == "mean_dirac":
        results = [{"op": op, "u": u.to_json(), "x0": vals["x0"], "value": mean_dirac(params, vals["x0"], u)}]
    else:
        tp = transition_params(params, Increment(a, b))
        results = [{"op": op, **tp.to_json()}]
    _write_json(args.json, {"config": vals, "results": results})
    return 0


def _cmd_sample(args) -> int:
    vals = _config(args, "sample")
    with _config_phase():
        params = _kernel_params(vals)
        corners = [_corner_in(row, vals["dimension"]) for row in vals["corners"]]
        if vals["initial"] is None:
            vals["initial"] = {"kind": "normal", "mu": 0.0, "var": params.stationary_variance}
        law = dict(vals["initial"])
        initial = getattr(InitialLaw, law.pop("kind"))(**law)
        seed = RngSeed(**vals["seed"])
    if not corners:
        raise ConfigError("sample config needs a nonempty corners list")
    pl = plan(corners)
    path = simulate(pl, params, initial, vals["replicates"], seed)
    labels = [_corner_label(c.coords) for c in path.corners]
    _write_csv(args.csv, labels, path.values)
    transitions = [{"index": step.index, **tp.to_json()} for step, tp in zip(pl.steps, path.transitions)]
    payload = {"config": vals, "results": [{"plan": pl.to_json(), "transitions": transitions}]}
    _write_json(args.json, payload)
    return 0


def _cmd_sheet(args) -> int:
    vals = _config(args, "sheet")
    alpha, mode, y0, replicates = vals["alpha"], vals["mode"], vals["y0"], vals["replicates"]
    with _config_phase():
        grid = GridSpec(**vals["grid"])
        sigma = _check_sigma(vals["sigma"])
        _check_alpha(alpha, grid.dim)
        points = [_corner_in(row, grid.dim) for row in vals["points"]]
        for p in points:
            _check_point(grid, p)
        seed = RngSeed(**vals["seed"])
        eq = equivalent_kernel_params(alpha, sigma)
    if replicates < 2:
        raise ConfigError(f"sheet replicates must be >= 2 for the empirical covariance, got {replicates}")
    values = batch_paths(grid, alpha, sigma, points, replicates, seed,
                         y0=y0, stationary=(mode == "stationary"))
    theory = theory_stationary(eq, points) if mode == "stationary" else theory_dirac(eq, points, y0)
    _write_csv(args.csv, ["replicate", "t", "value"], values, [_corner_label(p.coords) for p in points])
    emp_mean = values.mean(axis=0)
    emp_cov = np.atleast_2d(np.cov(values, rowvar=False, ddof=1))
    results = [{
        "points": [p.to_json() for p in points],
        "empirical_mean": [float(v) for v in emp_mean],
        "empirical_cov": [[float(v) for v in row] for row in emp_cov],
        "theory_mean": [float(v) for v in theory.mean],
        "theory_cov": [[float(v) for v in row] for row in theory.cov],
        "matched_kernel": eq.to_json(),
    }]
    _write_json(args.json, {"config": vals, "results": results})
    return 0


def _cmd_verify(args) -> int:
    with _config_phase():
        seed = RngSeed(args.seed)
    reports = run_suite(args.suite, seed)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} {rep.name} statistic={rep.statistic:.6e} tolerance={rep.tolerance:.6e} "
              f"seconds={rep.seconds:.4f}", file=sys.stderr)
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
    parser.set_defaults(lam=None, sigma=None, seed=None, replicates=None)
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
    except (MemoryError, OSError) as exc:
        # numpy raises a private subclass for arrays it cannot allocate; an OSError is an output not written.
        print(f"error: {'OSError' if isinstance(exc, OSError) else 'MemoryError'}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
