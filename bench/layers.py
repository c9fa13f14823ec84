"""Per-layer metrics of a traced run, and the observers that feed them.

Each metric is computed from the spans and call counts the tracer records
at siou's public function boundaries. Names ending ``_self_s`` are self
time (span duration minus the time its child spans cover); other ``_s``
names are the total duration of the outermost calls. The counts marked
"computed" in :data:`COMPUTED` are worked out by the benchmark from the
arguments a call received (or the files a run wrote), never read from
inside the program.
"""

from __future__ import annotations

import math
import os

import numpy as np

from tracer import SpanIndex

VERIFY_CHECKS = (
    "check_psd", "check_kernel_schur", "check_markov_orthogonality", "check_continuity",
    "check_stationarity", "check_flow_projection", "check_ou_reduction", "check_mc_moments",
    "check_mc_agreement",
)

# (name, unit, better); the order BENCHMARK.json lists them in.
METRICS = (
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("simulator.plan_s", "s", "lower"),
    ("simulator.plan_corners", "count", "lower"),
    ("simulator.simulate_self_s", "s", "lower"),
    ("simulator.normals", "count", "lower"),
    ("simulator.simulate_exact_self_s", "s", "lower"),
    ("geometry.min_closure_s", "s", "lower"),
    ("geometry.canonicalize_s", "s", "lower"),
    ("geometry.canonicalize_calls", "count", "lower"),
    ("geometry.frontier_s", "s", "lower"),
    ("geometry.frontier_calls", "count", "lower"),
    ("geometry.frontier_entries", "count", "lower"),
    ("geometry.frontier_terms", "count", "lower"),
    ("kernel.transition_params_s", "s", "lower"),
    ("kernel.transition_params_calls", "count", "lower"),
    ("kernel.cov_calls", "count", "lower"),
    ("measures.rect_calls", "count", "lower"),
    ("measures.symdiff_calls", "count", "lower"),
    ("gaussian.factorize_s", "s", "lower"),
    ("gaussian.factorize_calls", "count", "lower"),
    ("gaussian.jitter_calls", "count", "lower"),
    ("gaussian.rank_deficient_calls", "count", "lower"),
    ("gaussian.sample_self_s", "s", "lower"),
    ("gaussian.conditional_s", "s", "lower"),
    ("gaussian.conditional_calls", "count", "lower"),
    ("sheet.batch_paths_s", "s", "lower"),
    ("sheet.normals", "count", "lower"),
    ("sheet.matmul_flops", "flop", "lower"),
    ("sheet.normals_per_s", "1/s", "higher"),
    ("sheet.useful_cell_ratio", "ratio", "higher"),
    ("verify.run_suite_s", "s", "lower"),
    ("verify.checks", "count", "higher"),
    ("verify.checks_failed", "count", "lower"),
    *((f"verify.{check}_self_s", "s", "lower") for check in VERIFY_CHECKS),
    ("verify.theory_s", "s", "lower"),
    ("verify.pool_busy_ratio", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
)

UNITS = {name: unit for name, unit, _ in METRICS}

# Counts the benchmark works out from call arguments or output files.
COMPUTED = frozenset({
    "simulator.normals", "geometry.frontier_terms", "sheet.normals", "sheet.matmul_flops",
    "sheet.useful_cell_ratio", "cli.output_bytes",
})


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _observe_plan(args, kwargs, result):
    return {"corners": len(result.corners)}


def _observe_simulate(args, kwargs, result):
    pl = _arg(args, kwargs, 0, "pl")
    initial = _arg(args, kwargs, 2, "initial")
    replicates = int(_arg(args, kwargs, 3, "replicates"))
    # One standard normal per replicate for each step, plus the origin draw of a
    # nondegenerate normal initial law.
    origin = replicates if initial.kind == "normal" and initial.params[1] > 0.0 else 0
    return {"normals": replicates * len(pl.steps) + origin}


def _observe_frontier(args, kwargs, result):
    k = len(_arg(args, kwargs, 0, "inc").b.corners)
    return {"entries": len(result), "terms": (1 << k) - 1}


def _observe_factorize(args, kwargs, result):
    low, jitter = result
    return {"jitter": int(jitter > 0.0), "rank_deficient": int(bool(low.size) and bool(np.any(np.diag(low) == 0.0)))}


def useful_cells(lower, upper, steps, points, stationary: bool) -> int:
    """Grid cells that carry weight for at least one point.

    A cell carries weight when its center u satisfies u <= t for some point
    t, and, for the point-started mode, u is not in the closed negative
    orthant.
    """
    widths = [(up - lo) / s for lo, up, s in zip(lower, upper, steps)]
    axes = [lo + (np.arange(s) + 0.5) * w for lo, s, w in zip(lower, steps, widths)]
    centers = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    used = np.zeros(len(centers), dtype=bool)
    for t in points:
        used |= np.all(centers <= np.asarray(t, dtype=float), axis=1)
    if not stationary:
        used &= ~np.all(centers <= 0.0, axis=1)
    return int(used.sum())


def _observe_batch_paths(args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    points = [getattr(p, "coords", p) for p in _arg(args, kwargs, 3, "points")]
    replicates = int(_arg(args, kwargs, 4, "replicates"))
    stationary = bool(_arg(args, kwargs, 7, "stationary", False))
    ncells = math.prod(spec.steps)
    used = useful_cells(spec.lower, spec.upper, spec.steps, points, stationary)
    return {"normals": replicates * ncells, "flops": 2 * replicates * ncells * len(points),
            "useful": replicates * used}


def _resolved_threads(threads) -> int:
    """Worker count ``verify.run_suite`` uses: the argument, else SIOU_THREADS, else the CPU count."""
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("SIOU_THREADS")
    return max(1, int(env)) if env else (os.cpu_count() or 1)


def _observe_run_suite(args, kwargs, result):
    return {"checks": len(result), "failed": sum(not r.passed for r in result),
            "threads": _resolved_threads(_arg(args, kwargs, 2, "threads"))}


OBSERVERS = {
    "simulator.plan": _observe_plan,
    "simulator.simulate": _observe_simulate,
    "geometry.frontier": _observe_frontier,
    "gaussian.factorize": _observe_factorize,
    "sheet.batch_paths": _observe_batch_paths,
    "verify.run_suite": _observe_run_suite,
}


def raw_totals(index: SpanIndex, counts: dict[str, int]) -> dict[str, float]:
    """Additive sums of one traced process; several processes' sums add up."""
    raw = {
        "cli.self_s": index.self_s("cli.main"),
        "simulator.plan_s": index.total_s("simulator.plan"),
        "simulator.plan_corners": index.attr_sum("simulator.plan", "corners"),
        "simulator.simulate_self_s": index.self_s("simulator.simulate"),
        "simulator.normals": index.attr_sum("simulator.simulate", "normals"),
        "simulator.simulate_exact_self_s": index.self_s("simulator.simulate_exact"),
        "geometry.min_closure_s": index.total_s("geometry.min_closure"),
        "geometry.canonicalize_s": index.total_s("geometry.canonicalize"),
        "geometry.canonicalize_calls": index.calls("geometry.canonicalize"),
        "geometry.frontier_s": index.total_s("geometry.frontier"),
        "geometry.frontier_calls": index.calls("geometry.frontier"),
        "geometry.frontier_entries": index.attr_sum("geometry.frontier", "entries"),
        "geometry.frontier_terms": index.attr_sum("geometry.frontier", "terms"),
        "kernel.transition_params_s": index.total_s("kernel.transition_params"),
        "kernel.transition_params_calls": index.calls("kernel.transition_params"),
        "kernel.cov_calls": sum(counts.get(f"kernel.{f}", 0) for f in ("cov_stationary", "cov_dirac", "mean_dirac")),
        "measures.rect_calls": counts.get("measures.measure_rect", 0),
        "measures.symdiff_calls": counts.get("measures.measure_symdiff", 0),
        "gaussian.factorize_s": index.total_s("gaussian.factorize"),
        "gaussian.factorize_calls": index.calls("gaussian.factorize"),
        "gaussian.jitter_calls": index.attr_sum("gaussian.factorize", "jitter"),
        "gaussian.rank_deficient_calls": index.attr_sum("gaussian.factorize", "rank_deficient"),
        "gaussian.sample_self_s": index.self_s("gaussian.sample"),
        "gaussian.conditional_s": index.total_s("gaussian.conditional"),
        "gaussian.conditional_calls": index.calls("gaussian.conditional"),
        "sheet.batch_paths_s": index.total_s("sheet.batch_paths"),
        "sheet.normals": index.attr_sum("sheet.batch_paths", "normals"),
        "sheet.matmul_flops": index.attr_sum("sheet.batch_paths", "flops"),
        "sheet.useful_normals": index.attr_sum("sheet.batch_paths", "useful"),
        "verify.run_suite_s": index.total_s("verify.run_suite"),
        "verify.checks": index.attr_sum("verify.run_suite", "checks"),
        "verify.checks_failed": index.attr_sum("verify.run_suite", "failed"),
        "verify.theory_s": index.total_s("verify.theory_dirac") + index.total_s("verify.theory_stationary"),
        "verify.pool_busy_s": 0.0,
        "verify.pool_capacity_s": 0.0,
    }
    for check in VERIFY_CHECKS:
        raw[f"verify.{check}_self_s"] = index.self_s(f"verify.{check}")
    for run in index.named("verify.run_suite"):
        raw["verify.pool_busy_s"] += sum(k.duration for k in index.children.get(run.sid, []))
        raw["verify.pool_capacity_s"] += (run.attrs or {}).get("threads", 1) * run.duration
    return raw


def add_raw(a: dict[str, float], b: dict[str, float]) -> dict[str, float]:
    return {k: a.get(k, 0) + b.get(k, 0) for k in a.keys() | b.keys()}


def finish(raw: dict[str, float], output_bytes: int, overhead_s: float) -> dict[str, float]:
    """Turn summed raw totals into the reported per-layer metrics."""
    out = {name: raw.get(name, 0) for name, _, _ in METRICS}
    out["cli.output_bytes"] = output_bytes
    out["sheet.normals_per_s"] = raw["sheet.normals"] / raw["sheet.batch_paths_s"] if raw["sheet.batch_paths_s"] else 0.0
    out["sheet.useful_cell_ratio"] = raw["sheet.useful_normals"] / raw["sheet.normals"] if raw["sheet.normals"] else 0.0
    cap = raw["verify.pool_capacity_s"]
    out["verify.pool_busy_ratio"] = raw["verify.pool_busy_s"] / cap if cap else 0.0
    out["trace.overhead_s"] = overhead_s
    return out
