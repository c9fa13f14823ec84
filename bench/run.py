"""siou benchmark: run one workload, check its outputs, print its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload sample_csv --seed 1 --seconds 20 --trace 0

Each repetition runs the workload in fresh child processes (bench/child.py)
one at a time, with SIOU_THREADS and the BLAS thread variables pinned to
the CPUs this process may use. Repetitions continue until the next one
would end after ``--seconds`` (at least three with ``--trace 0``, two with
``--trace 1``). Afterwards the outputs on disk are checked, and every
repetition must have written byte-identical files.

``--trace 0`` prints the end-to-end metrics: pseudo-medians (timings) and
medians (memory) over repetitions.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones (medians), plus the tracing overhead.
The last line of standard output is one JSON object; the lines before it
say the same for people, with the environment and the output digests.
Everything is written under .bench_work/ in the repository root. README.md
documents the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# A child this slow is a hung program; with the latest repetition start below, a
# run ends inside three minutes even then.
CHILD_TIMEOUT_S = 50.0
LAST_START_S = 60.0

# (name, unit, better) of the end-to-end metrics, as BENCHMARK.json lists them.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("values_per_s", "1/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


@dataclass
class Process:
    wall: float
    setup: float | None
    cpu: float
    rss_mb: float
    code: int
    env: dict | None


@dataclass
class Rep:
    traced: bool
    procs: list[Process] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    traces: list[Path] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(p.wall for p in self.procs)

    @property
    def ran_clean(self) -> bool:
        return all(p.code == 0 and p.setup is not None for p in self.procs)


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for var in ("SIOU_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(spec_path: Path, ready: Path, work: Path, env: dict) -> Process:
    """Run one child to completion and take its times and resources from wait4."""
    ready.unlink(missing_ok=True)
    log = work / spec_path.name.replace(".spec.json", ".log")
    with open(log, "wb") as out:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(spec_path)],
                                stdout=out, stderr=subprocess.STDOUT, cwd=work, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    setup, env_seen = None, None
    if ready.is_file():
        record = json.loads(ready.read_text(encoding="utf-8"))
        setup, env_seen = record["ready"] - t0, record["env"]
    return Process(t1 - t0, setup, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                   proc.returncode, env_seen)


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_specs(wl, work: Path) -> dict:
    """Spec files per (invocation, traced); child processes read them."""
    specs = {}
    for inv in wl.invocations:
        for traced in (False, True):
            tag = f"{inv.name}{'.traced' if traced else ''}"
            spec = {**inv.spec, "src": str(SRC), "ready": str(work / f"{tag}.ready"),
                    "trace": str(work / f"{tag}.trace.json") if traced else None}
            path = work / f"{tag}.spec.json"
            path.write_text(json.dumps(spec), encoding="utf-8")
            specs[inv.name, traced] = (path, spec)
    return specs


def run_rep(wl, specs, work: Path, env: dict, traced: bool, index: int) -> Rep:
    rep = Rep(traced)
    for inv in wl.invocations:
        path, spec = specs[inv.name, traced]
        rep.procs.append(spawn(path, Path(spec["ready"]), work, env))
        rep.digests += [digest(p) if p.is_file() else "missing" for p in inv.outputs]
        if traced and Path(spec["trace"]).is_file():
            kept = work / f"{inv.name}.trace.{index}.json"
            os.replace(spec["trace"], kept)
            rep.traces.append(kept)
    return rep


def measure(wl, specs, work: Path, env: dict, seconds: float, trace: bool) -> list[Rep]:
    """Repeat the workload until the next repetition would overrun ``seconds``."""
    min_reps = 2 if trace else 3
    reps: list[Rep] = []
    start = time.monotonic()
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        if len(reps) >= min_reps and (elapsed + longest > seconds or elapsed > LAST_START_S):
            break
        t = time.monotonic()
        reps.append(run_rep(wl, specs, work, env, traced=trace and len(reps) % 2 == 1, index=len(reps)))
        longest = max(longest, time.monotonic() - t)
    return reps


def layer_metrics(reps: list[Rep], output_bytes: int) -> dict[str, float]:
    from tracer import SpanIndex, from_records

    traced = [r for r in reps if r.traced]
    plain = [r for r in reps if not r.traced]
    overhead = statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in plain)
    per_rep = []
    for rep in traced:
        raw: dict[str, float] = {}
        for path in rep.traces:
            data = json.loads(path.read_text(encoding="utf-8"))
            raw = layers.add_raw(raw, layers.raw_totals(SpanIndex(from_records(data["spans"])), data["counts"]))
        per_rep.append(layers.finish(raw, output_bytes, overhead))
    return {name: statistics.median(m[name] for m in per_rep) for name, _, _ in layers.METRICS}


def pseudo_median(xs) -> float:
    """Hodges-Lehmann estimate: the median of the means of all pairs, each value with itself too.

    The shared host runs this code at two speeds about 30% apart, switching in
    bursts of seconds. When a run spends about half its time at each, a plain
    median lands on one speed or the other by chance; this estimate moves
    smoothly with the share of each, and one outlying repetition still cannot
    move it far.
    """
    return statistics.median((a + b) / 2 for a, b in itertools.combinations_with_replacement(xs, 2))


def end_to_end_metrics(reps: list[Rep], values: int) -> dict[str, float]:
    return {
        "wall_s": pseudo_median(r.wall for r in reps),
        "setup_s": pseudo_median(p.setup for r in reps for p in r.procs if p.setup is not None),
        "values_per_s": pseudo_median(values / r.wall for r in reps),
        "cpu_s": pseudo_median(sum(p.cpu for p in r.procs) for r in reps),
        "peak_rss_mb": statistics.median(max(p.rss_mb for p in r.procs) for r in reps),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "siou" / "__init__.py").is_file():
        print(f"no siou sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the output checks call siou
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    specs = write_specs(wl, work)

    # Warm-up: compiles bytecode and fills the file cache, which users do not pay per run.
    warm_spec = work / "warm.spec.json"
    warm_spec.write_text(json.dumps({"job": "warm", "src": str(SRC), "ready": str(work / "warm.ready")}))
    warm = spawn(warm_spec, work / "warm.ready", work, env)
    if warm.code != 0 or warm.env is None:
        print(f"warm-up child failed with exit code {warm.code}; see {work / 'warm.log'}", file=sys.stderr)
        return 1

    reps = measure(wl, specs, work, env, args.seconds, bool(args.trace))

    try:
        problems, values = wl.gate()
    except Exception:  # malformed output from the program under test is a failed check
        problems, values = [f"output check raised:\n{traceback.format_exc()}"], 0
    envs = {json.dumps(p.env, sort_keys=True) for r in reps for p in r.procs if p.env is not None}
    if len(envs) != 1:
        problems.append(f"child processes saw {len(envs)} different environments")
    reference = reps[-1].digests
    failed = [i for i, r in enumerate(reps) if not r.ran_clean or r.digests != reference or problems]
    output_bytes = sum(p.stat().st_size for inv in wl.invocations if inv.spec["job"] == "cli"
                       for p in inv.outputs if p.is_file())

    if args.trace:
        names = layers.UNITS
        metrics = layer_metrics(reps, output_bytes)
    else:
        names = {name: unit for name, unit, _ in END_TO_END}
        metrics = end_to_end_metrics(reps, values)
    correct = not problems and not failed

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": json.loads(sorted(envs)[0]) if envs else None, "inputs": wl.inputs,
        "outputs": {str(p.relative_to(ROOT)): d for p, d in
                    zip([p for inv in wl.invocations for p in inv.outputs], reference)},
        "reps": [{"traced": r.traced, "wall": r.wall, "digests_match": r.digests == reference,
                  "procs": [p.__dict__ for p in r.procs]} for r in reps],
        "problems": problems, "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    env_line = record["env"] or {}
    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(reps)}"
          f"{' (alternating untraced/traced)' if args.trace else ''}")
    print(f"env: nproc={env_line.get('nproc')} python={env_line.get('python')} numpy={env_line.get('numpy')} "
          f"blas={env_line.get('blas')} threads={env_line.get('threads')}")
    for path, d in record["outputs"].items():
        print(f"output {path} sha256={d}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"fail_ratio: {len(failed)}/{len(reps)} = {len(failed) / len(reps):.4g} (lower is better)")
    if args.trace:
        for name, unit, better in layers.METRICS:
            note = " (computed)" if name in layers.COMPUTED else ""
            print(f"{name}: {metrics[name]:.6g} {unit}{note} ({better} is better)")
    else:
        for name, unit, better in END_TO_END:
            stat = "median" if name == "peak_rss_mb" else "pseudo-median"
            print(f"{name}: {metrics[name]:.6g} {unit} ({stat} of {len(reps)}; {better} is better)")
    print(json.dumps({
        "correct": correct,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": names[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
