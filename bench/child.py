"""One timed benchmark process: import siou, build the inputs, run one job.

Usage: ``python3 bench/child.py SPEC.json``. The spec names the siou source
directory, the job and its inputs, the file to write the ready record to
and, for a traced run, the file to write spans to. The ready record holds
the monotonic time at which siou was imported and the inputs were built,
and the environment the process saw; the parent takes set-up time from it.

Jobs call siou through module attributes (``siou.cli.main``), so that the
tracer's wrappers, when installed, are the functions called.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import time


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in ("SIOU_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS")},
    }


def cli_job(spec: dict):
    import siou.cli

    argv = list(spec["argv"])
    return lambda: siou.cli.main(argv)


def _digest(arr) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


def oracle_job(spec: dict):
    """Library calls that reach the exact-joint oracle, which has no CLI."""
    import numpy as np

    from siou import gaussian, geometry, kernel, measures, simulator, verify

    with open(spec["inputs"], encoding="utf-8") as fh:
        cfg = json.load(fh)
    params = kernel.KernelParams(cfg["lambda"], cfg["sigma"], measures.MeasureSpec.lebesgue())
    corners = [geometry.Corner(tuple(c)) for c in cfg["grid"]]
    antichain = [geometry.Corner(tuple(c)) for c in cfg["antichain"]]
    top = geometry.Corner(tuple(cfg["top"]))
    initial = simulator.InitialLaw.dirac(cfg["x0"])
    replicates = cfg["replicates"]
    cols = cfg["check_columns"]

    def run() -> int:
        pl = simulator.plan(corners)
        markov = simulator.simulate(pl, params, initial, replicates, gaussian.RngSeed(cfg["seed"], 0))
        exact = simulator.simulate_exact(pl, params, initial, replicates, gaussian.RngSeed(cfg["seed"], 1))
        theory = verify.theory_dirac(params, pl.corners, cfg["x0"])
        sub = gaussian.GaussianSpec(theory.mean[cols], theory.cov[np.ix_(cols, cols)])
        a, b = markov.values[:, cols], exact.values[:, cols]
        reports = [
            verify.check_mc_moments(a, sub, name="oracle.markov_moments"),
            verify.check_mc_moments(b, sub, name="oracle.exact_moments"),
            verify.check_mc_agreement(a, b, sub, name="oracle.agreement"),
        ]
        fr = geometry.frontier(geometry.Increment(top, geometry.canonicalize(antichain)))
        payload = {
            "plan_corners": [c.to_json() for c in pl.corners],
            "reports": [r.to_json() for r in reports],
            "frontier": fr.to_json(),
            "digests": {"markov": _digest(markov.values), "exact": _digest(exact.values),
                        "theory_mean": _digest(theory.mean), "theory_cov": _digest(theory.cov)},
        }
        with open(spec["out"], "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
        return 0

    return run


JOBS = {"cli": cli_job, "oracle_grid": oracle_job, "warm": lambda spec: (lambda: 0)}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    src = spec["src"]
    sys.path.insert(0, src)
    import siou

    if not os.path.abspath(siou.__file__).startswith(os.path.join(src, "")):
        print(f"siou imported from {siou.__file__}, not from {src}", file=sys.stderr)
        return 3
    job = JOBS[spec["job"]](spec)
    ready = time.monotonic()
    with open(spec["ready"], "w", encoding="utf-8") as fh:
        json.dump({"ready": ready, "env": environment()}, fh)
    if not spec.get("trace"):
        return job()

    from layers import OBSERVERS
    from tracer import Tracer, installed, to_records

    tracer = Tracer(OBSERVERS)
    with installed(tracer):
        code = job()
    with open(spec["trace"], "w", encoding="utf-8") as fh:
        json.dump({"spans": to_records(tracer.spans()), "counts": tracer.counts()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
