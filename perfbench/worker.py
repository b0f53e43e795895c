"""One workload in one fresh process; started by run.py, not by hand.

Prints one JSON line: the setup and solve time of every pass, each
query's observed and pinned values, the environment, and with --trace 1
the spans and counters of the traced pass.
"""

import argparse
import dataclasses
import gc
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_library():
    """Import the checkout's own src/, never an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import derangements

    where = Path(derangements.__file__).resolve().parent
    if where != ROOT / "src" / "derangements":
        raise ImportError(f"derangements imported from {where}, "
                          f"not from {ROOT / 'src'}")
    return derangements


def _environment(derangements) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "derangements": derangements.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")},
    }


def _run_queries(wl, inputs, seed, tracer):
    records = []
    for q in wl.queries:
        if tracer is not None:
            tracer.query = q.name
        rec = {"query": q.name, "expected": q.expected, "cite": q.cite,
               "budgets": dataclasses.asdict(q.budgets), "seed": seed}
        try:
            got = q.run(inputs, seed, q.budgets)
            rec["got"] = got
            rec["ok"] = got == q.expected
        except Exception as e:  # a raising query is a failed query
            rec["error"] = f"{type(e).__name__}: {e}"
            rec["ok"] = False
        records.append(rec)
    return records


def _timed_setups(wl, seed, setups, count, seconds):
    """Time setups, appending to `setups`, until there are `count` of them
    and they add up to `seconds`."""
    while len(setups) < count or sum(setups) < seconds:
        gc.collect()
        t0 = time.perf_counter()
        wl.setup(seed)
        setups.append(time.perf_counter() - t0)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--setups", type=int, required=True,
                    help="least number of timed setups")
    ap.add_argument("--setup-seconds", type=float, required=True,
                    help="least total time of the timed setups")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    derangements = _import_library()
    from workloads import WORKLOADS
    from tracing import Tracer

    wl = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    passes, setups, queries = [], [], []
    # half the setup samples before the passes and half after, so that
    # they are taken at two moments of the machine's load
    _timed_setups(wl, args.seed, setups, args.setups // 2,
                  args.setup_seconds / 2)
    if tracer is not None:
        tracer.install()
    try:
        deadline = time.perf_counter() + args.seconds
        while True:
            gc.collect()
            t0 = time.perf_counter()
            inputs = wl.setup(args.seed)
            t1 = time.perf_counter()
            records = _run_queries(wl, inputs, args.seed, tracer)
            t2 = time.perf_counter()
            del inputs
            setups.append(t1 - t0)
            passes.append({"setup_s": t1 - t0, "solve_s": t2 - t1})
            # keep one pass's records, plus every failure
            queries.extend(r for r in records
                           if len(passes) == 1 or not r["ok"])
            if tracer is not None or time.perf_counter() >= deadline:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    _timed_setups(wl, args.seed, setups, args.setups, args.setup_seconds)

    out = {"environment": _environment(derangements), "passes": passes,
           "setups_s": setups,
           "attempted": len(passes) * len(wl.queries),
           "failed": sum(not r["ok"] for r in queries), "queries": queries}
    if tracer is not None:
        out["spans"] = tracer.spans
        out["counts"] = dict(tracer.counts)
    print(json.dumps(out, default=lambda o: o.item()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
