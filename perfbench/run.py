"""Benchmark of the derangements engine, one workload per invocation.

    python3 perfbench/run.py --workload wreath-m11 --seed 1 --seconds 12

Run from anywhere inside a checkout; the library is imported from the
checkout's `src/`.  The workloads, their inputs and pinned verdicts are in
`workloads.py`; the metric names and units are those of `BENCHMARK.json`.

--trace 0: a fresh single-threaded worker process builds the workload's
  inputs and runs its queries, pass after pass, until --seconds have gone
  by (at least one pass).  It also repeats the setup alone, half before
  the passes and half after, until it has SETUP_SAMPLES timings, each
  pass's own included, that add up to SETUP_SECONDS.  Reports the
  end-to-end metrics: the median `solve_s` over the passes, the median
  `setup_s`, and the worker's `peak_rss_mb`.
--trace 1: one untraced pass in one worker, then one pass in a second
  worker with every layer boundary wrapped (`tracing.py`).  Reports the
  per-layer metrics of the traced pass and the tracing overhead
  `trace.overhead_s`, the traced minus the untraced `solve_s`.

Every query's result is checked against its pin.  A query that raises or
differs counts as failed; `fail_ratio` is failed over attempted.  Any
failure makes the result `correct: false` and the exit code 1.  The last
line of standard output is the JSON result; the full record (environment,
per-query verdicts and budgets, passes, spans) goes to
perfbench/out/<workload>-seed<seed>-trace<trace>.json.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES, SETUP_SECONDS = 4, 1.5
RUN_LIMIT_S = 170  # every worker of one run together
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    """The benchmark could not produce a result at all."""


def _git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _worker(workload, seed, trace, deadline, seconds=0, setups=1,
            setup_seconds=0):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--setups", str(setups), "--setup-seconds", str(setup_seconds),
           "--trace", str(trace)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left to start a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **WORKER_ENV},
                              stdout=subprocess.PIPE, timeout=timeout,
                              text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ran past the {RUN_LIMIT_S}s limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def _measure(args, deadline):
    """Run the worker(s); return (worker results, metric values)."""
    if args.trace == 0:
        res = _worker(args.workload, args.seed, 0, deadline, args.seconds,
                      SETUP_SAMPLES, SETUP_SECONDS)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return [res], {
            "solve_s": statistics.median(p["solve_s"] for p in res["passes"]),
            "setup_s": statistics.median(res["setups_s"]),
            "peak_rss_mb": peak_kb / 1024,
        }
    plain = _worker(args.workload, args.seed, 0, deadline)
    traced = _worker(args.workload, args.seed, 1, deadline)
    values = layer_metrics(traced["spans"], Counter(traced["counts"]))
    values["trace.overhead_s"] = (traced["passes"][0]["solve_s"]
                                  - plain["passes"][0]["solve_s"])
    return [plain, traced], values


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 0:
        ap.error("--seconds must not be negative")
    if not (ROOT / "src" / "derangements" / "__init__.py").is_file():
        print(f"no library source at {ROOT / 'src' / 'derangements'}",
              file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        results, values = _measure(args, deadline)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    if set(values) != set(units):
        print(f"metrics {sorted(set(values) ^ set(units))} are measured or "
              f"declared, not both", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    queries = [q for r in results for q in r["queries"]]
    environment = {**results[0]["environment"], "git_commit": _git_commit(),
                   "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace}
    for q in queries:
        verdict = "ok" if q["ok"] else "FAILED"
        print(f"{verdict:6} {q['query']}: {q.get('got', q.get('error'))} "
              f"(pinned {q['expected']}; {q['cite']})")
    print(f"fail_ratio {failed / attempted:.4f} ratio "
          f"({failed} of {attempted} queries)")
    for name, v in sorted(values.items()):
        print(f"{name} {v if isinstance(v, int) else format(v, '.6g')} "
              f"{units[name]}")
    print("environment " + json.dumps(environment, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(
        {"environment": environment, "attempted": attempted,
         "failed": failed, "queries": queries, "metrics": values,
         "passes": [r["passes"] for r in results],
         "setups_s": [r["setups_s"] for r in results],
         "spans": results[-1].get("spans"),
         "counts": results[-1].get("counts")}, indent=1))

    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in sorted(values)}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
