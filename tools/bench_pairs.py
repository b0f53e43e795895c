"""Order-alternated parent/change pairs of the repository benchmark.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pairs 10 \\
        --seed 601 --out BENCH_6.json

Extracts the committed files of both revisions with `git archive` into
a fresh temporary directory (removed at the end), so the checkout and its
`.git` stay untouched, and runs each side's own `perfbench/run.py --trace
0` there.  Pair i runs every workload of BENCHMARK.json (or each one named
by --workload) at seed --seed + i for the benchmark's `run_seconds`, the
parent first in even pairs and the change first in odd ones.  A smoke run
is --pairs 1 with one --workload.

The record written to --out holds, per workload and end-to-end metric,
every run of each side with its median and quartiles, the number of
pairs the change won (ties count for neither), the benchmark's bound and
a verdict, plus the failed-query count of every run.  The verdict has
two parts:

* `gain`: the change won at least nine tenths of the pairs, and its
  median is better than the parent's by more than the parent's
  interquartile range;
* `within_bound`: the change's median is worse than the parent's by no
  more than the bound, a fraction of the parent's median.

The record is rewritten after every pair, so an interrupted run keeps
the pairs it finished; the verdicts are printed on stderr at the
end.  Standard library only.
"""

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def _checkout(rev: str, dest: Path) -> dict:
    """Extract the committed files of rev into dest; name what was run."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return {"rev": rev, "commit": _git("rev-parse", rev + "^{commit}"),
            "src_tree": _git("rev-parse", rev + ":src")}


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if "metrics" not in result:
        return {"seed": seed, "failed": None, "metrics": {},
                "exit_code": proc.returncode}
    environment = next((json.loads(line.split(" ", 1)[1]) for line in lines
                        if line.startswith("environment ")), {})
    for per_run in ("git_commit", "seed", "seconds", "trace"):
        environment.pop(per_run, None)
    return {"seed": seed, "failed": result["failed"],
            "attempted": result["attempted"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "environment": environment}


def _spread(values: list) -> dict:
    if len(values) < 2:
        q1 = med = q3 = values[0] if values else None
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": med, "q1": q1, "q3": q3}


def _verdict(metric: dict, sign: int) -> dict:
    """The gain and bound checks on one metric's summary (module
    docstring); `sign` is 1 when lower is better, else -1."""
    parent, change = metric["parent"], metric["change"]
    if not metric["pairs"]:
        return {"gain": False, "within_bound": False}
    better_by = sign * (parent["median"] - change["median"])
    return {"gain": (10 * metric["change_wins"] >= 9 * metric["pairs"]
                     and better_by > parent["q3"] - parent["q1"]),
            "within_bound":
                -better_by <= metric["bound"] * abs(parent["median"])}


def summarize(spec: dict, runs: dict) -> dict:
    """Per workload and metric: each side's spread, the change's wins and
    the verdict."""
    out = {}
    for workload, pairs in runs.items():
        metrics = {}
        for m in spec["end_to_end"]:
            name, sign = m["name"], (1 if m["better"] == "lower" else -1)
            done = [p for p in pairs
                    if all(name in p[s]["metrics"] for s in SIDES)]
            values = {s: [p[s]["metrics"][name] for p in done]
                      for s in SIDES}
            wins = sum(sign * (c - p) < 0
                       for p, c in zip(values["parent"], values["change"]))
            metrics[name] = {"unit": m["unit"], "better": m["better"],
                             "bound": m["bound"], "pairs": len(done),
                             "change_wins": wins,
                             **{s: _spread(values[s]) for s in SIDES}}
            metrics[name]["verdict"] = _verdict(metrics[name], sign)
        out[workload] = {
            "metrics": metrics,
            "failed": {s: [p[s]["failed"] for p in pairs] for s in SIDES},
            "seeds": [p["parent"]["seed"] for p in pairs],
            "first": [p["first"] for p in pairs]}
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision")
    ap.add_argument("--change", required=True, help="git revision")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    workdir = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        _pairs(spec, args, workdir)
    finally:
        shutil.rmtree(workdir)
    return 0


def _pairs(spec: dict, args, workdir: Path) -> None:
    sides = {s: _checkout(getattr(args, s), workdir / s) for s in SIDES}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    runs = {w: [] for w in workloads}
    summary = {}
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            pair = {"first": order[0]}
            for side in order:
                pair[side] = _run(workdir / side, workload, args.seed + i,
                                  spec["run_seconds"])
                values = pair[side]["metrics"]
                print(f"pair {i + 1}/{args.pairs} {workload} {side}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in
                                 sorted(values.items()))
                      + f" failed={pair[side]['failed']}", file=sys.stderr)
            runs[workload].append(pair)
        environment = next((p[s]["environment"] for w in runs.values()
                            for p in w for s in SIDES
                            if p[s].get("environment")), {})
        summary = summarize(spec, runs)
        Path(args.out).write_text(json.dumps({
            "args": {k: v for k, v in vars(args).items() if k != "out"},
            "run_seconds": spec["run_seconds"],
            "written": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "sides": sides,
            "pairs_done": i + 1, "environment": environment,
            "workloads": summary}, indent=1) + "\n")
    for workload, record in summary.items():
        for name, metric in record["metrics"].items():
            print(f"{workload} {name}: parent {metric['parent']['median']} "
                  f"change {metric['change']['median']}, "
                  f"{metric['change_wins']}/{metric['pairs']} pairs won, "
                  f"gain={metric['verdict']['gain']} "
                  f"within_bound={metric['verdict']['within_bound']}",
                  file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
