"""Check that the traced counters repeat and the verdicts hold across seeds.

    python3 perfbench/check_counts.py --seed 1 --other-seed 2

For each workload (or each one named by --workload), two traced passes
at --seed must give the same value for every per-layer metric whose unit
is `count`, so that a later change may cite such a count.  A pass at
--other-seed must match every pinned verdict; its counts may differ, as
the seed can change the inputs.  Exits with code 1 when any of this fails.
"""

import argparse
import json
import sys
import time
from collections import Counter

from run import ROOT, BenchError, _worker
from tracing import layer_metrics

WORKLOAD_LIMIT_S = 600


def _counts(result, names):
    values = layer_metrics(result["spans"], Counter(result["counts"]))
    return {name: values[name] for name in names}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--other-seed", type=int, required=True)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args()
    counters = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]

    ok = True
    for workload in args.workload or names:
        deadline = time.monotonic() + WORKLOAD_LIMIT_S
        try:
            first, second, other = (
                _worker(workload, seed, 1, deadline)
                for seed in (args.seed, args.seed, args.other_seed))
        except BenchError as e:
            print(f"{workload}: {e}")
            ok = False
            continue
        a, b = _counts(first, counters), _counts(second, counters)
        differ = {k: (a[k], b[k]) for k in counters if a[k] != b[k]}
        failed = sum(r["failed"] for r in (first, second, other))
        print(f"{workload}: {len(counters) - len(differ)} of {len(counters)} "
              f"counts repeat at seed {args.seed}; {failed} failed verdicts "
              f"over seeds {args.seed} and {args.other_seed}")
        for k, (x, y) in sorted(differ.items()):
            print(f"  {k}: {x} then {y}")
        print("  " + json.dumps(a, sort_keys=True))
        ok = ok and not differ and failed == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
