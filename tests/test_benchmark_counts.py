"""The benchmark's deterministic counts against a committed baseline.

`tests/benchmark_counts.json` holds, for each workload of BENCHMARK.json,
the seed-1 value of every per-layer metric whose unit is `count`, as
`perfbench/check_counts.py --seed 1 --other-seed 2` prints it.  This test
makes one traced pass per workload in process (setup, then its queries,
as the benchmark's worker does) and compares.  A change that moves a count
edits the file and says which count moved and why.
"""

import importlib
import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SEED = 1

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "benchmark_counts.json")) as fh:
    BASELINE = json.load(fh)
COUNTS = sorted(m["name"] for m in SPEC["per_layer"] if m["unit"] == "count")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_baseline_lists_every_workload_and_count():
    assert sorted(BASELINE) == sorted(WORKLOADS)
    for name, counts in BASELINE.items():
        assert sorted(counts) == COUNTS, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_match_the_baseline(workload, monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    tracing = importlib.import_module("tracing")
    wl = importlib.import_module("workloads").WORKLOADS[workload]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        inputs = wl.setup(SEED)
        for q in wl.queries:
            tracer.query = q.name
            assert q.run(inputs, SEED, q.budgets) == q.expected, q.name
    finally:
        tracer.uninstall()
    values = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert {k: values[k] for k in COUNTS} == BASELINE[workload]
