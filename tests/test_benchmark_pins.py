"""Every benchmark workload still returns its pinned values.

`perfbench/workloads.py` calls the library with set names, options and
budgets, and pins each query's verdict.  Each workload that
`BENCHMARK.json` declares runs here once, at seed 1 and under each
query's own budgets, so a library change that breaks a benchmark call or
pin fails here before the benchmark runs.
"""

import importlib
import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    NAMES = [w["name"] for w in json.load(fh)["workloads"]]


@pytest.mark.parametrize("name", NAMES)
def test_workload_meets_its_pins(monkeypatch, name):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    workload = importlib.import_module("workloads").WORKLOADS[name]
    inputs = workload.setup(1)
    for q in workload.queries:
        assert q.run(inputs, 1, q.budgets) == q.expected, q.name
