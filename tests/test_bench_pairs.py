"""`tools/bench_pairs.py summarize` on synthetic runs: each side's spread,
the change's wins and the per-metric verdict."""

import importlib
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

SPEC = {"end_to_end": [
    {"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "ops/s", "better": "higher", "bound": 0.1},
]}


@pytest.fixture()
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    return importlib.import_module("bench_pairs")


def runs(parent, change, metric="solve_s"):
    """One workload's pairs, with the given values of one metric."""
    return {"w": [{"first": "parent" if i % 2 == 0 else "change",
                   "parent": {"seed": i, "failed": 0,
                              "metrics": {metric: p}},
                   "change": {"seed": i, "failed": 0,
                              "metrics": {metric: c}}}
                  for i, (p, c) in enumerate(zip(parent, change))]}


PARENT = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.1, 0.9, 1.05, 0.95]


@pytest.mark.parametrize("change,wins,gain,within", [
    ([0.6] * 10, 10, True, True),                      # clear gain
    ([0.6] * 8 + [1.2] * 2, 8, False, True),           # 8/10 pairs only
    ([p - 0.01 for p in PARENT], 10, False, True),     # inside the IQR
    ([p * 1.2 for p in PARENT], 0, False, True),       # 20% worse, bound 25%
    ([p * 1.3 for p in PARENT], 0, False, False),      # 30% worse
], ids=["gain", "too few wins", "within spread", "worse in bound",
        "worse past bound"])
def test_verdict_on_a_lower_is_better_metric(bench_pairs, change, wins, gain,
                                             within):
    out = bench_pairs.summarize(SPEC, runs(PARENT, change))
    metric = out["w"]["metrics"]["solve_s"]
    assert metric["pairs"] == 10
    assert metric["change_wins"] == wins
    assert metric["parent"]["median"] == pytest.approx(1.0)
    assert metric["verdict"] == {"gain": gain, "within_bound": within}
    assert out["w"]["failed"] == {"parent": [0] * 10, "change": [0] * 10}


def test_verdict_on_a_higher_is_better_metric(bench_pairs):
    up = bench_pairs.summarize(SPEC, runs(PARENT, [2.0] * 10, "rate"))
    assert up["w"]["metrics"]["rate"]["verdict"] == \
        {"gain": True, "within_bound": True}
    down = bench_pairs.summarize(SPEC, runs(PARENT, [0.85] * 10, "rate"))
    assert down["w"]["metrics"]["rate"]["change_wins"] == 0
    assert down["w"]["metrics"]["rate"]["verdict"] == \
        {"gain": False, "within_bound": False}


def test_a_metric_with_no_pairs_has_no_verdict(bench_pairs):
    out = bench_pairs.summarize(SPEC, runs(PARENT, PARENT, "other"))
    assert out["w"]["metrics"]["solve_s"]["pairs"] == 0
    assert out["w"]["metrics"]["solve_s"]["verdict"] == \
        {"gain": False, "within_bound": False}
