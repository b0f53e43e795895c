"""The names the benchmark's tracer wraps still exist in the library.

`perfbench/tracing.py` wraps library functions and methods by name.  A
rename or deletion here would otherwise surface only when the traced
benchmark runs.
"""

import importlib
import os
import sys

import derangements

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def _bindings():
    out = {}
    for modname, module in list(sys.modules.items()):
        if modname == "derangements" or modname.startswith("derangements."):
            for attr, value in vars(module).items():
                out[(modname, attr)] = value
    for cls in (derangements.perm.StabilizerChain, derangements.PermGroup,
                derangements.zoo.CosetConstruction):
        for attr, value in vars(cls).items():
            out[(cls.__name__, attr)] = value
    return out


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    tracing = importlib.import_module("tracing")
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = _bindings()
    finally:
        tracer.uninstall()
    changed = {k for k in before if wrapped.get(k) is not before[k]}
    assert ("StabilizerChain", "__init__") in changed
    assert ("PermGroup", "element_batches") in changed
    assert ("CosetConstruction", "push") in changed
    assert ("CosetConstruction", "index_of") in changed
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_backtrack_rows_count_as_enumerated(monkeypatch):
    # S3 on six points fixes three of them, so the search at r = 3 finds
    # no derangement and scans all six elements
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    tracing = importlib.import_module("tracing")
    G = derangements.PermGroup([
        derangements.Permutation.from_cycles(6, [(0, 1, 2)]),
        derangements.Permutation.from_cycles(6, [(0, 1)])])
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert derangements.perm.derangement_backtrack(G, 3) is None
    finally:
        tracer.uninstall()
    assert tracer.counts["perm.rows_enumerated"] == 6
