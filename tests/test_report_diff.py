"""`tools/report_diff.py` on synthetic reports: sizes, digests, the first
differing line, and the differing JSON leaves per collapsed path."""

import hashlib
import importlib
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

REPORT = b'{\n  "a": 1,\n  "b": [2, 3]\n}\n'


@pytest.fixture()
def report_diff(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    return importlib.import_module("report_diff")


def test_identical_reports(report_diff):
    same, lines = report_diff.compare(REPORT, bytes(REPORT))
    digest = hashlib.sha256(REPORT).hexdigest()
    assert same
    assert lines == [f"parent: {len(REPORT)} bytes, sha256 {digest}",
                     f"change: {len(REPORT)} bytes, sha256 {digest}",
                     "identical"]


@pytest.mark.parametrize("change,line,parent_text,change_text", [
    (REPORT.replace(b"3]", b"4]"), 3, '  "b": [2, 3]', '  "b": [2, 4]'),
    (REPORT[:-2], 4, "}", "<end of report>"),  # truncated
    (REPORT + b"extra\n", 5, "<end of report>", "extra"),
    (REPORT[:-1], 4, "}", "}"),  # only the final newline differs
], ids=["changed value", "truncated", "appended", "final newline"])
def test_first_difference(report_diff, change, line, parent_text,
                          change_text):
    same, lines = report_diff.compare(REPORT, change)
    assert not same
    assert lines[0].startswith(f"parent: {len(REPORT)} bytes, sha256 ")
    assert lines[1] == (f"change: {len(change)} bytes, sha256 "
                        f"{hashlib.sha256(change).hexdigest()}")
    assert lines[2:] == [f"first difference at line {line}:",
                         f"  parent: {parent_text}",
                         f"  change: {change_text}"]


def test_leaf_diffs_count_by_collapsed_path(report_diff):
    parent = b'{"s": [{"r": "(1,2)", "h": [[1, 2]]}, {"r": "(1,3)"}], "n": 1}'
    change = (b'{"s": [{"r": "(2,3)", "h": [[2, 1]]}, {"r": "(1,2)", '
              b'"h": []}], "n": 1, "e": {}}')
    assert report_diff.leaf_diffs(parent, change) == [
        "differing JSON leaves: 6",
        "  1 e",  # only the change has it
        "  1 s[].h",  # an empty list, a leaf itself
        "  2 s[].h[][]",
        "  2 s[].r"]


@pytest.mark.parametrize("parent,change,lines", [
    (REPORT, REPORT[:-1], ["differing JSON leaves: 0"]),  # same document
    (b"1", b"true", ["differing JSON leaves: 1", "  1 <root>"]),
    (REPORT, REPORT[:-2], []),  # the change does not parse
    (b"\xff", REPORT, []),  # nor does the parent
], ids=["newline only", "value type", "truncated", "not text"])
def test_leaf_diffs_edge_cases(report_diff, parent, change, lines):
    assert report_diff.leaf_diffs(parent, change) == lines
