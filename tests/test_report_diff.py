"""`tools/report_diff.py compare` on synthetic reports: sizes, digests
and the first differing line."""

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
