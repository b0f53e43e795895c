"""Byte-compare the determinism report of two revisions.

    python3 tools/report_diff.py --parent HEAD~1 --change HEAD

Extracts the committed files of both revisions with `git archive` (the
`_checkout` of `bench_pairs.py`) into a fresh temporary directory,
removed at the end, and runs each side's own

    python -m derangements.cli report --format json --determinism

there.  Prints the byte count and sha256 of each report and, when they
differ, the first line where they do and, if both parse as JSON, the
number of differing leaves for each JSON path, list indices collapsed to
`[]` (so `scenarios[].certificates.structure.closures[].representative`
counts every closure representative that moved).  Exits 0 when the two
reports are byte-identical and both commands succeed, else 1.  Standard
library only.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

from bench_pairs import SIDES, _checkout

REPORT = ["-m", "derangements.cli", "report", "--format", "json",
          "--determinism"]


def _report(checkout: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    return subprocess.run([sys.executable, *REPORT], cwd=checkout, env=env,
                          stdout=subprocess.PIPE)


def compare(parent: bytes, change: bytes) -> tuple:
    """(identical, lines to print): the byte count and sha256 of each
    report, then the first line where they differ, if any."""
    lines = [f"{side}: {len(data)} bytes, sha256 "
             f"{hashlib.sha256(data).hexdigest()}"
             for side, data in zip(SIDES, (parent, change))]
    if parent == change:
        return True, lines + ["identical"]
    a, b = parent.splitlines(keepends=True), change.splitlines(keepends=True)
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
             min(len(a), len(b)))
    lines.append(f"first difference at line {i + 1}:")
    for side, side_lines in zip(SIDES, (a, b)):
        text = (side_lines[i].decode(errors="replace").rstrip("\r\n")
                if i < len(side_lines) else "<end of report>")
        lines.append(f"  {side}: {text}")
    return False, lines


def _leaves(node, path=()):
    """(path, value) for each leaf of a parsed JSON document: a path is
    the tuple of keys and list indices leading to it, and an empty list
    or object is a leaf itself."""
    if isinstance(node, (dict, list)) and node:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _leaves(child, path + (key,))
    else:
        yield path, node


def _collapsed(path) -> str:
    name = "".join("[]" if isinstance(key, int) else "." + key
                   for key in path)
    return name.lstrip(".") or "<root>"


def leaf_diffs(parent: bytes, change: bytes) -> list:
    """Lines to print: per JSON path, list indices collapsed to [], the
    number of leaves that differ (one side's value changed, or it has no
    such leaf); none unless both reports parse as JSON."""
    try:
        a, b = ({path: json.dumps(value) for path, value in
                 _leaves(json.loads(data))} for data in (parent, change))
    except ValueError:
        return []
    counts = Counter(_collapsed(path) for path in a.keys() | b.keys()
                     if a.get(path) != b.get(path))
    return ([f"differing JSON leaves: {sum(counts.values())}"]
            + [f"  {count} {name}" for name, count in sorted(counts.items())])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision")
    ap.add_argument("--change", required=True, help="git revision")
    args = ap.parse_args()

    workdir = Path(tempfile.mkdtemp(prefix="report-diff-"))
    try:
        runs = {}
        for side in SIDES:
            rev = _checkout(getattr(args, side), workdir / side)
            runs[side] = _report(workdir / side)
            print(f"{side}: {rev['rev']} = {rev['commit']}, report exit "
                  f"code {runs[side].returncode}")
    finally:
        shutil.rmtree(workdir)
    reports = [runs[s].stdout for s in SIDES]
    same, lines = compare(*reports)
    if not same:
        lines += leaf_diffs(*reports)
    print("\n".join(lines))
    ok = same and all(run.returncode == 0 for run in runs.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
