"""Byte-compare the determinism report of two revisions.

    python3 tools/report_diff.py --parent HEAD~1 --change HEAD

Extracts the committed files of both revisions with `git archive` (the
`_checkout` of `bench_pairs.py`) into a fresh temporary directory,
removed at the end, and runs each side's own

    python -m derangements.cli report --format json --determinism

there.  Prints the byte count and sha256 of each report and, when they
differ, the first line where they do.  Exits 0 when the two reports are
byte-identical and both commands succeed, else 1.  Standard library only.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
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
    same, lines = compare(*(runs[s].stdout for s in SIDES))
    print("\n".join(lines))
    ok = same and all(run.returncode == 0 for run in runs.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
