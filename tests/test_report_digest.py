"""The `--determinism` report against its committed digest.

`tests/report_digest.json` holds the byte count and sha256 of

    python -m derangements.cli report --format json --determinism

run from the repository root on its own `src/`.  A change that keeps
every verdict and certificate keeps the report byte-identical, so this
test reruns the check that `tools/report_diff.py` makes against a parent
revision, with no checkout.  When it fails, `tools/report_diff.py` on the
two committed revisions shows the first differing line and the JSON
paths that moved; a change that moves the report on purpose says so and
updates the digest.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "report_digest.json")) as fh:
    DIGEST = json.load(fh)


def test_determinism_report_matches_its_digest():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    argv = DIGEST["command"].split()[1:]
    out = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                         stdout=subprocess.PIPE, check=True).stdout
    assert (len(out), hashlib.sha256(out).hexdigest()) == \
        (DIGEST["bytes"], DIGEST["sha256"])
