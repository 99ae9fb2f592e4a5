"""The six benchmark worlds write the bytes pinned in tests/golden/bench_digests.json.

`perfbench/run.py` checks that every world of one run writes the same
`output_sha256`, but not which value. This test reruns `steady`, `campaign`
and `overload` at seeds 1 and 7 through scripts/bench_digests.py, in a fresh
interpreter, and compares each digest with the golden file. A change meant to
keep behaviour must leave the file alone; one that moves output on purpose
regenerates it (see README) and names the entries that moved in CHANGES.md.
"""

import json
import os
import subprocess
import sys

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
_GOLDEN = os.path.join(_ROOT, "tests", "golden", "bench_digests.json")
_WORLDS = [f"{workload}/seed{seed}"
           for workload in ("steady", "campaign", "overload") for seed in (1, 7)]


def test_benchmark_worlds_match_golden_digests():
    with open(_GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert sorted(golden) == sorted(_WORLDS)
    proc = subprocess.run([sys.executable, os.path.join(_ROOT, "scripts", "bench_digests.py")],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == golden
