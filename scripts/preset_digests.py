#!/usr/bin/env python3
"""Run every preset at seed 1 and print its output-tree digest as JSON.

The output is the format of tests/golden/preset_digests.json:

    python3 scripts/preset_digests.py > tests/golden/preset_digests.json
"""

import json
import os
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from murbsim.cli import PRESETS, run_preset  # noqa: E402
from oracles import digest_tree  # noqa: E402


def main() -> int:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(PRESETS):
            out_dir = os.path.join(tmp, name)
            run_preset(name, out_dir, seed=1)
            digests[name] = digest_tree(out_dir)
    sys.stdout.write(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
