#!/usr/bin/env python3
"""Reproduce every packaged experiment and print the headline numbers."""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from murbsim.cli import PRESETS, run_preset  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--only", nargs="*", choices=sorted(PRESETS))
    args = parser.parse_args()

    names = args.only or sorted(PRESETS)
    for name in names:
        t0 = time.time()
        summary = run_preset(name, os.path.join(args.out, name), seed=args.seed)
        compact = {k: v for k, v in summary.items()
                   if not isinstance(v, (list, dict))}
        print(f"{name:8s} {time.time() - t0:6.1f}s  {json.dumps(compact, sort_keys=True)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
