#!/usr/bin/env python3
"""Print the `output_sha256` of every benchmark world at seeds 1 and 7 as JSON.

Each of `steady`, `campaign` and `overload` runs once at size full, in this
process, from the scenario text of perfbench/workloads.py; its output tree is
digested by perfbench/child.py's `output_sha256`. These are the values that
`perfbench/run.py` reports, without its repeated timed runs. The output is
the format of tests/golden/bench_digests.json, which tests/test_bench_digests.py
checks:

    python3 scripts/bench_digests.py > tests/golden/bench_digests.json
"""

import json
import os
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from child import output_sha256  # noqa: E402
from murbsim.harness import parse_scenario, run_scenario  # noqa: E402
from workloads import WORKLOADS, scenario_text  # noqa: E402

SEEDS = (1, 7)


def main() -> int:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for workload in WORKLOADS:
                out_dir = os.path.join(tmp, f"{workload}_{seed}")
                run_scenario(parse_scenario(scenario_text(workload, seed)), out_dir)
                digests[f"{workload}/seed{seed}"] = output_sha256(out_dir)
    sys.stdout.write(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
