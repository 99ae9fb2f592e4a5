#!/usr/bin/env python3
"""Print the memory each benchmark world holds at seed 1, in traced MB, as JSON.

Each of `steady`, `campaign` and `overload` is parsed from the scenario text
of perfbench/workloads.py at size full, then built and run in this process
under tracemalloc. Per workload it prints the bytes still allocated after
`World(...)`, the bytes still allocated after `World.run`, and the traced
peak, counted from just before `World(...)`:

    python3 scripts/world_memory.py

Unlike the benchmark's `peak_rss_mb`, which moves with where the allocator
places objects, these counts are exact and the same under any
PYTHONHASHSEED.
"""

import json
import os
import sys
import tracemalloc

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from murbsim.harness import parse_scenario  # noqa: E402
from murbsim.world import World  # noqa: E402
from workloads import WORKLOADS, scenario_text  # noqa: E402

SEED = 1
MB = 1e6


def traced_mb(workload: str) -> dict[str, float]:
    scenario = parse_scenario(scenario_text(workload, SEED))
    tracemalloc.start()
    try:
        world = World(scenario)
        after_world = tracemalloc.get_traced_memory()[0]
        world.run()
        after_run, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"after_world_mb": round(after_world / MB, 3),
            "after_run_mb": round(after_run / MB, 3),
            "peak_mb": round(peak / MB, 3)}


def main() -> int:
    held = {f"{workload}/seed{SEED}": traced_mb(workload) for workload in WORKLOADS}
    sys.stdout.write(json.dumps(held, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
