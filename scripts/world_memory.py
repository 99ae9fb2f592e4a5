#!/usr/bin/env python3
"""Print the memory each benchmark world holds at seed 1, in traced MB, as JSON.

`import_mb` is the traced bytes still held after a fresh process, which has
imported the standard modules perfbench/child.py imports, imports harness,
simcore and world: what loading the simulator costs each benchmark world.

Each of `steady`, `campaign` and `overload` is parsed from the scenario text
of perfbench/workloads.py at size full, then built, run and exported in this
process under tracemalloc. Per workload it prints:

- `after_world_mb`: the bytes still allocated after `World(...)`;
- `after_world_bytes_per_client`: those bytes less the same world's with no
  clients, over its number of clients: what each client's two streams and
  its `Client` hold;
- `after_run_mb`: the bytes still allocated after `World.run`;
- `peak_mb`: the traced peak from just before `World(...)` to the end of
  `World.run`;
- `ledger_bytes_per_request`: the `sys.getsizeof` of the ledger's
  per-request columns over the number of requests;
- `export_peak_mb`: the traced peak during `write_outputs`, above the bytes
  held when it starts.

    python3 scripts/world_memory.py

Unlike the benchmark's `peak_rss_mb`, which moves with where the allocator
places objects, these counts are exact and the same under any
PYTHONHASHSEED (`import_mb` to within a kB).
"""

import json
import os
import subprocess
import sys
import tempfile
import tracemalloc

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from murbsim.harness import parse_scenario, write_outputs  # noqa: E402
from murbsim.world import World  # noqa: E402
from workloads import WORKLOADS, scenario_text  # noqa: E402

SEED = 1
MB = 1e6

IMPORT_CODE = """\
import argparse, hashlib, json, os, resource, statistics, sys, time, tracemalloc
sys.path.insert(0, sys.argv[1])
tracemalloc.start()
from murbsim import harness
from murbsim.simcore import EventLoop
from murbsim.world import World
print(tracemalloc.get_traced_memory()[0])
"""


def import_bytes() -> int:
    """The traced bytes the simulator's modules hold once a fresh process imports them."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE, os.path.join(ROOT, "src")],
                          capture_output=True, text=True, check=True)
    return int(proc.stdout)


def world_bytes(scenario) -> int:
    """The traced bytes a World(scenario) holds once built."""
    tracemalloc.start()
    try:
        world = World(scenario)  # noqa: F841 (held while measured)
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def traced_mb(workload: str) -> dict[str, float]:
    scenario = parse_scenario(scenario_text(workload, SEED))
    no_clients = parse_scenario(scenario_text(workload, SEED))
    no_clients.workload.clients_per_node = 0
    clients = scenario.workload.clients_per_node * scenario.cluster.nodes
    per_client = (world_bytes(scenario) - world_bytes(no_clients)) / clients
    tracemalloc.start()
    try:
        world = World(scenario)
        after_world = tracemalloc.get_traced_memory()[0]
        world.run()
        after_run, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with tempfile.TemporaryDirectory() as out_dir:
            write_outputs(world, out_dir)
            export_peak = tracemalloc.get_traced_memory()[1] - after_run
    finally:
        tracemalloc.stop()
    ledger = world.ledger
    column_bytes = sum(sys.getsizeof(getattr(ledger, name))
                       for name in ledger.REQUEST_COLUMNS)
    return {"after_world_mb": round(after_world / MB, 3),
            "after_world_bytes_per_client": round(per_client, 1),
            "after_run_mb": round(after_run / MB, 3),
            "peak_mb": round(peak / MB, 3),
            "ledger_bytes_per_request": round(column_bytes / len(ledger.action_of), 2),
            "export_peak_mb": round(export_peak / MB, 3)}


def main() -> int:
    held = {f"{workload}/seed{SEED}": traced_mb(workload) for workload in WORKLOADS}
    held["import_mb"] = round(import_bytes() / MB, 3)
    sys.stdout.write(json.dumps(held, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
