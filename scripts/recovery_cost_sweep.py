#!/usr/bin/env python3
"""Microreboot every component group once and tabulate recovery windows."""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from murbsim.config import Scenario, ScriptedRecovery, WorkloadConfig  # noqa: E402
from murbsim.world import World, microreboot_level  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--clients", type=int, default=200)
    args = parser.parse_args()

    s = Scenario(seed=args.seed)
    s.policy.enabled = False
    s.workload = WorkloadConfig(clients_per_node=args.clients)
    probe = World(s)
    registry = probe.nodes[0].registry
    seen, at = set(), 30_000
    for name in registry.specs:
        members = registry.groups[name].members
        if members in seen:
            continue
        seen.add(members)
        level = microreboot_level(registry, members).name
        s.scripted_recoveries.append(ScriptedRecovery(at, level, name))
        at += 10_000
    s.duration_ms = at + 30_000

    world = World(s)
    world.run()
    print(f"{'target':24s} {'window_ms':>9s} {'failed_requests':>15s}")
    ledger = world.ledger
    status = ledger.action_status
    bad_issued = [issued for issued, action in zip(ledger.issued_at, ledger.action_of)
                  if status[action] == "bad"]
    for op in world.recoveries:
        t0, t1 = op.started_at, op.started_at + 10_000
        failed = sum(1 for issued in bad_issued if t0 <= issued < t1)
        print(f"{op.target:24s} {op.duration_ms:9d} {failed:15d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
