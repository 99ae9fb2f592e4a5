"""Scenario text for the three benchmark workloads, generated from a seed.

The simulator only ever sees the generated scenario text; the seed picks the
simulation's master seed and, for `campaign`, the fault schedule. The same
(workload, seed, size) always gives the same text.
"""

from __future__ import annotations

import random

WORKLOADS = ("steady", "campaign", "overload")

# Simulated milliseconds per world. `tiny` is the self-test size.
DURATION_MS = {"full": 300_000, "tiny": 120_000}

# Rows of the simulator's Table 2 fault matrix whose ground-truth cure is a
# group or web microreboot: (fault class, corruption mode).
# Frozen here so that a change to the simulator's presets cannot change the
# benchmark. app_memory_leak is left out: a cured leak keeps leaking on the
# fresh instances, so it would turn the rest of a run into the rejuvenation
# workload that `overload` already covers.
CAMPAIGN_CLASSES = (
    ("deadlock", ""),
    ("infinite_loop", ""),
    ("transient_exception", ""),
    ("corrupt_primary_key", "null"),
    ("corrupt_primary_key", "invalid"),
    ("corrupt_primary_key", "wrong"),
    ("corrupt_registry_entry", "null"),
    ("corrupt_registry_entry", "invalid"),
    ("corrupt_registry_entry", "wrong"),
    ("corrupt_tx_map", "null"),
    ("corrupt_tx_map", "invalid"),
    ("corrupt_tx_map", "wrong"),
    ("corrupt_stateless_attr", "wrong"),
    ("corrupt_inproc_session", "null"),
    ("corrupt_inproc_session", "invalid"),
    ("corrupt_inproc_session", "wrong"),
)

# Targets rotate within the kind of component each class acts on: the
# transaction-map and primary-key faults only fire on transactional paths,
# which go through the entity beans; session corruption hits every record.
_ENTITY_TARGETS = ("Item", "User", "Bid")
_STATELESS_TARGETS = ("BrowseCategories", "ViewItem", "SearchItemsByCategory",
                      "MakeBid", "ViewUserInfo", "BrowseRegions")
_ENTITY_CLASSES = ("corrupt_primary_key", "corrupt_tx_map")

CAMPAIGN_NODES = 4
CAMPAIGN_FIRST_FAULT_MS = 30_000
CAMPAIGN_FAULT_EVERY_MS = 15_000
CAMPAIGN_QUIET_TAIL_MS = 30_000     # no new fault this close to the end


def campaign_faults(seed: int, duration_ms: int) -> list[dict]:
    """The fault schedule: one fault every 15 s, classes in a seeded order.

    Classes cycle through a seeded permutation and nodes round-robin, shifted
    by one node per cycle, so a class lands on a different node each time it
    comes round: no node gets two infinite loops pinning both CPU slots.
    """
    rng = random.Random(f"perfbench-campaign-{seed}")
    order = list(CAMPAIGN_CLASSES)
    rng.shuffle(order)
    offsets = {"entity": rng.randrange(len(_ENTITY_TARGETS)),
               "stateless": rng.randrange(len(_STATELESS_TARGETS))}
    faults = []
    at = CAMPAIGN_FIRST_FAULT_MS
    i = 0
    while at <= duration_ms - CAMPAIGN_QUIET_TAIL_MS:
        cls, mode = order[i % len(order)]
        if cls == "corrupt_inproc_session":
            target = ""
        elif cls in _ENTITY_CLASSES:
            target = _ENTITY_TARGETS[(offsets["entity"] + i) % len(_ENTITY_TARGETS)]
        else:
            target = _STATELESS_TARGETS[(offsets["stateless"] + i) % len(_STATELESS_TARGETS)]
        faults.append({"at": at, "class": cls, "target": target, "mode": mode,
                       "node": (i + i // len(order)) % CAMPAIGN_NODES})
        at += CAMPAIGN_FAULT_EVERY_MS
        i += 1
    return faults


def scenario_text(workload: str, seed: int, size: str = "full") -> str:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")
    duration = DURATION_MS[size]
    lines = ["[scenario]", f"duration_ms {duration}", f"seed {seed}", ""]
    if workload in ("steady", "campaign"):
        lines += ["[cluster]", f"nodes {CAMPAIGN_NODES}"]
        if workload == "campaign":
            lines.append("failover true")
        lines += ["", "[workload]", "clients_per_node 500", "",
                  "[stores]", "session_store in_process", "",
                  "[detector]",
                  "kind " + ("comparison" if workload == "campaign" else "fast"), ""]
        if workload == "campaign":
            for f in campaign_faults(seed, duration):
                lines += ["[fault]", f"at {f['at']}", f"class {f['class']}",
                          f"node {f['node']}"]
                if f["target"]:
                    lines.append(f"target {f['target']}")
                if f["mode"]:
                    lines.append(f"mode {f['mode']}")
                lines.append("")
    else:
        # One node offered more work than its CPU serves, external checksummed
        # sessions, and the rejuvenation experiment's two leaking components.
        lines += ["[cluster]", "nodes 1", "",
                  "[workload]", "clients_per_node 2000", "",
                  "[stores]", "session_store external", "",
                  "[detector]", "kind fast", "",
                  "[rejuvenation]", "enabled true", "mode murb", "",
                  "[fault]", "at 0", "class app_memory_leak", "target Item",
                  "bytes_per_invoke 2000", "",
                  "[fault]", "at 0", "class app_memory_leak", "target ViewItem",
                  "bytes_per_invoke 250000", ""]
    return "\n".join(lines)
