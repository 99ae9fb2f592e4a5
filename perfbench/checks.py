"""Output checks, made from outside the simulator on every benchmark world.

Each function returns a list of problems; an empty list means the check
passed. They read the files the world wrote and the post-run state the child
process recorded, never the simulator's own objects.
"""

from __future__ import annotations

import json
import os


def check_totals(summary: dict) -> list[str]:
    t = summary["totals"]
    classified = t["good_requests"] + t["bad_requests"] + t["abandoned_requests"]
    if classified != t["completed_requests"]:
        return [f"good + bad + abandoned = {classified} but "
                f"{t['completed_requests']} requests completed"]
    return []


def check_latency_rows(out_dir: str, completed: int) -> list[str]:
    problems = []
    seen: set[str] = set()
    rows = 0
    with open(os.path.join(out_dir, "latency.csv"), encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != "request_id,op,issued_ms,latency_ms,outcome":
            problems.append(f"latency.csv header is {header!r}")
        for lineno, line in enumerate(fh, start=2):
            fields = line.rstrip("\n").split(",")
            if len(fields) != 5:
                problems.append(f"latency.csv line {lineno} has {len(fields)} fields")
                continue
            rid = fields[0]
            if rid in seen:
                problems.append(f"latency.csv repeats request {rid} (line {lineno})")
            seen.add(rid)
            if int(fields[3]) < 0:
                problems.append(f"latency.csv request {rid} never completed")
            rows += 1
    if rows != completed:
        problems.append(f"latency.csv has {rows} rows for {completed} completed requests")
    return problems[:10]


def check_idle(state: dict) -> list[str]:
    problems = []
    for i, node in enumerate(state["nodes"]):
        for key in ("workers_busy", "queued", "inflight", "parked", "cpu_queue"):
            if node[key] != 0:
                problems.append(f"node {i}: {key} = {node[key]} after the run")
        if node["cpu_busy"] + node["cpu_pinned"] > node["cpu_slots"]:
            problems.append(f"node {i}: CPU busy {node['cpu_busy']} + pinned "
                            f"{node['cpu_pinned']} > {node['cpu_slots']} slots")
    return problems


def check_world(out_dir: str, state: dict) -> tuple[dict | None, list[str]]:
    """Run every check on one world's output; (summary, problems)."""
    try:
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        problems = check_totals(summary)
        problems += check_latency_rows(out_dir, summary["totals"]["completed_requests"])
    except (OSError, ValueError, KeyError) as exc:
        return None, [f"unreadable output: {exc}"]
    problems += check_idle(state)
    return summary, problems
