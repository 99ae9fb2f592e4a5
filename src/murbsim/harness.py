"""Experiment harness: scenario files, one world's run, metric export.

Outputs per run: taw.csv (per-second action-weighted tallies), latency.csv
(per-request log), episodes.log (recovery actions), timeline.csv (functional-
group availability gaps), summary.txt / summary.json.
"""

from __future__ import annotations

import functools
import json
import os
from bisect import bisect_left, bisect_right

from .cluster import six_nines_budget
from .config import FaultConfig, Scenario, ScriptedRecovery
from .faultlib import ERR_SESSION, OK, OUTCOME_CODE, FaultError
from .runtime import Registry, ScenarioError, load_catalog, records
from .workload import BAD, latency_stats
from .world import World, check_event

TAW_HEADER = "second,good_requests,bad_requests,good_actions,bad_actions"
LATENCY_HEADER = "request_id,op,issued_ms,latency_ms,outcome"
TIMELINE_HEADER = "group,start_ms,end_ms"


# -- scenario files -----------------------------------------------------------

# [scenario] sets Scenario's own settings, any other of these sections the
# settings of Scenario's sub-config of the same name.
_SETTINGS_SECTIONS = ("scenario", "cluster", "workload", "stores", "detector", "policy",
                      "rejuvenation")

# Repeatable sections, each adding one event: (config class, Scenario list,
# file keys that differ from the field name, fixed fields, required fields).
# [murb] is shorthand for [recovery] with level murb_group.
_EVENT_SECTIONS = {
    "fault": (FaultConfig, "faults", {"inject_at_ms": "at", "fault_class": "class"},
              {}, ("inject_at_ms", "fault_class")),
    "recovery": (ScriptedRecovery, "scripted_recoveries", {"at_ms": "at"},
                 {}, ("at_ms", "level")),
    "murb": (ScriptedRecovery, "scripted_recoveries", {"at_ms": "at"},
             {"level": "murb_group"}, ("at_ms", "target")),
}


@functools.cache
def _keys(section: str) -> dict[str, str]:
    """A section's file keys, each to its field: a settings section's are its
    class's fields but a sub-config or an event list, whose default is the
    class that builds it."""
    if section in _EVENT_SECTIONS:
        cls, _, renames, fixed, _ = _EVENT_SECTIONS[section]
        return {renames.get(f, f): f for f in cls._fields if f not in fixed}
    cls = Scenario if section == "scenario" else Scenario._defaults[section]
    return {f: f for f in cls._fields if not isinstance(cls._defaults.get(f), type)}


def _coerce(cls, name: str, value: str, lineno: int):
    """`value` as field `name` of config class `cls`, read by the field's base
    type (bool, int, float, else the string) and checked as code's assignment is."""
    kind = cls.types[name]
    kind = getattr(kind, "__origin__", kind)     # Annotated[int, Range] reads as int
    try:
        if kind is bool:
            if value in ("true", "yes", "1"):
                return True
            if value in ("false", "no", "0"):
                return False
            raise ValueError(f"expected boolean, got {value!r}")
        if kind is int:
            value = int(value)
        elif kind is float:
            value = float(value)
        return cls.check(name, value)
    except ValueError as exc:
        raise ScenarioError(f"line {lineno}: {exc}") from None


def parse_scenario(text: str) -> Scenario:
    scenario = Scenario()
    section = None
    events: list[tuple[int, str, dict[str, object]]] = []   # (line, section, fields) each
    for lineno, line in records(text):
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            if section in _EVENT_SECTIONS:
                cls, fields = _EVENT_SECTIONS[section][0], {}
                events.append((lineno, section, fields))
            elif section in _SETTINGS_SECTIONS:
                target = scenario if section == "scenario" else getattr(scenario, section)
                cls = type(target)
            else:
                raise ScenarioError(f"line {lineno}: unknown section [{section}]")
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ScenarioError(f"line {lineno}: expected 'key value'")
        if section is None:
            raise ScenarioError(f"line {lineno}: key outside any section")
        key, value = parts
        field = _keys(section).get(key)
        if field is None:
            raise ScenarioError(f"line {lineno}: unknown key {key!r} in [{section}]")
        value = _coerce(cls, field, value, lineno)
        if section in _EVENT_SECTIONS:
            fields[field] = value
        else:
            setattr(target, field, value)
    # the world's own event check, run here so that a bad event fails with its line
    registry = Registry(*load_catalog(scenario.catalog_path)) if events else None
    for lineno, section, fields in events:
        cls, list_name, renames, fixed, required = _EVENT_SECTIONS[section]
        for field in required:
            if field not in fields:
                raise ScenarioError(f"line {lineno}: [{section}] missing field "
                                    f"{renames.get(field, field)!r}")
        event = cls(**fields, **fixed)
        getattr(scenario, list_name).append(event)
        try:
            check_event(registry, scenario.cluster.nodes, event)
        except FaultError as exc:
            raise ScenarioError(f"line {lineno}: [{section}] {exc}") from None
    return scenario


def load_scenario(path: str) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())


# -- summary and export -------------------------------------------------------

def functional_group_timeline(world: World) -> dict[str, list[tuple[int, int]]]:
    """Unavailability intervals per functional group, from response-level
    failures spanning [issue, completion], merged where they touch.

    The ledger holds requests in issue order, so each failure starts no
    earlier than its group's last interval, and merges into it or follows it.
    """
    group_of = [op.functional_group for op in world.catalog.op_list]
    ok = OUTCOME_CODE[OK]
    merged: dict[str, list[tuple[int, int]]] = {}
    ledger = world.ledger
    for code, issued, done, outcome in zip(ledger.op_code, ledger.issued_at,
                                           ledger.completed_at, ledger.outcome_code):
        if done < 0 or outcome == ok:
            continue
        intervals = merged.setdefault(group_of[code], [])
        if intervals and issued <= intervals[-1][1]:
            if done > intervals[-1][1]:
                intervals[-1] = (intervals[-1][0], done)
        else:
            intervals.append((issued, done))
    return dict(sorted(merged.items()))


def _incidents(world: World, recovery_log: list[dict]) -> list[dict]:
    """Failed work attributed to fault-injection incidents, in one pass.

    Fault k's window runs from its inject time to the next fault's; of faults
    injected together only the last has a non-empty window. A bad action
    counts in the window of its resolution time. A session-lost request counts
    in the window of its completion, once the first recovery completed after
    that window's inject.
    """
    faults = sorted(world.fault_plan.faults.values(), key=lambda f: f.inject_at)
    if not faults:
        return []
    starts = [f.inject_at for f in faults]
    ends = starts[1:] + [1 << 62]

    def window(t: int) -> int:
        return bisect_right(starts, t) - 1       # -1: before the first inject

    ledger = world.ledger
    status, resolved = ledger.action_status, ledger.action_resolved_at
    failed_actions, failed_requests, issued_in_window, post_loss = (
        [0] * len(faults) for _ in range(4))
    for action, size in enumerate(ledger.action_size):
        if status[action] == BAD and (k := window(resolved[action])) >= 0:
            failed_actions[k] += 1
            failed_requests[k] += size
    completions = sorted(op.completed_at for op in world.recoveries
                         if op.completed_at >= 0) + [1 << 62]
    first_done = [completions[bisect_left(completions, s)] for s in starts]
    session_lost = OUTCOME_CODE[ERR_SESSION]
    for issued, done, action, code in zip(ledger.issued_at, ledger.completed_at,
                                          ledger.action_of, ledger.outcome_code):
        if status[action] == BAD and (k := window(resolved[action])) >= 0 \
                and starts[k] <= issued < ends[k]:
            issued_in_window[k] += 1
        if code == session_lost and (k := window(done)) >= 0 \
                and done >= first_done[k]:
            post_loss[k] += 1
    recoveries: list[list[dict]] = [[] for _ in faults]
    for entry in recovery_log:
        if (k := window(entry["time_ms"])) >= 0:
            recoveries[k].append(entry)

    return [{
        "inject_ms": f.inject_at,
        "fault_class": f.fault_class,
        "target": f.target,
        "mode": f.mode,
        "failed_requests": failed_requests[k],
        "failed_requests_issued_in_window": issued_in_window[k],
        "failed_actions": failed_actions[k],
        "post_recovery_session_lost": post_loss[k],
        "recovery_actions": recoveries[k],
        "sessions_at_inject": f.sessions_at_inject,
    } for k, f in enumerate(faults)]


def export_summary(world: World) -> dict:
    scenario = world.scenario
    ledger = world.ledger
    totals = ledger.totals()
    duration_s = scenario.duration_ms / 1000.0
    stats = latency_stats(ledger)

    session_lost = ledger.count_outcome(ERR_SESSION)
    recovery_log = [{
        "time_ms": op.started_at,
        "node": op.node,
        "level": op.level.name,
        "target": op.target,
        "duration_ms": op.duration_ms,
        "reason": op.reason,
    } for op in world.recoveries]
    incidents = _incidents(world, recovery_log)

    episodes = [{
        "node": e.node,
        "started_at": e.started_at,
        "anchor": e.anchor,
        "levels": e.levels,
        "terminal_level": e.terminal_level,
        "cured": e.cured,
        "manual_repair_flagged": e.manual_repair_flagged,
    } for e in world.rm.episodes]

    rejuvenation = [{
        "node": svc.node,
        "completed_passes": svc.completed_passes,
        "candidates": svc.candidates[:5],
        "released_top": sorted(svc.released_by_component.items(),
                               key=lambda kv: (-kv[1], kv[0]))[:5],
        "passes": svc.pass_log,
    } for svc in world.rejuvenators]

    per_incident = [i["failed_requests"] for i in incidents if i["failed_requests"] > 0]
    throughput = totals["completed_requests"] / duration_s if duration_s else 0.0
    summary = {
        "duration_ms": scenario.duration_ms,
        "seed": scenario.seed,
        "totals": totals,
        "throughput_rps": round(throughput, 3),
        "latency": {
            "count": stats["count"],
            "mean_ms": round(stats["mean"], 3),
            "p95_ms": round(stats["p95"], 3),
            "count_over_8s": stats["count_over_threshold"],
        },
        "session_lost_requests": session_lost,
        "incidents": incidents,
        "episodes": episodes,
        "rejuvenation": rejuvenation,
        "recovery_log": recovery_log,
        "heap_free_end": [n.heap.free for n in world.nodes],
        "tainted_rows": len(world.tx_store.tainted_rows()),
        "manual_repair_needed": any(world.manual_repair_flagged(n.node_id)
                                    for n in world.nodes),
        "reports": {"sent": world.channel.sent,
                    "delivered": world.channel.delivered,
                    "session_loss_reports": world.rm.session_loss_reports},
    }
    if per_incident:
        avg = sum(per_incident) / len(per_incident)
        summary["six_nines"] = {
            "avg_failed_per_incident": round(avg, 2),
            "allowed_incidents_per_year": six_nines_budget(
                max(throughput, 1e-9) * 31_536_000, avg),
        }
    return summary


def write_outputs(world: World, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    summary = export_summary(world)

    rows = world.ledger.taw_series(world.scenario.duration_ms)
    with open(os.path.join(out_dir, "taw.csv"), "w", encoding="utf-8") as fh:
        fh.write(TAW_HEADER + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")

    ledger = world.ledger
    with open(os.path.join(out_dir, "latency.csv"), "w", encoding="utf-8") as fh:
        fh.write(LATENCY_HEADER + "\n")
        for request_id, (op_name, issued, done, outcome) in enumerate(zip(
                ledger.ops(), ledger.issued_at, ledger.completed_at,
                ledger.outcomes()), start=1):
            latency = done - issued if done >= 0 else -1
            fh.write(f"{request_id},{op_name},{issued},{latency},{outcome}\n")

    with open(os.path.join(out_dir, "episodes.log"), "w", encoding="utf-8") as fh:
        for op in world.recoveries:
            fh.write(f"t={op.started_at} node={op.node} level={op.level.name} "
                     f"target={op.target} duration_ms={op.duration_ms} "
                     f"reason={op.reason} result={op.result or '-'}\n")

    timeline = functional_group_timeline(world)
    with open(os.path.join(out_dir, "timeline.csv"), "w", encoding="utf-8") as fh:
        fh.write(TIMELINE_HEADER + "\n")
        for group, intervals in timeline.items():
            for start, end in intervals:
                fh.write(f"{group},{start},{end}\n")

    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(render_summary(summary))
    return summary


def render_summary(summary: dict) -> str:
    t = summary["totals"]
    lines = [
        f"duration_ms {summary['duration_ms']}  seed {summary['seed']}",
        f"requests: completed {t['completed_requests']}  good {t['good_requests']}  "
        f"bad {t['bad_requests']}  uncounted {t['abandoned_requests']}",
        f"actions: good {t['good_actions']}  bad {t['bad_actions']}",
        f"throughput {summary['throughput_rps']} req/s  "
        f"latency mean {summary['latency']['mean_ms']} ms  "
        f"p95 {summary['latency']['p95_ms']} ms  "
        f">8s {summary['latency']['count_over_8s']}",
        f"session-loss failures {summary['session_lost_requests']}",
    ]
    for inc in summary["incidents"]:
        lines.append(
            f"incident t={inc['inject_ms']} {inc['fault_class']}"
            f"{'/' + inc['mode'] if inc['mode'] else ''} target={inc['target']}: "
            f"failed_requests {inc['failed_requests']} failed_actions {inc['failed_actions']} "
            f"post_recovery_session_lost {inc['post_recovery_session_lost']}")
    for ep in summary["episodes"]:
        lines.append(
            f"episode node={ep['node']} anchor={ep['anchor']} levels={ep['levels']} "
            f"terminal={ep['terminal_level']} cured={ep['cured']} "
            f"manual={ep['manual_repair_flagged']}")
    for rj in summary["rejuvenation"]:
        if rj["completed_passes"]:
            lines.append(f"rejuvenation node={rj['node']} passes={rj['completed_passes']} "
                         f"candidates_head={rj['candidates'][:3]}")
    if "six_nines" in summary:
        sn = summary["six_nines"]
        lines.append(f"six-nines: avg {sn['avg_failed_per_incident']} failed/incident -> "
                     f"{sn['allowed_incidents_per_year']} incidents/year allowed")
    return "\n".join(lines) + "\n"


def run_scenario(scenario: Scenario, out_dir: str) -> dict:
    world = World(scenario)
    world.run()
    return write_outputs(world, out_dir)
