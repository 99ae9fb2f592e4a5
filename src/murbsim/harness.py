"""Experiment harness: scenario files, preset experiments, metric export, CLI.

Outputs per run: taw.csv (per-second action-weighted tallies), latency.csv
(per-request log), episodes.log (recovery actions), timeline.csv (functional-
group availability gaps), summary.txt / summary.json.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import typing
from bisect import bisect_left, bisect_right

from .app import OpCatalogError
from .cluster import six_nines_budget
from .config import (ClusterConfig, DetectorConfig, FaultConfig, PolicyConfig,
                     RejuvenationConfig, Scenario, ScriptedRecovery, StoreConfig,
                     WorkloadConfig)
from .faultlib import (ERR_SESSION, FAULT_CLASSES, OK, OUTCOME_CODE, RECOVERY_LEVELS,
                       SITE_COMPONENT, SITE_PROCESS, FaultError, cure_profile)
from .recoverymgr import detection_headroom, fp_headroom
from .runtime import CatalogError, DeployError, load_catalog
from .workload import BAD, latency_stats
from .world import World

TAW_HEADER = "second,good_requests,bad_requests,good_actions,bad_actions"
LATENCY_HEADER = "request_id,op,issued_ms,latency_ms,outcome"
TIMELINE_HEADER = "group,start_ms,end_ms"


class ScenarioError(Exception):
    pass


# -- scenario files -----------------------------------------------------------

_SECTION_TO_FIELD = {
    "scenario": None,
    "cluster": "cluster",
    "workload": "workload",
    "stores": "stores",
    "detector": "detector",
    "policy": "policy",
    "rejuvenation": "rejuvenation",
}

# Repeatable sections, each adding one event: (config class, Scenario list,
# file keys that differ from the field name, fixed fields, required keys).
# [murb] is shorthand for [recovery] with level murb_group.
_EVENT_SECTIONS = {
    "fault": (FaultConfig, "faults", {"inject_at_ms": "at", "fault_class": "class"},
              {}, ("at", "class")),
    "recovery": (ScriptedRecovery, "scripted_recoveries", {"at_ms": "at"},
                 {}, ("at", "level")),
    "murb": (ScriptedRecovery, "scripted_recoveries", {"at_ms": "at"},
             {"level": "murb_group"}, ("at", "target")),
}


@functools.cache
def _field_types(cls) -> dict:
    """A config class's field types, with the ranges config.py attaches."""
    return typing.get_type_hints(cls, include_extras=True)


def _coerce(value: str, target_type, lineno: int):
    try:
        if typing.get_origin(target_type) is typing.Annotated:
            base, allowed = typing.get_args(target_type)      # a config.Range
            return allowed.check(_coerce(value, base, lineno))
        if target_type is bool:
            if value in ("true", "yes", "1"):
                return True
            if value in ("false", "no", "0"):
                return False
            raise ValueError(f"expected boolean, got {value!r}")
        if target_type is int:
            return int(value)
        if target_type is float:
            return float(value)
        if typing.get_origin(target_type) is typing.Literal:
            allowed = typing.get_args(target_type)
            if value not in allowed:
                raise ValueError(f"expected {' | '.join(allowed)}, got {value!r}")
        return value
    except ValueError as exc:
        raise ScenarioError(f"line {lineno}: {exc}") from None


def parse_scenario(text: str) -> Scenario:
    scenario = Scenario()
    section = None
    pending: dict[str, object] | None = None     # fields of the open event section
    pending_keys: dict[str, tuple[str, type]] = {}
    pending_line = 0
    events: list[tuple[int, str, object]] = []   # (line, section, event) per event section

    def flush_pending() -> None:
        nonlocal pending
        if pending is None:
            return
        cls, list_name, _, fixed, required = _EVENT_SECTIONS[section]
        for key in required:
            if pending_keys[key][0] not in pending:
                raise ScenarioError(
                    f"line {pending_line}: [{section}] missing field {key!r}")
        event = cls(**pending, **fixed)
        getattr(scenario, list_name).append(event)
        events.append((pending_line, section, event))
        pending = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            flush_pending()
            name = line[1:-1]
            if name in _SECTION_TO_FIELD:
                section = name
            elif name in _EVENT_SECTIONS:
                section = name
                cls, _, renames, fixed, _ = _EVENT_SECTIONS[name]
                types = _field_types(cls)
                pending = {}
                pending_keys = {renames.get(f.name, f.name): (f.name, types[f.name])
                                for f in dataclasses.fields(cls) if f.name not in fixed}
                pending_line = lineno
            else:
                raise ScenarioError(f"line {lineno}: unknown section [{name}]")
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ScenarioError(f"line {lineno}: expected 'key value'")
        key, value = parts
        if pending is not None:
            if key not in pending_keys:
                raise ScenarioError(f"line {lineno}: unknown key {key!r} in [{section}]")
            field_name, field_type = pending_keys[key]
            pending[field_name] = _coerce(value, field_type, lineno)
            continue
        if section is None:
            raise ScenarioError(f"line {lineno}: key outside any section")
        if section == "scenario":
            if key in ("duration_ms", "seed"):
                setattr(scenario, key, _coerce(value, _field_types(Scenario)[key], lineno))
            elif key in ("catalog_path", "ops_path", "matrix_path"):
                setattr(scenario, key, value)
            else:
                raise ScenarioError(f"line {lineno}: unknown key {key!r} in [scenario]")
        else:
            target = getattr(scenario, _SECTION_TO_FIELD[section])
            field_types = _field_types(type(target))
            if key not in field_types:
                raise ScenarioError(f"line {lineno}: unknown key {key!r} in [{section}]")
            setattr(target, key, _coerce(value, field_types[key], lineno))
    flush_pending()
    _check_events(scenario, events)
    return scenario


def _check_events(scenario: Scenario, events: list[tuple[int, str, object]]) -> None:
    """Reject a fault class, mode, level, node or target the world could not
    act on, so a bad event fails here rather than when the simulation reaches it."""
    components = None
    for lineno, section, event in events:
        where = f"line {lineno}: [{section}]"
        if isinstance(event, FaultConfig):
            try:
                cure_profile(event.fault_class, event.mode)
            except FaultError as exc:
                raise ScenarioError(f"{where} {exc}") from None
            site = FAULT_CLASSES[event.fault_class].site
            if site == SITE_PROCESS and event.target:
                raise ScenarioError(f"{where} {event.fault_class} takes no target")
            names_component = site == SITE_COMPONENT     # else a session key or nothing
        else:
            level = RECOVERY_LEVELS.get(event.level)
            if level is None or level.rank is None:      # a human is not a scripted action
                raise ScenarioError(f"{where} unknown level {event.level!r}")
            # an empty microreboot target means the web component
            names_component = level.microreboot and event.target != ""
        if not 0 <= event.node < scenario.cluster.nodes:
            raise ScenarioError(f"{where} node {event.node} outside the cluster "
                                f"of {scenario.cluster.nodes}")
        if names_component:
            if components is None:
                components = {spec.name for spec in load_catalog(scenario.catalog_path)[0]}
            if event.target not in components:
                raise ScenarioError(f"{where} unknown target component {event.target!r}")


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

    rejuvenation = []
    for svc in world.rejuvenators:
        rejuvenation.append({
            "node": svc.node,
            "completed_passes": svc.completed_passes,
            "candidates": svc.candidates[:5],
            "released_top": sorted(svc.released_by_component.items(),
                                   key=lambda kv: (-kv[1], kv[0]))[:5],
            "passes": svc.pass_log,
        })

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


# -- presets ------------------------------------------------------------------

def preset_fig1(seed: int) -> list[tuple[str, Scenario]]:
    runs = []
    for mode in ("murb", "restart"):
        s = Scenario(seed=seed)
        s.duration_ms = 2_100_000
        s.policy = PolicyConfig(recovery_mode=mode)
        s.faults = [
            FaultConfig(600_000, "corrupt_tx_map", "Item", "null"),
            FaultConfig(1_200_000, "corrupt_registry_entry", "RegisterNewUser", "null"),
            FaultConfig(1_800_000, "transient_exception", "BrowseCategories"),
        ]
        runs.append((mode, s))
    return runs


def post_fig1(results: dict[str, dict]) -> dict:
    out = {}
    for mode in ("murb", "restart"):
        incidents = results[mode]["incidents"]
        failed = [i["failed_requests"] for i in incidents]
        out[mode] = {
            "failed_per_incident": failed,
            "avg_failed_per_incident": round(sum(failed) / len(failed), 1),
            "total_failed_requests": results[mode]["totals"]["bad_requests"],
            "total_failed_actions": results[mode]["totals"]["bad_actions"],
            "session_lost_requests": results[mode]["session_lost_requests"],
        }
    out["ratio"] = round(out["restart"]["avg_failed_per_incident"] /
                         max(out["murb"]["avg_failed_per_incident"], 1e-9), 2)
    return out


_FIG3_SIZES = ((2, 400), (4, 450), (6, 500), (8, 550))


_FIG3_INJECTS = (100_000, 170_000, 240_000)


def preset_fig3(seed: int) -> list[tuple[str, Scenario]]:
    runs = []
    for nodes, clients in _FIG3_SIZES:
        for mode in ("murb", "restart"):
            s = Scenario(seed=seed + nodes)
            s.duration_ms = 310_000
            s.cluster = ClusterConfig(nodes=nodes, failover=True)
            s.workload = WorkloadConfig(clients_per_node=clients)
            s.policy = PolicyConfig(recovery_mode=mode)
            s.faults = [FaultConfig(at, "transient_exception",
                                    "BrowseCategories", node=0)
                        for at in _FIG3_INJECTS]
            runs.append((f"{mode}_n{nodes}", s))
    return runs


def post_fig3(results: dict[str, dict]) -> dict:
    out: dict = {"runs": {}}
    for nodes, clients in _FIG3_SIZES:
        for mode in ("murb", "restart"):
            name = f"{mode}_n{nodes}"
            incidents = results[name]["incidents"]
            failed = [i["failed_requests"] for i in incidents]
            sessions = [i["sessions_at_inject"] for i in incidents]
            out["runs"][name] = {
                "nodes": nodes,
                "clients_per_node": clients,
                "failed_per_incident": failed,
                "avg_failed": round(sum(failed) / len(failed), 1),
                "avg_sessions_at_inject": round(sum(sessions) / len(sessions), 1),
                "count_over_8s": results[name]["latency"]["count_over_8s"],
            }
    murb_counts = [out["runs"][f"murb_n{n}"]["avg_failed"] for n, _ in _FIG3_SIZES]
    out["murb_spread"] = round(max(murb_counts) / max(min(murb_counts), 1e-9), 3)
    restart = sorted(
        (out["runs"][f"restart_n{n}"]["avg_sessions_at_inject"],
         out["runs"][f"restart_n{n}"]["avg_failed"]) for n, _ in _FIG3_SIZES)
    out["restart_by_sessions"] = restart
    out["restart_monotone"] = all(restart[i][1] <= restart[i + 1][1]
                                  for i in range(len(restart) - 1))
    return out


_FIG5A_GRID_S = (0, 5, 10, 15, 20, 25, 30, 35, 40, 45)


def preset_fig5a(seed: int) -> list[tuple[str, Scenario]]:
    runs = []
    inject = 60_000
    for tdet in _FIG5A_GRID_S:
        s = Scenario(seed=seed)
        s.duration_ms = 200_000
        s.policy = PolicyConfig(enabled=False)
        s.faults = [FaultConfig(inject, "transient_exception", "WebUI")]
        s.scripted_recoveries = [ScriptedRecovery(inject + tdet * 1000, "murb_web")]
        runs.append((f"murb_t{tdet}", s))
    s = Scenario(seed=seed)
    s.duration_ms = 200_000
    s.policy = PolicyConfig(enabled=False)
    s.faults = [FaultConfig(inject, "transient_exception", "WebUI")]
    s.scripted_recoveries = [ScriptedRecovery(inject, "restart_process")]
    runs.append(("restart_t0", s))
    return runs


def post_fig5a(results: dict[str, dict]) -> dict:
    # Count by issue time: work submitted once the fault is active. Requests
    # issued before the incident and reclassified retroactively are a fixed
    # offset shared by all delays, not part of the per-second failing rate the
    # headroom formula reasons about.
    failed = {t: results[f"murb_t{t}"]["incidents"][0]["failed_requests_issued_in_window"]
              for t in _FIG5A_GRID_S}
    c_full = results["restart_t0"]["incidents"][0]["failed_requests_issued_in_window"]
    c_micro = failed[0]
    t_hi = _FIG5A_GRID_S[-1]
    slope = (failed[t_hi] - c_micro) / t_hi          # failed requests per second of delay
    formula = detection_headroom(slope, c_micro, c_full) if slope > 0 else 0.0
    crossover = None
    grid = list(_FIG5A_GRID_S)
    for a, b in zip(grid, grid[1:]):
        if failed[a] <= c_full <= failed[b]:
            frac = (c_full - failed[a]) / max(failed[b] - failed[a], 1)
            crossover = a + frac * (b - a)
            break
    return {
        "c_micro": c_micro,
        "c_full": c_full,
        "failed_by_tdet": failed,
        "fail_rate_rps": round(slope, 2),
        "formula_crossover_s": round(formula, 2),
        "simulated_crossover_s": round(crossover, 2) if crossover is not None else None,
    }


def preset_fig5b(seed: int) -> list[tuple[str, Scenario]]:
    runs = []
    for mode in ("murb", "restart"):
        s = Scenario(seed=seed)
        s.duration_ms = 150_000
        s.policy = PolicyConfig(recovery_mode=mode)
        s.faults = [FaultConfig(60_000, "transient_exception", "BrowseCategories")]
        runs.append((mode, s))
    return runs


def post_fig5b(results: dict[str, dict]) -> dict:
    c_micro = results["murb"]["incidents"][0]["failed_requests"]
    c_full = results["restart"]["incidents"][0]["failed_requests"]
    n, rate = fp_headroom(c_micro, c_full)
    curve = [{"n": k, "failed_with_cheap_recovery": (k + 1) * c_micro}
             for k in range(0, n + 6)]
    return {
        "c_micro": c_micro,
        "c_full": c_full,
        "max_tolerable_false_positives": n,
        "fp_rate": round(rate, 4),
        "curve": curve,
    }


def preset_fig6(seed: int) -> list[tuple[str, Scenario]]:
    runs = []
    for mode in ("murb", "restart"):
        s = Scenario(seed=seed)
        s.duration_ms = 1_800_000
        s.rejuvenation = RejuvenationConfig(enabled=True, mode=mode)
        s.faults = [
            FaultConfig(0, "app_memory_leak", "Item", bytes_per_invoke=2_000),
            FaultConfig(0, "app_memory_leak", "ViewItem", bytes_per_invoke=250_000),
        ]
        runs.append((mode, s))
    return runs


def post_fig6(results: dict[str, dict]) -> dict:
    out = {}
    for mode in ("murb", "restart"):
        r = results[mode]
        out[mode] = {
            "total_failed_requests": r["totals"]["bad_requests"],
            "completed_passes": r["rejuvenation"][0]["completed_passes"],
            "passes": r["rejuvenation"][0]["passes"],
            "candidates_head": r["rejuvenation"][0]["candidates"],
        }
    out["ratio"] = round(out["restart"]["total_failed_requests"] /
                         max(out["murb"]["total_failed_requests"], 1), 2)
    return out


# (name, fault class, mode, target, bytes/invoke, probability, store,
#  duration_ms, expected terminal level, expect manual-repair flag)
TABLE2_ROWS = [
    ("deadlock", "deadlock", "", "MakeBid", 0, 1.0, "in_process", 120_000, "murb_group", False),
    ("infinite_loop", "infinite_loop", "", "SearchItemsByCategory", 0, 1.0, "in_process", 120_000, "murb_group", False),
    ("app_memory_leak", "app_memory_leak", "", "ViewItem", 13_000_000, 1.0, "in_process", 120_000, "murb_group", False),
    ("transient_exception", "transient_exception", "", "BrowseCategories", 0, 1.0, "in_process", 90_000, "murb_group", False),
    ("corrupt_primary_key_null", "corrupt_primary_key", "null", "Item", 0, 1.0, "in_process", 90_000, "murb_group", False),
    ("corrupt_primary_key_invalid", "corrupt_primary_key", "invalid", "Item", 0, 1.0, "in_process", 90_000, "murb_group", False),
    ("corrupt_primary_key_wrong", "corrupt_primary_key", "wrong", "Item", 0, 1.0, "in_process", 90_000, "murb_group", True),
    ("corrupt_registry_entry_null", "corrupt_registry_entry", "null", "RegisterNewUser", 0, 1.0, "in_process", 120_000, "murb_group", False),
    ("corrupt_registry_entry_invalid", "corrupt_registry_entry", "invalid", "BrowseCategories", 0, 1.0, "in_process", 90_000, "murb_group", False),
    ("corrupt_registry_entry_wrong", "corrupt_registry_entry", "wrong", "ViewItem", 0, 1.0, "in_process", 90_000, "murb_group", False),
    ("corrupt_tx_map_null", "corrupt_tx_map", "null", "Item", 0, 1.0, "in_process", 90_000, "murb_group", False),
    ("corrupt_tx_map_invalid", "corrupt_tx_map", "invalid", "Item", 0, 1.0, "in_process", 90_000, "murb_group", False),
    ("corrupt_tx_map_wrong", "corrupt_tx_map", "wrong", "Item", 0, 1.0, "in_process", 90_000, "murb_group", True),
    ("corrupt_stateless_attr_null", "corrupt_stateless_attr", "null", "MakeBid", 0, 1.0, "in_process", 60_000, "none", False),
    ("corrupt_stateless_attr_invalid", "corrupt_stateless_attr", "invalid", "MakeBid", 0, 1.0, "in_process", 60_000, "none", False),
    ("corrupt_stateless_attr_wrong", "corrupt_stateless_attr", "wrong", "MakeBid", 0, 1.0, "in_process", 120_000, "murb_web", True),
    ("corrupt_inproc_session_null", "corrupt_inproc_session", "null", "", 0, 1.0, "in_process", 120_000, "murb_web", False),
    ("corrupt_inproc_session_invalid", "corrupt_inproc_session", "invalid", "", 0, 1.0, "in_process", 120_000, "murb_web", False),
    ("corrupt_inproc_session_wrong", "corrupt_inproc_session", "wrong", "", 0, 1.0, "in_process", 120_000, "murb_web", True),
    ("corrupt_external_session", "corrupt_external_session", "", "", 0, 1.0, "external", 60_000, "none", False),
    ("corrupt_db_row", "corrupt_db_row", "", "Item", 0, 1.0, "in_process", 240_000, "escalate_human", True),
    ("leak_outside_app_intra_process", "leak_outside_app_intra_process", "", "", 1_500_000, 1.0, "in_process", 180_000, "restart_process", False),
    ("leak_outside_process", "leak_outside_process", "", "", 2_000_000, 1.0, "in_process", 260_000, "reboot_node", False),
    ("process_memory_bitflip", "process_memory_bitflip", "", "", 0, 0.5, "in_process", 150_000, "restart_process", True),
    ("bad_env", "bad_env", "", "", 0, 0.5, "in_process", 150_000, "restart_process", False),
]


def preset_table2(seed: int) -> list[tuple[str, Scenario]]:
    runs = []
    for (name, cls, mode, target, nbytes, prob, store, duration, _level, _manual) in TABLE2_ROWS:
        s = Scenario(seed=seed)
        s.duration_ms = duration
        s.workload = WorkloadConfig(clients_per_node=200)
        s.stores = StoreConfig(session_store=store)
        s.detector = DetectorConfig(kind="comparison")
        s.faults = [FaultConfig(20_000, cls, target, mode,
                                bytes_per_invoke=nbytes, fail_probability=prob)]
        runs.append((name, s))
    return runs


def post_table2(results: dict[str, dict]) -> dict:
    rows = []
    for (name, cls, mode, target, _b, _p, _s, _d, expected_level, expect_manual) in TABLE2_ROWS:
        r = results[name]
        episodes = r["episodes"]
        terminal = episodes[0]["terminal_level"] if episodes else "none"
        manual = episodes[0]["manual_repair_flagged"] if episodes \
            else r["manual_repair_needed"]
        rows.append({
            "row": name,
            "fault_class": cls,
            "mode": mode,
            "expected_level": expected_level,
            "terminal_level": terminal,
            "level_ok": terminal == expected_level,
            "expected_manual": expect_manual,
            "manual_flagged": manual,
            "manual_ok": manual == expect_manual,
        })
    return {"rows": rows, "all_ok": all(r["level_ok"] and r["manual_ok"] for r in rows)}


_TABLE6_TARGETS = ("ViewItem", "BrowseCategories", "SearchItemsByCategory", "Authenticate")
_TABLE6_TRIALS = 10


def preset_table6(seed: int) -> list[tuple[str, Scenario]]:
    murbs = []
    at = 60_000
    for target in _TABLE6_TARGETS:
        for _ in range(_TABLE6_TRIALS):
            murbs.append(ScriptedRecovery(at, "murb_group", target))
            at += 10_000
    duration = at + 30_000
    runs = []
    for name, retries, drain in (("no_retry", False, 0),
                                 ("retry", True, 0),
                                 ("drain_retry", True, 200)):
        s = Scenario(seed=seed)
        s.duration_ms = duration
        s.cluster = ClusterConfig(retries=retries, drain_delay_ms=drain)
        s.policy = PolicyConfig(enabled=False)
        s.scripted_recoveries = list(murbs)
        runs.append((name, s))
    return runs


def post_table6(results: dict[str, dict]) -> dict:
    out = {name: results[name]["totals"]["bad_requests"]
           for name in ("no_retry", "retry", "drain_retry")}
    out["masked_fraction"] = round(1.0 - out["retry"] / max(out["no_retry"], 1), 3)
    out["monotone"] = out["no_retry"] >= out["retry"] >= out["drain_retry"]
    return out


def preset_sec61(seed: int) -> list[tuple[str, Scenario]]:
    runs = []
    for name, failover in (("no_failover", False), ("failover", True)):
        s = Scenario(seed=seed)
        s.duration_ms = 210_000
        s.cluster = ClusterConfig(nodes=2, failover=failover)
        s.faults = [FaultConfig(90_000, "transient_exception",
                                "BrowseCategories", node=0)]
        runs.append((name, s))
    return runs


def post_sec61(results: dict[str, dict]) -> dict:
    a = results["no_failover"]["incidents"][0]["failed_requests"]
    b = results["failover"]["incidents"][0]["failed_requests"]
    return {"murb_without_failover": a, "failover_then_murb": b,
            "murb_without_failover_wins": a < b}


PRESETS = {
    "fig1": (preset_fig1, post_fig1),
    "fig3": (preset_fig3, post_fig3),
    "fig5a": (preset_fig5a, post_fig5a),
    "fig5b": (preset_fig5b, post_fig5b),
    "fig6": (preset_fig6, post_fig6),
    "table2": (preset_table2, post_table2),
    "table6": (preset_table6, post_table6),
    "sec61": (preset_sec61, post_sec61),
}


def _run_one(args: tuple[str, Scenario, str]) -> tuple[str, dict]:
    name, scenario, out_dir = args
    summary = run_scenario(scenario, os.path.join(out_dir, name))
    return name, summary


def run_preset(name: str, out_dir: str, seed: int = 1) -> dict:
    if name not in PRESETS:
        raise ScenarioError(f"unknown preset {name!r}; have {', '.join(sorted(PRESETS))}")
    builder, post = PRESETS[name]
    runs = builder(seed)
    os.makedirs(out_dir, exist_ok=True)
    jobs = [(run_name, scenario, out_dir) for run_name, scenario in runs]
    # Imported here: the pool module costs every world's start-up otherwise.
    from concurrent.futures import ProcessPoolExecutor

    # Each world runs on its own; its output bytes do not depend on the process.
    with ProcessPoolExecutor(max_workers=min(len(jobs), os.cpu_count() or 2)) as pool:
        results = dict(pool.map(_run_one, jobs))
    preset_summary = post(results)
    with open(os.path.join(out_dir, "preset_summary.json"), "w", encoding="utf-8") as fh:
        json.dump(preset_summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return preset_summary


# -- CLI ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="murbsim",
        description="Microreboot recovery simulator for a crash-only component service")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", required=True)

    p_preset = sub.add_parser("preset", help="run a packaged experiment")
    p_preset.add_argument("name", choices=sorted(PRESETS))
    p_preset.add_argument("--out", required=True)
    p_preset.add_argument("--seed", type=int, default=1)

    p_budget = sub.add_parser("budget", help="availability-budget arithmetic")
    p_budget.add_argument("--requests-per-year", type=float, required=True)
    p_budget.add_argument("--per-incident", type=float, required=True)
    p_budget.add_argument("--nines", type=float, default=0.999999)

    p_head = sub.add_parser("headroom", help="detection headroom calculators")
    p_head.add_argument("--c-micro", type=float, required=True)
    p_head.add_argument("--c-full", type=float, required=True)
    p_head.add_argument("--rate", type=float, default=None,
                        help="failing requests/s while undetected")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            scenario = load_scenario(args.scenario)
            if args.seed is not None:
                scenario.seed = args.seed
            summary = run_scenario(scenario, args.out)
            sys.stdout.write(render_summary(summary))
        elif args.command == "preset":
            preset_summary = run_preset(args.name, args.out, args.seed)
            sys.stdout.write(json.dumps(preset_summary, indent=2, sort_keys=True) + "\n")
        elif args.command == "budget":
            allowed = six_nines_budget(args.requests_per_year, args.per_incident,
                                       args.nines)
            sys.stdout.write(f"allowed incidents per year: {allowed}\n")
        elif args.command == "headroom":
            n, rate = fp_headroom(args.c_micro, args.c_full)
            sys.stdout.write(f"max tolerable false positives: n={n} "
                             f"(rate {100.0 * rate:.1f}%)\n")
            if args.rate is not None:
                seconds = detection_headroom(args.rate, args.c_micro, args.c_full)
                sys.stdout.write(f"max detection delay: {seconds:.1f} s\n")
    except (ScenarioError, CatalogError, DeployError, OpCatalogError) as exc:
        sys.stderr.write(f"scenario error: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
