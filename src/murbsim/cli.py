"""Packaged experiments and the `murbsim` command line, kept out of harness so
that a process that runs one world never compiles them. Each preset runs the
scenarios of one paper figure or table in a process pool and reduces them."""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .cluster import six_nines_budget
from .config import (ClusterConfig, DetectorConfig, FaultConfig, PolicyConfig,
                     RejuvenationConfig, Scenario, ScriptedRecovery, StoreConfig,
                     WorkloadConfig)
from .harness import ScenarioError, load_scenario, render_summary, run_scenario
from .recoverymgr import detection_headroom, fp_headroom


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
    except ScenarioError as exc:
        sys.stderr.write(f"scenario error: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
