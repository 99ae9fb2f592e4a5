"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Preset experiments are expensive, so each runs once per session (cached) and
criteria read the cached results. Run with `pytest tests/test_acceptance.py
-v -s` to see the per-criterion lines as they complete.
"""

import json
import os
import random
import subprocess
import sys
import time

import pytest

from murbsim.cluster import six_nines_budget
from murbsim.config import Scenario, ScriptedRecovery, WorkloadConfig
from murbsim.cli import PRESETS, run_preset
from murbsim.harness import run_scenario
from murbsim.recoverymgr import detection_headroom, fp_headroom
from murbsim.runtime import ComponentSpec, Registry, load_catalog
from murbsim.app import load_app_catalog
from murbsim.simcore import RngRoot
from murbsim.world import World

from oracles import (digest_tree, drive_ledger, random_trace, replay_classify,
                     sample_think_ms, workload_mix_check)

_CACHE: dict[str, tuple[dict, float, str]] = {}


def preset(name: str, tmp_root: str) -> tuple[dict, float, str]:
    if name not in _CACHE:
        out_dir = os.path.join(tmp_root, name)
        t0 = time.perf_counter()
        summary = run_preset(name, out_dir, seed=1)
        _CACHE[name] = (summary, time.perf_counter() - t0, out_dir)
    return _CACHE[name]


@pytest.fixture(scope="session")
def preset_root(tmp_path_factory):
    return str(tmp_path_factory.mktemp("presets"))


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_recovery_time_ratio(tmp_path):
    t0 = time.perf_counter()
    specs, overrides = load_catalog()
    registry = Registry(specs, overrides)
    groups = {registry.groups[n].members for n in registry.specs
              if registry.specs[n].kind != "web"}
    durations = sorted(sum(registry.group_cost(g)) for g in groups)
    process_ms = Scenario().cluster.process_restart_ms

    s = Scenario(duration_ms=40_000, seed=1)
    s.policy.enabled = False
    s.workload = WorkloadConfig(clients_per_node=20)
    s.scripted_recoveries = [ScriptedRecovery(5_000, "murb_group", "BrowseCategories"),
                             ScriptedRecovery(10_000, "murb_group", "Item"),
                             ScriptedRecovery(15_000, "restart_process")]
    summary = run_scenario(s, str(tmp_path / "c1"))
    reported = {(e["level"], e["target"]): e["duration_ms"]
                for e in summary["recovery_log"]}
    elapsed = time.perf_counter() - t0

    ok = (durations[0] == 411 and durations[-1] == 825
          and all(411 <= d <= 825 for d in durations)
          and process_ms == 19_083
          and process_ms / durations[-1] > 23
          and reported[("murb_group", "BrowseCategories")] == 411
          and reported[("murb_group", "EntityGroup")] == 825
          and reported[("restart_process", "node0")] == 19_083
          and elapsed < 5.0)
    report(1, ok, f"microreboots span {durations[0]}-{durations[-1]} ms, process "
                  f"restart {process_ms} ms (ratio {process_ms / durations[-1]:.1f}x), "
                  f"summary equals config, runtime {elapsed:.1f}s")


def test_criterion_02_fig1_lost_work(preset_root):
    summary, elapsed, _ = preset("fig1", preset_root)
    murb = summary["murb"]["avg_failed_per_incident"]
    restart = summary["restart"]["avg_failed_per_incident"]
    ratio = restart / murb
    ok = (murb <= 300 and restart >= 2_000 and ratio >= 10
          and summary["murb"]["session_lost_requests"] == 0
          and summary["restart"]["session_lost_requests"] > 0
          and elapsed < 60.0)
    report(2, ok, f"failed/incident microreboot {murb} vs restart {restart} "
                  f"(ratio {ratio:.0f}x); session loss only after restarts; "
                  f"runtime {elapsed:.1f}s")


def test_criterion_03_fault_cure_matrix(preset_root):
    summary, _, _ = preset("table2", preset_root)
    bad = [r["row"] for r in summary["rows"] if not (r["level_ok"] and r["manual_ok"])]
    report(3, summary["all_ok"] and not bad,
           f"{len(summary['rows'])} fault rows terminate at their exact recovery "
           f"level with correct manual-repair flags" +
           (f"; mismatches: {bad}" if bad else ""))


def test_criterion_04_headroom_formulas(preset_root):
    n, rate = fp_headroom(78, 3917)
    seconds = detection_headroom(71.8, 78, 3917)
    summary, _, _ = preset("fig5a", preset_root)
    formula = summary["formula_crossover_s"]
    simulated = summary["simulated_crossover_s"]
    rel = abs(simulated - formula) / formula
    ok = (n == 49 and rate == pytest.approx(0.98)
          and 50.0 <= seconds <= 57.0
          and simulated is not None and rel <= 0.15)
    report(4, ok, f"fp_headroom(78,3917)=({n},{rate:.0%}); "
                  f"detection_headroom=53.5s in [50,57]; simulated crossover "
                  f"{simulated}s vs formula {formula}s ({rel:.1%} apart)")


def test_criterion_05_six_nines_budgets():
    budgets = [six_nines_budget(53.3e9, f) for f in (2_280, 162, 78)]
    ok = budgets == [23, 329, 683]
    report(5, ok, f"annual incident budgets {budgets} == [23, 329, 683]")


def test_criterion_06_rejuvenation(preset_root):
    summary, _, out_dir = preset("fig6", preset_root)
    ratio = summary["ratio"]
    head = summary["murb"]["candidates_head"][0]
    passes = summary["murb"]["passes"]
    sufficient = Scenario().rejuvenation.sufficient_bytes
    free_ok = all(p["free_after"] >= sufficient for p in passes)

    taw = open(os.path.join(out_dir, "murb", "taw.csv")).read().splitlines()[1:]
    good_by_second = {int(r.split(",")[0]): int(r.split(",")[1]) for r in taw}
    zero_seconds = [s for s in range(1_800) if good_by_second.get(s, 0) == 0]

    ok = (ratio >= 5.0 and head == "ViewItem" and free_ok and not zero_seconds
          and len(passes) >= 2)
    report(6, ok, f"restart/microreboot failed-request ratio {ratio}x (>=5); "
                  f"ViewItem heads candidate list; free heap >= threshold after "
                  f"{len(passes)} passes; goodput nonzero in all 1800 seconds")


def test_criterion_07_cluster_shape(preset_root):
    summary, _, _ = preset("fig3", preset_root)
    spread = summary["murb_spread"]
    ok = spread < 2.0 and summary["restart_monotone"]
    report(7, ok, f"microreboot counts vary {spread}x (<2) across 2/4/6/8 nodes; "
                  f"restart counts monotone in per-node sessions "
                  f"{summary['restart_by_sessions']}")


def test_criterion_08_masking_monotonicity(preset_root):
    summary, _, _ = preset("table6", preset_root)
    ok = summary["monotone"] and summary["masked_fraction"] >= 0.40
    report(8, ok, f"failures no-retry {summary['no_retry']} >= retry "
                  f"{summary['retry']} >= drain+retry {summary['drain_retry']}; "
                  f"retry masks {summary['masked_fraction']:.0%} (>=40%)")


def test_criterion_09_failover_comparison(preset_root):
    summary, _, _ = preset("sec61", preset_root)
    a, b = summary["murb_without_failover"], summary["failover_then_murb"]
    report(9, a < b, f"microreboot without failover fails {a} requests vs "
                     f"{b} with failover-then-microreboot")


def test_criterion_10_oracle_equivalence():
    for seed in range(1_000):
        events = random_trace(seed, 10_000)
        ledger, reqs = drive_ledger(events)
        expected = replay_classify(events)
        # a request's final class is its action's status, read from the columns
        status, action_of = ledger.action_status, ledger.action_of
        got = [status[action_of[r]] for r in reqs]
        assert got == expected, f"ledger mismatch at seed {seed}"

    rng = random.Random(0xC0FFEE)
    for trial in range(1_000):
        n = rng.randrange(1, 13)
        names = [f"c{i}" for i in range(n)]
        edges = {x: {names[b] for b in range(n)
                     if names[b] != x and rng.random() < 0.25} for x in names}
        reg = Registry([ComponentSpec(x, "stateless", frozenset(edges[x]), 1, 1, 0)
                        for x in names], [])
        for anchor in names:
            want = {anchor}
            frontier = [anchor]
            while frontier:
                cur = frontier.pop()
                for cand in names:
                    if cur in edges[cand] and cand not in want:
                        want.add(cand)
                        frontier.append(cand)
            assert set(reg.recovery_group(anchor).members) == want, \
                f"group mismatch, trial {trial}, anchor {anchor}"
    report(10, True, "ledger equals replay oracle on 1000x10k-event traces; "
                     "recovery groups equal reverse reachability on 1000 digraphs")


def test_criterion_11_determinism(preset_root, tmp_path_factory):
    rerun_root = str(tmp_path_factory.mktemp("rerun"))
    mismatched = []
    for name in sorted(PRESETS):
        _, _, first_dir = preset(name, preset_root)
        second_dir = os.path.join(rerun_root, name)
        run_preset(name, second_dir, seed=1)
        if digest_tree(first_dir) != digest_tree(second_dir):
            mismatched.append(name)
    report(11, not mismatched,
           f"all {len(PRESETS)} presets byte-identical across same-seed reruns" +
           (f"; mismatched: {mismatched}" if mismatched else ""))


def test_criterion_12_workload_calibration():
    catalog = load_app_catalog()
    mix = workload_mix_check(catalog)
    targets = {"read_only": 32, "session_init": 23, "static": 12,
               "search": 12, "session_update": 11, "db_update": 10}
    mix_ok = all(abs(mix[c] - t) <= 2.0 for c, t in targets.items())

    s = Scenario(duration_ms=120_000, seed=5)
    w = World(s)
    w.run()
    throughput = w.ledger.totals()["completed_requests"] / 120.0
    tput_ok = 72.09 * 0.9 <= throughput <= 72.09 * 1.1

    rng = RngRoot(3).fork("think")
    draws = [sample_think_ms(rng, 7_000, 70_000) for _ in range(100_000)]
    mean = sum(draws) / len(draws)
    think_ok = abs(mean - 7_000) / 7_000 <= 0.05 and max(draws) <= 70_000

    ok = mix_ok and tput_ok and think_ok
    report(12, ok, f"category mix within +/-2 points; throughput "
                   f"{throughput:.1f} req/s in 72.09+/-10%; think mean "
                   f"{mean / 1000:.2f}s (max {max(draws) / 1000:.0f}s)")


# -- golden digests -----------------------------------------------------------
# tests/golden/preset_digests.json holds one sha256 per preset output tree at
# seed 1 (scripts/preset_digests.py writes it). These tests fail when a change
# moves any output byte, which a same-code rerun (criterion 11) cannot see.

_TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
_GOLDEN = os.path.join(_TESTS_DIR, "golden", "preset_digests.json")


def golden_digest(name: str) -> str | None:
    with open(_GOLDEN, encoding="utf-8") as fh:
        return json.load(fh).get(name)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_golden_preset_digest(name, preset_root):
    _, _, out_dir = preset(name, preset_root)
    assert digest_tree(out_dir) == golden_digest(name), \
        f"preset {name} output differs from {_GOLDEN}"


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_golden_digest_under_fixed_hash_seed(hash_seed, tmp_path):
    out_dir = str(tmp_path / "fig5b")
    code = ("import sys\n"
            "from murbsim.cli import run_preset\n"
            "from oracles import digest_tree\n"
            "run_preset('fig5b', sys.argv[1], seed=1)\n"
            "print(digest_tree(sys.argv[1]))\n")
    src = os.path.join(os.path.dirname(_TESTS_DIR), "src")
    path = os.pathsep.join(p for p in (src, _TESTS_DIR, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code, out_dir], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == golden_digest("fig5b")


def test_digest_tree_covers_directory_paths(tmp_path):
    for root, run in (("a", "run1"), ("b", "runX")):
        (tmp_path / root / run).mkdir(parents=True)
        (tmp_path / root / run / "f.csv").write_bytes(b"second,good\n0,1\n")
    assert digest_tree(str(tmp_path / "a")) != digest_tree(str(tmp_path / "b"))
