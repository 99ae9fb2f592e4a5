"""murbsim benchmark: host cost of simulating one world, end to end and by layer.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 40 --trace 0

Run from a checkout of the repository. For `--seconds` seconds it simulates
worlds of the chosen workload one after another, each in a fresh process
with its own PYTHONHASHSEED (child.py), checks every world's output
(checks.py) and that all worlds wrote identical files, and reports medians.
With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
alternates untraced and traced worlds and prints the per-layer metrics of
the traced ones (tracer.py). `--workload all` runs the three workloads in
turn. The last line printed is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit status is 0 only if
every world passed every check; it is 2 when the simulator's source is
missing.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from checks import check_world
from tracer import PER_LAYER_UNITS
from workloads import DURATION_MS, WORKLOADS, scenario_text

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

DEFAULT_SEED = 1          # claims are confirmed on held-out seed 7 as well
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "req_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Printed for reading, not scored: the export is short and memory-bound, and
# the host's drift moves it too far between runs to hold a bound.
UNSCORED_UNITS = {"export_s": "s"}


def hash_seed(seed: int, index: int) -> int:
    return 1 + (seed * 1_000_003 + index * 7_919) % 4_294_967_294


class WorldRun:
    """One simulated world: its child process's result and its check outcome."""

    def __init__(self, index: int, traced: bool, hashseed: int):
        self.index = index
        self.traced = traced
        self.hashseed = hashseed
        self.result: dict | None = None
        self.summary: dict | None = None
        self.problems: list[str] = []


def simulate(run_dir: str, scenario_path: str, spans_stem: str, world: WorldRun) -> None:
    out = os.path.join(run_dir, f"world{world.index}")
    result_path = out + ".json"
    env = dict(os.environ, PYTHONHASHSEED=str(world.hashseed))
    t0 = time.perf_counter()
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT,
           "--scenario", scenario_path, "--out", out, "--result", result_path,
           "--spans", spans_stem, "--trace", str(int(world.traced)), "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        world.problems.append(f"world {world.index} ran over {CHILD_TIMEOUT_S} s")
        return
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        world.problems.append(f"world {world.index} exited {proc.returncode}: "
                              + " | ".join(tail))
        return
    with open(result_path, encoding="utf-8") as fh:
        world.result = json.load(fh)
    world.summary, problems = check_world(out, world.result["state"])
    world.problems += [f"world {world.index}: {p}" for p in problems]
    shutil.rmtree(out, ignore_errors=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str) -> bool:
    os.makedirs(WORK_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload}-seed{seed}-", dir=WORK_DIR)
    try:
        scenario_path = os.path.join(run_dir, "scenario.txt")
        with open(scenario_path, "w", encoding="utf-8") as fh:
            fh.write(scenario_text(workload, seed, size))
        spans_stem = os.path.join(WORK_DIR, f"spans-{workload}-seed{seed}")
        worlds = measure(run_dir, scenario_path, spans_stem, seed, seconds, trace)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return report(workload, seed, size, trace, worlds, spans_stem)


def measure(run_dir: str, scenario_path: str, spans_stem: str, seed: int,
            seconds: float, trace: bool) -> list[WorldRun]:
    """Simulate worlds (untraced, or untraced/traced pairs) until time is up."""
    worlds: list[WorldRun] = []
    rounds: list[float] = []
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            world = WorldRun(len(worlds), traced, hash_seed(seed, len(worlds)))
            worlds.append(world)
            simulate(run_dir, scenario_path, spans_stem, world)
            if world.result is None:
                return worlds     # a world that did not finish: stop here
        rounds.append(time.perf_counter() - t_round)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(rounds) > seconds:
            return worlds


def report(workload: str, seed: int, size: str, trace: bool, worlds: list[WorldRun],
           spans_stem: str) -> bool:
    finished = [w for w in worlds if w.result is not None]
    digests = collections.Counter(w.result["output_sha256"] for w in finished)
    common = digests.most_common(1)[0][0] if digests else ""
    for w in finished:
        if w.result["output_sha256"] != common:
            w.problems.append(f"world {w.index} (PYTHONHASHSEED={w.hashseed}) wrote "
                              f"output {w.result['output_sha256'][:16]}, others {common[:16]}")
    plain = [w.result for w in finished if not w.traced]
    traced = [w.result for w in finished if w.traced]

    metrics: dict[str, dict] = {}
    lines = []
    if trace and plain and traced:
        layer_values = {name: [r["layers"][name] for r in traced]
                        for name in PER_LAYER_UNITS if name != "trace_overhead_s"}
        layer_values["trace_overhead_s"] = [
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain)]
        for name, unit in PER_LAYER_UNITS.items():
            values = layer_values[name]
            if unit == "count" and len(set(values)) > 1:
                worlds[-1].problems.append(f"{name} differs between traced worlds: {values}")
            value = statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
            shown = f"{value:.0f}" if unit == "count" else f"{value:.6g}"
            lines.append(f"{name:32s} {shown} {unit}")
    elif not trace and plain:
        for name, unit in {**END_TO_END_UNITS, **UNSCORED_UNITS}.items():
            values = [r[name] for r in plain]
            q1, med, q3 = quartiles(values)
            if name in END_TO_END_UNITS:
                metrics[name] = {"value": med, "unit": unit}
            lines.append(f"{name:14s} {med:.6g} {unit}  "
                         f"(quartiles {q1:.6g} .. {q3:.6g} over {len(values)} worlds)")

    failed = sum(1 for w in worlds if w.problems)
    attempted = len(worlds)
    print(f"# murbsim benchmark: workload {workload}, seed {seed}, size {size} "
          f"({DURATION_MS[size] // 1000} simulated s per world), trace {int(trace)}")
    print(f"# {attempted} worlds, PYTHONHASHSEED "
          + " ".join(str(w.hashseed) for w in worlds))
    for line in lines:
        print(line)
    print(f"{'failed_share':14s} {failed / attempted:.6g} share")
    summary = next((w.summary for w in worlds if w.summary is not None), None)
    if summary is not None:
        totals = summary["totals"]
        print(f"sim.requests {totals['completed_requests']}")
        print(f"sim.bad_share {totals['bad_requests'] / max(totals['completed_requests'], 1):.6f}")
        print(f"sim.p95_latency_ms {summary['latency']['p95_ms']}")
    print(f"output_sha256 {common}")
    if trace and traced:
        print(f"# spans: {spans_stem}.bin, {spans_stem}.json")
    for w in worlds:
        for problem in w.problems:
            print(f"FAILED {problem}", file=sys.stderr)
    correct = failed == 0 and len(metrics) > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.stdout.flush()
    return correct


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="workload seed: the simulation's master seed and the "
                         "campaign's fault schedule")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(DURATION_MS), default="full",
                    help="tiny: the self-test's short worlds")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "murbsim", "__init__.py")):
        print(f"error: no simulator source at {os.path.join(ROOT, 'src', 'murbsim')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for workload in workloads:
        ok = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                          args.size) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
