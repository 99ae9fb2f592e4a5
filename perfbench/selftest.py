"""Self-test of the benchmark itself, on short worlds (`--size tiny`).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the metrics run.py and tracer.py
report, that every workload prints every metric with its unit in both modes,
that the traced run exercises the layers each workload is meant to, that the
spans file reads back, that the output checks flag tampered outputs, and that
the benchmark refuses to run without the simulator's source. Exits 0 when
all pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

from checks import check_world
from run import END_TO_END_UNITS, ROOT, WORK_DIR
from tracer import PER_LAYER_UNITS, read_spans
from workloads import WORKLOADS, scenario_text

HERE = os.path.dirname(os.path.abspath(__file__))
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_declared() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in declared["per_layer"]}
    expect(e2e == END_TO_END_UNITS, "BENCHMARK.json end_to_end matches run.py")
    expect(layers == PER_LAYER_UNITS, "BENCHMARK.json per_layer matches tracer.py")
    expect([w["name"] for w in declared["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads match workloads.py")


def check_printed(workload: str, trace: int, units: dict) -> dict:
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    what = f"{workload} trace {trace}"
    expect(proc.returncode == 0 and result.get("correct") is True
           and result.get("failed") == 0, f"{what}: exit 0, correct, no failed world")
    metrics = result.get("metrics", {})
    expect(set(metrics) == set(units)
           and all(metrics[n]["unit"] == u for n, u in units.items()),
           f"{what}: JSON has every metric with its unit")
    printed = {tuple(line.split()[:1] + line.split()[2:3]) for line in lines[:-1]}
    expect(all((n, u) in printed for n, u in units.items()),
           f"{what}: every metric printed by name with its unit")
    expect(any(line.startswith("output_sha256 ") for line in lines),
           f"{what}: output digest printed")
    return {n: m["value"] for n, m in metrics.items()}


def check_layers(workload: str, m: dict) -> None:
    if workload == "steady":
        expect(m["recoverymgr.episodes"] == 0 and m["detect.reports.sent"] == 0,
               "steady: no episodes and no reports")
    elif workload == "campaign":
        expect(m["recoverymgr.episodes"] > 0 and m["detect.reports.sent"] > 0,
               "campaign: episodes and reports")
    else:
        expect(m["runtime.heap.calls"] > 0 and m["recoverymgr.rejuv.s"] > 0,
               "overload: heap charges and rejuvenation")
    expect(abs(m["trace.unaccounted_s"]) < 0.01 * m["trace.run_s"],
           f"{workload}: layer self times account for World.run")
    names, spans = read_spans(os.path.join(WORK_DIR, f"spans-{workload}-seed1"))
    count = len(spans["start"])
    expect(count == m["trace.spans"]
           and all(-1 <= p < i for i, p in enumerate(spans["parent"]))
           and all(0 <= n < len(names) for n in spans["name"]),
           f"{workload}: spans file reads back with valid parents")


def check_tampering() -> None:
    """The checker passes one real world's output and flags tampered copies."""
    work = tempfile.mkdtemp(prefix="selftest-", dir=WORK_DIR)
    try:
        scenario = os.path.join(work, "scenario.txt")
        with open(scenario, "w", encoding="utf-8") as fh:
            fh.write(scenario_text("steady", 1, "tiny"))
        out, result = os.path.join(work, "out"), os.path.join(work, "result.json")
        subprocess.run([sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT,
                        "--scenario", scenario, "--out", out, "--result", result,
                        "--spans", os.path.join(work, "spans"), "--t0", "0"], check=True)
        with open(result, encoding="utf-8") as fh:
            state = json.load(fh)["state"]
        expect(check_world(out, state)[1] == [], "checker passes an untouched world")

        def tampered(edit_file: str, edit, state_edit=None) -> list[str]:
            copy = os.path.join(work, "tampered")
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(out, copy)
            if edit_file:
                path = os.path.join(copy, edit_file)
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(edit(text))
            st = json.loads(json.dumps(state))
            if state_edit:
                state_edit(st)
            return check_world(copy, st)[1]

        def duplicate_row(text: str) -> str:
            lines = text.splitlines(keepends=True)
            return "".join(lines[:2] + lines[1:2] + lines[2:-1])

        def drop_good(text: str) -> str:
            summary = json.loads(text)
            summary["totals"]["good_requests"] -= 1
            return json.dumps(summary)

        def busy_worker(st):
            st["nodes"][0]["workers_busy"] = 1

        def overbooked_cpu(st):
            st["nodes"][1]["cpu_pinned"] = st["nodes"][1]["cpu_slots"] + 1

        expect(any("repeats request" in p for p in tampered("latency.csv", duplicate_row)),
               "checker flags a duplicated latency row")
        expect(any("rows for" in p for p in tampered("latency.csv",
                                                     lambda t: t.rsplit("\n", 2)[0] + "\n")),
               "checker flags a missing latency row")
        expect(any("good + bad + abandoned" in p for p in tampered("summary.json", drop_good)),
               "checker flags totals that do not add up")
        expect(any("workers_busy" in p for p in tampered("", None, busy_worker)),
               "checker flags a busy worker after the run")
        expect(any("slots" in p for p in tampered("", None, overbooked_cpu)),
               "checker flags CPU busy + pinned above its slots")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_without_source() -> None:
    """In a directory holding only BENCHMARK.json and perfbench/, it must fail."""
    bare = tempfile.mkdtemp(prefix="bare-", dir=WORK_DIR)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "steady", "--seconds", "1", cwd=bare)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "without the simulator source: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    os.makedirs(WORK_DIR, exist_ok=True)
    check_declared()
    for workload in WORKLOADS:
        check_printed(workload, 0, END_TO_END_UNITS)
        check_layers(workload, check_printed(workload, 1, PER_LAYER_UNITS))
    check_tampering()
    check_without_source()
    print(f"{len(FAILURES)} self-test failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
