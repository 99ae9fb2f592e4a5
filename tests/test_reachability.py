"""Every function under `src/murbsim` runs.

A fixed set of short worlds, CLI calls and preset builders runs in a fresh
interpreter under `sys.setprofile`, which collects the code object of every
Python call. The interpreter is fresh so that what runs at import, or only
on a cache miss, is seen whatever other tests ran first. Every function
definition under `src/murbsim`, found by AST, must be among the calls, or be
exempt below with its reason. An exemption that runs, or no longer exists,
fails the test too, so the list cannot go stale.

Run as a script, this file runs the worlds and prints the (file, first line)
of each function called.
"""

import ast
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "murbsim"

# Functions the worlds below do not run, each with its reason. A name in the
# benchmark tracer's WRAPPED list that does not run is exempt as well: the
# tracer resolves it by name, so it stays until the benchmark changes.
EXEMPT = {
    "cli.run_preset": "runs a preset in a process pool; tests/test_acceptance.py runs each",
    "cli._run_one": "runs in run_preset's worker processes",
    **{f"cli.post_{name}": "reduces a preset's results in run_preset"
       for name in ("fig1", "fig3", "fig5a", "fig5b", "fig6", "table2", "table6", "sec61")},
    "config.Record.__eq__": "field equality of config sections and records; tests compare "
                            "parsed events with code-built ones",
    "config.Record.__repr__": "shows a config section or record in a failed test's report",
}

_SCENARIO = """\
[scenario]
duration_ms 20000
seed 3
[cluster]
nodes 2
failover true
[workload]
clients_per_node 100
[stores]
session_store in_process
[detector]
kind comparison
fp_rate 0.01
[policy]
threshold 3.0
[fault]
at 2000
class transient_exception
target ViewItem
fail_probability 0.5
[murb]
at 12000
target ViewItem
node 1
[recovery]
at 14000
level murb_web
node 1
"""


def _worlds():
    """The worlds to run: every fault class, every scripted level, failover,
    retries with drain, client streams past their first block, the external
    store and rejuvenation in both modes."""
    from murbsim.cli import TABLE2_ROWS
    from murbsim.config import (ClusterConfig, DetectorConfig, FaultConfig, PolicyConfig,
                                RejuvenationConfig, Scenario, ScriptedRecovery, StoreConfig,
                                WorkloadConfig)
    from murbsim.faultlib import LEVELS

    def scenario(**kw):
        s = Scenario(**{"duration_ms": 20_000, "seed": 1, **kw})
        s.workload = WorkloadConfig(clients_per_node=60, request_ttl_ms=2_000)
        s.detector = DetectorConfig(kind="comparison")
        return s

    # Table 2's rows: every fault class in every mode it takes
    for _, cls, mode, target, nbytes, probability, store, *_ in TABLE2_ROWS:
        s = scenario(stores=StoreConfig(session_store=store))
        s.faults = [FaultConfig(2_000, cls, target, mode, bytes_per_invoke=nbytes,
                                fail_probability=probability)]
        yield s

    s = scenario(cluster=ClusterConfig(app_restart_ms=1_000, process_restart_ms=1_000,
                                       os_boot_ms=1_000),
                 policy=PolicyConfig(enabled=False))
    s.scripted_recoveries = [ScriptedRecovery(2_000 + 3_000 * i, level.name,
                                              "Item" if level.name == "murb_group" else "")
                             for i, level in enumerate(LEVELS) if level.rank is not None]
    # the first microreboot cuts off requests hung before their TTL
    s.faults = [FaultConfig(1_000, "deadlock", "Item")]
    yield s

    s = scenario(cluster=ClusterConfig(nodes=2, failover=True))
    s.faults = [FaultConfig(2_000, "transient_exception", "BrowseCategories", node=0)]
    yield s

    s = scenario(cluster=ClusterConfig(retries=True, drain_delay_ms=200),
                 policy=PolicyConfig(enabled=False))
    s.scripted_recoveries = [ScriptedRecovery(2_000 + 1_000 * i, "murb_group", "ViewItem")
                             for i in range(10)]
    yield s

    # clients thinking 20 ms on average draw past the first block of their streams
    s = scenario(duration_ms=5_000)
    s.workload = WorkloadConfig(clients_per_node=5, think_mean_ms=20)
    yield s

    for mode in ("murb", "restart"):
        s = scenario(duration_ms=30_000)
        heap = s.cluster.heap_bytes_per_node
        s.rejuvenation = RejuvenationConfig(enabled=True, mode=mode, alarm_bytes=heap,
                                            sufficient_bytes=heap)
        yield s


def _exercise(out_dir: str) -> None:
    from murbsim import cli
    from murbsim.world import World

    for s in _worlds():
        World(s).run()
    scenario = os.path.join(out_dir, "scenario.txt")
    with open(scenario, "w", encoding="utf-8") as fh:
        fh.write(_SCENARIO)
    bad = os.path.join(out_dir, "bad.txt")
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write("[murb]\nat 100\ntarget Nope\n")
    with open(os.devnull, "w") as sink, redirect_stdout(sink), redirect_stderr(sink):
        codes = [cli.main(["run", "--scenario", scenario, "--out", os.path.join(out_dir, "run")]),
                 cli.main(["budget", "--requests-per-year", "1e9", "--per-incident", "100"]),
                 cli.main(["headroom", "--c-micro", "78", "--c-full", "3917", "--rate", "70"]),
                 cli.main(["run", "--scenario", bad, "--out", os.path.join(out_dir, "bad")])]
    assert codes == [0, 0, 0, 2], codes
    for builder, _ in cli.PRESETS.values():
        builder(1)


def _trace() -> list[tuple[str, int]]:
    """(file name, first line) of every function under the package that runs."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(hook)
    try:
        with tempfile.TemporaryDirectory() as out_dir:
            _exercise(out_dir)
    finally:
        sys.setprofile(None)
    return sorted({(Path(code.co_filename).name, code.co_firstlineno) for code in seen
                   if Path(code.co_filename).resolve().parent == PACKAGE})


def _definitions() -> dict[str, tuple[str, int]]:
    """module.qualified.name -> (file name, first line) of every function
    defined under the package; a decorated one starts at its first decorator."""
    found = {}

    def visit(node, prefix, file_name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = child.decorator_list[0] if child.decorator_list else child
                    found[name] = (file_name, first.lineno)
                visit(child, name, file_name)
            else:
                visit(child, prefix, file_name)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, path.name)
    return found


def test_every_function_runs():
    from test_perfbench_contract import _load

    path = os.pathsep.join(p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    called = {tuple(entry) for entry in json.loads(proc.stdout)}
    not_run = {name for name, where in _definitions().items() if where not in called}
    wrapped = {f"{module}.{path}" for _, module, path in _load("tracer").WRAPPED}
    never_run = sorted(not_run - wrapped - set(EXEMPT))
    assert not never_run, f"never run; delete each or exempt it: {', '.join(never_run)}"
    stale = sorted(set(EXEMPT) - not_run)
    assert not stale, f"exempt but run or gone; drop each from EXEMPT: {', '.join(stale)}"


if __name__ == "__main__":
    json.dump(_trace(), sys.stdout)
