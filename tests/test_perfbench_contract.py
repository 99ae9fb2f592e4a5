"""The benchmark's tracer and child reach into the simulator by name.

`perfbench/tracer.py` resolves every `WRAPPED` attribute path, and
`perfbench/child.py` reads a finished world's nodes. A rename or deletion in
`src/murbsim` that breaks either shows up here, without running the benchmark.
"""

import importlib.util
import inspect
import os
import sys
import time

import murbsim.harness  # noqa: F401  (imports every module the tracer wraps)
from murbsim.config import FaultConfig, Scenario, ScriptedRecovery, WorkloadConfig
from murbsim.world import World

_PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(_PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """Every murbsim module and class namespace the tracer may patch."""
    modules = [m for n, m in sys.modules.items() if n.startswith("murbsim.")]
    classes = [c for m in modules for _, c in inspect.getmembers(m, inspect.isclass)
               if c.__module__ == m.__name__]
    return modules + classes


def _tiny_world() -> World:
    s = Scenario(duration_ms=5_000, seed=1)
    s.policy.enabled = False
    s.workload = WorkloadConfig(clients_per_node=20)
    s.scripted_recoveries = [ScriptedRecovery(1_000, "murb_group", "Item")]
    return World(s)


def test_tracer_wraps_every_name_and_restores_it():
    tracer_mod = _load("tracer")
    before = [(ns, dict(vars(ns))) for ns in _namespaces()]
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        _tiny_world().run()
    finally:
        tracer.uninstall()
    assert tracer.calls[tracer.groups.index("world.run")] == 1
    assert tracer.calls[tracer.groups.index("runtime.binding")] > 0
    for ns, saved in before:
        now = vars(ns)
        for attr, old in saved.items():
            assert now[attr] is old, f"{ns.__name__}.{attr} not restored"


def test_child_reads_an_idle_finished_world():
    child = _load("child")
    checks = _load("checks")
    world = _tiny_world()
    world.run()
    state = child.world_state(world)
    assert len(state["nodes"]) == len(world.nodes)
    assert checks.check_idle(state) == []


def test_traced_run_dispatches_every_event_through_schedule(monkeypatch):
    # child.layer_metrics raises unless every dispatched event got its span
    # from the wrapped EventLoop.schedule. A deadlock parks requests: the
    # first TTLs expire, and the microreboot's aborts cancel the rest.
    tracer_mod = _load("tracer")
    child = _load("child")
    monkeypatch.setitem(sys.modules, "tracer", tracer_mod)
    s = Scenario(duration_ms=10_000, seed=1)
    s.policy.enabled = False
    s.workload = WorkloadConfig(clients_per_node=100, request_ttl_ms=3_000)
    s.faults = [FaultConfig(1_000, "deadlock", "Item")]
    s.scripted_recoveries = [ScriptedRecovery(6_000, "murb_group", "Item")]
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        world = World(s)
        before = tracer.snapshot()
        t0 = time.perf_counter()
        world.run()
        run_s = time.perf_counter() - t0
        after = tracer.snapshot()
    finally:
        tracer.uninstall()
    metrics = child.layer_metrics(tracer, world, before, after, run_s)
    assert metrics["simcore.events"] == world.loop.dispatched
    assert metrics["simcore.cancelled"] > 0
    outcomes = set(world.ledger.outcomes())
    assert {"error:ttl_expired", "error:component_unavailable"} <= outcomes
