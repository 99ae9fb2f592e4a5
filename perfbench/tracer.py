"""Layer tracing from outside the simulator.

`Tracer.install` replaces functions and methods of the `murbsim` modules with
timing wrappers and `uninstall` puts the originals back; no simulator file
changes. Each wrapped call records a span (name, start, end, parent span) in
compact in-memory arrays, written out once the run ends.

Every wrapped function belongs to a group, the unit the per-layer metrics are
reported in, and the group to a layer (the module, named first). A group
counts a call only when entered from outside the group, so a nested call
(`free` calling `charged`) is one call. Its time is self time: the spans'
durations minus the time of the traced spans they contain, so the groups'
times add up without overlap. Callbacks the simulator hands to its event loop
and CPU queue are World methods and get spans of their own in the world
layer; time in them outside every other traced call is the world's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# Layers on World.run's path; their self times, with the remainder, add up to
# the traced World.run. The harness layer only parses and exports.
RUN_LAYERS = ("simcore", "runtime", "cluster", "statestore", "app", "workload",
              "detect", "faultlib", "recoverymgr", "world")

# (group, module, attribute path). The layer is the group's first part.
WRAPPED = (
    ("simcore.schedule", "simcore", "EventLoop.schedule"),
    ("simcore.schedule", "simcore", "EventLoop.after"),
    ("simcore.dispatch", "simcore", "EventLoop.run_until"),
    ("simcore.dispatch", "simcore", "EventLoop.drain"),
    ("simcore.cancel", "simcore", "EventHandle.cancel"),
    ("runtime.lookup", "runtime", "Registry.lookup"),
    ("runtime.binding", "runtime", "Registry.bind_sentinel"),
    ("runtime.binding", "runtime", "Registry.rebind"),
    ("runtime.binding", "runtime", "Registry.stop_all"),
    ("runtime.binding", "runtime", "Registry.redeploy_all"),
    ("runtime.binding", "runtime", "Registry.corrupt_binding"),
    ("runtime.groups", "runtime", "Registry.group_cost"),
    ("runtime.groups", "runtime", "Registry.recovery_group"),
    ("runtime.heap", "runtime", "HeapLedger.charge"),
    ("runtime.heap", "runtime", "HeapLedger.release_holder"),
    ("runtime.heap", "runtime", "HeapLedger.release_all_app"),
    ("runtime.heap", "runtime", "HeapLedger.release_unattributed"),
    ("runtime.heap", "runtime", "HeapLedger.reap"),
    ("runtime.heap", "runtime", "HeapLedger.attributed_to"),
    ("runtime.heap", "runtime", "HeapLedger.charged"),
    ("runtime.heap", "runtime", "HeapLedger.free"),
    ("cluster.route", "cluster", "LoadBalancer.route"),
    ("cluster.affinity", "cluster", "LoadBalancer.establish"),
    ("cluster.affinity", "cluster", "LoadBalancer.forget"),
    ("cluster.failover", "cluster", "LoadBalancer.set_failover"),
    ("cluster.cpu", "cluster", "CpuQueue.submit"),
    ("cluster.cpu", "cluster", "CpuQueue._finish"),
    ("cluster.cpu", "cluster", "CpuQueue.pin_slot"),
    ("cluster.cpu", "cluster", "CpuQueue.unpin_slot"),
    ("cluster.cpu", "cluster", "CpuQueue.reset"),
    ("cluster.cpu", "cluster", "Node.reset_processing"),
    ("cluster.sentinel", "cluster", "handle_sentinel"),
    ("statestore.session", "statestore", "SessionStore.write"),
    ("statestore.session", "statestore", "SessionStore.read"),
    ("statestore.session", "statestore", "SessionStore.delete"),
    ("statestore.session", "statestore", "SessionStore.corrupt"),
    ("statestore.session", "statestore", "SessionStore.gc"),
    ("statestore.session", "statestore", "SessionStore.clear"),
    ("statestore.tx", "statestore", "TransactionalStore.execute"),
    ("statestore.tx", "statestore", "TransactionalStore.begin"),
    ("statestore.tx", "statestore", "TransactionalStore.commit"),
    ("statestore.tx", "statestore", "TransactionalStore.abort"),
    ("statestore.tx", "statestore", "TransactionalStore.read"),
    ("statestore.tx", "statestore", "TransactionalStore.taint_row"),
    ("statestore.tx", "statestore", "TransactionalStore.repair"),
    ("statestore.tx", "statestore", "TransactionalStore.tainted_rows"),
    ("app.fingerprint", "app", "canonical_fingerprint"),
    ("app.matrix", "app", "TransitionMatrix.sample"),
    ("workload.ledger", "workload", "TawLedger.new_action"),
    ("workload.ledger", "workload", "TawLedger.new_request"),
    ("workload.ledger", "workload", "TawLedger.record_outcome"),
    ("workload.ledger", "workload", "TawLedger.abandon"),
    ("workload.client", "workload", "Client.next_op_name"),
    ("workload.client", "workload", "Client.think_ms"),
    ("workload.client", "workload", "Client.begin_session"),
    ("workload.client", "workload", "Client.end_session"),
    ("detect.classify", "detect", "classify_response"),
    ("detect.channel", "detect", "ReportChannel.report"),
    ("faultlib.apply_recovery", "faultlib", "FaultPlan.apply_recovery"),
    ("faultlib.plan", "faultlib", "FaultPlan.register"),
    ("faultlib.plan", "faultlib", "FaultPlan.clear"),
    ("recoverymgr.ingest", "recoverymgr", "RecoveryManager.ingest_report"),
    ("recoverymgr.ladder", "recoverymgr", "RecoveryManager._action_done"),
    ("recoverymgr.ladder", "recoverymgr", "RecoveryManager._check_symptoms"),
    ("recoverymgr.rejuv", "recoverymgr", "RejuvenationService.tick"),
    ("recoverymgr.rejuv", "recoverymgr", "RejuvenationService._candidate_done"),
    ("recoverymgr.rejuv", "recoverymgr", "RejuvenationService._restart_done"),
    ("recoverymgr.rejuv", "recoverymgr", "RejuvenationService._exhausted_restart_done"),
    ("world.run", "world", "World.run"),
    ("world.murb", "world", "World.murb"),
    ("world.full_restart", "world", "World.full_restart"),
    ("harness.parse", "harness", "parse_scenario"),
    ("harness.export_summary", "harness", "export_summary"),
    ("harness.write", "harness", "write_outputs"),
)
# Callback-taking methods: (module, class, method, callback group).
CALLBACK_SITES = (
    ("simcore", "EventLoop", "schedule", "world.handler"),
    ("cluster", "CpuQueue", "submit", "world.cpu_done"),
)

# Per-layer metrics of the traced run, in report order, with units. Every
# name is a key of BENCHMARK.json's per_layer list.
PER_LAYER_UNITS = {
    "simcore.events": "count",
    "simcore.scheduled": "count",
    "simcore.cancelled": "count",
    "simcore.self_s": "s",
    "simcore.noop_events_per_s": "1/s",
    "runtime.lookup.calls": "count",
    "runtime.lookup.s": "s",
    "runtime.lookup.bound_ratio": "ratio",
    "runtime.heap.calls": "count",
    "runtime.heap.s": "s",
    "runtime.binding.calls": "count",
    "runtime.self_s": "s",
    "cluster.route.calls": "count",
    "cluster.route.s": "s",
    "cluster.cpu.calls": "count",
    "cluster.cpu.s": "s",
    "cluster.cpu.overcommit": "count",
    "cluster.failover.calls": "count",
    "cluster.self_s": "s",
    "statestore.session.calls": "count",
    "statestore.session.s": "s",
    "statestore.tx.calls": "count",
    "statestore.tx.s": "s",
    "statestore.self_s": "s",
    "app.fingerprint.calls": "count",
    "app.fingerprint.s": "s",
    "app.matrix.s": "s",
    "app.self_s": "s",
    "workload.ledger.calls": "count",
    "workload.ledger.s": "s",
    "workload.client.s": "s",
    "workload.self_s": "s",
    "detect.classify.calls": "count",
    "detect.classify.s": "s",
    "detect.reports.sent": "count",
    "detect.reports.delivered": "count",
    "detect.self_s": "s",
    "faultlib.apply_recovery.calls": "count",
    "faultlib.apply_recovery.s": "s",
    "faultlib.cured": "count",
    "faultlib.self_s": "s",
    "recoverymgr.ingest.calls": "count",
    "recoverymgr.ingest.s": "s",
    "recoverymgr.episodes": "count",
    "recoverymgr.cured_ratio": "ratio",
    "recoverymgr.actions": "count",
    "recoverymgr.rejuv.s": "s",
    "recoverymgr.self_s": "s",
    "world.murb.calls": "count",
    "world.full_restart.calls": "count",
    "world.self_s": "s",
    "harness.parse_s": "s",
    "harness.export_summary_s": "s",
    "harness.write_s": "s",
    "trace.run_s": "s",
    "trace.unaccounted_s": "s",
    "trace.spans": "count",
    "trace_overhead_s": "s",
}


def _resolve(module, path: str):
    """(owner, attribute name, raw attribute) for 'Class.attr' or 'func'."""
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, raw


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.groups: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.depth: list[int] = []
        self.bound_lookups = 0
        self.cured = 0
        self.cpu_overcommits = 0    # CPU calls leaving busy + pinned > slots
        self._stack = [-1]          # open span ids; -1 is the root
        self._child = [0.0]         # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    # -- bookkeeping ---------------------------------------------------------

    def _group(self, group: str) -> int:
        if group not in self.groups:
            self.groups.append(group)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.depth.append(0)
        return self.groups.index(group)

    def snapshot(self) -> dict:
        return {"calls": list(self.calls), "self_s": list(self.self_s),
                "bound": self.bound_lookups, "cured": self.cured,
                "overcommits": self.cpu_overcommits}

    def _wrap(self, fn, name: str, group: str, on_result=None):
        """A wrapper recording one span per call of `fn`."""
        name_id = len(self.names)
        self.names.append(name)
        g = self._group(group)
        perf = time.perf_counter
        stack, child = self._stack, self._child
        span_name, span_parent = self.span_name.append, self.span_parent.append
        starts, ends = self.span_start, self.span_end
        calls, self_s, depth = self.calls, self.self_s, self.depth

        def traced(*args, **kwargs):
            sid = len(starts)
            span_name(name_id)
            span_parent(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            child.append(0.0)
            depth[g] += 1
            t0 = perf()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                ends[sid] = t1
                stack.pop()
                inner = child.pop()
                dur = t1 - t0
                child[-1] += dur
                self_s[g] += dur - inner
                depth[g] -= 1
                if depth[g] == 0:
                    calls[g] += 1
            if on_result is not None:
                on_result(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        """Wrap every function in WRAPPED, wherever a murbsim module names it."""
        import murbsim.runtime

        modules = {name[len("murbsim."):]: mod for name, mod in sys.modules.items()
                   if name.startswith("murbsim.")}

        def on_lookup(args, result):
            if result.state == murbsim.runtime.BOUND:
                self.bound_lookups += 1

        def on_cured(args, result):
            self.cured += len(result)

        def on_cpu(args, result):
            queue = args[0]
            if queue.busy + queue.pinned > queue.slots:
                self.cpu_overcommits += 1

        hooks = {"Registry.lookup": on_lookup, "FaultPlan.apply_recovery": on_cured,
                 "CpuQueue.submit": on_cpu, "CpuQueue._finish": on_cpu,
                 "CpuQueue.pin_slot": on_cpu, "CpuQueue.unpin_slot": on_cpu}
        for group, mod_name, path in WRAPPED:
            owner, attr, raw = _resolve(modules[mod_name], path)
            name = f"{mod_name}.{path}"
            if isinstance(raw, property):
                new = property(self._wrap(raw.fget, name, group))
            else:
                new = self._wrap(raw, name, group, hooks.get(path))
            if isinstance(owner, type):
                self._patch(owner, attr, new)
            else:
                # Imported names (`from .app import canonical_fingerprint`) are
                # bound in the importing module too; replace each binding.
                for mod in modules.values():
                    if mod.__dict__.get(attr) is raw:
                        self._patch(mod, attr, new)

        for mod_name, cls_name, method, group in CALLBACK_SITES:
            cls = getattr(modules[mod_name], cls_name)
            self._patch(cls, method, self._wrap_callback(cls.__dict__[method], group))

    def _wrap_callback(self, traced_method, group: str):
        """`method(self, x, fn)` that hands on `fn` wrapped in a span of `group`."""
        run = self._wrap(lambda fn: fn(), group, group)

        def method(owner, arg, fn):
            return traced_method(owner, arg, functools.partial(run, fn))

        return method

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def delta(self, before: dict, after: dict, group: str) -> tuple[int, float]:
        """(calls, self seconds) of a group between two snapshots."""
        g = self.groups.index(group)
        return (after["calls"][g] - before["calls"][g],
                after["self_s"][g] - before["self_s"][g])

    def layer_delta(self, before: dict, after: dict, layer: str) -> float:
        """Self seconds of a layer's groups between two snapshots."""
        return sum(after["self_s"][g] - before["self_s"][g]
                   for g, group in enumerate(self.groups)
                   if group.split(".", 1)[0] == layer)

    def write_spans(self, stem: str) -> None:
        """Spans as `<stem>.bin` (four arrays back to back) plus a JSON header."""
        with open(stem + ".bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        header = {
            "count": len(self.span_start),
            "names": self.names,
            "layout": [["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "clock": "time.perf_counter seconds; parent -1 is the root",
        }
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)
            fh.write("\n")


def read_spans(stem: str) -> tuple[list[str], dict[str, array]]:
    """Load spans written by `Tracer.write_spans`."""
    with open(stem + ".json", encoding="utf-8") as fh:
        header = json.load(fh)
    count = header["count"]
    arrays = {}
    with open(stem + ".bin", "rb") as fh:
        for key, code in header["layout"]:
            arr = array(code)
            arr.fromfile(fh, count)
            arrays[key] = arr
    return header["names"], arrays
