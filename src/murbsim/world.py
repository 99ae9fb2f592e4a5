"""The simulation world: one cluster, its clients, and the control plane.

Everything here is event-driven on the virtual clock. A request's life:
route -> admit (worker pool) -> walk the component path (name lookups and
fault hooks) -> CPU service -> store traffic -> completion. Recovery actions
bind sentinels, abort intersecting in-flight work, release leases, and rebind
after the configured crash+init cost.
"""

from __future__ import annotations

from functools import partial
from types import MethodType

from . import runtime
from .app import (SESSION_CREATE, SESSION_DELETE, SESSION_NONE, SESSION_UPDATE, AppCatalog,
                  OpType, canonical_fingerprint, load_app_catalog)
from .cluster import LoadBalancer, Node, handle_sentinel
from .config import FaultConfig, Scenario, ScriptedRecovery
from .detect import FailureReport, ReportChannel, classify_response
from .faultlib import (ERR_CONNECTION, ERR_EXCEPTION, ERR_SESSION, ERR_TTL,
                       ERR_UNAVAILABLE, FAULT_CLASSES, MURB_GROUP, MURB_WEB, OK, PARK,
                       REBOOT_NODE, RECOVERY_LEVELS, RESTART_PROCESS, SITE_COMPONENT,
                       SITE_PROCESS, SITE_SESSION, Fault, FaultError, FaultPlan, Level,
                       RecoveryOp, cure_profile)
from .recoverymgr import RecoveryManager, RejuvenationService
from .runtime import HeapLedger, Registry, load_catalog
from .simcore import ClientStreams, EventLoop, RngRoot
from .statestore import READ_DISCARDED, READ_MISSING, SessionStore, TransactionalStore
from .workload import PENDING, Client, TawLedger

_GC_SWEEP_MS = 10_000


def microreboot_level(registry: Registry, members: frozenset[str]) -> Level:
    """The rung a microreboot of `members` is: the web rung if they hold the web's."""
    return MURB_WEB if registry.web_component in members else MURB_GROUP


def check_event(registry: Registry, nodes: int,
                event: FaultConfig | ScriptedRecovery) -> tuple[Level, frozenset[str]] | None:
    """Raise FaultError for an event a world of `nodes` nodes could not act on:
    a fault's class, mode, target or node, or a scripted recovery's level,
    node, target or rung. Returns a scripted recovery's level and members (a
    microreboot's group, the web component's if it names none)."""
    if isinstance(event, FaultConfig):
        cure_profile(event.fault_class, event.mode)
        site = FAULT_CLASSES[event.fault_class].site
        if site == SITE_PROCESS and event.target:
            raise FaultError(f"{event.fault_class} takes no target")
        names_component = site == SITE_COMPONENT     # else a session key or nothing
    else:
        level = RECOVERY_LEVELS.get(event.level)
        if level is None or level.rank is None:      # a human is not a scripted action
            raise FaultError(f"unknown level {event.level!r}")
        names_component = level.microreboot and event.target != ""   # "": the web's
    if not 0 <= event.node < nodes:
        raise FaultError(f"node {event.node} outside the cluster of {nodes}")
    if names_component and event.target not in registry.specs:
        raise FaultError(f"unknown target component {event.target!r}")
    if isinstance(event, FaultConfig):
        return None
    if not level.microreboot:
        return level, frozenset()
    target = event.target or registry.web_component
    members = registry.groups[target].members
    if level is not (rung := microreboot_level(registry, members)):
        raise FaultError(f"a microreboot of {target}'s group is level {rung.name}, "
                         f"not {level.name}")
    return level, members


class _ReqCtx:
    """A request in flight; the ledger keeps what outlives its completion."""

    __slots__ = ("req", "issued_at", "op", "client", "node_id", "state",
                 "retried", "divergent", "taint", "ttl_handle")

    def __init__(self, req: int, issued_at: int, op: OpType, client: Client):
        self.req = req           # ledger handle
        self.issued_at = issued_at
        self.op = op
        self.client = client
        self.node_id = -1
        self.state = "new"       # new | queued | active | parked | done
        self.retried = False
        self.divergent = False
        self.taint = False
        self.ttl_handle = None


class World:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        wl = scenario.workload
        self._duration = scenario.duration_ms
        self._think_mean = wl.think_mean_ms
        self._think_max = wl.think_max_ms
        self._ttl_ms = wl.request_ttl_ms
        self.loop = EventLoop()
        self.rng = RngRoot(scenario.seed)
        self.catalog: AppCatalog = load_app_catalog(scenario.ops_path, scenario.matrix_path)

        specs, overrides = load_catalog(scenario.catalog_path)
        self.catalog.validate_against({s.name for s in specs})

        cl = scenario.cluster
        st = scenario.stores
        self.nodes: list[Node] = []
        for i in range(cl.nodes):
            registry = Registry(specs, overrides)
            heap = HeapLedger(cl.heap_bytes_per_node, registry)
            store = SessionStore(st.in_process_latency_ms,
                                 st.session_lease_ms, verify_checksums=False)
            self.nodes.append(Node(i, self.loop, registry, heap, store,
                                   cl.workers_per_node, cl.cpu_slots_per_node))
        self.external_store = SessionStore(st.external_latency_ms,
                                           st.session_lease_ms, verify_checksums=True)
        self.tx_store = TransactionalStore()
        self.lb = LoadBalancer(self.nodes, self.rng.fork("lb"))
        self._external_sessions = st.session_store == "external"
        # the session store serving each node
        self._session_stores = [self.external_store if self._external_sessions
                                else node.in_process_store for node in self.nodes]

        self.detector = scenario.detector
        self._detector_rng = self.rng.fork("detector")
        self.rm = RecoveryManager(self, scenario.policy)
        self.channel = ReportChannel(
            self.loop, self.rng.fork("channel"),
            scenario.detector.channel_delay_ms, scenario.detector.drop_rate,
            self.rm.ingest_report)

        self.ledger = TawLedger([op.name for op in self.catalog.op_list])
        streams = ClientStreams(self.rng, n_clients := wl.clients_per_node * cl.nodes)
        self.clients = [Client(i, streams, self.catalog.home) for i in range(n_clients)]

        self.fault_plan = FaultPlan()
        self._fault_rng = self.rng.fork("faults")
        self._rebuild_fault_hooks()
        self.recoveries: list[RecoveryOp] = []                   # every action, in start order
        self._running: list[RecoveryOp | None] = [None] * len(self.nodes)

        self.rejuvenators = [RejuvenationService(self, scenario.rejuvenation, i)
                             for i in range(cl.nodes)]

        # every event is checked before any is scheduled
        registry = self.nodes[0].registry if self.nodes else None
        for fc in scenario.faults:
            check_event(registry, cl.nodes, fc)
        scopes = [check_event(registry, cl.nodes, sr) for sr in scenario.scripted_recoveries]
        for fault_id, fc in enumerate(scenario.faults, start=1):
            fault = self.fault_plan.register(Fault(
                fault_id, fc.fault_class, fc.target, fc.mode, fc.node,
                fc.inject_at_ms, fc.bytes_per_invoke, fc.fail_probability))
            if fault.inject_at <= self._duration:   # else the post-run drain would arm it
                self.loop.schedule(fault.inject_at, partial(self._arm_fault, fault))
        for sr, scope in zip(scenario.scripted_recoveries, scopes):
            if sr.at_ms <= self._duration:          # else the post-run drain would run it
                self.loop.schedule(sr.at_ms, partial(self.execute_recovery, sr.node, *scope,
                                                     None, "scripted"))

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> None:
        duration = self._duration
        # one tick callback per client, reused for each of its requests: a method
        # binding the client to the world's tick, 64 B against a partial's 260
        tick = self._client_tick
        self._ticks = [MethodType(tick, client) for client in self.clients]
        for client, client_tick in zip(self.clients, self._ticks):
            first = client.think_ms(self._think_mean, self._think_max)
            self.loop.schedule(min(first, max(duration - 1, 0)), client_tick)
        if self.scenario.rejuvenation.enabled:
            for service in self.rejuvenators:
                self._every(self.scenario.rejuvenation.poll_ms, service.tick)
        self._every(_GC_SWEEP_MS, self._gc_sweep)
        self.loop.run_until(duration)
        self.loop.drain()
        for client in self.clients:
            if client.action is not None:
                self.ledger.abandon(client.action, duration)

    def _every(self, period: int, fn) -> None:
        """Call `fn` every `period` ms for as long as the call falls before the end."""
        def call() -> None:
            fn()
            self._every(period, fn)
        if self.loop.now + period < self._duration:
            self.loop.after(period, call)

    def _gc_sweep(self) -> None:
        now = self.loop.now
        self.external_store.gc(now)
        for node in self.nodes:
            node.in_process_store.gc(now)
            node.heap.reap(now)

    # -- client request flow -------------------------------------------------

    def _client_tick(self, client: Client) -> None:
        if client.stopped or self.loop.now >= self._duration:
            client.stopped = True
            return
        self._route_and_admit(self._issue(client, client.next_op_name(self.catalog)))

    def _issue(self, client: Client, op: OpType) -> _ReqCtx:
        """Enter a request in the ledger, in the client's open action."""
        ledger = self.ledger
        action = client.action
        if action is None or ledger.action_status[action] != PENDING:
            action = client.action = ledger.new_action()
        now = self.loop.now
        return _ReqCtx(ledger.new_request(action, op.code, now), now, op, client)

    def _route_and_admit(self, ctx: _ReqCtx) -> None:
        client = ctx.client
        node_id = self.lb.route(client.session_id)
        if node_id is None:
            self._complete(ctx, ERR_CONNECTION)
            return
        ctx.node_id = node_id
        node = self.nodes[node_id]
        if node.workers_busy < node.worker_capacity:
            node.workers_busy += 1
            self._start(ctx)
        else:
            ctx.state = "queued"
            node.worker_queue.append(ctx)

    def _release_worker(self, node: Node) -> None:
        node.workers_busy -= 1
        if node.pumping or not node.worker_queue:
            return
        node.pumping = True
        try:
            # _start can complete a request synchronously, which re-enters
            # _release_worker; the guard keeps this loop iterative.
            while node.up and node.worker_queue and \
                    node.workers_busy < node.worker_capacity:
                nxt = node.worker_queue.popleft()
                node.workers_busy += 1
                self._start(nxt)
        finally:
            node.pumping = False

    def _start(self, ctx: _ReqCtx) -> None:
        ctx.state = "active"
        node = self.nodes[ctx.node_id]
        registry = node.registry
        op = ctx.op
        impaired = registry.impaired
        if impaired:
            # Every component outside `impaired` looks up BOUND.
            for comp in op.path:
                if comp not in impaired:
                    continue
                look = registry.lookup(comp)
                if look.state == runtime.SENTINEL:
                    self._sentinel_hit(ctx, node, comp)
                    return
                if look.state == runtime.NOT_BOUND:
                    self._complete(ctx, ERR_UNAVAILABLE)
                    return
                # wrong binding: an unusable target errs overtly, a plausible
                # one silently serves the wrong content
                if look.arg is None:
                    self._complete(ctx, ERR_EXCEPTION)
                    return
                ctx.divergent = True
        hooks = self._fault_hooks[ctx.node_id]
        if hooks["any"] and not self._apply_fault_hooks(ctx, node, hooks):
            return
        node.inflight[ctx] = op.path
        node.cpu.submit(op.service_ms_mean, partial(self._cpu_done, ctx))

    def _sentinel_hit(self, ctx: _ReqCtx, node: Node, comp: str) -> None:
        cl = self.scenario.cluster
        if handle_sentinel(ctx.op.idempotent, cl.retries, ctx.retried):
            ctx.retried = True
            self._release_worker(node)
            ctx.state = "new"
            self.loop.after(cl.retry_after_ms, partial(self._route_and_admit, ctx))
        else:
            self._complete(ctx, ERR_UNAVAILABLE)

    def _apply_fault_hooks(self, ctx: _ReqCtx, node: Node, hooks: dict) -> bool:
        """Evaluate armed faults against this request; False if it was consumed."""
        rng = self._fault_rng
        by_comp = hooks["by_comp"]
        for comp in ctx.op.path:
            for symptom, fault in by_comp.get(comp, ()):
                verdict = symptom(fault, ctx, node, rng)
                if verdict is not None:
                    return self._consume(ctx, node, comp, fault, verdict)
        for symptom, fault in hooks[SITE_PROCESS]:
            verdict = symptom(fault, ctx, node, rng)
            if verdict is not None:
                return self._consume(ctx, node, "", fault, verdict)
        return True

    def _consume(self, ctx: _ReqCtx, node: Node, comp: str, fault: Fault,
                 verdict: str) -> bool:
        """Hang or fail a request a symptom caught; False, for the hook loop."""
        if verdict == PARK:
            ctx.state = "parked"
            node.parked[ctx] = comp
            deadline = ctx.issued_at + self._ttl_ms
            ctx.ttl_handle = self.loop.schedule_cancellable(
                max(deadline, self.loop.now), partial(self._ttl_abort, ctx))
        else:
            if not fault.active:          # the symptom cleared its own fault
                self._rebuild_fault_hooks()
            self._complete(ctx, verdict)
        return False

    def _ttl_abort(self, ctx: _ReqCtx) -> None:
        ctx.ttl_handle = None             # spent: nothing left for _complete to cancel
        self._complete(ctx, ERR_TTL)

    def _cpu_done(self, ctx: _ReqCtx) -> None:
        if ctx.state != "active":
            return                        # aborted while in service
        outcome = OK
        store_ms = 0
        touch = ctx.op.session_touch
        if touch != SESSION_NONE:
            store = self._session_stores[ctx.node_id]
            client = ctx.client
            store_ms = store.access_latency_ms
            if touch == SESSION_DELETE:
                if client.session_id:
                    store.delete(client.session_id)
            elif touch != SESSION_CREATE:   # read or update
                status, payload = store.read(client.session_id, self.loop.now)
                if status in (READ_MISSING, READ_DISCARDED):
                    outcome = ERR_SESSION
                elif not self._external_sessions and (
                        hit := self._inproc_session_symptom(ctx, client.session_id)):
                    outcome = hit
                elif touch == SESSION_UPDATE:
                    store_ms += store.access_latency_ms
                    store.write(client.session_id, payload, self.loop.now)
        if store_ms > 0:
            loop = self.loop
            loop.schedule(loop.now + store_ms, partial(self._finalize, ctx, outcome))
        else:
            self._finalize(ctx, outcome)

    def _inproc_session_symptom(self, ctx: _ReqCtx, key: str) -> str | None:
        hooks = self._fault_hooks[ctx.node_id]
        if not hooks["any"]:
            return None
        for symptom, fault in hooks[SITE_SESSION]:
            if fault.target and fault.target != key:
                continue
            return symptom(fault, ctx, self.nodes[ctx.node_id], self._fault_rng)
        return None

    def _finalize(self, ctx: _ReqCtx, outcome: str) -> None:
        if ctx.state != "active":
            return                        # aborted while waiting on a store
        op = ctx.op
        # Only a tx write can be tainted, and only tainted rows are ever read
        # back (tainted_rows), so a clean write is not stored.
        if ctx.taint and outcome == OK:
            row = f"{op.name}:{ctx.req + 1}"
            value = canonical_fingerprint(op.name, str(ctx.client.client_id)).encode()
            self.tx_store.execute([(row, value)], taint=True)
        self._complete(ctx, outcome)

    def _complete(self, ctx: _ReqCtx, outcome: str) -> None:
        """The one way a request ends. One holding a worker leaves its node and
        gives the worker back first: the release can start queued work at once."""
        state = ctx.state
        if state == "done":
            return
        ctx.state = "done"
        if state == "active" or state == "parked":
            node = self.nodes[ctx.node_id]
            if state == "active":
                node.inflight.pop(ctx, None)
            else:
                node.parked.pop(ctx, None)
                if ctx.ttl_handle is not None:
                    ctx.ttl_handle.cancel()
            self._release_worker(node)
        now = self.loop.now
        client = ctx.client
        op = ctx.op

        if outcome == OK:
            if op.session_touch == SESSION_CREATE:
                if client.session_id:         # logged in over a live session
                    self.lb.forget(client.session_id)
                session = client.begin_session()
                payload = canonical_fingerprint(op.name, session).encode()
                self._session_stores[ctx.node_id].write(session, payload, now)
                self.lb.establish(session, ctx.node_id)
            elif op.session_touch == SESSION_DELETE and client.session_id:
                self.lb.forget(client.session_id)
                client.end_session()
        elif outcome == ERR_SESSION:
            self.lb.forget(client.session_id)
            client.end_session()

        self.ledger.record_outcome(ctx.req, outcome, now,
                                   op.is_commit_point and outcome == OK)

        # A healthy, faithful response draws nothing unless false positives
        # are configured, so the detector is skipped for it.
        detector = self.detector
        if outcome != OK or ctx.divergent or detector.fp_rate > 0.0:
            failure_class = classify_response(detector, outcome, ctx.divergent,
                                              self._detector_rng)
            if failure_class is not None:
                self.channel.report(FailureReport(op, failure_class, now, ctx.node_id),
                                    detector.t_det_ms)

        if not client.stopped:
            if now >= self._duration:
                client.stopped = True
            else:
                self.loop.schedule(now + client.think_ms(self._think_mean, self._think_max),
                                   self._ticks[client.client_id])

    # -- fault arming ---------------------------------------------------------

    def _rebuild_fault_hooks(self) -> None:
        """Index the symptom of each active fault by node and hook site."""
        self._fault_hooks: list[dict] = [{"any": False, "by_comp": {}, SITE_PROCESS: [],
                                          SITE_SESSION: []} for _ in self.nodes]
        for fault in self.fault_plan.faults.values():
            kind = fault.kind
            if not fault.active or kind.symptom is None:
                continue
            hooks = self._fault_hooks[fault.node]
            if kind.site == SITE_COMPONENT:
                site = hooks["by_comp"].setdefault(fault.target, [])
            else:
                site = hooks[kind.site]
            site.append((kind.symptom, fault))
            hooks["any"] = True

    def _arm_fault(self, fault: Fault) -> None:
        fault.armed = True
        fault.active = True
        fault.sessions_at_inject = sum(1 for n in self.lb.affinity.values() if n == fault.node)
        if fault.kind.on_arm is not None:
            fault.kind.on_arm(self, fault)
        self._rebuild_fault_hooks()

    def _unpin_if_needed(self, fault: Fault) -> None:
        if fault.pinned:
            fault.pinned = False
            self.nodes[fault.node].cpu.unpin_slot()

    def manual_repair_flagged(self, node: int) -> bool:
        if self.tx_store.tainted_rows():
            return True
        return any(f.armed and f.node == node and f.profile.requires_manual_data_repair
                   for f in self.fault_plan.faults.values())

    # -- recovery machinery ---------------------------------------------------

    def node_recovery_busy(self, node_id: int) -> bool:
        return self._running[node_id] is not None

    def execute_recovery(self, node_id: int, level: Level, members: frozenset[str],
                         on_complete, reason: str = "episode") -> None:
        """The one way into recovery: at most one op runs on a node. A request
        the running op covers (level no higher, members inside; a restart's
        members are its whole node) joins it. Any other waits until the node
        is idle, then starts. Either way `on_complete` gets the op that ran."""
        running = self._running[node_id]
        if running is None:
            if level.microreboot:
                self.murb(node_id, level, members, on_complete, reason)
            else:
                self.full_restart(node_id, level, on_complete, reason)
        elif level.rank <= running.level.rank and members <= running.members:
            if on_complete is not None:
                running.on_complete.append(on_complete)
        else:
            running.on_complete.append(
                lambda _: self.execute_recovery(node_id, level, members, on_complete, reason))

    def _begin(self, level: Level, node_id: int, members: frozenset[str], target: str,
               duration_ms: int, reason: str, on_complete) -> RecoveryOp:
        op = RecoveryOp(level, node_id, members, target, self.loop.now, duration_ms, reason)
        if on_complete is not None:
            op.on_complete.append(on_complete)
        self.recoveries.append(op)
        self._running[node_id] = op
        return op

    def _finish(self, op: RecoveryOp) -> None:
        """Apply what a completed action cured, then call back with it."""
        cured = self.fault_plan.apply_recovery(op)
        for fault in cured:
            self._unpin_if_needed(fault)
        if cured:
            self._rebuild_fault_hooks()
        op.completed_at = self.loop.now
        self._running[op.node] = None
        for cb in op.on_complete:
            cb(op)

    def murb(self, node_id: int, level: Level, members: frozenset[str], on_complete,
             reason: str) -> None:
        """Start a microreboot of `members`, at rung `level`, on an idle node."""
        node = self.nodes[node_id]
        crash, init = node.registry.group_cost(members)
        drain = self.scenario.cluster.drain_delay_ms
        op = self._begin(level, node_id, members, self._group_label(node, members),
                         crash + init, reason, on_complete)
        node.registry.bind_sentinel(members)
        self.loop.schedule(op.started_at + drain, partial(self._murb_destroy, op))
        self.loop.schedule(op.started_at + drain + crash + init,
                           partial(self._murb_rebind, op))

    def _group_label(self, node: Node, members: frozenset[str]) -> str:
        override = node.registry.overrides.get(members)
        if override is not None:
            return override.name
        return ",".join(sorted(members)) if len(members) > 1 else next(iter(members))

    def _abort(self, node: Node, members: frozenset[str], outcome: str) -> None:
        """Cut off the requests in service or hung on any of `members`."""
        for ctx in [c for c, path in node.inflight.items() if not members.isdisjoint(path)]:
            self._complete(ctx, outcome)
        for ctx in [c for c, comp in node.parked.items() if comp in members]:
            self._complete(ctx, outcome)

    def _murb_destroy(self, op: RecoveryOp) -> None:
        node = self.nodes[op.node]
        self._abort(node, op.members, op.level.abort_outcome)
        op.released = node.heap.release_holder(op.members)

    def _murb_rebind(self, op: RecoveryOp) -> None:
        self.nodes[op.node].registry.rebind(op.members)
        self._finish(op)

    def full_restart(self, node_id: int, level: Level, on_complete, reason: str) -> None:
        """Start a restart at `level` on an idle node."""
        node = self.nodes[node_id]
        cost = sum(getattr(self.scenario.cluster, f) for f in level.cost_fields)
        op = self._begin(level, node_id, frozenset(node.registry.specs), f"node{node_id}",
                         cost, reason, on_complete)
        err = level.abort_outcome
        process_dies = level.rank >= RESTART_PROCESS.rank
        if process_dies:
            node.up = False     # before aborts, so their releases start no queued work
        node.registry.stop_all()
        self._abort(node, op.members, err)
        node.heap.release_all_app()
        for fault in self.fault_plan.faults.values():
            if fault.node == node_id:
                self._unpin_if_needed(fault)
        if process_dies:
            for ctx in list(node.worker_queue):
                self._complete(ctx, err)
            node.reset_processing()
            node.in_process_store.clear()
            node.heap.release_unattributed()
            # sessions homed here are gone; the balancer should forget them
            for sid in [s for s, n in self.lb.affinity.items() if n == node_id]:
                self.lb.forget(sid)
        if level.rank >= REBOOT_NODE.rank:
            node.heap.os_leak_bytes = 0
        self.loop.after(cost, partial(self._restart_done, op))

    def _restart_done(self, op: RecoveryOp) -> None:
        node = self.nodes[op.node]
        node.registry.redeploy_all()
        node.up = True
        self._finish(op)
