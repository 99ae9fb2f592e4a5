"""Cluster model: nodes, load balancer with session affinity, failover,
Retry-After masking decisions, and the availability-budget arithmetic."""

from __future__ import annotations

import math
from collections import deque
from functools import partial

from .runtime import HeapLedger, Registry
from .statestore import SessionStore


class CpuQueue:
    """FIFO service stations; capacity can shrink while a runaway computation
    pins a slot.

    A pin that finds every slot busy waits, and takes the next slot that
    work frees before any queued work does, so busy + pinned never exceeds
    slots.
    """

    def __init__(self, loop, slots: int):
        self.loop = loop
        self.slots = slots
        self.busy = 0
        self.pinned = 0
        self.waiting_pins = 0
        self.queue: deque = deque()
        self.epoch = 0                   # invalidates in-service work across resets

    def submit(self, service_ms: int, done) -> None:
        if self.busy + self.pinned < self.slots:
            self.busy += 1
            self.loop.schedule(self.loop.now + service_ms,
                               partial(self._finish, self.epoch, done))
        else:
            self.queue.append((service_ms, done))

    def _finish(self, epoch: int, done) -> None:
        if epoch != self.epoch:
            return
        self.busy -= 1
        if self.waiting_pins:
            self.waiting_pins -= 1
            self.pinned += 1
        elif self.queue:
            self._pump()
        done()

    def _pump(self) -> None:
        while self.queue and self.busy + self.pinned < self.slots:
            service_ms, done = self.queue.popleft()
            self.busy += 1
            self.loop.schedule(self.loop.now + service_ms,
                               partial(self._finish, self.epoch, done))

    def pin_slot(self) -> None:
        if self.busy + self.pinned < self.slots:
            self.pinned += 1
        else:
            self.waiting_pins += 1

    def unpin_slot(self) -> None:
        if self.waiting_pins:
            self.waiting_pins -= 1
        elif self.pinned > 0:
            self.pinned -= 1
            self._pump()

    def reset(self) -> None:
        self.epoch += 1
        self.busy = 0
        self.pinned = 0
        self.waiting_pins = 0
        self.queue.clear()


class Node:
    """One application-server node: registry, in-process store, heap, workers."""

    def __init__(self, node_id: int, loop, registry: Registry, heap: HeapLedger,
                 in_process_store: SessionStore, workers: int, cpu_slots: int):
        self.node_id = node_id
        self.registry = registry
        self.heap = heap
        self.in_process_store = in_process_store
        self.up = True
        self.worker_capacity = workers
        self.workers_busy = 0
        self.worker_queue: deque = deque()
        self.cpu = CpuQueue(loop, cpu_slots)
        self.inflight: dict = {}          # request -> its op's path
        self.parked: dict = {}            # request -> component name
        self.pumping = False              # re-entrancy guard for the worker queue

    def reset_processing(self) -> None:
        self.workers_busy = 0
        self.worker_queue.clear()
        self.cpu.reset()
        self.inflight.clear()
        self.parked.clear()


class LoadBalancer:
    """Round-robin logins, session affinity otherwise; drained nodes get
    their sessions temporarily re-homed to a healthy node."""

    def __init__(self, nodes: list[Node], rng):
        self.nodes = nodes
        self.rng = rng
        self.affinity: dict[str, int] = {}
        self.failover_set: set[int] = set()
        self.rehome: dict[str, int] = {}
        self._login_cursor = 0

    def _eligible(self) -> list[int]:
        return [n.node_id for n in self.nodes
                if n.up and n.node_id not in self.failover_set]

    def route(self, session_id: str | None) -> int | None:
        """Pick the serving node; None when nothing can take the request."""
        home = self.affinity.get(session_id) if session_id else None
        if home is not None and self.nodes[home].up and home not in self.failover_set:
            return home
        eligible = self._eligible()
        if not eligible:
            return None
        if home is not None:
            temp = self.rehome.get(session_id)
            if temp is not None and temp in eligible:
                return temp
            temp = eligible[self.rng.randrange(len(eligible))]
            self.rehome[session_id] = temp
            return temp
        # Logins and anonymous requests spread evenly.
        self._login_cursor = (self._login_cursor + 1) % len(eligible)
        return eligible[self._login_cursor]

    def establish(self, session_id: str, node_id: int) -> None:
        self.affinity[session_id] = node_id

    def forget(self, session_id: str) -> None:
        self.affinity.pop(session_id, None)
        self.rehome.pop(session_id, None)

    def set_failover(self, node_id: int, active: bool) -> None:
        if active:
            self.failover_set.add(node_id)
        else:
            self.failover_set.discard(node_id)
            # Affinity resumes exactly as before the failure.
            for sid in [s for s, n in self.affinity.items() if n == node_id]:
                self.rehome.pop(sid, None)


def handle_sentinel(idempotent: bool, retries_enabled: bool, already_retried: bool) -> bool:
    """Edge decision when a request meets a sentinel binding: True to retry
    after Retry-After, False to fail. At most one retry per request."""
    return retries_enabled and idempotent and not already_retried


def six_nines_budget(requests_per_year: float, failed_per_incident: float,
                     nines: float = 0.999999) -> int:
    """How many incidents per year the availability target allows."""
    if requests_per_year <= 0 or failed_per_incident <= 0:
        raise ValueError("inputs must be positive")
    if not 0.0 < nines < 1.0:
        raise ValueError("availability must lie in (0, 1)")
    return math.floor(requests_per_year * (1.0 - nines) / failed_per_incident)
