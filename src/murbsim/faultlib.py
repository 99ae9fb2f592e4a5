"""Fault injection: the fault-class and recovery-level tables, cure semantics,
and the outcomes requests complete with.

`FAULT_CLASSES` and `RECOVERY_LEVELS` are the only places that spell out a
fault class or a recovery level; everything else reads their records. Each
fault class carries a minimum cure level as ground truth; the recovery
machinery clears a fault only when an action of sufficient level covers the
fault's target.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

from .config import Record
from .runtime import UNATTRIBUTED

# Request outcomes; every other module uses these names.
OK = "ok"
ERR_CONNECTION = "error:connection"
ERR_UNAVAILABLE = "error:component_unavailable"
ERR_EXCEPTION = "error:exception"
ERR_TTL = "error:ttl_expired"
ERR_SESSION = "error:session_lost"
# An outcome's code is its place here; code 0, "", is a request still in flight.
OUTCOMES = ("", OK, ERR_CONNECTION, ERR_UNAVAILABLE, ERR_EXCEPTION, ERR_TTL, ERR_SESSION)
OUTCOME_CODE = {outcome: code for code, outcome in enumerate(OUTCOMES)}


class Level(NamedTuple):
    name: str
    rank: int | None              # escalation order; None: a human takes over
    microreboot: bool
    cost_fields: tuple[str, ...]  # ClusterConfig fields summed for a restart's cost
    abort_outcome: str            # what the requests it cuts off complete with


MURB_GROUP = Level("murb_group", 1, True, (), ERR_UNAVAILABLE)
MURB_WEB = Level("murb_web", 2, True, (), ERR_UNAVAILABLE)
RESTART_APPLICATION = Level("restart_application", 3, False, ("app_restart_ms",), ERR_UNAVAILABLE)
RESTART_PROCESS = Level("restart_process", 4, False, ("process_restart_ms",), ERR_CONNECTION)
REBOOT_NODE = Level("reboot_node", 5, False, ("process_restart_ms", "os_boot_ms"), ERR_CONNECTION)
ESCALATE_HUMAN = Level("escalate_human", None, False, (), "")

# In escalation order: the rung above a ranked level is LEVELS[level.rank].
LEVELS = (MURB_GROUP, MURB_WEB, RESTART_APPLICATION, RESTART_PROCESS, REBOOT_NODE,
          ESCALATE_HUMAN)
RECOVERY_LEVELS = {lv.name: lv for lv in LEVELS}


# Cure levels (minimum scope that actually clears the fault).
CURE_SELF = "self_clearing"
CURE_COMPONENT = "component"
CURE_COMPONENT_WEB = "component_and_web"
CURE_WEB = "web"
CURE_PROCESS = "process"
CURE_NODE = "node"
CURE_MANUAL = "manual"

# Cure levels that any action of at least this rank meets.
_MIN_RANK = {CURE_PROCESS: RESTART_PROCESS.rank, CURE_NODE: REBOOT_NODE.rank}


class FaultError(Exception):
    pass


class CureProfile(NamedTuple):
    min_cure_level: str
    requires_manual_data_repair: bool


# -- request symptoms ----------------------------------------------------------
# symptom(fault, ctx, node, rng) runs on a request at the fault's hook site. It
# returns None to let the request go on, PARK to hang it until its TTL or a
# reboot, or the error outcome the request fails with.

PARK = "park"


def _hang(fault, ctx, node, rng):
    return PARK


def _spin(fault, ctx, node, rng):
    """A hang that also holds one CPU slot per fault until it is cured."""
    if not fault.pinned:
        fault.pinned = True
        node.cpu.pin_slot()
    return PARK


def _throw(fault, ctx, node, rng):
    p = fault.fail_probability
    if p >= 1.0 or rng.random() < p:
        return ERR_EXCEPTION
    return None


def _leak_heap(fault, ctx, node, rng):
    # a process-wide class takes no target: its leak is outside every component
    node.heap.charge(fault.target or UNATTRIBUTED, fault.bytes_per_invoke,
                     resource_id=fault.lease_id)
    return ERR_EXCEPTION if node.heap.free <= 0 else None


def _leak_os(fault, ctx, node, rng):
    heap = node.heap
    heap.os_leak_bytes += fault.bytes_per_invoke
    return ERR_EXCEPTION if heap.os_leak_bytes >= heap.capacity else None


def _corrupt_tx(fault, ctx, node, rng):
    """Only writes touch the bad key or map: they fail, or commit wrong rows."""
    if ctx.op.tx_writes:
        if fault.mode != "wrong":
            return ERR_EXCEPTION
        ctx.divergent = ctx.taint = True
    return None


def _corrupt_attr(fault, ctx, node, rng):
    if fault.mode == "wrong":
        ctx.divergent = True
        return None
    fault.active = False      # the bad attribute is replaced after the first failing call
    return ERR_EXCEPTION


def _stale_row(fault, ctx, node, rng):
    if not ctx.op.tx_writes:
        ctx.divergent = True
    return None


def _corrupt_session(fault, ctx, node, rng):
    if fault.mode == "wrong":
        ctx.divergent = True
        return None
    return ERR_EXCEPTION


# -- one-shot effects when a fault is armed: on_arm(world, fault) ---------------

def _corrupt_binding(world, fault) -> None:
    world.nodes[fault.node].registry.corrupt_binding(fault.target, fault.mode)


def _corrupt_external(world, fault) -> None:
    store = world.external_store
    # Empty target flips bits across the whole store.
    for key in [fault.target] if fault.target else sorted(store.records):
        store.corrupt(key, fault.mode or "invalid")
    fault.active = False          # one-shot: checksums take it from here


def _taint_row(world, fault) -> None:
    world.tx_store.taint_row(f"row:{fault.target}:{fault.fault_id}")


# Hook sites: where a class's symptom runs.
SITE_COMPONENT = "component"  # requests whose path has the target component
SITE_PROCESS = "process"      # every request its node starts
SITE_SESSION = "session"      # in-process session reads of the target key ("" = all)


class FaultClass(NamedTuple):
    name: str
    profiles: dict[str, CureProfile]   # allowed modes ("" = none) -> ground truth
    site: str | None = SITE_COMPONENT  # None: no per-request hook
    symptom: Callable | None = None
    leaks: bool = False                # a cure reclaims the leak; fresh code leaks on
    on_arm: Callable | None = None


def _modes(overt: CureProfile, wrong: CureProfile) -> dict[str, CureProfile]:
    return {"null": overt, "invalid": overt, "wrong": wrong}


_COMPONENT = CureProfile(CURE_COMPONENT, False)
_COMPONENT_MANUAL = CureProfile(CURE_COMPONENT, True)
_SELF = CureProfile(CURE_SELF, False)
_PROCESS = CureProfile(CURE_PROCESS, False)

FAULT_CLASSES = {fc.name: fc for fc in (
    FaultClass("deadlock", {"": _COMPONENT}, symptom=_hang),
    FaultClass("infinite_loop", {"": _COMPONENT}, symptom=_spin),
    FaultClass("transient_exception", {"": _COMPONENT}, symptom=_throw),
    FaultClass("app_memory_leak", {"": _COMPONENT}, symptom=_leak_heap, leaks=True),
    FaultClass("corrupt_primary_key", _modes(_COMPONENT, _COMPONENT_MANUAL), symptom=_corrupt_tx),
    FaultClass("corrupt_registry_entry", _modes(_COMPONENT, _COMPONENT), on_arm=_corrupt_binding),
    FaultClass("corrupt_tx_map", _modes(_COMPONENT, _COMPONENT_MANUAL), symptom=_corrupt_tx),
    FaultClass("corrupt_stateless_attr", _modes(_SELF, CureProfile(CURE_COMPONENT_WEB, True)), symptom=_corrupt_attr),
    FaultClass("corrupt_inproc_session", _modes(CureProfile(CURE_WEB, False), CureProfile(CURE_WEB, True)), SITE_SESSION, _corrupt_session),
    # Checksums catch it on read and the record is discarded; no reboot.
    FaultClass("corrupt_external_session", {"": _SELF, **_modes(_SELF, _SELF)}, None, on_arm=_corrupt_external),
    FaultClass("corrupt_db_row", {"": CureProfile(CURE_MANUAL, True)}, symptom=_stale_row, on_arm=_taint_row),
    FaultClass("leak_outside_app_intra_process", {"": _PROCESS}, SITE_PROCESS, _leak_heap, leaks=True),
    FaultClass("leak_outside_process", {"": CureProfile(CURE_NODE, False)}, SITE_PROCESS, _leak_os, leaks=True),
    FaultClass("process_memory_bitflip", {"": CureProfile(CURE_PROCESS, True)}, SITE_PROCESS, _throw),
    FaultClass("bad_env", {"": _PROCESS}, SITE_PROCESS, _throw),
)}


def cure_profile(fault_class: str, mode: str = "") -> CureProfile:
    """Ground-truth worst-case cure requirements; FaultError unless the class takes `mode`."""
    fc = FAULT_CLASSES.get(fault_class)
    if fc is None:
        raise FaultError(f"unknown fault class {fault_class!r}")
    if mode not in fc.profiles:
        modes = " | ".join(m for m in fc.profiles if m) or "no"
        raise FaultError(f"{fault_class} takes {modes} mode, not {mode!r}")
    return fc.profiles[mode]


class RecoveryOp(Record):
    """One executed recovery action, from its start to the manager's verdict."""

    __slots__ = _fields = (
        "level", "node",
        "members",          # for a restart, every component of its node
        "target",           # group label, node<i>, or operator
        "started_at",
        "duration_ms",      # crash + init cost; a microreboot's drain delay comes first
        "reason",           # episode | scripted | rejuvenation | direct | handed_off
        "completed_at",     # -1 until it completes; a hand-off never does
        "result",           # the recovery manager's verdict: cured | persisted
        "released",         # heap bytes freed, by holder
        "on_complete")      # each called with this op
    _defaults = {"completed_at": -1, "result": "", "released": dict, "on_complete": list}
    __eq__, __hash__ = object.__eq__, object.__hash__     # each is one action


class Fault(Record):
    """One injected fault: its scenario settings, ground truth and run state."""

    _fields = (
        "fault_id", "fault_class", "target", "mode", "node", "inject_at",
        "bytes_per_invoke", "fail_probability",
        "armed",                # becomes True at inject_at
        "active",               # symptoms being generated
        "pinned",               # holds a CPU slot (infinite loop)
        "sessions_at_inject",   # sessions homed on its node when armed; -1: never armed
        "recoveries")           # RecoveryOps completed on its node while active
    __slots__ = (*_fields, "kind", "profile", "lease_id")
    _defaults = {"bytes_per_invoke": 0, "fail_probability": 1.0, "armed": False,
                 "active": False, "pinned": False, "sessions_at_inject": -1, "recoveries": list}
    __eq__, __hash__ = object.__eq__, object.__hash__     # each is one injection

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.profile = cure_profile(self.fault_class, self.mode)
        self.kind = FAULT_CLASSES[self.fault_class]
        self.lease_id = f"leak:{self.fault_id}"     # the resource id of its heap leak


def is_cured(fault: Fault, op: RecoveryOp, prior: Sequence[RecoveryOp] = ()) -> bool:
    """Does this recovery action (given earlier ones since injection) clear the fault?

    Component-scoped cure levels additionally require the action to cover the
    fault's target; manual faults are never cured by rebooting.
    """
    level = fault.profile.min_cure_level
    if level == CURE_SELF:
        return True
    rank = op.level.rank
    if level == CURE_MANUAL or rank is None:      # escalate_human recovers nothing
        return False
    if level in _MIN_RANK:
        return rank >= _MIN_RANK[level]
    if level == CURE_COMPONENT:                   # any coarser scope covers every component
        return rank > MURB_GROUP.rank or fault.target in op.members
    if rank > MURB_WEB.rank:
        return True
    ops = (*prior, op)                            # web, or component and web
    web_done = any((o.level.rank or 0) >= MURB_WEB.rank for o in ops)
    return web_done and (level == CURE_WEB or any(fault.target in o.members for o in ops))


class FaultPlan:
    """The faults of one world, by id."""

    def __init__(self) -> None:
        self.faults: dict[int, Fault] = {}

    def register(self, fault: Fault) -> Fault:
        self.faults[fault.fault_id] = fault
        return fault

    def clear(self, fault_id: int) -> Fault:
        fault = self.faults.get(fault_id)
        if fault is None or not fault.armed:
            raise FaultError(f"fault {fault_id} is not armed")
        fault.armed = False
        fault.active = False
        return fault

    def apply_recovery(self, op: RecoveryOp) -> list[Fault]:
        """Record a completed action on each active fault of its node and
        deactivate the faults it cured; returns the cured set.

        Leak classes stay active: the reclaim of leaked resources is the cure,
        but the leaky code path keeps leaking on fresh instances.
        """
        cured = []
        for fault in self.faults.values():
            if not fault.active or fault.node != op.node:
                continue
            fault.recoveries.append(op)
            if is_cured(fault, op, fault.recoveries[:-1]):
                if not fault.kind.leaks:
                    fault.active = False
                cured.append(fault)
        return cured
