"""Fault injection: taxonomy, symptom generation hooks, cure semantics.

Each fault class carries a minimum cure level as ground truth; the recovery
machinery clears a fault only when an action of sufficient level covers the
fault's target. Symptom generation itself happens inside request execution
(world.py) by consulting the armed-fault index built here.
"""

from __future__ import annotations

from dataclasses import dataclass

# Recovery levels in escalation order.
LEVELS = ("murb_group", "murb_web", "restart_application",
          "restart_process", "reboot_node", "escalate_human")

# Cure levels (minimum scope that actually clears the fault).
CURE_SELF = "self_clearing"
CURE_COMPONENT = "component"
CURE_COMPONENT_WEB = "component_and_web"
CURE_WEB = "web"
CURE_APPLICATION = "application"
CURE_PROCESS = "process"
CURE_NODE = "node"
CURE_MANUAL = "manual"

# Symptom visibility.
OVERT = "overt"
WRONG_VALUE = "wrong_value"
SILENT_UNTIL_EXHAUSTION = "silent_until_exhaustion"

CORRUPTION_CLASSES = frozenset({
    "corrupt_primary_key", "corrupt_registry_entry", "corrupt_tx_map",
    "corrupt_stateless_attr", "corrupt_inproc_session",
    "corrupt_external_session", "corrupt_db_row",
})

LEAK_CLASSES = frozenset({
    "app_memory_leak", "leak_outside_app_intra_process", "leak_outside_process",
})

_ACTION_RANK = {
    "murb_group": 1,
    "murb_web": 2,
    "restart_application": 3,
    "restart_process": 4,
    "reboot_node": 5,
}


class FaultError(Exception):
    pass


@dataclass(frozen=True)
class CureProfile:
    min_cure_level: str
    requires_manual_data_repair: bool
    symptom_visibility: str


def cure_profile(fault_class: str, mode: str = "") -> CureProfile:
    """Ground-truth worst-case cure requirements per fault class and mode."""
    c, m = fault_class, mode
    if c in ("deadlock", "infinite_loop", "transient_exception"):
        return CureProfile(CURE_COMPONENT, False, OVERT)
    if c == "app_memory_leak":
        return CureProfile(CURE_COMPONENT, False, SILENT_UNTIL_EXHAUSTION)
    if c == "corrupt_primary_key":
        if m == "wrong":
            return CureProfile(CURE_COMPONENT, True, WRONG_VALUE)
        return CureProfile(CURE_COMPONENT, False, OVERT)
    if c == "corrupt_registry_entry":
        if m == "wrong":
            return CureProfile(CURE_COMPONENT, False, WRONG_VALUE)
        return CureProfile(CURE_COMPONENT, False, OVERT)
    if c == "corrupt_tx_map":
        if m == "wrong":
            return CureProfile(CURE_COMPONENT, True, WRONG_VALUE)
        return CureProfile(CURE_COMPONENT, False, OVERT)
    if c == "corrupt_stateless_attr":
        if m == "wrong":
            return CureProfile(CURE_COMPONENT_WEB, True, WRONG_VALUE)
        return CureProfile(CURE_SELF, False, OVERT)
    if c == "corrupt_inproc_session":
        if m == "wrong":
            return CureProfile(CURE_WEB, True, WRONG_VALUE)
        return CureProfile(CURE_WEB, False, OVERT)
    if c == "corrupt_external_session":
        # Checksums catch it on read and the record is discarded; no reboot.
        return CureProfile(CURE_SELF, False, OVERT)
    if c == "corrupt_db_row":
        return CureProfile(CURE_MANUAL, True, WRONG_VALUE)
    if c == "leak_outside_app_intra_process":
        return CureProfile(CURE_PROCESS, False, SILENT_UNTIL_EXHAUSTION)
    if c == "leak_outside_process":
        return CureProfile(CURE_NODE, False, SILENT_UNTIL_EXHAUSTION)
    if c == "process_memory_bitflip":
        return CureProfile(CURE_PROCESS, True, OVERT)
    if c == "bad_env":
        return CureProfile(CURE_PROCESS, False, OVERT)
    raise FaultError(f"unknown fault class {fault_class!r}")


@dataclass
class FaultSpec:
    fault_id: int
    fault_class: str
    target: str
    mode: str
    node: int
    inject_at: int
    bytes_per_invoke: int = 0
    fail_probability: float = 1.0

    def __post_init__(self) -> None:
        is_corruption = self.fault_class in CORRUPTION_CLASSES
        if is_corruption and self.fault_class not in (
                "corrupt_external_session", "corrupt_db_row") and not self.mode:
            raise FaultError(f"{self.fault_class} requires a corruption mode")
        if not is_corruption and self.mode:
            raise FaultError(f"{self.fault_class} takes no corruption mode")

    @property
    def profile(self) -> CureProfile:
        return cure_profile(self.fault_class, self.mode)


@dataclass
class RecoveryScope:
    """What one recovery action covered: its level plus component scope."""

    level: str
    components: frozenset[str] = frozenset()
    node: int = 0
    includes_web: bool = False


class ArmedFault:
    __slots__ = ("spec", "active", "armed")

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        self.armed = False            # becomes True at inject_at
        self.active = False           # symptoms being generated


def _covers_web(scope: RecoveryScope) -> bool:
    return _ACTION_RANK.get(scope.level, 0) == 2 or scope.includes_web


def is_cured(spec: FaultSpec, scope: RecoveryScope,
             prior_scopes: tuple[RecoveryScope, ...] = ()) -> bool:
    """Does this recovery action (given earlier ones since injection) clear the fault?

    Component-scoped cure levels additionally require the action to cover the
    fault's target; manual faults are never cured by rebooting.
    """
    profile = spec.profile
    level = profile.min_cure_level
    if level == CURE_SELF:
        return True
    if level == CURE_MANUAL:
        return False
    rank = _ACTION_RANK.get(scope.level)
    if rank is None:                      # escalate_human recovers nothing
        return False
    if level == CURE_COMPONENT:
        if rank > 1:
            return True                   # any coarser scope covers every component
        return spec.target in scope.components
    if level == CURE_WEB:
        if rank > 2:
            return True
        return _covers_web(scope) or any(_covers_web(s) for s in prior_scopes)
    if level == CURE_COMPONENT_WEB:
        if rank > 2:
            return True
        scopes = prior_scopes + (scope,)
        target_done = any(spec.target in s.components for s in scopes)
        web_done = any(_covers_web(s) for s in scopes)
        return target_done and web_done
    if level == CURE_APPLICATION:
        return rank >= 3
    if level == CURE_PROCESS:
        return rank >= 4
    if level == CURE_NODE:
        return rank >= 5
    raise FaultError(f"unknown cure level {level!r}")


class FaultPlan:
    """Armed-fault bookkeeping for one world."""

    def __init__(self) -> None:
        self.faults: dict[int, ArmedFault] = {}
        self._next_id = 0

    def register(self, spec: FaultSpec) -> ArmedFault:
        armed = ArmedFault(spec)
        self.faults[spec.fault_id] = armed
        return armed

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def clear(self, fault_id: int) -> ArmedFault:
        armed = self.faults.get(fault_id)
        if armed is None or not armed.armed:
            raise FaultError(f"fault {fault_id} is not armed")
        armed.armed = False
        armed.active = False
        return armed

    def apply_recovery(self, scope: RecoveryScope,
                       history: dict[int, list[RecoveryScope]]) -> list[ArmedFault]:
        """Deactivate faults cured by this action; returns the cured set.

        Leak classes stay active: the reclaim of leaked resources is the cure,
        but the leaky code path keeps leaking on fresh instances.
        """
        cured = []
        for armed in self.faults.values():
            if not armed.active or armed.spec.node != scope.node:
                continue
            prior = tuple(history.get(armed.spec.fault_id, ()))
            history.setdefault(armed.spec.fault_id, []).append(scope)
            if is_cured(armed.spec, scope, prior):
                if armed.spec.fault_class not in LEAK_CLASSES:
                    armed.active = False
                cured.append(armed)
        return cured
