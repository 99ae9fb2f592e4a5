"""Crash-only component host: registry, recovery groups, leases, heap charges.

A Registry holds the deployed components of one node. Recovery groups are
precomputed as the transitive closure of each component's dependents (who
depends on me, directly or through others); components that must come down
together are rebooted together. The actual reboot orchestration is event
driven and lives in world.py; this module owns the state transitions.
"""

from __future__ import annotations

from contextlib import contextmanager
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .config import Record

KIND_ENTITY = "entity"
KIND_STATELESS = "stateless"
KIND_WEB = "web"
UNATTRIBUTED = "unattributed"    # the holder of a leak outside every component

# Binding states for the name service.
BOUND = "bound"
SENTINEL = "sentinel"
NOT_BOUND = "not_bound"
WRONG = "wrong"


class ScenarioError(Exception):
    """A scenario or data file, or a deployment built from it, that no world can run."""


class ComponentSpec(NamedTuple):
    name: str
    kind: str
    depends_on: frozenset[str]
    crash_ms: int
    init_ms: int
    mem_footprint_bytes: int


class LeaseRecord(Record):
    """Heap bytes charged to a holder, a component or UNATTRIBUTED, under one
    resource id, until `expires_at`; None: held until released."""

    __slots__ = _fields = ("resource_id", "holder", "bytes", "expires_at")
    _defaults = {"expires_at": None}


class RecoveryGroup(NamedTuple):
    anchor: str
    members: frozenset[str]


class GroupOverride(NamedTuple):
    name: str
    members: frozenset[str]
    crash_ms: int
    init_ms: int


class Lookup:
    """Result of a name-service lookup."""

    __slots__ = ("state", "arg")

    def __init__(self, state: str, arg: object = None):
        self.state = state
        self.arg = arg


_BOUND = Lookup(BOUND)
_NOT_BOUND = Lookup(NOT_BOUND)
_SENTINEL = Lookup(SENTINEL)
_STOPPED = Lookup(NOT_BOUND)    # corrupting or restoring a stopped binding leaves it unbound


class Registry:
    """Per-node component registry and name service."""

    def __init__(self, specs: list[ComponentSpec], overrides: list[GroupOverride]):
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise ScenarioError(f"duplicate component names: {', '.join(dup)}")
        known = set(names)
        for s in specs:
            for dep in sorted(s.depends_on):
                if dep not in known:
                    raise ScenarioError(f"{s.name} depends on unknown component {dep}")
        for o in overrides:
            for m in sorted(o.members):
                if m not in known:
                    raise ScenarioError(f"group {o.name} names unknown component {m}")
        self.specs: dict[str, ComponentSpec] = {s.name: s for s in specs}   # catalog order
        # The name service: the lookup of every component that is not BOUND.
        self.impaired: dict[str, Lookup] = {}
        self._dependents = self._reverse_edges()
        self.groups: dict[str, RecoveryGroup] = {
            n: self._closure(n) for n in names
        }
        closures = {g.members for g in self.groups.values()}
        for o in overrides:
            if o.members not in closures:
                raise ScenarioError(f"group {o.name} members {','.join(sorted(o.members))} "
                                    f"are not the members of any recovery group")
        self.overrides = {o.members: o for o in overrides}
        web = self.web_component = next((n for n in names if self.specs[n].kind == KIND_WEB), None)
        # so the web's own group, the web rung's, is the one group that holds it
        if web is not None and (deps := self.specs[web].depends_on):
            raise ScenarioError(f"web component {web} depends on {','.join(sorted(deps))}; "
                                f"it may depend on none")

    def _reverse_edges(self) -> dict[str, set[str]]:
        rev: dict[str, set[str]] = {n: set() for n in self.specs}
        for s in self.specs.values():
            for dep in s.depends_on:
                rev[dep].add(s.name)
        return rev

    def _closure(self, anchor: str) -> RecoveryGroup:
        members = {anchor}
        frontier = [anchor]
        while frontier:
            cur = frontier.pop()
            for dependent in self._dependents[cur]:
                if dependent not in members:
                    members.add(dependent)
                    frontier.append(dependent)
        return RecoveryGroup(anchor=anchor, members=frozenset(members))

    def recovery_group(self, anchor: str) -> RecoveryGroup:
        if anchor not in self.groups:
            raise ScenarioError(f"unknown component {anchor}")
        return self.groups[anchor]

    def group_cost(self, members: frozenset[str]) -> tuple[int, int]:
        """(crash_ms, init_ms) for rebooting `members` as one unit."""
        override = self.overrides.get(members)
        if override is not None:
            return override.crash_ms, override.init_ms
        crash = max(self.specs[m].crash_ms for m in members)
        init = max(self.specs[m].init_ms for m in members)
        return crash, init

    def lookup(self, name: str) -> Lookup:
        entry = self.impaired.get(name)
        if entry is not None:
            return entry
        return _BOUND if name in self.specs else _NOT_BOUND

    def bind_sentinel(self, members: frozenset[str]) -> None:
        for m in members:
            self.impaired[m] = _SENTINEL

    def rebind(self, members: frozenset[str]) -> None:
        for m in members:
            self.impaired.pop(m, None)

    def stop_all(self) -> None:
        self.impaired.update(dict.fromkeys(self.specs, _STOPPED))

    def redeploy_all(self) -> None:
        self.impaired.clear()

    def corrupt_binding(self, name: str, mode: str) -> None:
        if mode == "null":
            entry = _NOT_BOUND
        elif mode == "invalid":
            entry = Lookup(WRONG)          # type-checks but points nowhere usable
        else:                              # wrong: the event check admits no other mode
            others = [n for n in self.specs if n not in (name, self.web_component)]
            entry = Lookup(WRONG, others[0] if others else None)
        if self.impaired.get(name) is not _STOPPED:
            self.impaired[name] = entry


class HeapLedger:
    """Heap accounting for one node: component footprints plus leased charges."""

    def __init__(self, capacity: int, registry: Registry):
        self.capacity = capacity
        self.registry = registry
        self.footprint_total = sum(s.mem_footprint_bytes for s in registry.specs.values())
        self.leases: dict[str, LeaseRecord] = {}
        self.leased = 0                  # sum of the leases' bytes
        self.os_leak_bytes = 0           # outside the process; only a node reboot clears it

    def charge(self, holder: str, nbytes: int, *, resource_id: str,
               expires_at: int | None = None) -> LeaseRecord:
        rec = self.leases.get(resource_id)
        if rec is None:
            rec = LeaseRecord(resource_id, holder, 0, expires_at)
            self.leases[resource_id] = rec
        rec.bytes += nbytes
        self.leased += nbytes
        return rec

    def release_holder(self, holders: frozenset[str] | set[str]) -> dict[str, int]:
        """Release the leases of the given holders; returns bytes per holder."""
        released: dict[str, int] = {}
        for rid in [r for r, rec in self.leases.items() if rec.holder in holders]:
            rec = self.leases.pop(rid)
            self.leased -= rec.bytes
            released[rec.holder] = released.get(rec.holder, 0) + rec.bytes
        return released

    def release_all_app(self) -> int:
        """Release every component-attributed lease (application restart scope)."""
        holders = frozenset(self.registry.specs)
        return sum(self.release_holder(holders).values())

    def release_unattributed(self) -> int:
        return sum(self.release_holder(frozenset({UNATTRIBUTED})).values())

    def reap(self, now: int) -> list[LeaseRecord]:
        """Release every lease whose expiry has passed."""
        out = [self.leases.pop(r) for r, rec in list(self.leases.items())
               if rec.expires_at is not None and rec.expires_at <= now]
        self.leased -= sum(rec.bytes for rec in out)
        return out

    @property
    def charged(self) -> int:
        return self.footprint_total + self.leased

    @property
    def free(self) -> int:
        return self.capacity - self.charged

    def attributed_to(self, holders: frozenset[str]) -> int:
        footprint = sum(self.registry.specs[h].mem_footprint_bytes
                        for h in holders if h in self.registry.specs)
        leased = sum(r.bytes for r in self.leases.values() if r.holder in holders)
        return footprint + leased


# --- data files ---------------------------------------------------------------

def records(text: str):
    """(line number, stripped line) of each line of `text` that is not blank
    once a `#` and what follows it on the line are dropped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if line := raw.split("#", 1)[0].strip():
            yield lineno, line


def _parse_kv(tokens: list[str], lineno: int, keys: tuple[str, ...]) -> list[str]:
    """The values of `tokens`, each `key=value`, in the order of `keys`; the
    tokens name each of `keys` once and nothing else."""
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ScenarioError(f"line {lineno}: expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        if k not in keys:
            raise ScenarioError(f"line {lineno}: unknown key {k!r}")
        if k in out:
            raise ScenarioError(f"line {lineno}: repeated key {k!r}")
        out[k] = v
    for k in keys:
        if k not in out:
            raise ScenarioError(f"line {lineno}: missing field {k!r}")
    return [out[k] for k in keys]


def parse_catalog(text: str) -> tuple[list[ComponentSpec], list[GroupOverride]]:
    specs: list[ComponentSpec] = []
    overrides: list[GroupOverride] = []
    for lineno, line in records(text):
        tokens = line.split()
        record, name = tokens[0], tokens[1] if len(tokens) > 1 else ""
        try:
            if record == "component":
                deps, kind, crash_ms, init_ms, footprint = _parse_kv(
                    tokens[2:], lineno, ("depends", "kind", "crash_ms", "init_ms", "footprint"))
                if name == UNATTRIBUTED:
                    raise ScenarioError(f"line {lineno}: {name!r} names the holder of "
                                        f"leaks outside every component")
                spec = ComponentSpec(
                    name=name,
                    kind=kind,
                    depends_on=frozenset() if deps == "-" else frozenset(deps.split(",")),
                    crash_ms=int(crash_ms),
                    init_ms=int(init_ms),
                    mem_footprint_bytes=int(footprint),
                )
                if spec.kind not in (KIND_ENTITY, KIND_STATELESS, KIND_WEB):
                    raise ScenarioError(f"line {lineno}: unknown kind {spec.kind!r}")
                if spec.crash_ms < 0 or spec.init_ms <= 0:
                    raise ScenarioError(f"line {lineno}: bad cost model for {name}")
                specs.append(spec)
            elif record == "group":
                members, crash_ms, init_ms = _parse_kv(
                    tokens[2:], lineno, ("members", "crash_ms", "init_ms"))
                overrides.append(GroupOverride(
                    name=name,
                    members=frozenset(members.split(",")),
                    crash_ms=int(crash_ms),
                    init_ms=int(init_ms),
                ))
            else:
                raise ScenarioError(f"line {lineno}: unknown record {record!r}")
        except ValueError as exc:
            raise ScenarioError(f"line {lineno}: {exc}") from None
    webs = sum(s.kind == KIND_WEB for s in specs)   # the ladder's web rung needs one
    if webs != 1:
        raise ScenarioError(f"need exactly one kind=web component, found {webs}")
    return specs, overrides


@contextmanager
def data_file(path: str, bundled: str):
    """Yield the text of the data file at `path`, or of the bundled file named
    `bundled` if `path` is empty. A ScenarioError raised in the block names the file."""
    source = Path(path) if path else resources.files("murbsim.data") / bundled
    try:
        yield source.read_text(encoding="utf-8")
    except ScenarioError as exc:
        raise ScenarioError(f"{path or bundled}: {exc}") from None


def load_catalog(path: str = "") -> tuple[list[ComponentSpec], list[GroupOverride]]:
    with data_file(path, "catalog.txt") as text:
        specs, overrides = parse_catalog(text)
        Registry(specs, overrides)       # checks names and dependencies
    return specs, overrides
