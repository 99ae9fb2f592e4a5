"""Scenario configuration sections and defaults.

Every tunable the simulator honors lives here; scenario files and presets
only ever fill these structures. A numeric field's type carries its allowed
range and a `Literal` field's its allowed set, which every assignment checks,
from a scenario file or in code. The sections and the simulator's records
are plain classes on `Record`, which, unlike a dataclass, compiles no code
and loads no `dataclasses` or `inspect`.
"""

from typing import Annotated, Literal, NamedTuple, get_args, get_origin


class Range(NamedTuple):
    """Closed interval a numeric field must lie in; hi None: no upper bound."""

    lo: float
    hi: float | None = None

    def check(self, value):
        # written so that NaN, which compares False both ways, fails
        if not (self.lo <= value and (self.hi is None or value <= self.hi)):
            upper = f" and <= {self.hi}" if self.hi is not None else ""
            raise ValueError(f"expected a value >= {self.lo}{upper}, got {value}")
        return value


# The ledger keeps times as int32 ms: the end of a run plus 31 of the longest
# delays in a row still fits in 2**31 - 1 ms.
MAX_DURATION_MS, MAX_DELAY_MS = 1 << 30, 1 << 25     # about 12.4 days, 9.3 hours

AtLeastOne = Annotated[int, Range(1)]       # counts that must exist; divisors
NonNegative = Annotated[int, Range(0)]      # sizes, event times
Delay = Annotated[int, Range(0, MAX_DELAY_MS)]
NonNegativeFloat = Annotated[float, Range(0.0)]
Probability = Annotated[float, Range(0.0, 1.0)]


class Record:
    """Construction by position or keyword, field equality and a repr, over
    the field names `_fields` in order. A field left out takes its value in
    `_defaults`, where a class (a sub-config, `list`) builds one each time."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        if len(args) > len(cls._fields) or not kwargs.keys() <= set(cls._fields[len(args):]):
            raise TypeError(f"{cls.__name__} takes the fields {', '.join(cls._fields)}")
        kwargs.update(zip(cls._fields, args))
        for name in cls._fields:
            if name not in kwargs:
                if name not in cls._defaults:
                    raise TypeError(f"{cls.__name__} missing field {name!r}")
                default = cls._defaults[name]
                kwargs[name] = default() if isinstance(default, type) else default
            setattr(self, name, kwargs[name])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    __hash__ = None     # mutable, as a dataclass with eq

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class Section(Record):
    """A config section: its annotated fields in order, `types`, each with its
    value in the class body as default. Each value set, at construction or
    later, must be of its field's base type and lie in its Range or allowed set."""

    types: dict[str, object] = {}       # field name -> annotation

    def __init_subclass__(cls) -> None:
        cls.types = cls.__annotations__
        cls._fields = tuple(cls.types)
        cls._defaults = {name: vars(cls)[name] for name in cls.types if name in vars(cls)}

    @classmethod
    def check(cls, name: str, value):
        """`value`, if field `name` may hold it; else ValueError. Of the base
        types, a float field also takes an int, and only a bool field a bool."""
        kind = cls.types.get(name)
        origin = get_origin(kind)
        base = str if origin is Literal else kind.__origin__ if origin is Annotated else kind
        if base in (bool, int, float, str) and (
                isinstance(value, bool) is not (base is bool)
                or not isinstance(value, (int, float) if base is float else base)):
            raise ValueError(f"expected {base.__name__}, got {value!r}")
        if origin is Annotated:
            return kind.__metadata__[0].check(value)
        if origin is Literal and value not in get_args(kind):
            raise ValueError(f"expected {' | '.join(get_args(kind))}, got {value!r}")
        return value

    def __setattr__(self, name: str, value) -> None:
        try:
            self.check(name, value)
        except ValueError as exc:
            raise ValueError(f"{type(self).__name__}.{name}: {exc}") from None
        object.__setattr__(self, name, value)


class ClusterConfig(Section):
    """Nodes, their capacities, and the cost of each restart scope."""
    nodes: AtLeastOne = 1
    workers_per_node: AtLeastOne = 200
    cpu_slots_per_node: AtLeastOne = 2
    heap_bytes_per_node: AtLeastOne = 1_000_000_000
    failover: bool = False
    retries: bool = False                 # Retry-After masking at the client edge
    retry_after_ms: Delay = 2_000
    drain_delay_ms: Delay = 0             # sentinel-to-destroy delay per microreboot
    os_boot_ms: Delay = 60_000            # added to a process restart for node reboots
    app_restart_ms: Delay = 7_699
    process_restart_ms: Delay = 19_083


class WorkloadConfig(Section):
    """Closed-loop clients per node, their think time, and the request TTL."""
    clients_per_node: NonNegative = 500
    think_mean_ms: AtLeastOne = 7_000
    think_max_ms: Delay = 70_000
    request_ttl_ms: Delay = 30_000


class StoreConfig(Section):
    """Where sessions live, and each store's latency and lease."""
    session_store: Literal["in_process", "external"] = "in_process"
    in_process_latency_ms: Delay = 0
    external_latency_ms: Delay = 13
    session_lease_ms: Delay = 1_800_000


class DetectorConfig(Section):
    """The failure detector's kind, delay and error rates, and its report channel."""
    kind: Literal["fast", "comparison"] = "fast"
    t_det_ms: Delay = 0
    fp_rate: Probability = 0.0
    fn_rate: Probability = 0.0
    channel_delay_ms: Delay = 0
    drop_rate: Probability = 0.0


class PolicyConfig(Section):
    """The recovery manager's diagnosis threshold, score decay and escalation."""
    enabled: bool = True
    threshold: NonNegativeFloat = 3.0
    half_life_ms: AtLeastOne = 10_000
    observation_window_ms: Delay = 5_000
    recurrence_limit: NonNegative = 3     # same-target recoveries ...
    recurrence_period_ms: Delay = 600_000 # ... within this window escalate to a human
    # murb: start the ladder at group level; restart: jump to process restart
    recovery_mode: Literal["murb", "restart"] = "murb"


class RejuvenationConfig(Section):
    """Heap-threshold rejuvenation: when it acts and what it restarts."""
    enabled: bool = False
    mode: Literal["murb", "restart"] = "murb"   # murb: rolling component reboots; restart: whole process
    poll_ms: AtLeastOne = 1_000
    alarm_bytes: NonNegative = 350_000_000
    sufficient_bytes: NonNegative = 800_000_000


class FaultConfig(Section):
    """One fault, injected at a fixed time."""
    inject_at_ms: NonNegative
    fault_class: str
    target: str = ""
    mode: str = ""                        # the modes of faultlib.FAULT_CLASSES[fault_class]
    node: int = 0                         # checked against the cluster's size
    bytes_per_invoke: NonNegative = 0     # leak classes
    fail_probability: Probability = 1.0   # classes whose symptom throws


class ScriptedRecovery(Section):
    """Direct recovery action at a fixed time, bypassing diagnosis."""

    at_ms: NonNegative
    level: str                            # a faultlib.RECOVERY_LEVELS name but escalate_human
    target: str = ""                      # component anchor for murb levels
    node: int = 0                         # checked against the cluster's size


class Scenario(Section):
    """Everything one world is built from: seed, duration, sections and events."""
    duration_ms: Annotated[int, Range(0, MAX_DURATION_MS)] = 60_000
    seed: int = 1
    cluster: ClusterConfig = ClusterConfig
    workload: WorkloadConfig = WorkloadConfig
    stores: StoreConfig = StoreConfig
    detector: DetectorConfig = DetectorConfig
    policy: PolicyConfig = PolicyConfig
    rejuvenation: RejuvenationConfig = RejuvenationConfig
    faults: list[FaultConfig] = list
    scripted_recoveries: list[ScriptedRecovery] = list
    catalog_path: str = ""                # empty: use the bundled demo catalog
    ops_path: str = ""
    matrix_path: str = ""
