"""Scenario configuration dataclasses and defaults.

Every tunable the simulator honors lives here; scenario files and presets
only ever fill these structures. A numeric field's type carries its allowed
range, which the scenario parser checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated, Literal, NamedTuple


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


@dataclass
class ClusterConfig:
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


@dataclass
class WorkloadConfig:
    """Closed-loop clients per node, their think time, and the request TTL."""
    clients_per_node: NonNegative = 500
    think_mean_ms: AtLeastOne = 7_000
    think_max_ms: Delay = 70_000
    request_ttl_ms: Delay = 30_000


@dataclass
class StoreConfig:
    """Where sessions live, and each store's latency and lease."""
    session_store: Literal["in_process", "external"] = "in_process"
    in_process_latency_ms: Delay = 0
    external_latency_ms: Delay = 13
    session_lease_ms: Delay = 1_800_000


@dataclass
class DetectorConfig:
    """The failure detector's kind, delay and error rates, and its report channel."""
    kind: Literal["fast", "comparison"] = "fast"
    t_det_ms: Delay = 0
    fp_rate: Probability = 0.0
    fn_rate: Probability = 0.0
    channel_delay_ms: Delay = 0
    drop_rate: Probability = 0.0


@dataclass
class PolicyConfig:
    """The recovery manager's diagnosis threshold, score decay and escalation."""
    enabled: bool = True
    threshold: NonNegativeFloat = 3.0
    half_life_ms: AtLeastOne = 10_000
    observation_window_ms: Delay = 5_000
    recurrence_limit: NonNegative = 3     # same-target recoveries ...
    recurrence_period_ms: Delay = 600_000 # ... within this window escalate to a human
    # murb: start the ladder at group level; restart: jump to process restart
    recovery_mode: Literal["murb", "restart"] = "murb"


@dataclass
class RejuvenationConfig:
    """Heap-threshold rejuvenation: when it acts and what it restarts."""
    enabled: bool = False
    mode: Literal["murb", "restart"] = "murb"   # murb: rolling component reboots; restart: whole process
    poll_ms: AtLeastOne = 1_000
    alarm_bytes: NonNegative = 350_000_000
    sufficient_bytes: NonNegative = 800_000_000


@dataclass
class FaultConfig:
    """One fault, injected at a fixed time."""
    inject_at_ms: NonNegative
    fault_class: str
    target: str = ""
    mode: str = ""                        # the modes of faultlib.FAULT_CLASSES[fault_class]
    node: int = 0                         # checked against the cluster's size
    bytes_per_invoke: NonNegative = 0     # leak classes
    fail_probability: Probability = 1.0   # classes whose symptom throws


@dataclass
class ScriptedRecovery:
    """Direct recovery action at a fixed time, bypassing diagnosis."""

    at_ms: NonNegative
    level: str                            # a faultlib.RECOVERY_LEVELS name but escalate_human
    target: str = ""                      # component anchor for murb levels
    node: int = 0                         # checked against the cluster's size


@dataclass
class Scenario:
    """Everything one world is built from: seed, duration, sections and events."""
    duration_ms: Annotated[int, Range(0, MAX_DURATION_MS)] = 60_000
    seed: int = 1
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    stores: StoreConfig = field(default_factory=StoreConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    rejuvenation: RejuvenationConfig = field(default_factory=RejuvenationConfig)
    faults: list[FaultConfig] = field(default_factory=list)
    scripted_recoveries: list[ScriptedRecovery] = field(default_factory=list)
    catalog_path: str = ""                # empty: use the bundled demo catalog
    ops_path: str = ""
    matrix_path: str = ""
