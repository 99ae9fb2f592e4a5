"""Scenario configuration dataclasses and defaults.

Every tunable the simulator honors lives here; scenario files and presets
only ever fill these structures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal


@dataclass
class ClusterConfig:
    nodes: int = 1
    workers_per_node: int = 200
    cpu_slots_per_node: int = 2
    heap_bytes_per_node: int = 1_000_000_000
    failover: bool = False
    retries: bool = False                 # Retry-After masking at the client edge
    retry_after_ms: int = 2_000
    drain_delay_ms: int = 0               # sentinel-to-destroy delay per microreboot
    os_boot_ms: int = 60_000              # added to a process restart for node reboots
    app_restart_ms: int = 7_699
    process_restart_ms: int = 19_083


@dataclass
class WorkloadConfig:
    clients_per_node: int = 500
    think_mean_ms: int = 7_000
    think_max_ms: int = 70_000
    request_ttl_ms: int = 30_000


@dataclass
class StoreConfig:
    session_store: Literal["in_process", "external"] = "in_process"
    in_process_latency_ms: int = 0
    external_latency_ms: int = 13
    session_lease_ms: int = 1_800_000


@dataclass
class DetectorConfig:
    kind: Literal["fast", "comparison"] = "fast"
    t_det_ms: int = 0
    fp_rate: float = 0.0
    fn_rate: float = 0.0
    channel_delay_ms: int = 0
    drop_rate: float = 0.0


@dataclass
class PolicyConfig:
    enabled: bool = True
    threshold: float = 3.0
    half_life_ms: int = 10_000
    observation_window_ms: int = 5_000
    recurrence_limit: int = 3             # same-target recoveries ...
    recurrence_period_ms: int = 600_000   # ... within this window escalate to a human
    # murb: start the ladder at group level; restart: jump to process restart
    recovery_mode: Literal["murb", "restart"] = "murb"


@dataclass
class RejuvenationConfig:
    enabled: bool = False
    mode: Literal["murb", "restart"] = "murb"   # murb: rolling component reboots; restart: whole process
    poll_ms: int = 1_000
    alarm_bytes: int = 350_000_000
    sufficient_bytes: int = 800_000_000


@dataclass
class FaultConfig:
    inject_at_ms: int
    fault_class: str
    target: str = ""
    mode: str = ""                        # the modes of faultlib.FAULT_CLASSES[fault_class]
    node: int = 0
    bytes_per_invoke: int = 0             # leak classes
    fail_probability: float = 1.0         # classes whose symptom throws


@dataclass
class ScriptedRecovery:
    """Direct recovery action at a fixed time, bypassing diagnosis."""

    at_ms: int
    level: str                            # a faultlib.RECOVERY_LEVELS name but escalate_human
    target: str = ""                      # component anchor for murb levels
    node: int = 0


@dataclass
class Scenario:
    duration_ms: int = 60_000
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
