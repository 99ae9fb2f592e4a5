"""Recovery manager: report ingestion, score-based diagnosis, the recursive
recovery ladder, heap-threshold rejuvenation, and detection-headroom math.

Diagnosis scores every component on the call path of a failed operation and
recovers the cheapest plausible target first. After each recovery action the
manager waits an observation window; fresh failure reports escalate to the
next, coarser level. A target recovered too often in a short period is handed
to a human instead of rebooted again.
"""

from __future__ import annotations

from bisect import bisect_right

from .config import PolicyConfig, Record, RejuvenationConfig
from .detect import FAULTY_APP_CHECK, FailureReport
from .faultlib import ESCALATE_HUMAN, LEVELS, MURB_GROUP, RESTART_PROCESS, Level, RecoveryOp


class ScoreBoard:
    """Decaying per-component failure scores for one node, and when each report was seen."""

    def __init__(self, half_life_ms: int, threshold: float):
        self.half_life_ms = half_life_ms
        self.threshold = threshold
        self.scores: dict[str, float] = {}
        self.decayed_at = 0
        self.report_times: list[int] = []    # sorted

    def decay_to(self, now: int) -> None:
        dt = now - self.decayed_at
        if dt <= 0:
            return
        factor = 0.5 ** (dt / self.half_life_ms)
        if factor < 1e-12:
            self.scores.clear()
        else:
            for comp in self.scores:
                self.scores[comp] *= factor
        self.decayed_at = now

    def bump(self, components, now: int, amount: float = 1.0) -> None:
        self.decay_to(now)
        for comp in components:
            self.scores[comp] = self.scores.get(comp, 0.0) + amount

    def reset(self) -> None:
        self.scores.clear()
        self.report_times.clear()


class Episode(Record):
    """One diagnosis on a node, its ladder of actions, and how it ended."""

    __slots__ = _fields = ("node", "started_at", "anchor", "actions", "terminal_level", "cured",
                           "manual_repair_flagged")
    _defaults = {"actions": list,               # RecoveryOps, added as each completes
                 "terminal_level": "", "cured": False, "manual_repair_flagged": False}

    @property
    def levels(self) -> list[str]:
        return [op.level.name for op in self.actions]


class RecoveryManager:
    """Event-driven actor; `World.execute_recovery` serializes each node's recovery steps."""

    def __init__(self, world, policy: PolicyConfig):
        self.world = world
        self.policy = policy
        self.boards = [ScoreBoard(policy.half_life_ms, policy.threshold) for _ in world.nodes]
        self.episodes: list[Episode] = []
        self.active: dict[int, Episode] = {}
        self.halted: set[int] = set()
        # recurrence bookkeeping: recovery timestamps per (node, target key)
        self._recoveries: dict[tuple[int, object], list[int]] = {}
        self._failover = world.scenario.cluster.failover and len(world.nodes) > 1
        self.session_loss_reports = 0
        self.ignored_reports = 0

    # -- ingestion and diagnosis ----------------------------------------

    def ingest_report(self, report: FailureReport) -> None:
        now = self.world.loop.now
        if report.node_id < 0:     # node -1: the balancer had no node for it
            self.ignored_reports += 1
            return
        if report.failure_class == FAULTY_APP_CHECK:
            # Session loss is a state condition, not a component fault; scoring
            # it would send the ladder chasing ghosts after every restart.
            self.session_loss_reports += 1
            return
        board = self.boards[report.node_id]
        board.bump(report.op.path, now)
        board.report_times.append(report.observed_at)
        if self.policy.enabled:
            self.maybe_act(report.node_id)

    def diagnose(self, node: int):
        """(anchor, group members) when some score crosses the threshold."""
        board = self.boards[node]
        board.decay_to(self.world.loop.now)
        registry = self.world.nodes[node].registry
        best = None
        for comp, score in board.scores.items():
            if score < board.threshold:
                continue
            if comp == registry.web_component:
                continue   # the web component sits on every path; it has its own rung
            members = registry.groups[comp].members
            key = (-score, len(members), comp)
            if best is None or key < best[0]:
                best = (key, comp, members)
        if best is None:
            return None
        return best[1], best[2]

    def maybe_act(self, node: int) -> None:
        if node in self.active or node in self.halted:
            return
        if self.world.node_recovery_busy(node):
            return
        diagnosis = self.diagnose(node)
        if diagnosis is None:
            return
        anchor, members = diagnosis
        episode = Episode(node=node, started_at=self.world.loop.now, anchor=anchor)
        self.active[node] = episode
        self.episodes.append(episode)
        first = MURB_GROUP if self.policy.recovery_mode == "murb" else RESTART_PROCESS
        self._run_action(episode, first, members)

    # -- the ladder -------------------------------------------------------

    def _run_action(self, episode: Episode, level: Level, members: frozenset[str]) -> None:
        now = self.world.loop.now
        # A microreboot's target is its group; a restart's is the whole node.
        key = (episode.node, members if level.microreboot else level)
        history = self._recoveries.setdefault(key, [])
        recent = [t for t in history if t > now - self.policy.recurrence_period_ms]
        if level.rank is None or len(recent) >= self.policy.recurrence_limit:
            self._finish_episode(episode, ESCALATE_HUMAN, cured=False)
            return
        history.append(now)
        # The balancer hears about the recovery first, and again once it is done.
        if self._failover:
            self.world.lb.set_failover(episode.node, True)
        self.world.execute_recovery(
            episode.node, level, members, lambda op: self._action_done(episode, op))

    def _action_done(self, episode: Episode, op: RecoveryOp) -> None:
        episode.actions.append(op)
        if self._failover:
            self.world.lb.set_failover(episode.node, False)
        window = self.policy.observation_window_ms
        self.world.loop.after(window, lambda: self._check_symptoms(episode, op))

    def _check_symptoms(self, episode: Episode, op: RecoveryOp) -> None:
        times = self.boards[episode.node].report_times
        fresh = len(times) - bisect_right(times, op.completed_at)
        if fresh == 0:
            op.result = "cured"
            self._finish_episode(episode, op.level, cured=True)
            return
        op.result = "persisted"
        level = LEVELS[op.level.rank]
        members: frozenset[str] = frozenset()
        if level.microreboot:                    # only the web's rung is above the first
            registry = self.world.nodes[episode.node].registry
            members = registry.groups[registry.web_component].members
        self._run_action(episode, level, members)

    def _finish_episode(self, episode: Episode, terminal: Level, cured: bool) -> None:
        episode.terminal_level = terminal.name
        episode.cured = cured
        episode.manual_repair_flagged = self.world.manual_repair_flagged(episode.node)
        if terminal.rank is None:                # handed off: nothing runs or completes
            self.halted.add(episode.node)
            self.world.recoveries.append(RecoveryOp(
                terminal, episode.node, frozenset(), "operator", self.world.loop.now, 0,
                "handed_off"))
        self.boards[episode.node].reset()
        del self.active[episode.node]
        if self._failover:
            self.world.lb.set_failover(episode.node, False)


class RejuvenationService:
    """Rolling microreboots keyed to free-heap thresholds, per node."""

    def __init__(self, world, config: RejuvenationConfig, node: int):
        self.world = world
        self.config = config
        self.node = node
        registry = world.nodes[node].registry
        self.candidates: list[str] = [n for n in registry.specs if n != registry.web_component]
        self.released_by_component: dict[str, int] = {n: 0 for n in self.candidates}
        self.completed_passes = 0
        self.pass_log: list[dict] = []
        self._pass_queue: list[str] = []
        self._pass_done: set[str] = set()

    def tick(self) -> None:
        world = self.world
        # busy all through a pass, and while a restart has the node down
        if world.rm.active.get(self.node) or world.node_recovery_busy(self.node):
            return
        heap = world.nodes[self.node].heap
        if heap.free >= self.config.alarm_bytes:
            return
        if self.config.mode == "restart":
            world.execute_recovery(self.node, RESTART_PROCESS, frozenset(),
                                   self._restart_done, reason="rejuvenation")
            return
        self._pass_queue = list(self.candidates)
        self._pass_done = set()
        self._next_candidate()

    def _restart_done(self, op: RecoveryOp) -> None:
        self.completed_passes += 1
        self.pass_log.append({
            "at": self.world.loop.now,
            "mode": "restart",
            "free_after": self.world.nodes[self.node].heap.free,
        })

    def _next_candidate(self) -> None:
        world = self.world
        heap = world.nodes[self.node].heap
        if heap.free >= self.config.sufficient_bytes:
            self._complete_pass()
            return
        while self._pass_queue:
            candidate = self._pass_queue.pop(0)
            if candidate in self._pass_done:
                continue
            registry = world.nodes[self.node].registry
            members = registry.groups[candidate].members
            self._pass_done.update(members)
            world.execute_recovery(self.node, MURB_GROUP, members,
                                   self._candidate_done, reason="rejuvenation")
            return
        # List exhausted and memory still short: the whole process restarts.
        world.execute_recovery(self.node, RESTART_PROCESS, frozenset(),
                               self._exhausted_restart_done, reason="rejuvenation")

    def _candidate_done(self, op: RecoveryOp) -> None:
        for member in op.members:
            if member in self.released_by_component:
                self.released_by_component[member] = op.released.get(member, 0)
        self._next_candidate()

    def _exhausted_restart_done(self, op: RecoveryOp) -> None:
        self._complete_pass()

    def _complete_pass(self) -> None:
        self.completed_passes += 1
        order = {name: i for i, name in enumerate(self.candidates)}
        self.candidates.sort(key=lambda n: (-self.released_by_component[n], order[n]))
        self.pass_log.append({
            "at": self.world.loop.now,
            "mode": "murb",
            "free_after": self.world.nodes[self.node].heap.free,
            "head": self.candidates[0],
        })


# -- detection headroom arithmetic -----------------------------------------

def fp_headroom(c_micro: float, c_full: float) -> tuple[int, float]:
    """Largest count n of useless cheap recoveries (false positives) between
    useful ones that still beats one expensive recovery, plus the rate n/(n+1)."""
    if c_micro <= 0:
        raise ValueError("c_micro must be positive")
    if c_full < c_micro:
        raise ValueError("c_full must be at least c_micro")
    n = int(c_full // c_micro) - 1
    while (n + 2) * c_micro <= c_full:
        n += 1
    while n > 0 and (n + 1) * c_micro > c_full:
        n -= 1
    return n, n / (n + 1)


def detection_headroom(fail_rate: float, c_micro: float, c_full: float) -> float:
    """Max detection delay (seconds) for which cheap recovery still beats
    instant detection plus expensive recovery; fail_rate in requests/second."""
    if fail_rate <= 0:
        raise ValueError("fail_rate must be positive")
    return (c_full - c_micro) / fail_rate
