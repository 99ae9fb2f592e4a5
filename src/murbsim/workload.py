"""Closed-loop client emulator and the action-weighted throughput ledger.

Clients walk the transition matrix with exponential think times. Requests
group into actions delimited by commit points: if every operation of an
action succeeds through its commit point the whole action counts good; one
failure retroactively marks every request of the action bad. Actions still
open when a session ends without either outcome count toward neither tally.
"""

from __future__ import annotations

from .app import AppCatalog

GOOD = "good"
BAD = "bad"
PENDING = "pending"
ABANDONED = "abandoned"


class RequestRecord:
    __slots__ = ("request_id", "client_id", "session_id", "action_id", "op_name",
                 "issued_at", "completed_at", "outcome", "ttl_ms", "final_class",
                 "latency_ms")

    def __init__(self, request_id: int, client_id: int, session_id: str,
                 action_id: int, op_name: str, issued_at: int, ttl_ms: int):
        self.request_id = request_id
        self.client_id = client_id
        self.session_id = session_id
        self.action_id = action_id
        self.op_name = op_name
        self.issued_at = issued_at
        self.completed_at = -1
        self.outcome = ""
        self.latency_ms = -1
        self.ttl_ms = ttl_ms
        self.final_class = PENDING


class Action:
    __slots__ = ("action_id", "client_id", "requests", "status", "resolved_at")

    def __init__(self, action_id: int, client_id: int):
        self.action_id = action_id
        self.client_id = client_id
        self.requests: list[RequestRecord] = []
        self.status = PENDING
        self.resolved_at = -1


class TawLedger:
    """Per-second good/bad request and action tallies with retroactive
    reclassification at action resolution."""

    def __init__(self) -> None:
        self.requests: list[RequestRecord] = []
        self.actions: dict[int, Action] = {}
        self._next_request = 0
        self._next_action = 0

    def new_action(self, client_id: int) -> Action:
        self._next_action += 1
        action = Action(self._next_action, client_id)
        self.actions[action.action_id] = action
        return action

    def new_request(self, client_id: int, session_id: str, action: Action,
                    op_name: str, issued_at: int, ttl_ms: int) -> RequestRecord:
        self._next_request += 1
        req = RequestRecord(self._next_request, client_id, session_id,
                            action.action_id, op_name, issued_at, ttl_ms)
        self.requests.append(req)
        action.requests.append(req)
        return req

    def record_outcome(self, req: RequestRecord, outcome: str, completed_at: int,
                       is_commit_point: bool) -> str:
        """Attach a completed request; returns the action's status afterwards."""
        req.outcome = outcome
        req.completed_at = completed_at
        req.latency_ms = completed_at - req.issued_at
        action = self.actions[req.action_id]
        if action.status != PENDING:
            raise RuntimeError(f"action {action.action_id} already resolved")
        if outcome != "ok":
            self._resolve(action, BAD, completed_at)
        elif is_commit_point:
            self._resolve(action, GOOD, completed_at)
        return action.status

    def _resolve(self, action: Action, status: str, at: int) -> None:
        action.status = status
        action.resolved_at = at
        for req in action.requests:
            req.final_class = status

    def abandon(self, action: Action, at: int) -> None:
        """Session ended with no commit attempt and no failure."""
        if action.status == PENDING:
            action.status = ABANDONED
            action.resolved_at = at
            for req in action.requests:
                req.final_class = ABANDONED

    def unresolved_actions(self) -> list[Action]:
        return [a for a in self.actions.values() if a.status == PENDING]

    def taw_series(self, duration_ms: int) -> list[tuple[int, int, int, int, int]]:
        """(second, good_requests, bad_requests, good_actions, bad_actions) rows."""
        if self.unresolved_actions():
            raise RuntimeError("ledger has unresolved actions; drain the run first")
        completions = [r.completed_at for r in self.requests if r.completed_at >= 0]
        if not completions and duration_ms == 0:
            return []
        last_completion = max(completions, default=0)
        seconds = max((duration_ms + 999) // 1000, (last_completion // 1000) + 1)
        rows = [[s, 0, 0, 0, 0] for s in range(seconds)]
        for req in self.requests:
            if req.completed_at < 0:
                continue
            sec = req.completed_at // 1000
            if req.final_class == GOOD:
                rows[sec][1] += 1
            elif req.final_class == BAD:
                rows[sec][2] += 1
        for action in self.actions.values():
            if action.resolved_at < 0:
                continue
            sec = action.resolved_at // 1000
            if action.status == GOOD:
                rows[sec][3] += 1
            elif action.status == BAD:
                rows[sec][4] += 1
        return [tuple(r) for r in rows]

    def totals(self) -> dict[str, int]:
        good = sum(1 for r in self.requests if r.final_class == GOOD)
        bad = sum(1 for r in self.requests if r.final_class == BAD)
        neither = sum(1 for r in self.requests if r.final_class == ABANDONED)
        good_actions = sum(1 for a in self.actions.values() if a.status == GOOD)
        bad_actions = sum(1 for a in self.actions.values() if a.status == BAD)
        return {
            "completed_requests": sum(1 for r in self.requests if r.completed_at >= 0),
            "good_requests": good,
            "bad_requests": bad,
            "abandoned_requests": neither,
            "good_actions": good_actions,
            "bad_actions": bad_actions,
        }


def latency_stats(ledger: TawLedger, threshold_ms: int = 8_000) -> dict[str, float]:
    """Latency statistics over completed, non-failed requests."""
    lat = sorted(r.latency_ms for r in ledger.requests
                 if r.completed_at >= 0 and r.outcome == "ok")
    if not lat:
        return {"count": 0, "mean": 0.0, "p95": 0.0, "count_over_threshold": 0}
    p95 = lat[min(len(lat) - 1, max(0, (95 * len(lat) + 99) // 100 - 1))]
    return {
        "count": len(lat),
        "mean": sum(lat) / len(lat),
        "p95": float(p95),
        "count_over_threshold": sum(1 for v in lat if v > threshold_ms),
    }


def sample_think_ms(rng, mean_ms: int, max_ms: int) -> int:
    return min(int(rng.expovariate(float(mean_ms))), max_ms)


class Client:
    """One emulated user: Markov chain state plus session bookkeeping."""

    __slots__ = ("client_id", "chain_state", "logged_in", "session_id",
                 "session_seq", "rng_transition", "rng_think", "action",
                 "stopped")

    def __init__(self, client_id: int, rng_root):
        self.client_id = client_id
        self.chain_state = "Home"
        self.logged_in = False
        self.session_id = ""
        self.session_seq = 0
        stream = rng_root.fork(f"client/{client_id}")
        self.rng_transition = stream.fork("transition")
        self.rng_think = stream.fork("think")
        self.action: Action | None = None
        self.stopped = False

    def next_op_name(self, catalog: AppCatalog) -> str:
        """Sample the next operation; a logged-out client that needs a session
        logs in instead."""
        name = catalog.matrix.sample(self.chain_state, self.rng_transition)
        op = catalog.ops[name]
        if not self.logged_in and (op.needs_session or name == "Logout"):
            name = "Login"
        self.chain_state = name
        return name

    def think_ms(self, mean_ms: int, max_ms: int) -> int:
        return sample_think_ms(self.rng_think, mean_ms, max_ms)

    def begin_session(self) -> str:
        self.session_seq += 1
        self.session_id = f"c{self.client_id}-s{self.session_seq}"
        self.logged_in = True
        return self.session_id

    def end_session(self) -> None:
        self.logged_in = False
        self.session_id = ""
