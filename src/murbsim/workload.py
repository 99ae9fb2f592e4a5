"""Closed-loop client emulator and the action-weighted throughput ledger.

Clients walk the transition matrix with exponential think times. Requests
group into actions delimited by commit points: if every operation of an
action succeeds through its commit point the whole action counts good; one
failure retroactively marks every request of the action bad. Actions still
open when a session ends without either outcome count toward neither tally.
"""

from __future__ import annotations

from array import array
from collections import Counter
from math import log
from typing import Iterator, Sequence

from .app import AppCatalog, OpType
from .faultlib import OK, OUTCOME_CODE, OUTCOMES
from .simcore import ClientStreams

GOOD = "good"
BAD = "bad"
PENDING = "pending"
ABANDONED = "abandoned"


class TawLedger:
    """Per-second good/bad request and action tallies, kept as columns.

    Requests and actions are int handles into parallel columns, so no object
    per request outlives its completion. Every per-request column is a typed
    array: a request's op is its catalog code (`OpType.code`, decoded by
    `op_names`) and its outcome its code in `faultlib.OUTCOMES`. A request
    only joins a pending action, and resolving an action classifies all of
    its requests at once, so a request's final class is its action's status,
    read when needed.
    """

    # The per-request columns, 15 bytes a request; config.py keeps times in int32.
    REQUEST_COLUMNS = ("op_code", "issued_at", "completed_at", "outcome_code", "action_of")

    def __init__(self, op_names: Sequence[str]) -> None:
        self.op_names = tuple(op_names)        # the catalog's, in code order
        # one entry per request; app.MAX_OPS keeps every op code within "H"
        self.op_code = array("H")
        self.issued_at = array("i")
        self.completed_at = array("i")
        self.outcome_code = array("B")
        self.action_of = array("I")
        # one entry per action
        self.action_status: list[str] = []
        self.action_resolved_at = array("i")
        self.action_size = array("I")

    def new_action(self) -> int:
        self.action_status.append(PENDING)
        self.action_resolved_at.append(-1)
        self.action_size.append(0)
        return len(self.action_status) - 1

    def new_request(self, action: int, op_code: int, issued_at: int) -> int:
        if self.action_status[action] != PENDING:
            raise RuntimeError(f"action {action} already resolved")
        self.issued_at.append(issued_at)      # first: an int32 overflow changes nothing
        self.action_size[action] += 1
        self.op_code.append(op_code)
        self.completed_at.append(-1)
        self.outcome_code.append(0)
        self.action_of.append(action)
        return len(self.action_of) - 1

    def record_outcome(self, req: int, outcome: str, completed_at: int,
                       is_commit_point: bool) -> str:
        """Attach a completed request; returns the action's status afterwards."""
        # an unknown outcome or an int32 overflow raises before either store
        self.completed_at[req], self.outcome_code[req] = completed_at, OUTCOME_CODE[outcome]
        action = self.action_of[req]
        status = self.action_status[action]
        if status != PENDING:
            raise RuntimeError(f"action {action} already resolved")
        if outcome != OK:
            status = BAD
        elif is_commit_point:
            status = GOOD
        else:
            return status
        self.action_status[action] = status
        self.action_resolved_at[action] = completed_at
        return status

    def abandon(self, action: int, at: int) -> None:
        """Session ended with no commit attempt and no failure."""
        if self.action_status[action] == PENDING:
            self.action_status[action] = ABANDONED
            self.action_resolved_at[action] = at

    def ops(self) -> Iterator[str]:
        """Each request's op name in issue order, decoded lazily."""
        return map(self.op_names.__getitem__, self.op_code)

    def outcomes(self) -> Iterator[str]:
        """Each request's outcome in issue order ("" while in flight), decoded lazily."""
        return map(OUTCOMES.__getitem__, self.outcome_code)

    def count_outcome(self, outcome: str) -> int:
        return self.outcome_code.count(OUTCOME_CODE[outcome])

    def taw_series(self, duration_ms: int) -> list[tuple[int, int, int, int, int]]:
        """(second, good_requests, bad_requests, good_actions, bad_actions) rows."""
        if PENDING in self.action_status:
            raise RuntimeError("ledger has unresolved actions; drain the run first")
        last_completion = max(self.completed_at, default=-1)
        if last_completion < 0 and duration_ms == 0:
            return []
        seconds = max((duration_ms + 999) // 1000, max(last_completion, 0) // 1000 + 1)
        rows = [[s, 0, 0, 0, 0] for s in range(seconds)]
        status = self.action_status
        for done, action in zip(self.completed_at, self.action_of):
            if done < 0:
                continue
            cls = status[action]
            if cls == GOOD:
                rows[done // 1000][1] += 1
            elif cls == BAD:
                rows[done // 1000][2] += 1
        for cls, at in zip(status, self.action_resolved_at):
            if cls == GOOD:
                rows[at // 1000][3] += 1
            elif cls == BAD:
                rows[at // 1000][4] += 1
        return [tuple(r) for r in rows]

    def totals(self) -> dict[str, int]:
        requests = {GOOD: 0, BAD: 0, ABANDONED: 0, PENDING: 0}
        actions = dict(requests)
        for cls, size in zip(self.action_status, self.action_size):
            requests[cls] += size
            actions[cls] += 1
        return {
            "completed_requests": len(self.completed_at) - self.completed_at.count(-1),
            "good_requests": requests[GOOD],
            "bad_requests": requests[BAD],
            "abandoned_requests": requests[ABANDONED],
            "good_actions": actions[GOOD],
            "bad_actions": actions[BAD],
        }


def latency_stats(ledger: TawLedger) -> dict[str, float]:
    """Latency statistics over completed, non-failed requests.

    Read from a histogram of latencies, not a sorted list of them: the
    count, the integer sum and the p95 rank are the sorted list's own.
    """
    ok = OUTCOME_CODE[OK]
    hist = Counter(done - issued for done, issued, code
                   in zip(ledger.completed_at, ledger.issued_at, ledger.outcome_code)
                   if code == ok)
    n = hist.total()
    if not n:
        return {"count": 0, "mean": 0.0, "p95": 0.0, "count_over_threshold": 0}
    rank = (95 * n + 99) // 100 - 1          # ceil(0.95 n) - 1, within [0, n - 1]
    below = 0
    for p95 in sorted(hist):
        below += hist[p95]
        if below > rank:
            break
    return {
        "count": n,
        "mean": sum(v * c for v, c in hist.items()) / n,
        "p95": float(p95),
        "count_over_threshold": sum(c for v, c in hist.items() if v > 8_000),
    }


class Client:
    """One emulated user: Markov chain state plus session bookkeeping."""

    __slots__ = ("client_id", "chain_state", "session_id",
                 "session_seq", "streams", "action", "stopped")

    def __init__(self, client_id: int, streams: ClientStreams, home: OpType):
        self.client_id = client_id
        self.chain_state = home
        self.session_id = ""               # logged in exactly when not empty
        self.session_seq = 0
        self.streams = streams             # its draws: streams 2 * client_id and 2 * client_id + 1
        self.action: int | None = None     # ledger handle of the open action
        self.stopped = False

    def next_op_name(self, catalog: AppCatalog) -> OpType:
        """Sample the next operation; a logged-out client that needs a session
        logs in instead."""
        op = catalog.matrix.sample(self.chain_state, self.streams.draw(2 * self.client_id) - 1.0)
        if not self.session_id and op.needs_session:
            op = catalog.login
        self.chain_state = op
        return op

    def think_ms(self, mean_ms: int, max_ms: int) -> int:
        u = self.streams.draw(2 * self.client_id + 1)
        # random.expovariate(1.0 / mean_ms)'s own float expression at u - 1.0
        return min(int(-log(2.0 - u) / (1.0 / mean_ms)), max_ms)

    def begin_session(self) -> str:
        self.session_seq += 1
        self.session_id = f"c{self.client_id}-s{self.session_seq}"
        return self.session_id

    def end_session(self) -> None:
        self.session_id = ""
