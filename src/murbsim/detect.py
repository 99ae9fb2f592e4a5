"""End-to-end failure detection at the client edge.

Two detector kinds: a fast heuristic (network errors, error pages,
application-specific checks) and a comparison detector that diffs each
response against a known-good rendering and therefore also catches
wrong-value failures. Reports travel to the recovery manager over a
best-effort channel with configurable delay and drop probability.
"""

from __future__ import annotations

from typing import NamedTuple

from .app import OpType
from .config import DetectorConfig
from .faultlib import ERR_CONNECTION, ERR_EXCEPTION, ERR_SESSION, ERR_TTL, ERR_UNAVAILABLE

FAULTY_CONNECTION = "connection"
FAULTY_HTTP = "http_error"
FAULTY_KEYWORD = "keyword"
FAULTY_APP_CHECK = "app_check"
FAULTY_DIVERGENCE = "divergence"

_ERROR_TO_FAILURE = {
    ERR_CONNECTION: FAULTY_CONNECTION,
    ERR_UNAVAILABLE: FAULTY_HTTP,
    ERR_EXCEPTION: FAULTY_KEYWORD,
    ERR_TTL: FAULTY_KEYWORD,
    ERR_SESSION: FAULTY_APP_CHECK,
}


class FailureReport(NamedTuple):
    op: OpType
    failure_class: str
    observed_at: int
    node_id: int


def classify_response(detector: DetectorConfig, outcome: str, divergent: bool,
                      rng) -> str | None:
    """Returns a failure class, or None for a response deemed healthy.

    `divergent` marks an ok response whose content differs from the fault-free
    rendering; only the comparison detector sees that.
    """
    verdict = _ERROR_TO_FAILURE.get(outcome)
    if verdict is None and divergent and detector.kind == "comparison":
        verdict = FAULTY_DIVERGENCE
    if verdict is None:
        if detector.fp_rate > 0.0 and rng.random() < detector.fp_rate:
            return FAULTY_KEYWORD
        return None
    if detector.fn_rate > 0.0 and rng.random() < detector.fn_rate:
        return None
    return verdict


class ReportChannel:
    """Best-effort report delivery with fixed delay and seeded drops."""

    def __init__(self, loop, rng, delay_ms: int, drop_rate: float, sink):
        self.loop = loop
        self.rng = rng
        self.delay_ms = delay_ms
        self.drop_rate = drop_rate
        self.sink = sink              # callable(report)
        self.sent = 0
        self.delivered = 0

    def report(self, report: FailureReport, t_det_ms: int = 0) -> None:
        self.sent += 1
        if self.drop_rate > 0.0 and self.rng.random() < self.drop_rate:
            return
        deliver_at = report.observed_at + t_det_ms + self.delay_ms
        self.delivered += 1
        self.loop.schedule(max(deliver_at, self.loop.now),
                           lambda r=report: self.sink(r))
