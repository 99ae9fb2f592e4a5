"""Demo application model: operation catalog and client transition matrix.

Operations map user clicks to component call paths, session-store traffic,
transactional writes, commit points, and base service times. The transition
matrix drives the emulated clients; its stationary distribution is the
workload's request mix.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from itertools import accumulate

from .config import MAX_DELAY_MS, Record
from .runtime import ScenarioError, _parse_kv, data_file, records

CATEGORIES = ("static", "session_init", "read_only", "search",
              "session_update", "db_update")
FUNCTIONAL_GROUPS = ("bid_buy_sell", "browse_view", "search", "user_account")

SESSION_NONE = "none"
SESSION_CREATE = "create"
SESSION_READ = "read"
SESSION_UPDATE = "update"
SESSION_DELETE = "delete"
SESSION_TOUCHES = (SESSION_NONE, SESSION_CREATE, SESSION_READ, SESSION_UPDATE, SESSION_DELETE)
# Every client starts at HOME; one that needs a session logs in through LOGIN.
HOME, LOGIN = "Home", "Login"

# The ledger keeps each request's op as an array("H") code.
MAX_OPS = 1 << 16


class OpType(Record):
    """One user operation: component path, session and database traffic, service time.

    A slot class: the world reads an op's fields about nine times a request.
    """

    _fields = ("name", "category", "path", "is_commit_point", "idempotent", "session_touch",
               "tx_writes", "service_ms_mean", "functional_group",
               "code")                   # its index in the catalog; the ledger keeps it
    __slots__ = (*_fields, "needs_session")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.needs_session = self.session_touch in (SESSION_READ, SESSION_UPDATE, SESSION_DELETE)


def canonical_fingerprint(op_name: str, session_key: str) -> str:
    digest = hashlib.blake2b(
        f"{op_name}|{session_key}|".encode(), digest_size=8
    ).hexdigest()
    return digest


def _flag(value: str, lineno: int) -> bool:
    if value == "yes":
        return True
    if value == "no":
        return False
    raise ScenarioError(f"line {lineno}: expected yes/no, got {value!r}")


def parse_ops(text: str) -> list[OpType]:
    ops: list[OpType] = []
    names: set[str] = set()
    for lineno, line in records(text):
        tokens = line.split()
        if tokens[0] != "op" or len(tokens) < 2:
            raise ScenarioError(f"line {lineno}: expected 'op <name> ...'")
        if tokens[1] in names:
            raise ScenarioError(f"line {lineno}: duplicate op {tokens[1]!r}")
        names.add(tokens[1])
        category, path, commit, idempotent, session, tx, service_ms, fgroup = _parse_kv(
            tokens[2:], lineno, ("category", "path", "commit", "idempotent", "session", "tx",
                                 "service_ms", "fgroup"))
        try:
            op = OpType(
                name=tokens[1],
                category=category,
                path=tuple(path.split(",")),
                is_commit_point=_flag(commit, lineno),
                idempotent=_flag(idempotent, lineno),
                session_touch=session,
                tx_writes=_flag(tx, lineno),
                service_ms_mean=int(service_ms),
                functional_group=fgroup,
                code=len(ops),
            )
        except ValueError:
            raise ScenarioError(f"line {lineno}: service_ms must be an integer, "
                                f"got {service_ms!r}") from None
        if not 0 <= op.service_ms_mean <= MAX_DELAY_MS:    # a time is int32 ms
            bound = ">= 0" if op.service_ms_mean < 0 else f"<= {MAX_DELAY_MS}"
            raise ScenarioError(f"line {lineno}: service_ms must be {bound}, "
                                f"got {op.service_ms_mean}")
        if op.category not in CATEGORIES:
            raise ScenarioError(f"line {lineno}: unknown category {op.category!r}")
        if op.functional_group not in FUNCTIONAL_GROUPS:
            raise ScenarioError(f"line {lineno}: unknown fgroup {op.functional_group!r}")
        if op.session_touch not in SESSION_TOUCHES:
            raise ScenarioError(f"line {lineno}: unknown session {op.session_touch!r}")
        if "" in op.path:
            raise ScenarioError(f"line {lineno}: empty component name in path {path!r}")
        ops.append(op)
    if len(ops) > MAX_OPS:
        raise ScenarioError(f"{len(ops)} ops; a catalog holds at most {MAX_OPS}")
    return ops


class TransitionMatrix:
    def __init__(self, states: list[str], rows: dict[str, list[float]]):
        self.states = states
        self.rows = rows
        self.columns: list[OpType] = []          # set by bind: each state's op
        self.cumulative: list[list[float]] = []  # each op's running row sums, by op code

    def bind(self, ops: dict[str, OpType]) -> None:
        """Sample `ops`, a catalog's by name in code order, in place of state names."""
        self.columns = [ops[s] for s in self.states]
        self.cumulative = [[*accumulate(self.rows[name])][:-1] + [1.0] for name in ops]

    def check_stochastic(self) -> None:
        for s, probs in self.rows.items():
            total = sum(probs)
            if not abs(total - 1.0) <= 1e-6 or not all(p >= 0 for p in probs):   # NaN fails
                raise ScenarioError(f"matrix row {s} is not a probability distribution")

    def sample(self, op: OpType, u: float) -> OpType:
        # The last cumulative entry is 1.0, so the index is always in range.
        return self.columns[bisect_left(self.cumulative[op.code], u)]


def parse_matrix(text: str) -> TransitionMatrix:
    states: list[str] = []
    rows: dict[str, list[float]] = {}
    for lineno, line in records(text):
        tokens = line.split()
        if tokens[0] == "states":
            states = tokens[1:]
            if repeated := [s for i, s in enumerate(states) if s in states[:i]]:
                raise ScenarioError(f"line {lineno}: state {repeated[0]!r} listed twice")
        elif tokens[0] == "row":
            if not states:
                raise ScenarioError(f"line {lineno}: 'row' before 'states'")
            if len(tokens) != 2 + len(states):
                raise ScenarioError(f"line {lineno}: expected 'row <state>' and "
                                    f"{len(states)} probabilities")
            if tokens[1] not in states:
                raise ScenarioError(f"line {lineno}: row for {tokens[1]!r}, "
                                    f"which is not in 'states'")
            if tokens[1] in rows:
                raise ScenarioError(f"line {lineno}: duplicate row {tokens[1]!r}")
            try:
                rows[tokens[1]] = [float(t) for t in tokens[2:]]
            except ValueError as exc:
                raise ScenarioError(f"line {lineno}: {exc}") from None
        else:
            raise ScenarioError(f"line {lineno}: unknown record {tokens[0]!r}")
    missing = [s for s in states if s not in rows]
    if missing:
        raise ScenarioError(f"matrix rows missing for: {', '.join(missing)}")
    return TransitionMatrix(states, rows)


class AppCatalog:
    """Operations plus transition matrix, indexed for the hot path."""

    def __init__(self, ops: list[OpType], matrix: TransitionMatrix):
        self.ops: dict[str, OpType] = {o.name: o for o in ops}
        self.op_list = ops
        self.matrix = matrix
        for s in matrix.states:
            if s not in self.ops:
                raise ScenarioError(f"matrix state {s} not in op catalog")
        for o in ops:
            if o.name not in matrix.rows:
                raise ScenarioError(f"op {o.name} missing from transition matrix")
        for name in (HOME, LOGIN):
            if name not in self.ops:
                raise ScenarioError(f"no {name} op, which every client needs")
        self.home, self.login = self.ops[HOME], self.ops[LOGIN]
        matrix.bind(self.ops)

    def validate_against(self, component_names: set[str]) -> None:
        for o in self.op_list:
            for comp in o.path:
                if comp not in component_names:
                    raise ScenarioError(f"op {o.name} path references unknown component {comp}")


def load_app_catalog(ops_path: str = "", matrix_path: str = "") -> AppCatalog:
    with data_file(matrix_path, "transitions.txt") as text:
        matrix = parse_matrix(text)
        matrix.check_stochastic()
    with data_file(ops_path, "ops.txt") as text:
        return AppCatalog(parse_ops(text), matrix)
