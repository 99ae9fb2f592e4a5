"""Independent replay oracles shared by unit and acceptance tests."""

import hashlib
import itertools
import os
import random

from murbsim.app import CATEGORIES
from murbsim.workload import TawLedger

EVENT_KINDS = ("ok", "ok_commit", "fail", "session_end")


def random_trace(seed: int, n_events: int, n_clients: int = 20):
    """Synthetic completion stream: (time, client, kind) with increasing time.

    Each event draws what `randrange(0, 400)`, `randrange(n_clients)` and
    `random()` would, in that order. A bounded draw is taken the way
    `randrange` takes it, through `getrandbits`: `n.bit_length()` bits,
    redrawn until below `n`; the same traces without `randrange`'s argument
    handling on every draw.
    """
    rng = random.Random(seed)
    bits, rand = rng.getrandbits, rng.random
    k_gap, k_client = (400).bit_length(), n_clients.bit_length()
    t = 0
    events = []
    for _ in range(n_events):
        gap = bits(k_gap)
        while gap >= 400:
            gap = bits(k_gap)
        t += gap
        client = bits(k_client)
        while client >= n_clients:
            client = bits(k_client)
        r = rand()
        if r < 0.62:
            kind = "ok"
        elif r < 0.82:
            kind = "ok_commit"
        elif r < 0.92:
            kind = "fail"
        else:
            kind = "session_end"
        events.append((t, client, kind))
    return events


def drive_ledger(events):
    """Feed a trace through the ledger the way the world does, each request
    passing its op code; returns the ledger and the request handles in
    completion order."""
    ledger = TawLedger(("Op",))
    open_actions = {}
    reqs = []
    for t, client, kind in events:
        if kind == "session_end":
            action = open_actions.pop(client, None)
            if action is not None:
                ledger.abandon(action, t)
            continue
        action = open_actions.get(client)
        if action is None:
            action = ledger.new_action()
            open_actions[client] = action
        req = ledger.new_request(action, 0, issued_at=max(t - 1, 0))
        reqs.append(req)
        outcome = "error:exception" if kind == "fail" else "ok"
        status = ledger.record_outcome(req, outcome, t, kind == "ok_commit")
        if status != "pending":
            open_actions.pop(client, None)
    for client, action in sorted(open_actions.items()):
        ledger.abandon(action, events[-1][0] if events else 0)
    return ledger, reqs


def replay_classify(events):
    """Brute-force classification, independent of the ledger's bookkeeping:
    returns the final class per completed request, in completion order."""
    per_client: dict[int, list[int]] = {}
    classes: list[str] = []
    pending: dict[int, list[int]] = {}
    for t, client, kind in events:
        if kind == "session_end":
            for idx in pending.pop(client, []):
                classes[idx] = "abandoned"
            continue
        idx = len(classes)
        classes.append("pending")
        pending.setdefault(client, []).append(idx)
        if kind == "fail":
            for i in pending.pop(client, []):
                classes[i] = "bad"
        elif kind == "ok_commit":
            for i in pending.pop(client, []):
                classes[i] = "good"
    for client in list(pending):
        for i in pending.pop(client):
            classes[i] = "abandoned"
    return classes


def sorted_merge_timeline(catalog, requests):
    """The functional-group timeline's definition: each group's failed
    requests as [issued, completed] intervals, sorted, and merged where they
    touch. `requests` holds (op name, issued, completed, outcome) rows. A
    reference for `harness.functional_group_timeline`."""
    raw: dict[str, list[tuple[int, int]]] = {}
    for op_name, issued, completed, outcome in requests:
        if completed >= 0 and outcome != "ok":
            group = catalog.ops[op_name].functional_group
            raw.setdefault(group, []).append((issued, completed))
    timeline = {}
    for group, intervals in sorted(raw.items()):
        out: list[tuple[int, int]] = []
        for start, end in sorted(intervals):
            if out and start <= out[-1][1]:
                out[-1] = (out[-1][0], max(out[-1][1], end))
            else:
                out.append((start, end))
        timeline[group] = out
    return timeline


def path_seed(seed: int, *labels: str) -> int:
    """The seed of the stream at label path `labels` below `seed`: blake2b
    with 8-byte digests, chained one label at a time over little-endian seeds."""
    for label in labels:
        seed = int.from_bytes(hashlib.blake2b(seed.to_bytes(8, "little") + label.encode(),
                                              digest_size=8).digest(), "little")
    return seed


def counter_draws(seed: int, *labels: str, first_block: int = 0):
    """Draws in [1, 2) of the counter-mode stream at label path `labels`
    below master seed `seed`, from block `first_block` on, from the stream's
    definition alone.

    Block k is the 128-byte shake_128 of the path's seed and k, each as 8
    little-endian bytes; draw n of the block is its n-th little-endian word's
    low 52 bits as the fraction of a number in [1, 2).
    """
    seed = path_seed(seed, *labels)
    for k in itertools.count(first_block):
        block = hashlib.shake_128(seed.to_bytes(8, "little") + k.to_bytes(8, "little")).digest(128)
        for n in range(0, 128, 8):
            yield 1 + (int.from_bytes(block[n:n + 8], "little") & (2**52 - 1)) * 2**-52


class CounterStream(random.Random):
    """A random.Random whose random() is the next counter_draws(seed, *labels)
    draw less 1.0, so that its `expovariate` is the reference for
    `Client.think_ms` and its random() for `Client.next_op_name`."""

    def __init__(self, seed: int, *labels: str, first_block: int = 0):
        self._draws = counter_draws(seed, *labels, first_block=first_block)
        super().__init__(0)

    def random(self) -> float:
        return next(self._draws) - 1.0


def sample_think_ms(rng, mean_ms: int, max_ms: int) -> int:
    """A think time by `random.Random.expovariate`, capped; a reference for
    `Client.think_ms`."""
    return min(int(rng.expovariate(1.0 / mean_ms)), max_ms)


def stationary_distribution(matrix) -> dict[str, float]:
    """Stationary vector by power iteration on the row-stochastic matrix."""
    matrix.check_stochastic()
    n = len(matrix.states)
    pi = [1.0 / n] * n
    rows = [matrix.rows[s] for s in matrix.states]
    for _ in range(2_000):
        nxt = [0.0] * n
        for i, weight in enumerate(pi):
            if weight == 0.0:
                continue
            row = rows[i]
            for j in range(n):
                if row[j]:
                    nxt[j] += weight * row[j]
        delta = sum(abs(a - b) for a, b in zip(nxt, pi))
        pi = nxt
        if delta < 1e-12:
            break
    return dict(zip(matrix.states, pi))


def workload_mix_check(catalog) -> dict[str, float]:
    """Per-category stationary percentages of the client chain."""
    pi = stationary_distribution(catalog.matrix)
    mix = {c: 0.0 for c in CATEGORIES}
    for name, weight in pi.items():
        mix[catalog.ops[name].category] += 100.0 * weight
    return mix


def digest_tree(root: str) -> str:
    """sha256 over every file under `root`, in sorted order: its path relative
    to `root`, a NUL separator, then its bytes. Renaming a directory or moving
    a file therefore changes the digest."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            h.update(rel.encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class BindingModel:
    """The name service as one (status, binding, arg) triple per component,
    status being active, microrebooting or stopped. A stopped component looks
    up NOT_BOUND whatever its binding says; a microreboot, a rebind or a
    redeploy overwrites all three. A reference for `runtime.Registry`."""

    def __init__(self, specs):
        self.web = {s.name for s in specs if s.kind == "web"}
        self.state = {s.name: ("active", "bound", None) for s in specs}

    def lookup(self, name: str) -> tuple[str, object]:
        """(state, WRONG target), the target None for every other state."""
        status, binding, arg = self.state.get(name, ("stopped", "not_bound", None))
        if status == "stopped" or binding == "not_bound":
            return "not_bound", None
        return binding, arg

    def impaired(self) -> set[str]:
        return {n for n, (status, binding, _) in self.state.items()
                if status == "stopped" or binding != "bound"}

    def bind_sentinel(self, members) -> None:
        for m in members:
            self.state[m] = ("microrebooting", "sentinel", None)

    def rebind(self, members) -> None:
        for m in members:
            self.state[m] = ("active", "bound", None)

    def stop_all(self) -> None:
        for n in self.state:
            self.state[n] = ("stopped", "not_bound", None)

    def redeploy_all(self) -> None:
        for n in self.state:
            self.state[n] = ("active", "bound", None)

    def corrupt_binding(self, name: str, mode: str) -> None:
        status = self.state[name][0]
        if mode == "null":
            self.state[name] = (status, "not_bound", None)
        elif mode == "invalid":
            self.state[name] = (status, "wrong", None)
        else:
            others = [n for n in self.state if n != name and n not in self.web]
            self.state[name] = (status, "wrong", others[0] if others else None)
