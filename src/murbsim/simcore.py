"""Virtual-time kernel: event queue, simulation clock, seeded random streams.

Time is integer milliseconds. All randomness flows from one master seed
through labeled stream forking, so a child stream's sequence depends only on
(root seed, label path) and never on draw order elsewhere.
"""

from __future__ import annotations

import hashlib
import heapq
import random
import struct
from _random import Random as _Generator      # random.Random's C base; seeds alike
from array import array
from itertools import repeat, starmap
from typing import Callable, Iterator


# Doubles a leaf stream holds at a time: 512 bytes, against about 2.5 kB for
# a seeded random.Random.
BLOCK = 64
_PACK_BLOCK = struct.Struct(f"{BLOCK}d").pack      # the machine's doubles, as array('d')

# Ints: _dispatch compares against its limits per event, and math.inf is slower.
_NO_LIMIT = 1 << 62
_DRAIN_EVENT_LIMIT = 50_000_000


class SimError(Exception):
    """Programming error against the kernel's contract."""


class EventHandle:
    """A cancellable event, from schedule_cancellable(); cancel() makes the
    dispatcher skip it.

    Cancelling an event that has run, or is running, does nothing.
    """

    __slots__ = ("loop", "seq", "fn")

    def __init__(self, loop: EventLoop, seq: int, fn: Callable[[], None]):
        self.loop = loop
        self.seq = seq
        self.fn = fn              # None once the event has run or been cancelled

    def cancel(self) -> None:
        if self.fn is not None:
            self.fn = None
            self.loop._cancelled.add(self.seq)

    def _fire(self) -> None:
        fn, self.fn = self.fn, None
        fn()


class EventLoop:
    """Deterministic event queue with FIFO tie-break among equal timestamps.

    The heap holds plain (at, seq, fn) entries. A cancelled event stays in
    the heap with its seq in `_cancelled`; the dispatcher drops it without
    moving the clock or counting it.
    """

    def __init__(self) -> None:
        self.now = 0
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = 0
        self._cancelled: set[int] = set()
        self.dispatched = 0

    def schedule(self, at: int, fn: Callable[[], None]) -> None:
        """Schedule fn to run at virtual time `at` (>= now)."""
        if at < self.now:
            raise SimError(f"schedule at t={at} is in the past (now={self.now})")
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, fn))

    def schedule_cancellable(self, at: int, fn: Callable[[], None]) -> EventHandle:
        """schedule(), plus a handle that can take the event back."""
        handle = EventHandle(self, self._seq + 1, fn)     # schedule() takes that seq
        self.schedule(at, handle._fire)
        return handle

    def after(self, delay: int, fn: Callable[[], None]) -> None:
        self.schedule(self.now + delay, fn)

    def run_until(self, t_end: int) -> int:
        """Dispatch every event with timestamp <= t_end; leave now == t_end."""
        if t_end < self.now:
            raise SimError(f"run_until t={t_end} is in the past (now={self.now})")
        dispatched = self._dispatch(t_end, _NO_LIMIT)
        self.now = t_end
        return dispatched

    def drain(self) -> int:
        """Dispatch until the queue is empty; clock follows the events."""
        return self._dispatch(_NO_LIMIT, _DRAIN_EVENT_LIMIT)

    def _dispatch(self, t_end: int, limit: int) -> int:
        """Dispatch events due by `t_end`, at most `limit` of them."""
        dispatched = 0
        heap = self._heap
        cancelled = self._cancelled
        pop = heapq.heappop
        while heap and heap[0][0] <= t_end:
            at, seq, fn = pop(heap)
            if cancelled and seq in cancelled:
                cancelled.remove(seq)
                continue
            self.now = at
            fn()
            dispatched += 1
            if dispatched > limit:
                raise SimError("dispatch exceeded event limit; runaway event source?")
        self.dispatched += dispatched
        return dispatched


def _derive_seed(seed: int, label: bytes) -> int:
    digest = hashlib.blake2b(seed.to_bytes(8, "little") + label, digest_size=8).digest()
    return int.from_bytes(digest, "little")


class RngRoot:
    """A seed that labeled streams fork from; it seeds no generator itself."""

    __slots__ = ("seed",)

    def __init__(self, seed: int):
        self.seed = seed & 0xFFFFFFFFFFFFFFFF

    def _path_seed(self, labels: tuple[str, ...]) -> int:
        seed = self.seed
        for label in labels:
            seed = _derive_seed(seed, label.encode())
        return seed

    def fork(self, *labels: str) -> random.Random:
        """The generator of the stream at label path `labels` below this seed.

        Only the stream at the end of the path gets a generator, so a caller
        that draws only from leaves never seeds the streams between.
        """
        return random.Random(self._path_seed(labels))

    def leaf_draws(self, label: str, *leaves: str, drawn: int = 0) -> list[Iterator[float]]:
        """Per leaf, the iterator of draws `drawn` to `drawn + BLOCK` of fork(label,
        leaf).random(), run in C; `label`'s seed is derived once for all leaves."""
        seed = _derive_seed(self.seed, label.encode())
        return [iter(_block(_derive_seed(seed, leaf.encode()), drawn)) for leaf in leaves]


def _block(seed: int, drawn: int) -> array:
    """Doubles `drawn` to `drawn + BLOCK` of random.Random(seed).random()."""
    rng = _Generator(seed)
    rng.getrandbits(64 * drawn)       # random() takes two 32-bit words per double
    # BLOCK calls of rng.random() with no Python loop, copied as raw doubles. An
    # array from bytes over-allocates; its copy holds 512 bytes, a pymalloc size.
    return array("d", array("d", _PACK_BLOCK(*starmap(rng.random, repeat((), BLOCK)))))
