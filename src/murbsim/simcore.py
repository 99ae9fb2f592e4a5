"""Virtual-time kernel: event queue, simulation clock, seeded random streams.

Time is integer milliseconds. All randomness flows from one master seed
through labeled streams, so a stream's sequence depends only on (root seed,
label path) and never on draw order elsewhere.
"""

from __future__ import annotations

import heapq
import random
import sys
from array import array
from hashlib import blake2b, shake_128
from typing import Callable


# Doubles in one block of a counter-mode stream: 128 bytes, one shake_128 output.
BLOCK = 16
# A little-endian word whose top 12 bits are 0x3FF (byte 7 0x3F, byte 6's high
# nibble 0xF) is a double in [1, 2) with the hash's 52 bits as its fraction.
_TOP_BYTES = b"\x3f" * BLOCK
_EXPONENT_LOW = bytes(0xF0 | b & 0x0F for b in range(256))    # a translate table
_BIG_ENDIAN = sys.byteorder == "big"

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


class RngRoot:
    """A seed that labeled streams come from; it seeds no generator itself."""

    __slots__ = ("_key",)

    def __init__(self, seed: int):
        self._key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")

    def path_key(self, *labels: str, key: bytes | None = None) -> bytes:
        """The seed of the stream at label path `labels`, as 8 little-endian
        bytes: each label's is the 8-byte blake2b of its parent's and the label.
        Given `key`, a path_key, the path continues from that stream's seed."""
        key = key or self._key
        for label in labels:
            key = blake2b(key + label.encode(), digest_size=8).digest()
        return key

    def fork(self, *labels: str) -> random.Random:
        """The generator of the stream at label path `labels` below this seed.

        Only the stream at the end of the path gets a generator, so a caller
        that draws only from leaves never seeds the streams between.
        """
        return random.Random(int.from_bytes(self.path_key(*labels), "little"))


def block(key: bytes, k: int) -> array:
    """Block `k` of the stream seeded `key` (path_key): BLOCK doubles in [1, 2)
    from one hash, shake_128(key || k as 8 bytes), whatever `k` (counter mode,
    Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011)."""
    buf = bytearray(shake_128(key + k.to_bytes(8, "little")).digest(8 * BLOCK))
    buf[7::8] = _TOP_BYTES
    buf[6::8] = buf[6::8].translate(_EXPONENT_LOW)
    doubles = array("d", buf)
    if _BIG_ENDIAN:
        doubles.byteswap()
    return doubles


class ClientStreams:
    """Every client's two counter-mode streams in one table: stream 2i is client
    i's transition stream, 2i + 1 its think stream. Stream s's seed is
    `keys[8s:8s + 8]`, its block fills its slots `draws[BLOCK s:BLOCK (s + 1)]`,
    `used[s]` of them drawn, and `index[s]` is the block it hashes next."""

    __slots__ = ("keys", "draws", "used", "index")

    def __init__(self, rng_root: RngRoot, n_clients: int):
        clients = [rng_root.path_key(f"client/{i}") for i in range(n_clients)]
        self.keys = b"".join(rng_root.path_key(leaf, key=key)
                             for key in clients for leaf in ("transition", "think"))
        # built by repeat, each column is exact-size; every stream starts spent
        self.draws = array("d", [0.0]) * (2 * BLOCK * n_clients)
        self.used = bytearray([BLOCK]) * (2 * n_clients)
        self.index = array("Q", [0]) * (2 * n_clients)

    def draw(self, s: int) -> float:
        """The next draw of stream `s`, in [1, 2); a spent block's slots take the next."""
        at = BLOCK * s
        if (used := self.used[s]) == BLOCK:
            self.draws[at:at + BLOCK] = block(self.keys[8 * s:8 * s + 8], self.index[s])
            self.index[s] += 1
            used = 0
        self.used[s] = used + 1
        return self.draws[at + used]
