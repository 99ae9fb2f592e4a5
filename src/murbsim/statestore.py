"""Segregated state stores.

Three stores with different survivability:

* in-process session store -- fast, no checksum verification, survives
  component microreboots but dies with its hosting process;
* external session store -- checksummed, lease-based, survives microreboots,
  process restarts, and node reboots;
* transactional store -- persistent rows with all-or-nothing commits.
"""

from __future__ import annotations

import zlib

from .config import Record

READ_OK = "found"
READ_MISSING = "missing"
READ_DISCARDED = "discarded"


def checksum(payload: bytes) -> int:
    return zlib.crc32(payload) & 0xFFFFFFFF


class SessionRecord(Record):
    """A stored session: payload, lease expiry and checksum."""

    __slots__ = _fields = ("payload", "lease_expires_at", "checksum")

    def __init__(self, payload: bytes, lease_expires_at: int, checksum: int):
        # spelled out, not Record's: a world writes a session every few requests
        self.payload = payload
        self.lease_expires_at = lease_expires_at
        self.checksum = checksum


class SessionStore:
    """Key-value session store with lease expiry.

    `verify_checksums` is on for the external store only; the in-process path
    returns whatever bytes are there and lets the application notice.
    """

    def __init__(self, access_latency_ms: int, lease_ms: int, verify_checksums: bool):
        self.access_latency_ms = access_latency_ms
        self.lease_ms = lease_ms
        self.verify_checksums = verify_checksums
        self.records: dict[str, SessionRecord] = {}

    def write(self, key: str, payload: bytes, now: int) -> None:
        self.records[key] = SessionRecord(
            payload=payload,
            lease_expires_at=now + self.lease_ms,
            checksum=checksum(payload),
        )

    def read(self, key: str, now: int) -> tuple[str, bytes | None]:
        rec = self.records.get(key)
        if rec is None or rec.lease_expires_at <= now:
            self.records.pop(key, None)
            return READ_MISSING, None
        if self.verify_checksums and checksum(rec.payload) != rec.checksum:
            del self.records[key]
            return READ_DISCARDED, None
        rec.lease_expires_at = now + self.lease_ms   # sliding lease renewal
        return READ_OK, rec.payload

    def delete(self, key: str) -> None:
        self.records.pop(key, None)

    def corrupt(self, key: str, mode: str) -> bool:
        """Mutate a stored payload in place; stored checksum is left stale."""
        rec = self.records.get(key)
        if rec is None:
            return False
        if mode == "null":
            rec.payload = b""
        else:
            rec.payload = rec.payload + b"!" + mode.encode()
        return True

    def gc(self, now: int) -> int:
        expired = [k for k, r in self.records.items() if r.lease_expires_at <= now]
        for k in expired:
            del self.records[k]
        return len(expired)

    def clear(self) -> None:
        self.records.clear()


class TxRecord(Record):
    """A committed row; tainted while it holds wrong-value damage."""

    __slots__ = _fields = ("row_key", "value", "tainted")
    _defaults = {"tainted": False}


TX_COMMITTED = "committed"
TX_ABORTED = "aborted"


class Transaction:
    """Staged writes; nothing is visible until commit."""

    __slots__ = ("writes", "taint", "state")

    def __init__(self) -> None:
        self.writes: list[tuple[str, bytes]] = []
        self.taint = False
        self.state = "open"


class TransactionalStore:
    """Persistent row store; survives every reboot level."""

    def __init__(self) -> None:
        self.rows: dict[str, TxRecord] = {}

    def begin(self) -> Transaction:
        return Transaction()

    def commit(self, tx: Transaction) -> str:
        if tx.state != "open":
            return tx.state
        for key, value in tx.writes:
            self.rows[key] = TxRecord(key, value, tainted=tx.taint)
        tx.state = TX_COMMITTED
        return TX_COMMITTED

    def abort(self, tx: Transaction) -> str:
        if tx.state == "open":
            tx.state = TX_ABORTED
        return tx.state

    def execute(self, writes: list[tuple[str, bytes]], *, taint: bool = False,
                abort: bool = False) -> str:
        """One-shot transaction, for direct use and tests."""
        tx = self.begin()
        tx.writes.extend(writes)
        tx.taint = taint
        if abort:
            return self.abort(tx)
        return self.commit(tx)

    def read(self, row_key: str) -> TxRecord | None:
        return self.rows.get(row_key)

    def taint_row(self, row_key: str) -> None:
        self.rows[row_key] = TxRecord(row_key, b"wrong", tainted=True)

    def repair(self, row_key: str) -> bool:
        rec = self.rows.get(row_key)
        if rec is None or not rec.tainted:
            return False
        rec.tainted = False
        return True

    def tainted_rows(self) -> list[str]:
        return sorted(k for k, r in self.rows.items() if r.tainted)
