import random
import zlib

from hypothesis import given, strategies as st

from murbsim.statestore import (READ_DISCARDED, READ_MISSING, READ_OK,
                                SessionStore, TransactionalStore)


def make_store(latency=13, lease=1000, verify=True):
    return SessionStore(latency, lease, verify_checksums=verify)


class TestSessionStore:
    def test_round_trip(self):
        store = make_store()
        store.write("k", b"payload", now=0)
        status, payload = store.read("k", now=10)
        assert status == READ_OK
        assert payload == b"payload"

    def test_expired_lease_missing(self):
        store = make_store(lease=100)
        store.write("k", b"p", now=0)
        assert store.read("k", now=100)[0] == READ_MISSING

    def test_sliding_renewal(self):
        store = make_store(lease=100)
        store.write("k", b"p", now=0)
        assert store.read("k", now=90)[0] == READ_OK
        assert store.read("k", now=180)[0] == READ_OK   # renewed at 90

    def test_corrupted_external_discarded_then_missing(self):
        store = make_store()
        store.write("k", b"p", now=0)
        assert store.corrupt("k", "invalid")
        assert store.read("k", now=1)[0] == READ_DISCARDED
        assert store.read("k", now=2)[0] == READ_MISSING

    def test_corrupted_in_process_returned_as_is(self):
        store = make_store(latency=0, verify=False)
        store.write("k", b"p", now=0)
        store.corrupt("k", "wrong")
        status, payload = store.read("k", now=1)
        assert status == READ_OK
        assert payload != b"p"

    def test_write_over_corrupted_record_reads_new_payload(self):
        store = make_store()
        for key in ("a", "k", "z"):
            store.write(key, b"p", now=0)
        assert store.corrupt("k", "invalid")
        store.write("k", b"fresh", now=5)
        assert store.read("k", now=6) == (READ_OK, b"fresh")
        assert store.records["k"].checksum == zlib.crc32(b"fresh")
        assert list(store.records) == ["a", "k", "z"]

    def test_write_over_expired_uncollected_record_renews_lease(self):
        store = make_store(lease=100)
        for key in ("a", "k", "z"):
            store.write(key, b"p", now=0)
        store.write("k", b"later", now=150)      # expired at 100; no gc ran
        assert store.records["k"].lease_expires_at == 250
        assert store.records["k"].checksum == zlib.crc32(b"later")
        assert list(store.records) == ["a", "k", "z"]
        assert store.read("k", now=200) == (READ_OK, b"later")

    def test_gc_counts(self):
        store = make_store(lease=50)
        for i in range(8):
            store.write(f"k{i}", b"x", now=0 if i < 5 else 100)
        assert store.gc(now=60) == 5
        assert len(store.records) == 3

    def test_gc_empty(self):
        assert make_store().gc(now=10) == 0

    def test_gc_never_removes_unexpired_random_schedules(self):
        # oracle: an independent expiry map; gc must keep every unexpired key
        # and drop every expired one
        rng = random.Random(7)
        for _ in range(200):
            store = make_store(lease=rng.randrange(1, 60))
            expiry = {}
            now = 0
            for _ in range(50):
                now += rng.randrange(0, 10)
                key = f"k{rng.randrange(12)}"
                if rng.random() < 0.5:
                    store.write(key, b"v", now)
                    expiry[key] = now + store.lease_ms
                else:
                    store.gc(now)
                    assert set(store.records) == \
                        {k for k, e in expiry.items() if e > now}


class TestTransactionalStore:
    def test_commit_two_rows_visible(self):
        store = TransactionalStore()
        assert store.execute([("a", b"1"), ("b", b"2")]) == "committed"
        assert store.read("a").value == b"1"
        assert store.read("b").value == b"2"

    def test_abort_leaves_rows_unchanged(self):
        store = TransactionalStore()
        store.execute([("a", b"old")])
        assert store.execute([("a", b"new"), ("b", b"2")], abort=True) == "aborted"
        assert store.read("a").value == b"old"
        assert store.read("b") is None

    def test_tainted_commit_and_repair(self):
        store = TransactionalStore()
        store.execute([("a", b"v")], taint=True)
        assert store.tainted_rows() == ["a"]
        assert store.repair("a")
        assert store.tainted_rows() == []
        assert not store.repair("a")

    def test_tainted_rows_survive_everything(self):
        # The store object itself persists across recovery levels; nothing in
        # the runtime clears rows. Taint only leaves via repair().
        store = TransactionalStore()
        store.taint_row("r")
        assert store.tainted_rows() == ["r"]


@given(st.lists(st.tuples(st.sampled_from("abcd"), st.binary(max_size=4)),
                min_size=1, max_size=8),
       st.booleans())
def test_tx_atomicity_property(writes, abort):
    store = TransactionalStore()
    before = {k: r.value for k, r in store.rows.items()}
    result = store.execute(list(writes), abort=abort)
    if abort:
        assert result == "aborted"
        assert {k: r.value for k, r in store.rows.items()} == before
    else:
        assert result == "committed"
        for key, value in writes:
            assert store.read(key) is not None
