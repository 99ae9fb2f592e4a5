import _random
import gc
import hashlib
import itertools
import random
import tracemalloc
import types

import pytest
from hypothesis import given, strategies as st

from murbsim import simcore
from murbsim.app import load_app_catalog
from murbsim.config import ClusterConfig, Scenario, WorkloadConfig
from murbsim.simcore import BLOCK, ClientStreams, EventLoop, RngRoot, SimError
from murbsim.workload import Client
from murbsim.world import World

from oracles import CounterStream, counter_draws, path_seed

HOME = load_app_catalog().home       # every client's first chain state


def test_schedule_at_now_dispatches_first():
    loop = EventLoop()
    order = []
    loop.schedule(0, lambda: order.append("a"))
    loop.schedule(5, lambda: order.append("b"))
    loop.run_until(10)
    assert order == ["a", "b"]


def test_equal_timestamps_fifo():
    loop = EventLoop()
    order = []
    for tag in ("first", "second", "third"):
        loop.schedule(100, lambda t=tag: order.append(t))
    loop.run_until(100)
    assert order == ["first", "second", "third"]


def test_schedule_in_past_rejected():
    loop = EventLoop()
    loop.run_until(50)
    with pytest.raises(SimError):
        loop.schedule(49, lambda: None)


def test_run_until_empty_queue_advances_clock():
    loop = EventLoop()
    assert loop.run_until(1000) == 0
    assert loop.now == 1000


def test_run_until_boundary():
    loop = EventLoop()
    hits = []
    for t in (10, 20, 30):
        loop.schedule(t, lambda t=t: hits.append(t))
    assert loop.run_until(25) == 2
    assert hits == [10, 20]
    assert loop.now == 25


def test_cancelled_events_not_dispatched():
    loop = EventLoop()
    hits = []
    handle = loop.schedule_cancellable(10, lambda: hits.append("x"))
    handle.cancel()
    loop.schedule(10, lambda: hits.append("y"))
    loop.run_until(20)
    assert hits == ["y"]


def test_cancelled_event_not_counted_and_keeps_the_clock_under_drain():
    loop = EventLoop()
    hits = []
    loop.schedule(5, lambda: hits.append(5))
    handle = loop.schedule_cancellable(50, lambda: hits.append(50))
    assert (len(loop._heap), len(loop._cancelled)) == (2, 0)
    handle.cancel()
    assert (len(loop._heap), len(loop._cancelled)) == (2, 1)
    assert loop.drain() == 1
    assert hits == [5]
    assert loop.dispatched == 1
    assert loop.now == 5          # the cancelled event at 50 never set the clock
    assert not loop._heap and not loop._cancelled


def test_cancel_after_run_leaves_nothing_behind():
    loop = EventLoop()
    handle = loop.schedule_cancellable(10, lambda: None)
    loop.run_until(10)
    handle.cancel()
    handle.cancel()
    assert not loop._heap and not loop._cancelled
    loop.schedule(20, lambda: None)
    assert len(loop._heap) == 1
    assert loop.run_until(30) == 1
    assert not loop._heap


def test_cancel_from_inside_its_own_dispatch():
    # The TTL abort completes its request, and completion cancels the TTL.
    loop = EventLoop()
    hits = []
    box = {}

    def fire():
        hits.append(loop.now)
        box["handle"].cancel()

    box["handle"] = loop.schedule_cancellable(10, fire)
    loop.schedule(10, lambda: hits.append("next"))
    assert loop.run_until(20) == 2
    assert hits == [10, "next"]
    assert loop.dispatched == 2
    assert not loop._heap and not loop._cancelled


def test_cancellable_events_keep_fifo_order():
    loop = EventLoop()
    order = []
    loop.schedule(100, lambda: order.append("a"))
    keep = loop.schedule_cancellable(100, lambda: order.append("b"))
    drop = loop.schedule_cancellable(100, lambda: order.append("c"))
    loop.schedule(100, lambda: order.append("d"))
    drop.cancel()
    assert (len(loop._heap), len(loop._cancelled)) == (4, 1)
    assert loop.run_until(100) == 3
    assert order == ["a", "b", "d"]
    keep.cancel()                 # already run: a no-op
    assert not loop._heap and not loop._cancelled


def test_same_seed_same_dispatch_trace():
    def trace(seed):
        loop = EventLoop()
        rng = RngRoot(seed).fork()
        log = []

        def emit(tag):
            log.append((loop.now, tag, rng.random()))
            if len(log) < 50:
                loop.schedule(loop.now + rng.randrange(10) + 1, lambda: emit(tag + 1))

        loop.schedule(0, lambda: emit(0))
        loop.run_until(10_000)
        return log

    assert trace(42) == trace(42)
    assert trace(42) != trace(43)


def test_fork_deterministic_and_label_sensitive():
    root = RngRoot(99)
    a1 = root.fork("think")
    a2 = root.fork("think")
    b = root.fork("transition")
    seq_a1 = [a1.random() for _ in range(5)]
    seq_a2 = [a2.random() for _ in range(5)]
    seq_b = [b.random() for _ in range(5)]
    assert seq_a1 == seq_a2
    assert seq_a1 != seq_b


@pytest.mark.parametrize("seed", [0, 1, 7, 2**64 - 1])
def test_fork_label_path_equals_nested_forks(seed):
    root = RngRoot(seed)
    chained = path_seed(path_seed(seed, "a"), "b")
    assert root.path_key("a", "b") == chained.to_bytes(8, "little")
    assert root.path_key("b", key=root.path_key("a")) == chained.to_bytes(8, "little")
    path, nested = root.fork("a", "b"), random.Random(chained)
    assert [path.random() for _ in range(20)] == [nested.random() for _ in range(20)]


def test_world_seeds_only_streams_that_draw(monkeypatch):
    seeded = []
    real_seed = random.Random.seed

    def counting_seed(self, *args, **kwargs):
        seeded.append(args)
        return real_seed(self, *args, **kwargs)

    monkeypatch.setattr(random.Random, "seed", counting_seed)
    World(Scenario(seed=3, cluster=ClusterConfig(nodes=1),
                   workload=WorkloadConfig(clients_per_node=10)))
    # lb, detector, channel, faults; a client's streams seed no generator
    assert len(seeded) == 4


_CLIENT_LEAF = path_seed(1, "client/7", "think")
_MEAN = 2**52       # a think mean at which think_ms keeps nearly all of a draw's bits


def _block(seed: int, k: int, *labels: str) -> list[float]:
    """Block k of the stream at label path `labels` below `seed`."""
    return list(simcore.block(RngRoot(seed).path_key(*labels), k))


def test_client_draw_stream_is_its_forked_leaf():
    # 20 blocks in order: block k holds the oracle's draws 16k to 16k + 15 of
    # the stream at (client/7, think), whose seed is fork()'s for that path
    got = [u for k in range(20) for u in _block(1, k, "client/7", "think")]
    assert len(got) == 20 * BLOCK
    assert got == list(itertools.islice(counter_draws(1, "client/7", "think"), 20 * BLOCK))
    assert all(1.0 <= u < 2.0 for u in got)


def test_first_draws_are_pinned():
    # literal bits, so the byte order of a block stays fixed on every host
    assert [u.hex() for u in _block(1, 0, "client/0", "think")[:3]] \
        == ["0x1.c610a6002bac3p+0", "0x1.95be5600d0e0bp+0", "0x1.9659e01ca4272p+0"]


def test_block_depends_only_on_seed_label_path_and_index():
    # any block, asked for in any order, is the same
    ks = [7, 0, 10**6, 3, 2**63]
    assert [_block(99, k, "client/3", "think") for k in ks] == \
        [_block(99, k, "client/3", "think") for k in reversed(ks)][::-1]
    reference = _block(99, 5, "client/3", "think")
    for other in [_block(98, 5, "client/3", "think"),
                  _block(99, 4, "client/3", "think"),
                  _block(99, 5, "client/3", "transition"),
                  _block(99, 5, "client/4", "think"),
                  _block(99, 5, "client/3/think"),
                  _block(99, 5, "client/3")]:
        assert other != reference


class _EchoCatalog:
    """A catalog whose matrix hands back an op that carries the draw it is
    given and needs no session: Client.next_op_name then returns that op."""

    class matrix:
        sample = staticmethod(lambda op, u: types.SimpleNamespace(needs_session=False, draw=u))


def _client_draws(client, reference: dict[str, CounterStream], leaves) -> tuple[list, list]:
    """The client's draws at its two draw sites, one per leaf in `leaves`,
    and the same draws of the reference streams."""
    got, want = [], []
    for leaf in leaves:
        if leaf == "transition":
            got.append(client.next_op_name(_EchoCatalog).draw)
            want.append(reference[leaf].random())
        else:
            got.append(client.think_ms(_MEAN, 2**62))
            # think_ms draws random.expovariate(1 / mean)'s own float
            want.append(int(reference[leaf].expovariate(1.0 / _MEAN)))
    return got, want


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, _CLIENT_LEAF])
def test_draw_stream_equals_generator_across_refills(seed):
    # 300 draws a stream span 19 blocks of 16 doubles, 12 drawn from the last
    streams = ClientStreams(RngRoot(seed), 8)
    client = Client(7, streams, HOME)
    for leaf in ("transition", "think"):
        reference = {leaf: CounterStream(seed, "client/7", leaf)}
        got, want = _client_draws(client, reference, [leaf] * 300)
        assert got == want, leaf
    assert list(streams.index[14:16]) == [19, 19]       # the block each hashes next
    assert list(streams.used[14:16]) == [12, 12]


def test_interleaved_draw_streams_share_no_state():
    streams = ClientStreams(RngRoot(5), 4)
    client = Client(3, streams, HOME)
    reference = {leaf: CounterStream(5, "client/3", leaf) for leaf in ("transition", "think")}
    # uneven interleaving, so the two streams refill at different calls: 266
    # transition draws span 17 blocks (10 drawn from the last), 134 think draws 9 (6)
    leaves = ["transition" if i % 3 else "think" for i in range(400)]
    draws, want = _client_draws(client, reference, leaves)
    assert (list(streams.index[6:8]), list(streams.used[6:8])) == ([17, 9], [10, 6])
    assert draws == want


def test_world_client_streams_are_their_forked_leaves():
    world = World(Scenario(seed=11, cluster=ClusterConfig(nodes=1),
                           workload=WorkloadConfig(clients_per_node=5)))
    for client in world.clients[:3]:
        for label in ("transition", "think"):
            reference = {label: CounterStream(11, f"client/{client.client_id}", label)}
            # 50 draws span four blocks of 16
            got, want = _client_draws(client, reference, [label] * 50)
            assert got == want, (client.client_id, label)


@pytest.mark.parametrize("start", [0, 10**6, 2**40])
def test_each_refill_is_one_hash_of_one_block(monkeypatch, start):
    # the work of a refill does not grow with the draws a stream has made
    calls = []

    class CountingShake:
        def __init__(self, data):
            calls.append([len(data), None])
            self._hash = hashlib.shake_128(data)

        def digest(self, n):
            calls[-1][1] = n
            return self._hash.digest(n)

    streams = ClientStreams(RngRoot(1), 1)
    client = Client(0, streams, HOME)
    streams.index[1] = start      # the think stream is spent: its next refill enters block `start`
    monkeypatch.setattr(simcore, "shake_128", CountingShake)
    got = [client.think_ms(_MEAN, 2**62) for _ in range(10 * BLOCK)]
    assert calls == [[16, 8 * BLOCK]] * 10
    assert streams.index[1] == start + 10
    reference = CounterStream(1, "client/0", "think", first_block=start)
    assert got == [int(reference.expovariate(1.0 / _MEAN)) for _ in range(10 * BLOCK)]


@pytest.mark.parametrize("drawn", [0, 5, 7])
def test_refills_stay_inside_their_own_stream(drawn):
    # eight streams share one table; the first, a middle and the last one refill
    streams = ClientStreams(RngRoot(2), 4)
    for s in range(8):
        for _ in range(s + 1):        # each stream's first block, partly drawn
            streams.draw(s)

    def columns(s):
        return (streams.draws[BLOCK * s:BLOCK * (s + 1)].tobytes(), streams.used[s],
                streams.index[s], streams.keys[8 * s:8 * s + 8])

    before = [columns(s) for s in range(8)]
    leaf = "think" if drawn % 2 else "transition"
    reference = counter_draws(2, f"client/{drawn // 2}", leaf)
    want = list(itertools.islice(reference, drawn + 1, drawn + 1 + 5 * BLOCK))
    assert [streams.draw(drawn) for _ in range(5 * BLOCK)] == want       # five refills
    assert (streams.index[drawn], streams.used[drawn]) == (6, drawn + 1)
    for s in range(8):
        if s != drawn:
            assert columns(s) == before[s], s
    assert (len(streams.draws), len(streams.used), len(streams.index), len(streams.keys)) \
        == (8 * BLOCK, 8, 8, 64)


def _live_generators() -> int:
    """Live _random.Random instances: random.Random's and bare C generators.

    The collector tracks no bare generator, as it holds no references, so
    each is found as a referent of a tracked object, through any chain of
    untracked ones (a tuple of atoms is untracked too).
    """
    gc.collect()
    seen: set[int] = set()
    count = 0
    stack = gc.get_objects()
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if not gc.is_tracked(ref) and id(ref) not in seen:
                seen.add(id(ref))
                stack.append(ref)
                count += isinstance(ref, _random.Random)
    return count + sum(isinstance(o, _random.Random) for o in gc.get_objects())


def test_world_holds_no_generator_per_client():
    def held(clients, run=False):
        world = World(Scenario(seed=3, duration_ms=20_000, cluster=ClusterConfig(nodes=1),
                               workload=WorkloadConfig(clients_per_node=clients)))
        if run:
            world.run()
        return _live_generators()

    # the world's own four: lb, detector, channel, faults
    assert held(10) == held(200) == held(200, run=True) == _live_generators() + 4


def test_world_bytes_per_client_are_bounded():
    def traced(clients):
        scenario = Scenario(seed=3, cluster=ClusterConfig(nodes=1),
                            workload=WorkloadConfig(clients_per_node=clients))
        # a full collection empties the free lists, whose reuse tracemalloc
        # would not see, so every measurement starts from the same state
        gc.collect()
        tracemalloc.start()
        try:
            world = World(scenario)  # noqa: F841 (held while measured)
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    traced(200)         # the first world also builds what all worlds share
    # two streams' 16 doubles, used counts, block indices and seeds in the
    # world's ClientStreams table (290 B), the Client, its id and its list
    # slot measured 410 B a client
    assert (traced(400) - traced(200)) / 200 <= 410 * 1.05


def test_adding_client_stream_does_not_perturb_others():
    def draws(client_ids):
        root = RngRoot(1234)
        return {cid: [root.fork(f"client/{cid}").random() for _ in range(4)]
                for cid in client_ids}

    small = draws([0, 1, 2])
    large = draws([0, 1, 2, 3])
    for cid in (0, 1, 2):
        assert small[cid] == large[cid]


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=0, max_size=60))
def test_no_event_loss(times):
    loop = EventLoop()
    seen = []
    for i, t in enumerate(times):
        loop.schedule(t, lambda i=i: seen.append(i))
    loop.run_until(1000)
    assert sorted(seen) == list(range(len(times)))
    # dispatch order respects timestamps
    dispatched_times = [times[i] for i in seen]
    assert dispatched_times == sorted(dispatched_times)


def _runaway_source(loop: EventLoop, delay: int) -> list[int]:
    """An event that schedules itself again `delay` ms later, forever."""
    seen = []

    def tick():
        seen.append(loop.now)
        loop.after(delay, tick)

    loop.schedule(0, tick)
    return seen


@pytest.mark.parametrize("delay", [0, 1])
def test_drain_stops_a_runaway_source(monkeypatch, delay):
    monkeypatch.setattr("murbsim.simcore._DRAIN_EVENT_LIMIT", 1_000)
    loop = EventLoop()
    seen = _runaway_source(loop, delay)
    with pytest.raises(SimError, match="event limit"):
        loop.drain()
    assert len(seen) == 1_001


def test_run_until_stops_a_runaway_source_at_its_end(monkeypatch):
    # run_until has no event limit: its t_end is the bound
    monkeypatch.setattr("murbsim.simcore._DRAIN_EVENT_LIMIT", 1_000)
    loop = EventLoop()
    seen = _runaway_source(loop, 1)
    assert loop.run_until(5_000) == 5_001
    assert (loop.now, seen[-1], len(loop._heap)) == (5_000, 5_000, 1)
