from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from murbsim.cluster import CpuQueue, LoadBalancer, handle_sentinel, six_nines_budget
from murbsim.config import ClusterConfig, Scenario, WorkloadConfig
from murbsim.simcore import EventLoop, RngRoot
from murbsim.world import World


@pytest.fixture
def two_node_world():
    s = Scenario(duration_ms=600_000, seed=4)
    s.cluster = ClusterConfig(nodes=2)
    s.workload = WorkloadConfig(clients_per_node=2)
    return World(s)


SESSIONS = ("s0", "s1", "s2", "s3")


@st.composite
def balancer_states(draw):
    n = draw(st.integers(1, 4))
    node_ids = st.integers(0, n - 1)
    sessions = st.sampled_from(SESSIONS)
    return (n, draw(st.sets(node_ids)), draw(st.sets(node_ids)),
            draw(st.dictionaries(sessions, node_ids)), draw(st.dictionaries(sessions, node_ids)))


class TestRouting:
    @given(balancer_states())
    def test_route_picks_only_up_serving_nodes(self, state):
        # World._route_and_admit relies on this: it never checks node.up itself.
        n, down, failover, homes, rehomes = state
        nodes = [SimpleNamespace(node_id=i, up=i not in down) for i in range(n)]
        lb = LoadBalancer(nodes, RngRoot(1).fork())
        lb.failover_set = set(failover)
        lb.affinity = dict(homes)
        lb.rehome = dict(rehomes)
        serving = {i for i in range(n) if i not in down and i not in failover}
        for session in (None, *SESSIONS) * 2:     # twice: a re-home is kept
            picked = lb.route(session)
            assert picked in serving if serving else picked is None

    def test_logins_spread_evenly(self, two_node_world):
        lb = two_node_world.lb
        picks = [lb.route(None) for _ in range(4)]
        assert sorted(picks) == [0, 0, 1, 1]

    def test_affinity_honored(self, two_node_world):
        lb = two_node_world.lb
        lb.establish("s1", 1)
        assert all(lb.route("s1") == 1 for _ in range(5))

    def test_drained_node_redirects_consistently(self, two_node_world):
        lb = two_node_world.lb
        lb.establish("s1", 0)
        lb.set_failover(0, True)
        first = lb.route("s1")
        assert first == 1
        assert lb.route("s1") == first      # re-homed for the failover's duration

    def test_deactivation_restores_prior_routing(self, two_node_world):
        lb = two_node_world.lb
        lb.establish("s1", 0)
        lb.set_failover(0, True)
        lb.route("s1")
        lb.set_failover(0, False)
        assert lb.route("s1") == 0

    def test_all_nodes_drained_fails(self, two_node_world):
        lb = two_node_world.lb
        lb.set_failover(0, True)
        lb.set_failover(1, True)
        assert lb.route(None) is None


class TestCpuQueue:
    """Two slots; each job records (name, finish time) when its service ends."""

    @pytest.fixture
    def cpu(self):
        loop = EventLoop()
        cpu = CpuQueue(loop, 2)
        cpu.done = []
        cpu.job = lambda name, ms: cpu.submit(
            ms, lambda: cpu.done.append((name, loop.now)))
        return cpu

    def test_fifo_service(self, cpu):
        for name, ms in (("a", 10), ("b", 30), ("c", 5), ("d", 5)):
            cpu.job(name, ms)
        assert (cpu.busy, len(cpu.queue)) == (2, 2)
        cpu.loop.run_until(100)
        # c waits for a's slot, d for c's
        assert cpu.done == [("a", 10), ("c", 15), ("d", 20), ("b", 30)]
        assert (cpu.busy, len(cpu.queue)) == (0, 0)

    def test_work_from_before_a_reset_is_ignored(self, cpu):
        cpu.job("old", 10)
        cpu.loop.run_until(5)
        cpu.reset()
        cpu.job("new", 10)
        cpu.loop.run_until(100)
        assert cpu.done == [("new", 15)]
        assert cpu.busy == 0

    def test_pin_takes_a_free_slot(self, cpu):
        cpu.pin_slot()
        cpu.job("a", 10)
        cpu.job("b", 10)
        assert (cpu.busy, cpu.pinned, len(cpu.queue)) == (1, 1, 1)
        cpu.loop.run_until(100)
        assert cpu.done == [("a", 10), ("b", 20)]
        cpu.unpin_slot()
        assert cpu.pinned == 0

    def test_pin_with_every_slot_busy_waits_for_the_next_free_one(self, cpu):
        for name in "abc":
            cpu.job(name, 10)
        cpu.pin_slot()
        assert (cpu.busy, cpu.pinned, cpu.waiting_pins) == (2, 0, 1)
        seen = []
        for _ in range(3):
            cpu.loop.run_until(cpu.loop.now + 10)
            seen.append((cpu.busy, cpu.pinned, cpu.waiting_pins))
            assert cpu.busy + cpu.pinned <= cpu.slots
        # the pin takes a's slot before queued c does; c then runs on one slot
        assert cpu.done == [("a", 10), ("b", 10), ("c", 20)]
        assert seen == [(1, 1, 0), (0, 1, 0), (0, 1, 0)]

    def test_unpin_while_the_pin_still_waits(self, cpu):
        cpu.job("a", 10)
        cpu.job("b", 10)
        cpu.pin_slot()
        cpu.unpin_slot()
        assert (cpu.busy, cpu.pinned, cpu.waiting_pins) == (2, 0, 0)
        cpu.job("c", 10)
        cpu.loop.run_until(100)
        # the dropped pin took no slot, so c ran as soon as one was free
        assert cpu.done == [("a", 10), ("b", 10), ("c", 20)]
        assert (cpu.busy, cpu.pinned) == (0, 0)


class TestSentinelHandling:
    def test_idempotent_retry(self):
        assert handle_sentinel(True, True, False) is True

    def test_non_idempotent_fails(self):
        assert handle_sentinel(False, True, False) is False

    def test_single_retry_budget(self):
        assert handle_sentinel(True, True, True) is False

    def test_retries_disabled(self):
        assert handle_sentinel(True, False, False) is False


class TestSixNines:
    @pytest.mark.parametrize("per_incident,expected",
                             [(2_280, 23), (162, 329), (78, 683)])
    def test_reference_budgets(self, per_incident, expected):
        assert six_nines_budget(53.3e9, per_incident) == expected

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ValueError):
            six_nines_budget(0, 10)
        with pytest.raises(ValueError):
            six_nines_budget(1e9, 0)
        with pytest.raises(ValueError):
            six_nines_budget(1e9, 10, nines=1.0)
