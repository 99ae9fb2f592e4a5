from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from murbsim.cluster import ClusterError, LoadBalancer, handle_sentinel, six_nines_budget
from murbsim.config import ClusterConfig, Scenario, WorkloadConfig
from murbsim.simcore import RngStream
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
        lb = LoadBalancer(nodes, RngStream(1))
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

    def test_unknown_node_failover_error(self, two_node_world):
        with pytest.raises(ClusterError):
            two_node_world.lb.set_failover(7, True)

    def test_all_nodes_drained_fails(self, two_node_world):
        lb = two_node_world.lb
        lb.set_failover(0, True)
        lb.set_failover(1, True)
        assert lb.route(None) is None


class TestSentinelHandling:
    def test_idempotent_retry(self):
        assert handle_sentinel(True, True, False, 2_000) == ("retry", 2_000)

    def test_non_idempotent_fails(self):
        assert handle_sentinel(False, True, False, 2_000) == ("fail", 0)

    def test_single_retry_budget(self):
        assert handle_sentinel(True, True, True, 2_000) == ("fail", 0)

    def test_retries_disabled(self):
        assert handle_sentinel(True, False, False, 2_000) == ("fail", 0)


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
