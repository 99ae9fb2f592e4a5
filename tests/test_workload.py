import sys
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from murbsim.app import MAX_OPS, load_app_catalog
from murbsim.faultlib import OUTCOMES
from murbsim.simcore import ClientStreams, RngRoot
from murbsim.workload import Client, TawLedger, latency_stats

from oracles import (CounterStream, drive_ledger, random_trace, replay_classify,
                     sample_think_ms, stationary_distribution)

HOME = load_app_catalog().home


class TestThinkTime:
    def test_mean_and_cap(self):
        client = Client(4, ClientStreams(RngRoot(3), 5), HOME)
        draws = [client.think_ms(7_000, 70_000) for _ in range(100_000)]
        mean = sum(draws) / len(draws)
        assert abs(mean - 7_000) / 7_000 < 0.05
        assert max(draws) <= 70_000

    def test_client_draws_match_helper(self):
        client = Client(4, ClientStreams(RngRoot(3), 5), HOME)
        reference = CounterStream(3, "client/4", "think")
        assert [client.think_ms(7_000, 70_000) for _ in range(1_000)] == \
            [sample_think_ms(reference, 7_000, 70_000) for _ in range(1_000)]

    @pytest.mark.parametrize("mean_ms", [1, 3, 333, 7_000, 12_345, 10**9])
    def test_client_draws_match_expovariate_at_any_mean(self, mean_ms):
        client = Client(4, ClientStreams(RngRoot(3), 5), HOME)
        reference = CounterStream(3, "client/4", "think")
        cap = 10**12
        assert [client.think_ms(mean_ms, cap) for _ in range(2_000)] == \
            [sample_think_ms(reference, mean_ms, cap) for _ in range(2_000)]


class TestClientChain:
    def test_logout_leads_to_new_login(self):
        catalog = load_app_catalog()
        client = Client(0, ClientStreams(RngRoot(5), 1), catalog.home)
        client.begin_session()
        client.chain_state = catalog.ops["Logout"]
        assert client.next_op_name(catalog) is catalog.login

    def test_logged_out_client_forced_to_login(self):
        catalog = load_app_catalog()
        client = Client(0, ClientStreams(RngRoot(6), 1), catalog.home)
        seen = set()
        for _ in range(50):
            client.end_session()
            client.chain_state = catalog.home
            seen.add(client.next_op_name(catalog).name)
        # sessioned samples are replaced by Login; only anonymous ops remain
        assert seen <= {"Login", "Home", "BrowseMenu", "SellMenu", "RegisterMenu",
                        "Help", "SiteMap", "RegisterNewUser", "Logout"}
        assert "Login" in seen

    def test_transition_frequencies_match_matrix(self):
        import scipy.stats

        catalog = load_app_catalog()
        rng = RngRoot(9).fork("transition")
        counts = {s: 0 for s in catalog.matrix.states}
        op = catalog.home
        n = 1_000_000
        for _ in range(n):
            op = catalog.matrix.sample(op, rng.random())
            counts[op.name] += 1
        pi = stationary_distribution(catalog.matrix)
        observed = [counts[s] for s in catalog.matrix.states]
        expected = [pi[s] * n for s in catalog.matrix.states]
        # Markov-chain samples are not i.i.d., so allow slack beyond the chi-
        # square threshold; gross mismatches still fail loudly.
        chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
        limit = scipy.stats.chi2.ppf(0.9999, df=len(observed) - 1)
        assert chi2 < 3 * limit


class TestLedger:
    def test_commit_failure_reclassifies_earlier_seconds(self):
        ledger = TawLedger(("Op",))
        action = ledger.new_action()
        for t_s in (5, 7):
            req = ledger.new_request(action, 0, t_s * 1000 - 50)
            ledger.record_outcome(req, "ok", t_s * 1000, False)
        req = ledger.new_request(action, 0, 8_950)
        ledger.record_outcome(req, "error:exception", 9_000, True)
        rows = ledger.taw_series(10_000)
        by_second = {r[0]: r for r in rows}
        for sec in (5, 7, 9):
            assert by_second[sec][2] == 1, sec    # one bad request each
            assert by_second[sec][1] == 0
        assert by_second[9][4] == 1               # the action resolves bad at 9

    def test_all_ok_action_counts_good(self):
        ledger = TawLedger(("Op",))
        action = ledger.new_action()
        for t_s in (1, 2, 3):
            req = ledger.new_request(action, 0, t_s * 1000 - 10)
            ledger.record_outcome(req, "ok", t_s * 1000, t_s == 3)
        totals = ledger.totals()
        assert totals["good_requests"] == 3
        assert totals["good_actions"] == 1

    def test_abandoned_actions_count_nowhere(self):
        ledger = TawLedger(("Op",))
        action = ledger.new_action()
        req = ledger.new_request(action, 0, 0)
        ledger.record_outcome(req, "ok", 100, False)
        ledger.abandon(action, 200)
        totals = ledger.totals()
        assert totals["good_requests"] == totals["bad_requests"] == 0
        assert totals["abandoned_requests"] == 1

    def test_series_requires_resolution(self):
        ledger = TawLedger(("Op",))
        action = ledger.new_action()
        req = ledger.new_request(action, 0, 0)
        ledger.record_outcome(req, "ok", 100, False)
        with pytest.raises(RuntimeError):
            ledger.taw_series(1_000)

    def test_request_cannot_join_resolved_action(self):
        # A request's class is read from its action, which is sound only
        # because no request joins an action after it resolved.
        ledger = TawLedger(("Op",))
        action = ledger.new_action()
        req = ledger.new_request(action, 0, 0)
        ledger.record_outcome(req, "ok", 100, True)
        with pytest.raises(RuntimeError):
            ledger.new_request(action, 0, 200)
        with pytest.raises(RuntimeError):
            ledger.record_outcome(req, "ok", 300, True)

    def test_request_columns(self):
        ledger = TawLedger(("Login", "ViewItem"))
        action = ledger.new_action()
        done = ledger.new_request(action, 0, 40)
        ledger.record_outcome(done, "ok", 55, False)
        open_req = ledger.new_request(action, 1, 60)
        assert [done, open_req] == [0, 1]         # latency.csv's request ids 1 and 2
        assert (ledger.action_of[done], list(ledger.ops())[done], ledger.issued_at[done],
                ledger.completed_at[done], list(ledger.outcomes())[done],
                ledger.action_status[ledger.action_of[done]]) == \
            (action, "Login", 40, 55, "ok", "pending")
        assert ledger.completed_at[done] - ledger.issued_at[done] == 15
        assert ledger.completed_at[open_req] == -1

    def test_op_and_outcome_codes_decode_to_the_names_given(self):
        ledger = TawLedger(("Login", "ViewItem", "Home"))
        for op, outcome in ((0, "ok"), (1, "error:session_lost"),
                            (0, "error:session_lost"), (2, None)):
            req = ledger.new_request(ledger.new_action(), op, 10)
            if outcome is not None:
                ledger.record_outcome(req, outcome, 20, False)
        assert list(ledger.ops()) == ["Login", "ViewItem", "Login", "Home"]
        assert list(ledger.outcomes()) == ["ok", "error:session_lost",
                                           "error:session_lost", ""]
        assert list(ledger.op_code) == [0, 1, 0, 2]
        assert ledger.count_outcome("error:session_lost") == 2
        assert ledger.count_outcome("error:ttl_expired") == 0
        assert [OUTCOMES[code] for code in ledger.outcome_code] == list(ledger.outcomes())

    def test_unknown_outcome_rejected_before_it_is_recorded(self):
        # every outcome has a fixed code in faultlib; none is given out on sight
        ledger = TawLedger(("Op",))
        action = ledger.new_action()
        req = ledger.new_request(action, 0, 10)
        with pytest.raises(KeyError):
            ledger.record_outcome(req, "error:gremlins", 20, False)
        assert (list(ledger.action_of), list(ledger.ops()), list(ledger.issued_at),
                list(ledger.completed_at), list(ledger.outcomes()),
                ledger.action_status[action]) == ([action], ["Op"], [10], [-1], [""], "pending")

    def test_a_time_past_int32_raises_rather_than_wraps(self):
        # the parser bounds every scenario's times; this is the backstop for
        # a Scenario built in code
        ledger = TawLedger(("Op",))
        action = ledger.new_action()
        with pytest.raises(OverflowError):
            ledger.new_request(action, 0, 2**31)
        req = ledger.new_request(action, 0, 2**31 - 1)
        with pytest.raises(OverflowError):
            ledger.record_outcome(req, "ok", 2**31, True)
        # neither call left a column out of step with the others
        assert (list(ledger.action_of), list(ledger.op_code), list(ledger.issued_at),
                list(ledger.completed_at), list(ledger.outcomes()), list(ledger.action_size),
                ledger.action_status[action]) == ([action], [0], [2**31 - 1], [-1], [""], [1],
                                                  "pending")

    def test_every_per_request_column_is_a_typed_array(self, baseline_run):
        # a short fault-free world; 8-byte slots and str pointers took 40 B a
        # request, 8-byte times 23 B, and int32 times take 15 B
        ledger = baseline_run.ledger
        n = len(ledger.action_of)
        columns = [getattr(ledger, name) for name in ledger.REQUEST_COLUMNS]
        assert all(type(col) is array and len(col) == n for col in columns)
        assert sum(col.itemsize for col in columns) == 15
        held = sum(sys.getsizeof(col) for col in columns)
        # on top of that, CPython grows an appended array to m + (m >> 4) + 7
        # items (m its new size, from 8 on), so n items hold at most
        # n + (n >> 4) + 7, above the empty array's header
        assert held <= sum(sys.getsizeof(array(col.typecode)) + (n + (n >> 4) + 7) * col.itemsize
                           for col in columns)
        assert 1 << 8 * ledger.op_code.itemsize == MAX_OPS

    def test_random_trace_matches_replay_oracle(self):
        for seed in range(30):
            events = random_trace(seed, 2_000)
            ledger, reqs = drive_ledger(events)
            expected = replay_classify(events)
            assert [ledger.action_status[ledger.action_of[r]] for r in reqs] == expected

    def test_conservation(self):
        events = random_trace(123, 5_000)
        ledger, _ = drive_ledger(events)
        t = ledger.totals()
        assert t["good_requests"] + t["bad_requests"] + t["abandoned_requests"] == \
            t["completed_requests"]
        rows = ledger.taw_series(events[-1][0])
        assert sum(r[1] for r in rows) == t["good_requests"]
        assert sum(r[2] for r in rows) == t["bad_requests"]


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=400))
def test_action_atomicity_property(seed, n_events):
    events = random_trace(seed, n_events, n_clients=5)
    ledger, _ = drive_ledger(events)
    classes: dict[int, set[str]] = {}
    sizes: dict[int, int] = {}
    for action in ledger.action_of:
        classes.setdefault(action, set()).add(ledger.action_status[action])
        sizes[action] = sizes.get(action, 0) + 1
    assert all(len(c) == 1 for c in classes.values())
    assert all(ledger.action_size[a] == n for a, n in sizes.items())


class TestLatencyStats:
    def test_instant_requests_none_over_threshold(self):
        ledger = TawLedger(("Op",))
        action = ledger.new_action()
        for i in range(10):
            req = ledger.new_request(action, 0, i * 1000)
            ledger.record_outcome(req, "ok", i * 1000, False)
        stats = latency_stats(ledger)
        assert stats["count_over_threshold"] == 0
        assert stats["mean"] == 0.0

    def test_failed_requests_excluded(self):
        ledger = TawLedger(("Op",))
        action = ledger.new_action()
        req = ledger.new_request(action, 0, 0)
        ledger.record_outcome(req, "error:exception", 9_000, False)
        assert latency_stats(ledger)["count"] == 0

    @staticmethod
    def sorted_list_stats(latencies):
        # the definition: statistics of the sorted list of OK latencies
        lat = sorted(latencies)
        if not lat:
            return {"count": 0, "mean": 0.0, "p95": 0.0, "count_over_threshold": 0}
        return {"count": len(lat), "mean": sum(lat) / len(lat),
                "p95": float(lat[min(len(lat) - 1, max(0, (95 * len(lat) + 99) // 100 - 1))]),
                "count_over_threshold": sum(1 for v in lat if v > 8_000)}

    @pytest.mark.parametrize("latencies", [
        [], [0], [7], [5, 5, 5, 5], [8_000, 8_001, 8_001, 12_345, 3],
        [1] * 19 + [9_000], [1] * 20 + [9_000], list(range(100, 0, -1)),
        [3, 1, 2, 3, 3, 1, 40_000, 2, 2, 8_000] * 7,
    ])
    def test_equal_to_the_sorted_list_definition(self, latencies):
        ledger = TawLedger(("Op",))
        for i, lat in enumerate(latencies):
            action = ledger.new_action()
            req = ledger.new_request(action, 0, 1_000 * i)
            ledger.record_outcome(req, "ok", 1_000 * i + lat, False)
            failed = ledger.new_request(ledger.new_action(), 0, 1_000 * i)
            ledger.record_outcome(failed, "error:exception", 1_000 * i + 99_999, False)
        ledger.new_request(ledger.new_action(), 0, 0)        # still in flight
        assert latency_stats(ledger) == self.sorted_list_stats(latencies)

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.integers(min_value=0, max_value=20_000), max_size=300))
    def test_equal_to_the_sorted_list_definition_on_any_latencies(self, latencies):
        ledger = TawLedger(("Op",))
        action = ledger.new_action()
        for lat in latencies:
            ledger.record_outcome(ledger.new_request(action, 0, 7), "ok", 7 + lat, False)
        assert latency_stats(ledger) == self.sorted_list_stats(latencies)

    def test_baseline_run_mean_near_calibration(self, baseline_run):
        stats = latency_stats(baseline_run.ledger)
        assert 12.0 <= stats["mean"] <= 18.0
        assert stats["count_over_threshold"] == 0
