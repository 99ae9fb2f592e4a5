import json
import os
import re
import typing
from importlib import resources
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from murbsim.app import MAX_OPS, load_app_catalog
from murbsim.config import (ClusterConfig, DetectorConfig, FaultConfig,
                            PolicyConfig, Scenario, ScriptedRecovery, Section,
                            StoreConfig, WorkloadConfig)
from murbsim.faultlib import (ERR_CONNECTION, ERR_SESSION, ERR_TTL, ERR_UNAVAILABLE,
                              FAULT_CLASSES, MURB_GROUP, OUTCOMES, RECOVERY_LEVELS,
                              RESTART_APPLICATION, RESTART_PROCESS, FaultError)
from murbsim.cli import main
from murbsim.harness import (LATENCY_HEADER, TAW_HEADER, TIMELINE_HEADER,
                             ScenarioError, export_summary, functional_group_timeline,
                             parse_scenario, run_scenario, write_outputs)
from murbsim.runtime import load_catalog
from murbsim.simcore import ClientStreams
from murbsim.workload import Client, TawLedger
from murbsim.world import World

from oracles import sorted_merge_timeline
from test_app import op_lines


def run_world(scenario):
    world = World(scenario)
    world.run()
    return world


def quiet_policy():
    return PolicyConfig(enabled=False)


def murb(at_ms, target):
    return ScriptedRecovery(at_ms, "murb_group", target)


def run_single_request(world, client, op_name):
    """Drive one operation to completion; returns its outcome and its ledger handle."""
    ctx = world._issue(client, world.catalog.ops[op_name])
    client.stopped = True          # suppress the follow-up think event
    world._route_and_admit(ctx)
    guard = 0
    while world.ledger.completed_at[ctx.req] < 0 and world.loop._heap and guard < 10_000:
        world.loop.run_until(world.loop.now + 1_000)
        guard += 1
    return OUTCOMES[world.ledger.outcome_code[ctx.req]], ctx.req


def request_rows(ledger):
    """(op name, issued_at, completed_at, outcome) of each request, read from
    the ledger's columns in issue order."""
    return zip(ledger.ops(), ledger.issued_at, ledger.completed_at, ledger.outcomes())


def completions(world):
    """(time, node) of each completed recovery op, in completion order."""
    return sorted((op.completed_at, op.node) for op in world.recoveries
                  if op.completed_at >= 0)


FIVE_SECONDS = "[scenario]\nduration_ms 5000\n[workload]\nclients_per_node 5\n"


class TestScenarioParsing:
    def test_round_trip_of_common_keys(self):
        text = """
[scenario]
duration_ms 5000
seed 9
[cluster]
nodes 2
failover true
[workload]
clients_per_node 10
[detector]
kind comparison
fp_rate 0.25
[fault]
at 1000
class transient_exception
target ViewItem
[murb]
at 2000
target BrowseCategories
[recovery]
at 3000
level restart_process
"""
        s = parse_scenario(text)
        assert s.duration_ms == 5000 and s.seed == 9
        assert s.cluster.nodes == 2 and s.cluster.failover is True
        assert s.detector.kind == "comparison" and s.detector.fp_rate == 0.25
        assert s.faults[0].fault_class == "transient_exception"
        assert s.scripted_recoveries == [
            ScriptedRecovery(2000, "murb_group", "BrowseCategories"),
            ScriptedRecovery(3000, "restart_process")]

    def test_unknown_key_reports_line(self):
        for text, line in [
            ("[cluster]\nnodes 2\nbogus 7\n", 3),
            ("[fault]\nat 100\nclass transient_exception\nfail_probabilty 0.5\n", 4),
            ("[recovery]\nat 100\nlevel restart_process\nnode first\n", 4),
            ("[murb]\nat soon\ntarget Item\n", 2),
            ("[murb]\nat 100\nlevel restart_process\n", 3),
        ]:
            with pytest.raises(ScenarioError, match=f"^line {line}: "):
                parse_scenario(text)

    def test_scripted_recovery_checked_against_cluster_and_catalog(self):
        for text, line, message in [
            ("[murb]\nat 100\ntarget Nope\n", 1, "unknown target component 'Nope'"),
            ("[recovery]\nat 100\nlevel murb_web\ntarget Nope\n", 1, "unknown target"),
            ("[recovery]\nat 100\nlevel reboot\n", 1, "unknown level 'reboot'"),
            ("[cluster]\nnodes 2\n[murb]\nat 100\ntarget Item\nnode 2\n", 3,
             "node 2 outside the cluster of 2"),
            # a level other than the one the world records for the target's group
            ("[recovery]\nat 100\nlevel murb_web\ntarget ViewItem\n", 1,
             "a microreboot of ViewItem's group is level murb_group, not murb_web"),
            ("[recovery]\nat 100\nlevel murb_group\n", 1,
             "a microreboot of WebUI's group is level murb_web, not murb_group"),
            ("[murb]\nat 100\ntarget WebUI\n", 1,
             "a microreboot of WebUI's group is level murb_web, not murb_group"),
        ]:
            with pytest.raises(ScenarioError, match=f"^line {line}: .*{message}"):
                parse_scenario(text)
        # a non-microreboot level ignores its target, as the world does
        parse_scenario("[recovery]\nat 100\nlevel restart_process\ntarget Nope\n")

    def test_code_built_microreboot_of_another_level_fails_before_the_first_event(self):
        # without the parser's check, each once ran: the first as murb_web,
        # the second as murb_group
        for sr, message in [
            (ScriptedRecovery(1_000, "murb_group", "WebUI"),
             "a microreboot of WebUI's group is level murb_web, not murb_group"),
            (ScriptedRecovery(3_000, "murb_web", "ViewItem"),
             "a microreboot of ViewItem's group is level murb_group, not murb_web"),
        ]:
            scenario = Scenario(duration_ms=5_000, scripted_recoveries=[sr],
                                workload=WorkloadConfig(clients_per_node=5))
            with pytest.raises(FaultError, match=f"^{message}$"):
                World(scenario)

    def test_fault_checked_against_table_cluster_and_catalog(self):
        for text, message in [
            ("class gremlins\n", "unknown fault class 'gremlins'"),
            ("class transient_exception\ntarget ViewItem\nmode null\n",
             "transient_exception takes no mode, not 'null'"),
            ("class corrupt_tx_map\ntarget Item\nmode bogus\n",
             "corrupt_tx_map takes null | invalid | wrong mode, not 'bogus'"),
            ("class corrupt_tx_map\ntarget Item\n", "corrupt_tx_map takes null | invalid | wrong mode, not ''"),
            ("class corrupt_db_row\ntarget Item\nmode wrong\n", "corrupt_db_row takes no mode, not 'wrong'"),
            ("class transient_exception\ntarget ViewItem\nnode 3\n", "node 3 outside the cluster of 1"),
            ("class transient_exception\ntarget ViewItem\nnode -1\n", "node -1 outside the cluster of 1"),
            ("class deadlock\ntarget Nope\n", "unknown target component 'Nope'"),
            ("class deadlock\n", "unknown target component ''"),
            ("class bad_env\ntarget Item\n", "bad_env takes no target"),
        ]:
            with pytest.raises(ScenarioError, match=f"^line 1: \\[fault\\] {re.escape(message)}$"):
                parse_scenario("[fault]\nat 100\n" + text)
        # session and process faults name a session key or nothing
        parse_scenario("[fault]\nat 100\nclass corrupt_inproc_session\nmode wrong\n"
                       "[fault]\nat 100\nclass corrupt_external_session\ntarget s1\n"
                       "[fault]\nat 100\nclass corrupt_external_session\nmode null\n"
                       "[fault]\nat 100\nclass bad_env\nfail_probability 0.5\n")

    def test_trailing_comment_is_dropped(self):
        # the tail was read as part of the value: `nodes 2  # two` exited 2, and the
        # fault targeted a session key that no client holds
        s = parse_scenario("[cluster]\nnodes 2  # two\n"
                           "[fault]\nat 100\nclass corrupt_external_session\n"
                           "target c0-s1   # the first client's session\n")
        assert s.cluster.nodes == 2
        assert s.faults[0].target == "c0-s1"

    def test_numeric_range_edges_parse(self):
        s = parse_scenario("[scenario]\nduration_ms 0\n[cluster]\nnodes 1\n"
                           "[workload]\nclients_per_node 0\nthink_mean_ms 1\n"
                           "[detector]\nt_det_ms 0\nfp_rate 1.0\ndrop_rate 0\n"
                           "[fault]\nat 0\nclass transient_exception\ntarget ViewItem\n"
                           "fail_probability 0\n")
        assert (s.cluster.nodes, s.workload.clients_per_node, s.detector.fp_rate) == (1, 0, 1.0)
        assert s.faults[0].fail_probability == 0.0
        s = parse_scenario("[scenario]\nduration_ms 1073741824\n[workload]\n"
                           "think_max_ms 33554432\nrequest_ttl_ms 33554432\n")
        assert (s.duration_ms, s.workload.request_ttl_ms) == (1 << 30, 1 << 25)
        for text, message in [
            ("[workload]\nthink_mean_ms 0\n", "expected a value >= 1, got 0"),
            ("[rejuvenation]\npoll_ms 0\n", "expected a value >= 1, got 0"),
            ("[detector]\nfp_rate 1.5\n", "expected a value >= 0.0 and <= 1.0, got 1.5"),
            ("[detector]\nfn_rate 1.5\n", "expected a value >= 0.0 and <= 1.0, got 1.5"),
            ("[detector]\nfp_rate nan\n", "expected a value >= 0.0 and <= 1.0, got nan"),
            ("[policy]\nthreshold nan\n", "expected a value >= 0.0, got nan"),
            ("[scenario]\nduration_ms -1\n", "expected a value >= 0 and <= 1073741824, got -1"),
            # every time fits the ledger's int32 ms
            ("[scenario]\nduration_ms 1073741825\n",
             "expected a value >= 0 and <= 1073741824, got 1073741825"),
            ("[stores]\nsession_lease_ms 33554433\n",
             "expected a value >= 0 and <= 33554432, got 33554433"),
            ("[murb]\nat -1\ntarget Item\n", "expected a value >= 0, got -1"),
        ]:
            with pytest.raises(ScenarioError, match=f"^line 2: {re.escape(message)}$"):
                parse_scenario(text)

    @pytest.mark.parametrize("section, field, value, message", [
        # without the check each once failed mid-run (ZeroDivisionError,
        # OverflowError, SimError at the microreboot), in World(...)
        # (IndexError) or not at all
        ("workload", "think_mean_ms", 0, "expected a value >= 1, got 0"),
        ("policy", "half_life_ms", 0, "expected a value >= 1, got 0"),
        ("", "duration_ms", 2**31, "expected a value >= 0 and <= 1073741824, got 2147483648"),
        ("cluster", "drain_delay_ms", -5, "expected a value >= 0 and <= 33554432, got -5"),
        ("detector", "fp_rate", 2.0, "expected a value >= 0.0 and <= 1.0, got 2.0"),
        ("cluster", "nodes", 0, "expected a value >= 1, got 0"),
    ])
    def test_code_built_scenario_is_range_checked(self, section, field, value, message):
        """A section built or changed in code is held to the ranges the
        parser applies, and the error names the field."""
        scenario = Scenario(workload=WorkloadConfig(clients_per_node=20),
                            scripted_recoveries=[murb(1_000, "Item")])
        target = getattr(scenario, section) if section else scenario
        match = f"^{type(target).__name__}.{field}: {re.escape(message)}$"
        with pytest.raises(ValueError, match=match):
            type(target)(**{field: value})
        with pytest.raises(ValueError, match=match):
            setattr(target, field, value)
        World(scenario).run()    # the failed assignment left the field as it was

    def test_code_built_scenario_is_set_checked(self):
        """A field's allowed set is one check, as its range is: for every
        `Literal` field of every section, an outside value fails by
        constructor and by assignment with the field's name, leaves the field
        as it was, and fails in a scenario file with its line."""
        # each of these once built and ran a world, the first as an in-process store
        repros = {("StoreConfig", "session_store"): "externall",
                  ("DetectorConfig", "kind"): "compare",
                  ("PolicyConfig", "recovery_mode"): "reboot",
                  ("RejuvenationConfig", "mode"): "restrat"}
        file_sections = {cls: name for name, cls in Scenario._defaults.items()
                         if isinstance(cls, type) and issubclass(cls, Section)}
        file_sections[Scenario] = "scenario"
        fields = [(cls, name, typing.get_args(kind))
                  for cls in Section.__subclasses__() for name, kind in cls.types.items()
                  if typing.get_origin(kind) is typing.Literal]
        assert set(repros) <= {(cls.__name__, name) for cls, name, _ in fields}
        scenario = Scenario()
        for cls, name, allowed in fields:
            section = file_sections[cls]
            target = scenario if cls is Scenario else getattr(scenario, section)
            for value in {repros.get((cls.__name__, name), "bogus"), "bogus"}:
                message = re.escape(f"expected {' | '.join(allowed)}, got {value!r}")
                match = f"^{cls.__name__}.{name}: {message}$"
                with pytest.raises(ValueError, match=match):
                    cls(**{name: value})
                before = getattr(target, name)
                with pytest.raises(ValueError, match=match):
                    setattr(target, name, value)
                assert getattr(target, name) == before
                with pytest.raises(ScenarioError, match=f"^line 2: {message}$"):
                    parse_scenario(f"[{section}]\n{name} {value}\n")
        # the base type is checked first: the first two of these once built a
        # world with the flag on, the third failed only in World(...) with a
        # TypeError, and the fourth ran with one node
        for cls, name, value, base in [(ClusterConfig, "failover", "no", "bool"),
                                       (PolicyConfig, "enabled", "false", "bool"),
                                       (ClusterConfig, "nodes", 2.5, "int"),
                                       (ClusterConfig, "nodes", True, "int")]:
            match = f"^{cls.__name__}.{name}: {re.escape(f'expected {base}, got {value!r}')}$"
            with pytest.raises(ValueError, match=match):
                cls(**{name: value})
            target = getattr(scenario, file_sections[cls])
            before = getattr(target, name)
            with pytest.raises(ValueError, match=match):
                setattr(target, name, value)
            assert getattr(target, name) is before
        assert PolicyConfig(threshold=2).threshold == 2     # an int is a float's value
        assert scenario == Scenario()

    def test_missing_fault_field_reports_line(self):
        with pytest.raises(ScenarioError, match="class"):
            parse_scenario("[fault]\nat 100\n")

    def test_key_outside_section(self):
        with pytest.raises(ScenarioError, match="line 1"):
            parse_scenario("nodes 2\n")


_COMPONENTS = sorted(spec.name for spec in load_catalog()[0])


@settings(max_examples=150, deadline=None)
@given(section=st.sampled_from(["fault", "recovery", "murb"]),
       fault_class=st.sampled_from([*FAULT_CLASSES, "gremlins"]),
       mode=st.sampled_from(["", "null", "invalid", "wrong", "bogus"]),
       target=st.sampled_from([*_COMPONENTS, "", "Nope", "c0-s1"]),   # c0-s1: a session key
       node=st.integers(-1, 2), nodes=st.integers(1, 2),
       level=st.sampled_from([*RECOVERY_LEVELS, "reboot"]))
# each of these three once got past World(...): an IndexError at the inject
# time, a fault with no effect, and a target accepted silently
@example("fault", "deadlock", "", "Item", 3, 1, "murb_group")
@example("fault", "deadlock", "", "Nope", 0, 1, "murb_group")
@example("fault", "bad_env", "", "Item", 0, 1, "murb_group")
def test_parser_and_world_reject_the_same_events(section, fault_class, mode, target, node,
                                                 nodes, level):
    """A scenario file's event fails to parse with `line N: [section] M`
    exactly when World(...) on the same event built in code raises
    FaultError(M); an event that parses is the one built in code."""
    assume(section != "murb" or target)              # [murb] requires a target
    if section == "fault":
        fields = {"class": fault_class, "mode": mode}
        event = FaultConfig(100, fault_class, target, mode, node)
    else:
        fields = {} if section == "murb" else {"level": level}
        event = ScriptedRecovery(100, "murb_group" if section == "murb" else level, target, node)
    fields.update(target=target, node=node)
    text = (f"[cluster]\nnodes {nodes}\n[workload]\nclients_per_node 0\n[{section}]\nat 100\n"
            + "".join(f"{key} {value}\n" for key, value in fields.items() if value != ""))
    scenario = Scenario(cluster=ClusterConfig(nodes=nodes),
                        workload=WorkloadConfig(clients_per_node=0))
    getattr(scenario, "faults" if section == "fault" else "scripted_recoveries").append(event)
    try:
        parsed, parse_error = parse_scenario(text), None
    except ScenarioError as exc:
        parsed, parse_error = None, str(exc)
    try:
        World(scenario)
        world_error = None
    except FaultError as exc:
        world_error = f"line 5: [{section}] {exc}"
    assert parse_error == world_error
    assert parsed in (None, scenario)


class TestMicrorebootMachinery:
    def test_browse_categories_window_exactly_411(self):
        s = Scenario(duration_ms=30_000, seed=1, policy=quiet_policy())
        s.workload = WorkloadConfig(clients_per_node=50)
        s.scripted_recoveries = [murb(10_000, "BrowseCategories")]
        w = run_world(s)
        op = [op for op in w.recoveries if op.target == "BrowseCategories"][0]
        assert op.duration_ms == 411
        assert completions(w) == [(10_411, 0)]

    def test_entity_group_window_exactly_825(self):
        s = Scenario(duration_ms=30_000, seed=1, policy=quiet_policy())
        s.workload = WorkloadConfig(clients_per_node=50)
        s.scripted_recoveries = [murb(10_000, "Item")]
        w = run_world(s)
        op = [op for op in w.recoveries if op.target == "EntityGroup"][0]
        assert op.duration_ms == 825
        assert completions(w) == [(10_825, 0)]

    def test_overlapping_requests_coalesce(self):
        s = Scenario(duration_ms=30_000, seed=1, policy=quiet_policy())
        s.workload = WorkloadConfig(clients_per_node=10)
        s.scripted_recoveries = [
            murb(10_000, "Item"),
            murb(10_100, "User"),    # same recovery group
            murb(10_200, "Bid"),
        ]
        w = run_world(s)
        windows = [op for op in w.recoveries if op.level.name == "murb_group"]
        assert len(windows) == 1
        assert completions(w) == [(10_825, 0)]

    def test_overlap_reboots_members_outside_the_running_murb(self):
        # {ViewItem} is rebooting when {ViewItem, AboutMe} is asked for:
        # AboutMe must not ride along on the narrower microreboot. Each
        # callback gets the op that rebooted its members: a covered request
        # the covering op, a deferred overlapping one the op that runs later.
        s = Scenario(duration_ms=10_000, seed=1, policy=quiet_policy())
        s.workload = WorkloadConfig(clients_per_node=0)
        w = World(s)
        done = []

        def request(members, tag):
            return lambda: w.execute_recovery(
                0, MURB_GROUP, members, lambda op: done.append((tag, w.loop.now, op)))

        wide = frozenset({"ViewItem", "AboutMe"})
        w.loop.schedule(1_000, request(frozenset({"ViewItem"}), "a"))
        w.loop.schedule(1_001, request(wide, "b"))
        # a request covered by a running microreboot joins it
        w.loop.schedule(1_002, request(frozenset({"ViewItem"}), "c"))
        w.loop.run_until(10_000)
        wide_ms = sum(w.nodes[0].registry.group_cost(wide))
        narrow, later = w.recoveries
        assert done == [("a", 1_446, narrow), ("c", 1_446, narrow),
                        ("b", 1_446 + wide_ms, later)]
        assert later.members == wide
        assert completions(w) == [(1_446, 0), (1_446 + wide_ms, 0)]
        assert [(op.started_at, op.target) for op in w.recoveries] == \
            [(1_000, "ViewItem"), (1_446, "AboutMe,ViewItem")]

    def test_epoch_bumps_per_microreboot(self):
        s = Scenario(duration_ms=30_000, seed=1, policy=quiet_policy())
        s.workload = WorkloadConfig(clients_per_node=10)
        s.scripted_recoveries = [murb(5_000, "ViewItem"), murb(15_000, "ViewItem")]
        w = run_world(s)
        assert [(op.started_at, op.target) for op in w.recoveries] == \
            [(5_000, "ViewItem"), (15_000, "ViewItem")]
        assert completions(w) == [(5_446, 0), (15_446, 0)]

    def test_inflight_aborts_match_replay_oracle(self):
        s = Scenario(duration_ms=60_000, seed=6, policy=quiet_policy())
        s.workload = WorkloadConfig(clients_per_node=400)
        s.scripted_recoveries = [murb(30_000, "Item")]
        w = run_world(s)
        members = w.nodes[0].registry.groups["Item"].members
        ops = w.catalog.ops
        t0 = 30_000
        for op_name, issued, completed, outcome in request_rows(w.ledger):
            if not issued < t0 <= completed:
                continue                  # not in service at the microreboot
            if set(ops[op_name].path) & members:
                assert outcome == "error:component_unavailable", op_name
            elif completed < t0 + 825:
                assert outcome == "ok"

    def test_components_outside_group_untouched(self):
        s = Scenario(duration_ms=30_000, seed=1, policy=quiet_policy())
        s.workload = WorkloadConfig(clients_per_node=10)
        s.scripted_recoveries = [murb(10_000, "Item")]
        w = World(s)
        w.loop.run_until(10_400)    # mid-window
        registry = w.nodes[0].registry
        members = registry.groups["Item"].members
        for name in registry.specs:
            want = "sentinel" if name in members else "bound"
            assert registry.lookup(name).state == want
        w.loop.run_until(30_000)
        w.loop.drain()


class TestFullRestart:
    def test_process_restart_cost_and_store_loss(self):
        s = Scenario(duration_ms=60_000, seed=2, policy=quiet_policy())
        s.workload = WorkloadConfig(clients_per_node=30)
        s.scripted_recoveries = [ScriptedRecovery(30_000, "restart_process")]
        w = run_world(s)
        op = [op for op in w.recoveries if op.level.name == "restart_process"][0]
        assert op.duration_ms == 19_083
        assert completions(w) == [(49_083, 0)]
        # in-process sessions did not survive; clients had to log back in
        assert w.ledger.count_outcome(ERR_SESSION) > 0

    def test_application_restart_keeps_in_process_store(self):
        s = Scenario(duration_ms=60_000, seed=2, policy=quiet_policy())
        s.workload = WorkloadConfig(clients_per_node=30)
        s.scripted_recoveries = [ScriptedRecovery(30_000, "restart_application")]
        w = run_world(s)
        op = [op for op in w.recoveries if op.level.name == "restart_application"][0]
        assert op.duration_ms == 7_699
        assert w.ledger.count_outcome(ERR_SESSION) == 0

    def test_node_reboot_with_zero_boot_cost_equals_process_restart(self):
        outcomes = {}
        for level in ("restart_process", "reboot_node"):
            s = Scenario(duration_ms=60_000, seed=2, policy=quiet_policy())
            s.cluster = ClusterConfig(os_boot_ms=0)
            s.workload = WorkloadConfig(clients_per_node=30)
            s.scripted_recoveries = [ScriptedRecovery(30_000, level)]
            w = run_world(s)
            op = [op for op in w.recoveries if op.level.name == level][0]
            outcomes[level] = (op.duration_ms, w.ledger.totals())
        assert outcomes["restart_process"] == outcomes["reboot_node"]

    @pytest.mark.parametrize("level, duration_ms, outcome, os_leak_after", [
        ("restart_application", 7_699, "error:component_unavailable", 5_000),
        ("restart_process", 19_083, "error:connection", 5_000),
        ("reboot_node", 79_083, "error:connection", 0),
    ])
    def test_level_cost_aborts_and_os_leak(self, level, duration_ms, outcome,
                                           os_leak_after):
        s = Scenario(duration_ms=60_000, seed=2, policy=quiet_policy())
        s.workload = WorkloadConfig(clients_per_node=500)
        w = World(s)
        node = w.nodes[0]
        node.heap.os_leak_bytes = 5_000
        caught = []

        def restart():
            caught.extend(ctx.req for ctx in node.inflight)
            w.execute_recovery(0, RECOVERY_LEVELS[level], frozenset(), None)

        w.loop.schedule(30_000, restart)
        w.run()
        assert caught
        outcomes = list(w.ledger.outcomes())
        assert {outcomes[r] for r in caught} == {outcome}
        assert [op.duration_ms for op in w.recoveries] == [duration_ms]
        assert node.heap.os_leak_bytes == os_leak_after

    def test_process_restart_equivalent_to_murb_all_plus_store_wipe(self):
        def state_fingerprint(w):
            reg = w.nodes[0].registry
            return {
                "bindings": {n: reg.lookup(n).state for n in reg.specs},
                "leases": sorted((r.holder, r.bytes)
                                 for r in w.nodes[0].heap.leases.values()),
                "inproc": sorted(w.nodes[0].in_process_store.records),
            }

        results = []
        for variant in ("restart", "murb_all"):
            s = Scenario(duration_ms=10_000, seed=3, policy=quiet_policy())
            s.workload = WorkloadConfig(clients_per_node=0)
            w = World(s)
            heap = w.nodes[0].heap
            heap.charge("ViewItem", 1_000, resource_id="leak:a")
            heap.charge("unattributed", 2_000, resource_id="leak:b")
            w.nodes[0].in_process_store.write("sess", b"x", now=0)
            if variant == "restart":
                w.execute_recovery(0, RESTART_PROCESS, frozenset(), None)
            else:
                for name in w.nodes[0].registry.specs:
                    w.execute_recovery(0, MURB_GROUP, w.nodes[0].registry.groups[name].members,
                                       None)
                w.loop.run_until(25_000)
                w.nodes[0].in_process_store.clear()
                w.nodes[0].heap.release_unattributed()
            w.loop.run_until(50_000)
            w.loop.drain()
            results.append(state_fingerprint(w))
        assert results[0] == results[1]


def db_row_scenario():
    """Table 2's corrupt_db_row world: the ladder climbs every rung, then hands off."""
    s = Scenario(duration_ms=240_000, seed=1)
    s.workload = WorkloadConfig(clients_per_node=200)
    s.detector = DetectorConfig(kind="comparison")
    s.faults = [FaultConfig(20_000, "corrupt_db_row", "Item")]
    return s


def episode_lines(path):
    return [dict(field.split("=", 1) for field in line.split())
            for line in path.read_text().splitlines()]


class TestRecoveryOps:
    def test_result_stays_on_the_op_it_judged(self, tmp_path):
        # The ladder asks for restart_application at 32,674 ms. A scripted one
        # due at that very ms runs alone: the episode's request joins it, so
        # the node is restarted once and the verdict goes on the op that ran.
        def restarts(path):
            return [(e["t"], e["reason"], e["result"], e["duration_ms"])
                    for e in episode_lines(path / "episodes.log")
                    if e["level"] == "restart_application"]

        levels = ["murb_group", "murb_web", "restart_application", "restart_process",
                  "reboot_node"]
        totals = (6_866, 3_903)
        summary = run_scenario(db_row_scenario(), str(tmp_path / "a"))
        assert restarts(tmp_path / "a") == [("32674", "episode", "persisted", "7699")]
        assert [e["levels"] for e in summary["episodes"]] == [levels]
        assert (summary["totals"]["completed_requests"],
                summary["totals"]["bad_requests"]) == totals
        s = db_row_scenario()
        s.scripted_recoveries = [ScriptedRecovery(32_674, "restart_application")]
        summary = run_scenario(s, str(tmp_path / "b"))
        assert restarts(tmp_path / "b") == [("32674", "scripted", "persisted", "7699")]
        assert [e["levels"] for e in summary["episodes"]] == [levels]
        assert (summary["totals"]["completed_requests"],
                summary["totals"]["bad_requests"]) == totals

    def test_one_op_at_a_time_per_node(self):
        # Each request goes through the one door. A request the running op
        # covers joins it; any other waits until the node is idle.
        s = Scenario(duration_ms=40_000, seed=1, policy=quiet_policy())
        s.workload = WorkloadConfig(clients_per_node=0)
        w = World(s)
        groups = w.nodes[0].registry.groups
        done = []

        def request(level, members, tag):
            return lambda: w.execute_recovery(
                0, level, members, lambda op: done.append((tag, w.loop.now, op)))

        w.loop.schedule(1_000, request(MURB_GROUP, groups["ViewItem"].members, "view"))
        w.loop.schedule(1_001, request(RESTART_APPLICATION, frozenset(), "app"))
        w.loop.schedule(2_000, request(MURB_GROUP, groups["Item"].members, "item"))
        w.loop.schedule(3_000, request(RESTART_PROCESS, frozenset(), "process"))
        w.loop.run_until(40_000)
        assert [(op.level.name, op.target, op.started_at, op.completed_at)
                for op in w.recoveries] == [
            ("murb_group", "ViewItem", 1_000, 1_446),
            ("restart_application", "node0", 1_446, 9_145),
            ("restart_process", "node0", 9_145, 28_228)]
        view, app, process = w.recoveries
        assert done == [("view", 1_446, view), ("app", 9_145, app), ("item", 9_145, app),
                        ("process", 28_228, process)]
        assert not w.node_recovery_busy(0)

    def test_every_op_completes_once_after_its_cost(self):
        s = db_row_scenario()
        s.cluster = ClusterConfig(drain_delay_ms=200)
        s.scripted_recoveries = [murb(5_000, "Item"), murb(5_100, "User"),
                                 murb(8_000, "ViewItem"),
                                 ScriptedRecovery(12_000, "restart_process")]
        w = World(s)
        finished = []
        finish = w._finish

        def counted(op):
            finished.append(op)
            finish(op)

        w._finish = counted
        w.run()
        handed_off = [op for op in w.recoveries if op.reason == "handed_off"]
        assert [(op.level.name, op.completed_at) for op in handed_off] == \
            [("escalate_human", -1)]
        ran = [op for op in w.recoveries if op.reason != "handed_off"]
        assert sorted(map(id, finished)) == sorted(map(id, ran))    # each exactly once
        for op in ran:
            drain = s.cluster.drain_delay_ms if op.level.microreboot else 0
            assert op.completed_at == op.started_at + drain + op.duration_ms, op
        assert {(op.reason, op.level.microreboot) for op in ran} == \
            {("scripted", True), ("scripted", False), ("episode", True), ("episode", False)}
        assert not any(w.node_recovery_busy(node.node_id) for node in w.nodes)
        # one op at a time per node: the windows that ran never overlap
        for node in w.nodes:
            windows = sorted((op.started_at, op.completed_at) for op in ran
                             if op.node == node.node_id)
            assert all(end <= start for (_, end), (start, _) in zip(windows, windows[1:]))
        # the episode holds exactly its own ops, each with the manager's verdict
        (episode,) = w.rm.episodes
        assert [op for op in w.recoveries if op.reason == "episode"] == episode.actions
        assert {op.result for op in episode.actions} == {"persisted"}
        assert {op.result for op in w.recoveries if op.reason != "episode"} == {""}

    def test_workers_busy_counts_held_requests_at_every_step(self):
        # Every exit of a request that holds a worker goes through
        # World._complete. Stepping the run 50 ms at a time through hangs,
        # TTL expiries, retries and three recovery levels, each node's busy
        # workers are exactly its in-flight and parked requests.
        s = Scenario(duration_ms=20_000, seed=1, policy=quiet_policy())
        s.cluster = ClusterConfig(nodes=2, workers_per_node=4, retries=True,
                                  retry_after_ms=300)
        s.workload = WorkloadConfig(clients_per_node=40, think_mean_ms=400,
                                    think_max_ms=4_000, request_ttl_ms=3_000)
        s.faults = [FaultConfig(1_000, "deadlock", "ViewItem", node=0),
                    FaultConfig(1_500, "infinite_loop", "BrowseCategories", node=1)]
        s.scripted_recoveries = [murb(6_000, "ViewItem"),
                                 ScriptedRecovery(8_000, "restart_process", node=1),
                                 ScriptedRecovery(12_000, "restart_application")]
        w = World(s)
        loop = w.loop
        run_until = loop.run_until
        deepest = {"queued": 0, "parked": 0}

        def check():
            for node in w.nodes:
                held = len(node.inflight) + len(node.parked)
                assert node.workers_busy == held <= node.worker_capacity, \
                    (loop.now, node.node_id, node.workers_busy, held)
                deepest["queued"] = max(deepest["queued"], len(node.worker_queue))
                deepest["parked"] = max(deepest["parked"], len(node.parked))

        def stepped(t_end):
            while loop.now < t_end:
                run_until(min(loop.now + 50, t_end))
                check()

        loop.run_until = stepped
        w.run()
        for node in w.nodes:
            assert (node.workers_busy, len(node.inflight), len(node.parked),
                    len(node.worker_queue)) == (0, 0, 0, 0)
        assert deepest["queued"] > 0 and deepest["parked"] > 0
        assert {ERR_TTL, ERR_UNAVAILABLE, ERR_CONNECTION} <= set(w.ledger.outcomes())

    def test_fault_keeps_each_op_it_saw_while_active(self):
        s = Scenario(duration_ms=60_000, seed=1, policy=quiet_policy())
        s.faults = [FaultConfig(1_000, "transient_exception", "BrowseCategories")]
        s.scripted_recoveries = [murb(10_000, "ViewItem"), murb(20_000, "BrowseCategories"),
                                 murb(30_000, "BrowseCategories")]
        w = World(s)
        (fault,) = w.fault_plan.faults.values()
        w.loop.run_until(19_000)
        (other,) = w.recoveries
        assert other.completed_at >= 0      # another group's reboot cures nothing
        assert fault.active and fault.recoveries == [other]
        w.loop.run_until(60_000)
        _, cure, later = w.recoveries
        assert cure.completed_at >= 0 and later.completed_at >= 0
        assert not fault.active             # cured, so the later reboot is not recorded
        assert len(fault.recoveries) == 2
        assert fault.recoveries[0] is other and fault.recoveries[1] is cure


class TestMaskingAndSessions:
    def test_idempotent_request_retried_through_sentinel(self):
        # A ViewItem issued 100 ms into the 446-ms ViewItem microreboot hits
        # the sentinel and is retried. The test issues it from a client of its
        # own, logged in beforehand: whether the world's clients issue one in
        # the window is up to their streams.
        s = Scenario(duration_ms=80_000, seed=8, policy=quiet_policy())
        s.cluster = ClusterConfig(retries=True)
        s.workload = WorkloadConfig(clients_per_node=300)
        s.scripted_recoveries = [murb(40_000, "ViewItem")]
        w = World(s)
        client = Client(len(w.clients), ClientStreams(w.rng, len(w.clients) + 1),
                        w.catalog.home)
        client.stopped = True          # it issues only the test's requests
        for at, op_name in ((30_000, "Login"), (40_100, "ViewItem")):
            w.loop.schedule(at, lambda op_name=op_name: w._route_and_admit(
                w._issue(client, w.catalog.ops[op_name])))
        w.run()
        retried = [completed - issued for op_name, issued, completed, outcome
                   in request_rows(w.ledger)
                   if op_name == "ViewItem" and 40_000 <= issued < 40_446 and outcome == "ok"]
        assert retried, "no masked request found in the window"
        assert any(latency >= 2_000 for latency in retried)

    def test_non_idempotent_fails_on_sentinel(self):
        s = Scenario(duration_ms=80_000, seed=8, policy=quiet_policy())
        s.cluster = ClusterConfig(retries=True)
        s.workload = WorkloadConfig(clients_per_node=300)
        s.scripted_recoveries = [murb(40_000, "Item")]
        w = run_world(s)
        window_fails = [op_name for op_name, issued, _, outcome in request_rows(w.ledger)
                        if 40_000 <= issued < 40_825
                        and outcome == "error:component_unavailable"]
        assert any(not w.catalog.ops[op_name].idempotent for op_name in window_fails)

    def test_write_during_unrelated_murb_succeeds(self):
        s = Scenario(duration_ms=80_000, seed=8, policy=quiet_policy())
        s.workload = WorkloadConfig(clients_per_node=300)
        s.scripted_recoveries = [murb(40_000, "OldItem")]
        w = run_world(s)
        ok_sessioned = [op_name for op_name, issued, _, outcome in request_rows(w.ledger)
                        if 40_000 <= issued < 40_529 and outcome == "ok"
                        and w.catalog.ops[op_name].session_touch == "update"]
        assert ok_sessioned

    def test_external_store_prevents_all_session_loss(self):
        s = Scenario(duration_ms=120_000, seed=5)
        s.stores = StoreConfig(session_store="external")
        s.workload = WorkloadConfig(clients_per_node=200)
        s.faults = [FaultConfig(40_000, "transient_exception", "BrowseCategories")]
        s.policy = PolicyConfig(recovery_mode="restart")
        w = run_world(s)
        assert w.rm.episodes and w.rm.episodes[0].terminal_level == "restart_process"
        assert w.ledger.count_outcome(ERR_SESSION) == 0

    def test_external_store_latency_delta(self):
        means = {}
        for kind in ("in_process", "external"):
            s = Scenario(duration_ms=60_000, seed=5, policy=quiet_policy())
            s.stores = StoreConfig(session_store=kind)
            w = run_world(s)
            from murbsim.workload import latency_stats
            means[kind] = latency_stats(w.ledger)["mean"]
        delta = means["external"] - means["in_process"]
        assert 10.0 <= delta <= 18.0

    def test_wrong_binding_serves_divergent_content(self):
        s = Scenario(duration_ms=600_000, seed=3, policy=quiet_policy())
        s.faults = [FaultConfig(5_000, "corrupt_registry_entry", "ViewItem", "wrong")]
        w = World(s)
        w.loop.run_until(6_000)
        client = Client(0, ClientStreams(w.rng, 1), w.catalog.home)
        run_single_request(w, client, "Login")
        outcome, _ = run_single_request(w, client, "ViewItem")
        assert outcome == "ok"        # looks valid, but the content is wrong
        # the fast detector cannot see it; the divergence shows up on comparison
        assert w.channel.sent == 0

        w.detector.kind = "comparison"
        seen = []
        w.channel.sink = seen.append
        outcome, _ = run_single_request(w, client, "ViewItem")
        assert outcome == "ok"
        assert [(r.op.name, r.failure_class) for r in seen] == [("ViewItem", "divergence")]

    def test_leak_accounting_exact(self):
        s = Scenario(duration_ms=90_000, seed=7, policy=quiet_policy())
        s.workload = WorkloadConfig(clients_per_node=100)
        s.faults = [FaultConfig(30_000, "app_memory_leak", "ViewItem",
                                bytes_per_invoke=10_000)]
        w = run_world(s)
        free_before = w.nodes[0].heap.capacity - w.nodes[0].heap.footprint_total
        invocations = sum(
            1 for op_name, issued, _, _ in request_rows(w.ledger)
            if issued >= 30_000 and "ViewItem" in w.catalog.ops[op_name].path)
        assert free_before - w.nodes[0].heap.free == 10_000 * invocations

    def test_committed_rows_only_for_successful_requests(self):
        # Only tainted writes are stored, so a wrong-mode tx-map fault makes
        # the rows; the microreboots abort some of its requests mid-flight.
        s = Scenario(duration_ms=120_000, seed=13, policy=quiet_policy())
        s.workload = WorkloadConfig(clients_per_node=300)
        s.faults = [FaultConfig(20_000, "corrupt_tx_map", "Item", mode="wrong")]
        s.scripted_recoveries = [murb(40_000 + i * 8_000, "Item")
                                 for i in range(5)]
        w = run_world(s)
        outcome_by_id = dict(enumerate(w.ledger.outcomes(), start=1))
        assert w.tx_store.rows, "expected committed transactions"
        for row_key, record in w.tx_store.rows.items():
            request_id = int(row_key.rsplit(":", 1)[1])
            assert record.tainted
            assert outcome_by_id[request_id] == "ok"

    def test_tainted_write_flags_manual_repair(self):
        s = Scenario(duration_ms=10_000, seed=1, policy=quiet_policy())
        s.cluster = ClusterConfig(nodes=2)
        s.workload = WorkloadConfig(clients_per_node=1)
        s.faults = [FaultConfig(0, "corrupt_tx_map", "User", mode="wrong", node=1)]
        w = World(s)
        w.loop.run_until(0)                      # arms the fault
        assert not w.manual_repair_flagged(0)
        outcome, req = run_single_request(w, w.clients[0], "RegisterNewUser")   # to node 1
        assert outcome == "ok"
        assert w.tx_store.tainted_rows() == [f"RegisterNewUser:{req + 1}"]
        # node 0 has no fault of its own: the stored row alone flags it
        assert w.manual_repair_flagged(0)

    def test_same_time_faults_count_their_own_node_sessions(self):
        s = Scenario(duration_ms=60_000, seed=2, policy=quiet_policy())
        s.cluster = ClusterConfig(nodes=2)
        s.workload = WorkloadConfig(clients_per_node=100)
        # Listed first but injected later; and one never armed, after the run.
        s.faults = [FaultConfig(50_000, "bad_env", node=1, fail_probability=0.0)]
        s.faults += [FaultConfig(40_000, "transient_exception", "AboutMe", node=n,
                                 fail_probability=0.0) for n in (0, 1)]
        s.faults += [FaultConfig(70_000, "corrupt_db_row", "Item")]
        summary = export_summary(run_world(s))
        incidents = [(i["inject_ms"], i["fault_class"], i["sessions_at_inject"])
                     for i in summary["incidents"]]
        assert incidents == [(40_000, "transient_exception", 89),
                             (40_000, "transient_exception", 83),
                             (50_000, "bad_env", 83),
                             (70_000, "corrupt_db_row", -1)]
        assert (summary["tainted_rows"], summary["manual_repair_needed"]) == (0, False)
        # A scripted recovery after the run is not run by the post-run drain either.
        s = Scenario(duration_ms=60_000, seed=2, policy=quiet_policy())
        s.workload = WorkloadConfig(clients_per_node=50)
        s.scripted_recoveries = [ScriptedRecovery(70_000, "restart_process")]
        w = run_world(s)
        assert w.recoveries == [] and export_summary(w)["recovery_log"] == []

    def test_zero_fault_run_has_zero_failures(self, baseline_run):
        assert baseline_run.ledger.totals()["bad_requests"] == 0

    def test_symptom_containment(self):
        # a fault on one component never fails operations that avoid it
        s = Scenario(duration_ms=90_000, seed=21, policy=quiet_policy())
        s.workload = WorkloadConfig(clients_per_node=200)
        s.faults = [FaultConfig(20_000, "transient_exception", "ViewItem")]
        w = run_world(s)
        failed = [op_name for op_name, _, _, outcome in request_rows(w.ledger) if outcome != "ok"]
        assert failed
        for op_name in failed:
            assert "ViewItem" in w.catalog.ops[op_name].path

    def test_idle_rejuvenation_takes_no_action(self, small_world):
        svc = small_world.rejuvenators[0]
        svc.tick()
        assert not small_world.node_recovery_busy(0) and svc.completed_passes == 0

    def test_deadlocked_request_aborted_at_ttl(self):
        s = Scenario(duration_ms=120_000, seed=9, policy=quiet_policy())
        s.workload = WorkloadConfig(clients_per_node=100)
        s.faults = [FaultConfig(30_000, "deadlock", "MakeBid")]
        w = run_world(s)
        stuck = [(issued, completed) for _, issued, completed, outcome in request_rows(w.ledger)
                 if outcome == "error:ttl_expired"]
        assert stuck
        for issued, completed in stuck:
            assert completed == issued + 30_000


class TestDoubledLoadFailover:
    def test_murb_keeps_response_times_under_8s(self):
        counts = {}
        for mode in ("murb", "restart"):
            s = Scenario(duration_ms=150_000, seed=12)
            s.cluster = ClusterConfig(nodes=2, cpu_slots_per_node=1, failover=True)
            s.workload = WorkloadConfig(clients_per_node=620)
            s.policy = PolicyConfig(recovery_mode=mode)
            s.faults = [FaultConfig(60_000, "transient_exception",
                                    "BrowseCategories", node=0)]
            w = run_world(s)
            counts[mode] = export_summary(w)["latency"]["count_over_8s"]
        assert counts["murb"] < counts["restart"]
        assert counts["restart"] > 0


class TestOutputs:
    def test_zero_duration_run(self, tmp_path):
        s = Scenario(duration_ms=0, seed=1, policy=quiet_policy())
        summary = run_scenario(s, str(tmp_path))
        assert summary["totals"]["completed_requests"] == 0
        taw = (tmp_path / "taw.csv").read_text().splitlines()
        assert taw == [TAW_HEADER]
        latency = (tmp_path / "latency.csv").read_text().splitlines()
        assert latency == [LATENCY_HEADER]

    def test_headers_and_files(self, tmp_path):
        s = Scenario(duration_ms=20_000, seed=1, policy=quiet_policy())
        s.workload = WorkloadConfig(clients_per_node=20)
        run_scenario(s, str(tmp_path))
        for name in ("taw.csv", "latency.csv", "episodes.log", "timeline.csv",
                     "summary.json", "summary.txt"):
            assert (tmp_path / name).exists(), name
        assert (tmp_path / "taw.csv").read_text().splitlines()[0] == TAW_HEADER
        assert (tmp_path / "timeline.csv").read_text().splitlines()[0] == TIMELINE_HEADER

    def test_incidents_match_per_fault_scan(self):
        # Two faults injected together (the first gets an empty window), and
        # a third injected while clients still find the sessions a process
        # restart lost, some before and some after its own recovery.
        s = Scenario(duration_ms=90_000, seed=3)
        s.workload = WorkloadConfig(clients_per_node=150)
        s.faults = [FaultConfig(20_000, "transient_exception", "BrowseCategories"),
                    FaultConfig(20_000, "transient_exception", "ViewItem"),
                    FaultConfig(52_000, "transient_exception", "Item")]
        s.scripted_recoveries = [ScriptedRecovery(30_000, "restart_process")]
        w = run_world(s)
        ledger = w.ledger
        actions: dict[int, list] = {}
        for req, action in enumerate(ledger.action_of):
            actions.setdefault(action, []).append(req)
        bad = {a: rs for a, rs in actions.items() if ledger.action_status[a] == "bad"}
        lost = [completed for completed, outcome in zip(ledger.completed_at, ledger.outcomes())
                if outcome == "error:session_lost"]
        starts = [f.inject_at_ms for f in s.faults] + [1 << 62]
        expected = []
        for start, end in zip(starts, starts[1:]):
            in_window = [rs for a, rs in bad.items()
                         if start <= w.ledger.action_resolved_at[a] < end]
            first_done = min((t for t, _ in completions(w) if t >= start),
                             default=1 << 62)
            expected.append((
                sum(len(rs) for rs in in_window),
                sum(1 for rs in in_window for r in rs if start <= ledger.issued_at[r] < end),
                len(in_window),
                sum(1 for t in lost if first_done <= t < end),
                [{"time_ms": op.started_at, "node": op.node, "level": op.level.name,
                  "target": op.target, "duration_ms": op.duration_ms, "reason": op.reason}
                 for op in w.recoveries if start <= op.started_at < end]))
        got = [(i["failed_requests"], i["failed_requests_issued_in_window"],
                i["failed_actions"], i["post_recovery_session_lost"],
                i["recovery_actions"]) for i in export_summary(w)["incidents"]]
        assert got == expected
        assert got[0][0] == 0 and got[1][0] > 0 and got[2][0] > 0
        first_done = min(t for t, _ in completions(w) if t >= 52_000)
        assert got[2][3] > 0 and any(52_000 <= t < first_done for t in lost)

    def test_summary_durations_equal_cost_model(self, tmp_path):
        s = Scenario(duration_ms=40_000, seed=1, policy=quiet_policy())
        s.workload = WorkloadConfig(clients_per_node=20)
        s.scripted_recoveries = [murb(10_000, "Item"),
                                 ScriptedRecovery(20_000, "restart_process")]
        summary = run_scenario(s, str(tmp_path))
        durations = {(e["level"], e["target"]): e["duration_ms"]
                     for e in summary["recovery_log"]}
        assert durations[("murb_group", "EntityGroup")] == 825
        assert durations[("restart_process", "node0")] == 19_083

    def test_functional_groups_isolated_during_murb(self, tmp_path):
        s = Scenario(duration_ms=120_000, seed=4, policy=quiet_policy())
        s.workload = WorkloadConfig(clients_per_node=500)
        s.scripted_recoveries = [
            murb(30_000 + i * 5_000, "RegisterNewUser")
            for i in range(10)]
        w = run_world(s)
        timeline = functional_group_timeline(w)
        assert timeline.get("user_account"), "expected visible user-account gaps"
        for group in ("browse_view", "search", "bid_buy_sell"):
            for start, end in timeline.get(group, []):
                assert end < 30_000 or start > 80_000, (group, start, end)

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=50),                 # gap to the last issue
        st.integers(min_value=0, max_value=24),                 # op code
        st.one_of(st.none(), st.integers(min_value=0, max_value=300)),  # latency
        st.sampled_from(("ok", "error:exception", "error:ttl_expired"))), max_size=120))
    # a tie at one issue time, an interval nested in another, one touching
    # the next, and an in-flight request within a failure
    @example([(0, 0, 100, "error:exception"), (0, 0, 5, "error:exception"),
              (10, 1, 20, "error:exception"), (0, 2, None, "error:exception"),
              (90, 0, 30, "error:exception"), (200, 0, 0, "ok")])
    def test_timeline_equals_the_sorted_merge(self, requests):
        catalog = load_app_catalog()
        ledger = TawLedger([op.name for op in catalog.op_list])
        now = 0
        for gap, code, latency, outcome in requests:
            now += gap
            req = ledger.new_request(ledger.new_action(), code, now)
            if latency is not None:
                ledger.record_outcome(req, outcome, now + latency, False)
        world = SimpleNamespace(catalog=catalog, ledger=ledger)
        assert functional_group_timeline(world) == \
            sorted_merge_timeline(catalog, request_rows(ledger))

    def test_same_seed_byte_identical(self, tmp_path):
        s1 = Scenario(duration_ms=30_000, seed=17)
        s1.faults = [FaultConfig(10_000, "transient_exception", "ViewItem")]
        run_scenario(s1, str(tmp_path / "a"))
        s2 = Scenario(duration_ms=30_000, seed=17)
        s2.faults = [FaultConfig(10_000, "transient_exception", "ViewItem")]
        run_scenario(s2, str(tmp_path / "b"))
        for name in ("taw.csv", "latency.csv", "episodes.log", "timeline.csv",
                     "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name


class TestCli:
    def test_budget_command(self, capsys):
        assert main(["budget", "--requests-per-year", "53.3e9",
                     "--per-incident", "2280"]) == 0
        assert "23" in capsys.readouterr().out

    def test_headroom_command(self, capsys):
        assert main(["headroom", "--c-micro", "78", "--c-full", "3917",
                     "--rate", "71.8"]) == 0
        out = capsys.readouterr().out
        assert "n=49" in out and "53.5" in out

    def test_run_command(self, tmp_path, capsys):
        scenario = tmp_path / "s.txt"
        scenario.write_text("[scenario]\nduration_ms 2000\nseed 3\n"
                            "[workload]\nclients_per_node 5\n")
        out_dir = tmp_path / "out"
        assert main(["run", "--scenario", str(scenario), "--out", str(out_dir)]) == 0
        assert (out_dir / "summary.json").exists()

    def test_bad_scenario_exit_code(self, tmp_path, capsys):
        scenario = tmp_path / "bad.txt"
        for text, line in [
            ("[cluster]\nwat 1\n", 2),
            ("[fault]\nat 100\nclass transient_exception\nfail_probabilty 0.5\n", 4),
            ("[murb]\nat soon\ntarget Item\n", 2),
            # once simulated to t=3000 and then a KeyError traceback
            ("[scenario]\nduration_ms 5000\n[workload]\nclients_per_node 5\n"
             "[murb]\nat 3000\ntarget Nope\n", 5),
            # a FaultError traceback, exit 1
            (FIVE_SECONDS + "[fault]\nat 3000\nclass gremlins\n", 5),
            (FIVE_SECONDS + "[fault]\nat 3000\nclass transient_exception\n"
             "target ViewItem\nmode null\n", 5),
            # exit 0, run as an overt corruption
            (FIVE_SECONDS + "[fault]\nat 3000\nclass corrupt_tx_map\ntarget Item\n"
             "mode bogus\n", 5),
            # an IndexError traceback at the inject time
            (FIVE_SECONDS + "[fault]\nat 3000\nclass transient_exception\n"
             "target ViewItem\nnode 3\n", 5),
            # exit 0, no effect
            (FIVE_SECONDS + "[fault]\nat 3000\nclass deadlock\ntarget Nope\n", 5),
            # exit 0, logged in episodes.log as level=murb_web
            (FIVE_SECONDS + "[murb]\nat 3000\ntarget WebUI\n", 5),
            # numbers out of range: each ran to exit 0 and wrote a summary
            (FIVE_SECONDS + "[cluster]\nnodes 0\n", 6),
            ("[scenario]\nduration_ms 5000\n[workload]\nclients_per_node -5\n", 4),
            (FIVE_SECONDS + "[detector]\nt_det_ms -100\n", 6),
            (FIVE_SECONDS + "[fault]\nat 3000\nclass transient_exception\n"
             "target ViewItem\nfail_probability 7\n", 9),
            # NaN compares False both ways: ran to exit 0, never failing a request
            (FIVE_SECONDS + "[fault]\nat 3000\nclass transient_exception\n"
             "target ViewItem\nfail_probability nan\n", 9),
            # times past 2**31 - 1 ms, which the ledger's int32 columns cannot
            # hold: they would raise OverflowError mid-run
            ("[workload]\nclients_per_node 5\n[scenario]\nduration_ms 2147483648\n", 4),
            ("[scenario]\nduration_ms 1073741825\n", 2),
            (FIVE_SECONDS + "[cluster]\nos_boot_ms 33554433\n", 6),
            (FIVE_SECONDS + "[workload]\nrequest_ttl_ms 4000000000\n", 6),
        ]:
            scenario.write_text(text)
            assert main(["run", "--scenario", str(scenario),
                         "--out", str(tmp_path / "o")]) == 2
            assert f"line {line}: " in capsys.readouterr().err
            assert not (tmp_path / "o").exists()       # failed before the first event

    @pytest.mark.parametrize("key, edit, events, message", [
        # a CatalogError traceback, exit 1
        ("catalog_path", ("AboutMe kind=stateless", "AboutMe kind=bogus"), "",
         "line 9: unknown kind 'bogus'"),
        # accepted; in Table 2's 120-s world the web rung then died with
        # "error: max() arg is an empty sequence", exit 1
        ("catalog_path", ("WebUI kind=web", "WebUI kind=stateless"),
         "[fault]\nat 3000\nclass corrupt_stateless_attr\nmode wrong\ntarget MakeBid\n",
         "need exactly one kind=web component, found 0"),
        # died at t=3000 with a KeyError: None traceback
        ("catalog_path", ("WebUI kind=web", "WebUI kind=stateless"),
         "[recovery]\nat 3000\nlevel murb_web\n",
         "need exactly one kind=web component, found 0"),
        # an IndexError traceback, exit 1
        ("matrix_path", (r"^row Home .*", "row"), "",
         "line 7: expected 'row <state>' and 25 probabilities"),
        # exit 2, but blamed the row of BrowseMenu, the state the repeat displaced
        ("matrix_path", (r"^states Home BrowseMenu ", "states Home Home "), "",
         "line 6: state 'Home' listed twice"),
        # "error: could not convert string to float", exit 1, no file or line
        ("matrix_path", (r"0\.057", "zero.057"), "",
         "line 7: could not convert string to float: 'zero.057'"),
        # "error: invalid literal for int()", exit 1, no file or line
        ("ops_path", ("service_ms=2 ", "service_ms=x2 "), "",
         "line 9: service_ms must be an integer, got 'x2'"),
        # accepted, exit 0; with every op at -50, a 20-client world died
        # mid-run with "SimError: schedule at t=598 is in the past", a traceback
        ("ops_path", ("service_ms=2 ", "service_ms=-50 "), "",
         "line 9: service_ms must be >= 0, got -50"),
        # a CPU service past what an int32 ms time can follow
        ("ops_path", ("service_ms=2 ", "service_ms=33554433 "), "",
         "line 9: service_ms must be <= 33554432, got 33554433"),
        # accepted, exit 0; op_list held both Home lines and ops the second,
        # so Home served in 500 ms
        ("ops_path", (r"^(op Home .*service_ms=)2(.*)", r"\g<0>\n\g<1>500\g<2>"), "",
         "line 10: duplicate op 'Home'"),
        # accepted, exit 0; logged-out clients ran AboutMe without a session,
        # and in a 20-client world 3 of the 4 resolved actions were bad
        ("ops_path", ("session=read ", "session=reed "), "",
         "line 17: unknown session 'reed'"),
        # accepted, exit 0; the override's crash/init cost and label never applied
        ("catalog_path", ("members=Bid,Category,", "members=Bid,Categry,"), "",
         "group EntityGroup names unknown component Categry"),
        # accepted, exit 0; a scripted murb_group of Item took 460 ms under the
        # label Bid,Category,Item,Region,User, not 825 ms as EntityGroup
        ("catalog_path", ("members=Bid,Category,Item,Region,User ",
                          "members=Bid,Category,Item,Region "),
         "[recovery]\nat 1000\nlevel murb_group\ntarget Item\n",
         "group EntityGroup members Bid,Category,Item,Region are not the members "
         "of any recovery group"),
        # accepted, exit 0; the component shared the holder of the intra-process
        # leak, so its group's microreboot released a leak that needs a process restart
        ("catalog_path", (r"^component AboutMe .*", r"\g<0>\ncomponent unattributed "
                          "kind=stateless depends=- crash_ms=9 init_ms=542 footprint=4000000"),
         "", "line 10: 'unattributed' names the holder of leaks outside every component"),
        # exit 2, but with neither file nor line: "op Home path references unknown component "
        ("ops_path", (" path=WebUI ", " path= "), "",
         "line 9: empty component name in path ''"),
        # each of the next four was accepted, exit 0: the unknown key ignored,
        # the repeated key's last value taken (Home served in 99,999 ms)
        ("catalog_path", ("AboutMe kind=stateless", "AboutMe colour=red kind=stateless"), "",
         "line 9: unknown key 'colour'"),
        ("catalog_path", (r"^component AboutMe .*", r"\g<0> crash_ms=1"), "",
         "line 9: repeated key 'crash_ms'"),
        ("ops_path", ("fgroup=browse_view", "fgroup=browse_view colour=red"), "",
         "line 9: unknown key 'colour'"),
        ("ops_path", (r"^op Home .*", r"\g<0> service_ms=99999"), "",
         "line 9: repeated key 'service_ms'"),
        # accepted, exit 0; AboutMe's group then held WebUI, and a murb_group
        # of it ran and was recorded as murb_web
        ("catalog_path", ("WebUI kind=web depends=-", "WebUI kind=web depends=AboutMe"), "",
         "web component WebUI depends on AboutMe; it may depend on none"),
    ], ids=["bad_kind", "no_web_fault", "no_web_murb", "bare_row", "repeated_state",
            "probability", "service_ms", "negative_service_ms", "long_service_ms", "duplicate_op", "bad_session",
            "unknown_group_member", "group_not_a_recovery_group", "reserved_holder", "empty_path",
            "catalog_unknown_key", "catalog_repeated_key", "ops_unknown_key", "ops_repeated_key",
            "web_depends"])
    def test_bad_data_file_exit_code(self, tmp_path, capsys, key, edit, events, message):
        name = {"catalog_path": "catalog.txt", "matrix_path": "transitions.txt",
                "ops_path": "ops.txt"}[key]
        bundled = resources.files("murbsim.data").joinpath(name).read_text("utf-8")
        data = tmp_path / name
        data.write_text(re.sub(*edit, bundled, count=1, flags=re.M))
        scenario = tmp_path / "bad.txt"
        scenario.write_text(f"{FIVE_SECONDS}[scenario]\n{key} {data}\n{events}")
        assert main(["run", "--scenario", str(scenario),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"{data}: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()       # failed before the first event

    def test_data_file_trailing_comment_is_dropped(self, tmp_path):
        # the tail's words were read as tokens: "line 9: expected key=value, got '#'"
        bundled = resources.files("murbsim.data").joinpath("ops.txt").read_text("utf-8")
        data = tmp_path / "ops.txt"
        data.write_text(re.sub(r"^op Home .*", r"\g<0>  # the front page", bundled,
                               count=1, flags=re.M))
        assert load_app_catalog(ops_path=str(data)).ops["Home"] == load_app_catalog().ops["Home"]

    @pytest.mark.parametrize("op", ["Home", "Login"])
    def test_catalog_without_a_client_op_exit_code(self, tmp_path, capsys, op):
        # renamed in the ops and the matrix alike, the pair loaded, and the
        # first client tick died with a KeyError traceback, exit 1
        paths = {}
        for key, name in (("ops_path", "ops.txt"), ("matrix_path", "transitions.txt")):
            bundled = resources.files("murbsim.data").joinpath(name).read_text("utf-8")
            paths[key] = tmp_path / name
            paths[key].write_text(re.sub(rf"\b{op}\b", f"{op}Page", bundled))
        scenario = tmp_path / "bad.txt"
        scenario.write_text(FIVE_SECONDS + "[scenario]\n"
                            + "".join(f"{key} {path}\n" for key, path in paths.items()))
        assert main(["run", "--scenario", str(scenario),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"{paths['ops_path']}: no {op} op, which every client needs\n" \
            in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_too_many_ops_exit_code(self, tmp_path, capsys):
        # more ops than the ledger's op codes can name; 65,536 parse
        data = tmp_path / "ops.txt"
        data.write_text(op_lines(MAX_OPS + 1))
        scenario = tmp_path / "bad.txt"
        scenario.write_text(f"{FIVE_SECONDS}[scenario]\nops_path {data}\n")
        assert main(["run", "--scenario", str(scenario),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"{data}: {MAX_OPS + 1} ops; a catalog holds at most {MAX_OPS}\n" \
            in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("detector", "kind", "comparision"),
        ("stores", "session_store", "externl"),
        ("policy", "recovery_mode", "restrat"),
        ("rejuvenation", "mode", "restrat"),
    ])
    def test_misspelled_enum_value_exit_code(self, tmp_path, capsys, section, key, value):
        scenario = tmp_path / "bad.txt"
        scenario.write_text(f"{FIVE_SECONDS}[{section}]\n{key} {value}\n")
        assert main(["run", "--scenario", str(scenario),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"line 6: expected " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
