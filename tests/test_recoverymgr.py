import random

import pytest

from murbsim.app import load_app_catalog
from murbsim.config import FaultConfig, PolicyConfig, Scenario, WorkloadConfig
from murbsim.detect import FailureReport
from murbsim.faultlib import LEVELS
from murbsim.recoverymgr import ScoreBoard, detection_headroom, fp_headroom
from murbsim.world import World


OPS = load_app_catalog().ops      # the bundled catalog's, which small_world loads


def report(op_name, at=0, cls="keyword", node=0):
    return FailureReport(OPS[op_name], cls, at, node)


class TestIngestAndScores:
    def test_path_components_each_incremented(self, small_world):
        rm = small_world.rm
        rm.ingest_report(report("CommitBid"))
        op = small_world.catalog.ops["CommitBid"]
        board = rm.boards[0]
        for comp in op.path:
            assert board.scores[comp] == pytest.approx(1.0)

    def test_session_loss_not_scored(self, small_world):
        rm = small_world.rm
        rm.ingest_report(report("ViewItem", cls="app_check"))
        assert not rm.boards[0].scores
        assert rm.session_loss_reports == 1

    def test_unknown_op_ignored(self, small_world):
        rm = small_world.rm
        # A request the balancer could not route completes on node -1; its
        # report must not land on a board (boards[-1] is the last node's).
        rm.ingest_report(report("ViewItem", node=-1))
        assert rm.ignored_reports == 1
        assert all(not b.scores and not b.report_times for b in rm.boards)

    def test_decay_to_near_zero(self):
        board = ScoreBoard(half_life_ms=10_000, threshold=3.0)
        board.bump(["X"], now=0)
        board.decay_to(100_000)      # ten half-lives
        assert board.scores["X"] < 0.002

    def test_repeated_reports_keep_path_scores_equal(self, small_world):
        rm = small_world.rm
        for i in range(100):
            rm.ingest_report(report("ViewItem", at=i))
        op = small_world.catalog.ops["ViewItem"]
        values = {rm.boards[0].scores[c] for c in op.path}
        assert len(values) == 1

    def test_argmax_invariant_under_uniform_scaling(self):
        a = ScoreBoard(10_000, 3.0)
        b = ScoreBoard(10_000, 3.0)
        paths = [["X", "Y"], ["Y"], ["Z", "Y"]]
        for p in paths:
            a.bump(p, 0, amount=1.0)
            b.bump(p, 0, amount=7.5)
        top_a = max(a.scores, key=lambda c: (a.scores[c], c))
        top_b = max(b.scores, key=lambda c: (b.scores[c], c))
        assert top_a == top_b == "Y"


class TestDiagnose:
    def test_below_threshold_no_action(self, small_world):
        rm = small_world.rm
        rm.ingest_report(report("ViewItem"))
        assert rm.diagnose(0) is None

    def test_threshold_crossing_targets_argmax_group(self, small_world):
        rm = small_world.rm
        board = rm.boards[0]
        board.bump(["BrowseCategories"], 0, amount=3.2)
        anchor, members = rm.diagnose(0)
        assert anchor == "BrowseCategories"
        assert members == frozenset({"BrowseCategories"})

    def test_tie_prefers_smaller_group(self, small_world):
        rm = small_world.rm
        board = rm.boards[0]
        board.bump(["Item", "ViewItem"], 0, amount=5.0)   # sizes 5 vs 1
        anchor, members = rm.diagnose(0)
        assert anchor == "ViewItem"
        assert len(members) == 1

    def test_tie_breaks_lexicographically(self, small_world):
        rm = small_world.rm
        board = rm.boards[0]
        board.bump(["ViewItem", "BrowseCategories"], 0, amount=5.0)
        anchor, _ = rm.diagnose(0)
        assert anchor == "BrowseCategories"

    def test_web_component_never_group_target(self, small_world):
        rm = small_world.rm
        board = rm.boards[0]
        board.bump(["WebUI"], 0, amount=9.0)
        board.bump(["ViewItem"], 0, amount=4.0)
        anchor, _ = rm.diagnose(0)
        assert anchor == "ViewItem"


class TestLadder:
    def test_escalation_never_skips_or_repeats(self):
        s = Scenario(duration_ms=180_000, seed=2)
        s.workload = WorkloadConfig(clients_per_node=200)
        s.faults = [FaultConfig(20_000, "leak_outside_app_intra_process",
                                bytes_per_invoke=1_500_000)]
        w = World(s)
        w.run()
        episode = w.rm.episodes[0]
        assert episode.levels == [lv.name for lv in LEVELS[:len(episode.levels)]]
        assert episode.terminal_level == "restart_process"
        assert episode.cured

    def test_single_murb_for_component_fault(self):
        s = Scenario(duration_ms=120_000, seed=2)
        s.workload = WorkloadConfig(clients_per_node=200)
        s.faults = [FaultConfig(20_000, "transient_exception", "BrowseCategories")]
        w = World(s)
        w.run()
        assert [e.levels for e in w.rm.episodes] == [["murb_group"]]

    def test_recurrence_limit_hands_off_before_the_first_action(self):
        # Item and User share EntityGroup: with a limit of one recovery per
        # group and period, the second fault's episode is handed to a human
        # before it takes any action, and that fault stays active.
        s = Scenario(duration_ms=60_000, seed=1)
        s.policy = PolicyConfig(recurrence_limit=1)
        s.workload = WorkloadConfig(clients_per_node=200)
        s.faults = [FaultConfig(10_000, "corrupt_tx_map", "Item", "null"),
                    FaultConfig(50_000, "corrupt_tx_map", "User", "null")]
        w = World(s)
        w.run()
        assert [(e.anchor, e.levels, e.terminal_level, e.cured) for e in w.rm.episodes] == [
            ("Item", ["murb_group"], "murb_group", True),
            ("User", [], "escalate_human", False)]
        assert w.rm.episodes[1].started_at == 51_808
        assert [(op.level.name, op.target, op.reason) for op in w.recoveries] == [
            ("murb_group", "EntityGroup", "episode"),
            ("escalate_human", "operator", "handed_off")]
        # the hand-off is the second episode's first op, at its very start
        assert w.recoveries[1].started_at == w.rm.episodes[1].started_at
        assert [f.active for f in w.fault_plan.faults.values()] == [False, True]


class TestRejuvenationBookkeeping:
    def test_pass_resort_descending(self, small_world):
        svc = small_world.rejuvenators[0]
        svc.released_by_component["Item"] = 5_000
        svc.released_by_component["ViewItem"] = 90_000
        svc._complete_pass()
        assert svc.candidates[0] == "ViewItem"
        assert svc.candidates[1] == "Item"

    def test_candidates_exclude_web_and_cover_components(self, small_world):
        svc = small_world.rejuvenators[0]
        registry = small_world.nodes[0].registry
        assert "WebUI" not in svc.candidates
        assert set(svc.candidates) == {n for n in registry.specs
                                       if registry.specs[n].kind != "web"}
        assert len(svc.candidates) == len(set(svc.candidates))


class TestHeadroomFormulas:
    def test_reference_values(self):
        assert fp_headroom(78, 3917) == (49, pytest.approx(0.98))
        assert detection_headroom(71.8, 78, 3917) == pytest.approx(53.47, abs=0.05)

    def test_equal_costs(self):
        n, rate = fp_headroom(100, 100)
        assert (n, rate) == (0, 0.0)
        assert detection_headroom(50.0, 100, 100) == 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            fp_headroom(0, 10)
        with pytest.raises(ValueError):
            detection_headroom(0.0, 1, 2)

    def test_against_brute_force_scan(self):
        rng = random.Random(4)
        for _ in range(300):
            c_micro = rng.uniform(1, 500)
            c_full = c_micro + rng.uniform(0, 5_000)
            n, rate = fp_headroom(c_micro, c_full)
            best = 0
            k = 0
            while (k + 1) * c_micro <= c_full:
                best = k
                k += 1
            assert n == best
            assert rate == pytest.approx(best / (best + 1))
