from murbsim.app import load_app_catalog
from murbsim.config import DetectorConfig
from murbsim.detect import FailureReport, ReportChannel, classify_response
from murbsim.simcore import EventLoop, RngRoot

VIEW_ITEM = load_app_catalog().ops["ViewItem"]


class TestFastDetector:
    def setup_method(self):
        self.detector = DetectorConfig(kind="fast")
        self.rng = RngRoot(1).fork()

    def classify(self, outcome="ok", divergent=False):
        return classify_response(self.detector, outcome, divergent, self.rng)

    def test_exception_flagged_as_keyword(self):
        assert self.classify("error:exception") == "keyword"

    def test_connection_and_http_classes(self):
        assert self.classify("error:connection") == "connection"
        assert self.classify("error:component_unavailable") == "http_error"

    def test_session_loss_is_app_check(self):
        assert self.classify("error:session_lost") == "app_check"

    def test_clean_ok_not_flagged(self):
        assert self.classify() is None

    def test_wrong_value_missed_by_fast_detector(self):
        assert self.classify(divergent=True) is None

    def test_fast_flags_iff_overt_error(self):
        # zero-noise invariant over every outcome class
        for outcome, flagged in [("ok", False), ("error:connection", True),
                                 ("error:component_unavailable", True),
                                 ("error:exception", True), ("error:ttl_expired", True),
                                 ("error:session_lost", True)]:
            assert (self.classify(outcome) is not None) == flagged


class TestComparisonDetector:
    def setup_method(self):
        self.detector = DetectorConfig(kind="comparison")
        self.rng = RngRoot(1).fork()

    def classify(self, outcome="ok", divergent=False):
        return classify_response(self.detector, outcome, divergent, self.rng)

    def test_wrong_value_caught(self):
        assert self.classify(divergent=True) == "divergence"

    def test_clean_ok_not_flagged(self):
        assert self.classify() is None

    def test_errors_keep_their_class(self):
        # an error page is an error even when the content also diverged
        assert self.classify("error:exception", divergent=True) == "keyword"
        assert self.classify("error:connection") == "connection"


class TestNoise:
    def test_false_positives_at_rate_one(self):
        detector = DetectorConfig(fp_rate=1.0)
        assert classify_response(detector, "ok", False, RngRoot(1).fork()) == "keyword"

    def test_false_negatives_at_rate_one(self):
        detector = DetectorConfig(fn_rate=1.0)
        assert classify_response(detector, "error:exception", False, RngRoot(1).fork()) is None

    def test_one_draw_per_response(self):
        # every classification draws once when noise is on, whatever the verdict
        detector = DetectorConfig(kind="comparison", fp_rate=0.5, fn_rate=0.5)
        rng, replay = RngRoot(5).fork(), RngRoot(5).fork()
        cases = [("ok", False), ("ok", True), ("error:exception", False)] * 20
        for outcome, divergent in cases:
            got = classify_response(detector, outcome, divergent, rng)
            draw = replay.random()
            if outcome == "ok" and not divergent:
                assert got == ("keyword" if draw < 0.5 else None)
            else:
                assert (got is None) == (draw < 0.5)


class TestReportChannel:
    def test_zero_delay_same_tick(self):
        loop = EventLoop()
        seen = []
        ch = ReportChannel(loop, RngRoot(1).fork(), delay_ms=0, drop_rate=0.0,
                           sink=seen.append)
        ch.report(FailureReport(VIEW_ITEM, "keyword", observed_at=0, node_id=0))
        loop.run_until(0)
        assert len(seen) == 1

    def test_delivery_time_is_exact(self):
        loop = EventLoop()
        seen = []
        ch = ReportChannel(loop, RngRoot(1).fork(), delay_ms=40, drop_rate=0.0,
                           sink=lambda r: seen.append(loop.now))
        ch.report(FailureReport(VIEW_ITEM, "keyword", observed_at=100, node_id=0),
                  t_det_ms=7)
        loop.run_until(1_000)
        assert seen == [147]      # observed + t_det + channel delay

    def test_drop_rate_one_never_delivers(self):
        loop = EventLoop()
        seen = []
        ch = ReportChannel(loop, RngRoot(1).fork(), delay_ms=0, drop_rate=1.0,
                           sink=seen.append)
        for _ in range(20):
            ch.report(FailureReport(VIEW_ITEM, "keyword", 0, 0))
        loop.run_until(10)
        assert seen == []

    def test_drop_rate_matches_seeded_binomial(self):
        loop = EventLoop()
        delivered = []
        rng = RngRoot(77).fork("channel")
        ch = ReportChannel(loop, rng, delay_ms=0, drop_rate=0.1,
                           sink=delivered.append)
        for _ in range(1_000):
            ch.report(FailureReport(VIEW_ITEM, "keyword", 0, 0))
        loop.run_until(10)
        # oracle: replay the identical stream and count survivors independently
        replay = RngRoot(77).fork("channel")
        expected = sum(1 for _ in range(1_000) if not replay.random() < 0.1)
        assert len(delivered) == expected
        assert 850 <= len(delivered) <= 950
