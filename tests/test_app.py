import numpy as np
import pytest

from murbsim.app import load_app_catalog, parse_matrix, parse_ops
from murbsim.runtime import ScenarioError

from oracles import stationary_distribution, workload_mix_check

TABLE_MIX = {"read_only": 32, "session_init": 23, "static": 12,
             "search": 12, "session_update": 11, "db_update": 10}


@pytest.fixture(scope="module")
def catalog():
    return load_app_catalog()


def op_lines(n: int) -> str:
    return "".join(f"op Op{i} category=static path=WebUI commit=no idempotent=yes "
                   f"session=none tx=no service_ms=1 fgroup=search\n" for i in range(n))


class TestOpCatalog:
    def test_catalog_size_limited_to_the_ledgers_op_codes(self, monkeypatch):
        # the boundary, at a small limit; TestCli runs the real one end to end
        monkeypatch.setattr("murbsim.app.MAX_OPS", 3)
        assert len(parse_ops(op_lines(3))) == 3
        with pytest.raises(ScenarioError, match="4 ops; a catalog holds at most 3"):
            parse_ops(op_lines(4))

    def test_duplicate_op_rejected(self):
        # accepted once: op_list kept both lines and ops only the second, so
        # the second line's fields served the op
        with pytest.raises(ScenarioError, match="line 4: duplicate op 'Op0'"):
            parse_ops(op_lines(3) + op_lines(1))

    def test_op_code_is_its_index_in_the_catalog(self, catalog):
        assert [op.code for op in catalog.op_list] == list(range(len(catalog.op_list)))
        for op in catalog.ops.values():
            assert catalog.op_list[op.code] is op

    def test_exactly_25_operations(self, catalog):
        assert len(catalog.op_list) == 25

    def test_named_operations_present(self, catalog):
        for name in ("Login", "Logout", "Home", "AboutMe", "BrowseCategories",
                     "BrowseRegions", "SearchItemsByCategory", "SearchItemsByRegion",
                     "ViewItem", "ViewUserInfo", "ViewBidHistory", "BuyNow",
                     "DoBuyNow", "CommitBuyNow", "MakeBid", "CommitBid",
                     "LeaveUserFeedback", "CommitUserFeedback", "RegisterNewItem",
                     "RegisterNewUser"):
            assert name in catalog.ops

    def test_commit_bid_shape(self, catalog):
        op = catalog.ops["CommitBid"]
        assert op.path[0] == "WebUI"
        assert op.is_commit_point and not op.idempotent
        assert {"Item", "User", "Bid"} <= set(op.path)

    def test_home_is_static(self, catalog):
        op = catalog.ops["Home"]
        assert op.category == "static"
        assert op.path == ("WebUI",)
        assert op.session_touch == "none"

    def test_login_creates_session_and_uses_authenticator(self, catalog):
        op = catalog.ops["Login"]
        assert op.session_touch == "create"
        assert "Authenticate" in op.path

    def test_every_component_covered(self, catalog, registry):
        used = set().union(*(op.path for op in catalog.op_list))
        assert used == set(registry.specs)

    def test_paths_start_at_web_component(self, catalog):
        for op in catalog.op_list:
            assert op.path[0] == "WebUI"

    def test_read_only_ops_idempotent_commits_not(self, catalog):
        for op in catalog.op_list:
            if op.category in ("static", "read_only", "search"):
                assert op.idempotent, op.name
            if op.name.startswith("Commit"):
                assert op.is_commit_point and not op.idempotent


class TestMatrix:
    @pytest.mark.parametrize("text, message", [
        # accepted once, and the row was never sampled
        ("states a b\nrow a 0.5 0.5\nrow b 0.5 0.5\nrow c 1.0 0.0\n",
         "line 4: row for 'c', which is not in 'states'"),
        # accepted once, the second row silently replacing the first
        ("states a b\nrow a 0.5 0.5\nrow b 0.5 0.5\nrow a 1.0 0.0\n",
         "line 4: duplicate row 'a'"),
        # accepted once: sample() returned 'a' for both of its columns, so
        # their probabilities silently added up
        ("states a b a\nrow a 0.2 0.3 0.5\nrow b 0.2 0.3 0.5\n",
         "line 1: state 'a' listed twice"),
    ], ids=["unknown_state", "repeated_row", "repeated_state"])
    def test_bad_row_rejected(self, text, message):
        with pytest.raises(ScenarioError, match=message):
            parse_matrix(text)


class TestWorkloadMix:
    def test_shipped_matrix_hits_target_mix(self, catalog):
        mix = workload_mix_check(catalog)
        for category, expect in TABLE_MIX.items():
            assert abs(mix[category] - expect) <= 2.0, (category, mix[category])

    def test_absorbing_chain_all_static(self, catalog):
        states = catalog.matrix.states
        rows = {s: [1.0 if t == "Home" else 0.0 for t in states] for s in states}
        matrix = parse_matrix(
            "states " + " ".join(states) + "\n" +
            "\n".join("row " + s + " " + " ".join(str(p) for p in rows[s])
                      for s in states))
        pi = stationary_distribution(matrix)
        assert pi["Home"] == pytest.approx(1.0, abs=1e-9)

    def test_power_iteration_matches_eigenvector(self, catalog):
        matrix = catalog.matrix
        pi = stationary_distribution(matrix)
        P = np.array([matrix.rows[s] for s in matrix.states])
        vals, vecs = np.linalg.eig(P.T)
        k = int(np.argmin(np.abs(vals - 1.0)))
        v = np.real(vecs[:, k])
        v = v / v.sum()
        for i, s in enumerate(matrix.states):
            assert pi[s] == pytest.approx(v[i], abs=1e-9)

    def test_non_stochastic_matrix_rejected(self):
        text = "states a b\nrow a 0.5 0.4\nrow b 0.5 0.5\n"
        matrix = parse_matrix(text)
        with pytest.raises(ScenarioError):
            matrix.check_stochastic()
        # NaN compares False both ways, so it once passed as a probability
        matrix = parse_matrix("states a b\nrow a nan 0.5\nrow b 0.5 0.5\n")
        with pytest.raises(ScenarioError):
            matrix.check_stochastic()
