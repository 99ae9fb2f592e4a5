import random

import pytest
from hypothesis import given, settings, strategies as st

from murbsim.config import (ClusterConfig, FaultConfig, RejuvenationConfig, Scenario,
                            StoreConfig, WorkloadConfig)
from murbsim.runtime import (UNATTRIBUTED, ComponentSpec, GroupOverride, HeapLedger,
                             Registry, ScenarioError, load_catalog, parse_catalog)
from murbsim.world import World

from oracles import BindingModel

ENTITY_GROUP = {"Category", "Region", "User", "Item", "Bid"}


def spec(name, deps=(), kind="stateless", crash=10, init=400, footprint=1000):
    return ComponentSpec(name, kind, frozenset(deps), crash, init, footprint)


class TestDeploy:
    def test_demo_catalog_entity_group(self, registry):
        group = registry.recovery_group("Item")
        assert set(group.members) == ENTITY_GROUP
        # every member anchors the same group
        for member in ENTITY_GROUP:
            assert set(registry.recovery_group(member).members) == ENTITY_GROUP

    def test_demo_catalog_size(self, registry):
        kinds = [s.kind for s in registry.specs.values()]
        assert kinds.count("web") == 1
        assert kinds.count("entity") == 9
        assert len(registry.specs) == 27

    def test_empty_specs(self):
        reg = Registry([], [])
        assert reg.specs == {}

    def test_dangling_dependency_named(self):
        with pytest.raises(ScenarioError, match="Ghost"):
            Registry([spec("A", deps=["Ghost"])], [])

    def test_group_override_with_unknown_member_named(self):
        # An override whose members match no recovery group never applies.
        override = GroupOverride("AB", frozenset({"A", "Bee"}), 1, 1)
        with pytest.raises(ScenarioError, match="group AB names unknown component Bee"):
            Registry([spec("A"), spec("B", deps=["A"])], [override])

    def test_group_override_that_is_no_recovery_group_named(self):
        # B depends on A, so A's recovery group is {A, B}; {A} alone is none.
        override = GroupOverride("A1", frozenset({"A"}), 1, 1)
        with pytest.raises(ScenarioError, match="group A1 members A are not the members "
                                              "of any recovery group"):
            Registry([spec("A"), spec("B", deps=["A"])], [override])
        override = GroupOverride("AB", frozenset({"A", "B"}), 1, 1)
        assert Registry([spec("A"), spec("B", deps=["A"])], [override]).group_cost(
            frozenset({"A", "B"})) == (1, 1)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ScenarioError, match="A"):
            Registry([spec("A"), spec("A")], [])

    def test_all_active_and_bound_after_deploy(self, registry):
        assert not registry.impaired
        for name in registry.specs:
            assert registry.lookup(name).state == "bound"


class TestRecoveryGroups:
    def test_component_without_dependents_is_singleton(self, registry):
        assert set(registry.recovery_group("BrowseCategories").members) == \
            {"BrowseCategories"}

    def test_unknown_anchor(self, registry):
        with pytest.raises(ScenarioError):
            registry.recovery_group("Nope")

    def test_random_digraphs_match_reverse_reachability(self):
        rng = random.Random(20240501)
        for _ in range(200):
            n = rng.randrange(1, 13)
            names = [f"c{i}" for i in range(n)]
            edges = {name: set() for name in names}
            for a in range(n):
                for b in range(n):
                    if a != b and rng.random() < 0.25:
                        edges[names[a]].add(names[b])   # a depends on b
            reg = Registry([spec(x, deps=edges[x]) for x in names], [])
            for anchor in names:
                # oracle: BFS over reversed depends_on edges
                want = {anchor}
                frontier = [anchor]
                while frontier:
                    cur = frontier.pop()
                    for cand in names:
                        if cur in edges[cand] and cand not in want:
                            want.add(cand)
                            frontier.append(cand)
                assert set(reg.recovery_group(anchor).members) == want


class TestCosts:
    def test_entity_group_override(self, registry):
        members = registry.recovery_group("Item").members
        assert registry.group_cost(members) == (36, 789)

    def test_singleton_costs_from_catalog(self, registry):
        members = registry.recovery_group("BrowseCategories").members
        assert registry.group_cost(members) == (11, 400)

    def test_max_rule_without_override(self):
        specs = [spec("A", crash=5, init=100), spec("B", deps=["A"], crash=9, init=80)]
        crash, init = Registry(specs, []).group_cost(frozenset({"A", "B"}))
        assert (crash, init) == (9, 100)


class TestLookup:
    def test_null_corruption_unbinds(self, registry):
        registry.corrupt_binding("BrowseCategories", "null")
        assert registry.lookup("BrowseCategories").state == "not_bound"

    def test_wrong_corruption_points_elsewhere(self, registry):
        registry.corrupt_binding("ViewItem", "wrong")
        look = registry.lookup("ViewItem")
        assert look.state == "wrong"
        assert look.arg in registry.specs and look.arg != "ViewItem"

    def test_invalid_corruption_has_no_usable_target(self, registry):
        registry.corrupt_binding("ViewItem", "invalid")
        look = registry.lookup("ViewItem")
        assert look.state == "wrong" and look.arg is None

    def test_rebind_restores_binding(self, registry):
        registry.corrupt_binding("ViewItem", "null")
        registry.rebind(frozenset({"ViewItem"}))
        assert registry.lookup("ViewItem").state == "bound"

    def test_unknown_name_not_bound(self, registry):
        assert registry.lookup("Nope").state == "not_bound"


_DEMO_SPECS, _DEMO_OVERRIDES = load_catalog()
_DEMO_NAMES = sorted(s.name for s in _DEMO_SPECS)
_names = st.sampled_from(_DEMO_NAMES)
_binding_ops = st.one_of(
    st.tuples(st.just("bind_sentinel"), st.frozensets(_names, min_size=1)),
    st.tuples(st.just("rebind"), st.frozensets(_names, min_size=1)),
    st.tuples(st.just("stop_all")),
    st.tuples(st.just("redeploy_all")),
    st.tuples(st.just("corrupt_binding"), _names, st.sampled_from(["null", "invalid", "wrong"])),
)


@settings(deadline=None, max_examples=200)
@given(st.lists(_binding_ops, max_size=30))
def test_impaired_set_tracks_lookups(ops):
    """After any sequence of binding changes, every component's lookup (state
    and WRONG target) and the impaired set match the per-component model."""
    reg = Registry(_DEMO_SPECS, _DEMO_OVERRIDES)
    model = BindingModel(_DEMO_SPECS)
    for name, *args in ops:
        getattr(reg, name)(*args)
        getattr(model, name)(*args)
        for comp in _DEMO_NAMES + ["Nope"]:
            look = reg.lookup(comp)
            assert (look.state, look.arg if look.state == "wrong" else None) == \
                model.lookup(comp), (comp, name, args)
        assert set(reg.impaired) == model.impaired()


class TestCatalogParsing:
    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ScenarioError, match="line 2"):
            parse_catalog("# fine\ncomponent X kind=bogus depends=- crash_ms=1 init_ms=1 footprint=1\n")

    def test_missing_field(self):
        with pytest.raises(ScenarioError, match="line 1"):
            parse_catalog("component X kind=web depends=-\n")

    def test_bundled_catalog_loads(self):
        specs, overrides = load_catalog()
        assert len(overrides) == 1
        assert overrides[0].members == frozenset(ENTITY_GROUP)


class TestHeapLedger:
    def test_reap_releases_expired_at_boundary(self, registry):
        heap = HeapLedger(10_000_000, registry)
        heap.charge("ViewItem", 500, resource_id="r1", expires_at=500)
        assert heap.reap(499) == []
        released = heap.reap(500)
        assert [r.resource_id for r in released] == ["r1"]

    def test_unattributed_survives_component_release(self, registry):
        heap = HeapLedger(10_000_000, registry)
        heap.charge("unattributed", 900, resource_id="leak:1")
        heap.release_holder(frozenset(registry.specs))
        assert heap.capacity - heap.free - heap.footprint_total == 900
        assert heap.release_unattributed() == 900
        assert heap.free == heap.capacity - heap.footprint_total

    def test_attributed_to_matches_footprint_after_release(self, registry):
        heap = HeapLedger(10_000_000_000, registry)
        members = registry.recovery_group("Item").members
        heap.charge("Item", 12_345, resource_id="leak")
        baseline = sum(registry.specs[m].mem_footprint_bytes for m in members)
        assert heap.attributed_to(members) == baseline + 12_345
        heap.release_holder(members)
        assert heap.attributed_to(members) == baseline


_holders = st.sampled_from(["Item", "ViewItem", "WebUI", UNATTRIBUTED])
_heap_ops = st.one_of(
    st.tuples(st.just("charge"), _holders, st.integers(0, 10_000),
              st.sampled_from(["r1", "r2", "r3", "leak:1"]), st.none() | st.integers(0, 100)),
    st.tuples(st.just("release_holder"), st.frozensets(_holders)),
    st.tuples(st.just("release_all_app")),
    st.tuples(st.just("release_unattributed")),
    st.tuples(st.just("reap"), st.integers(0, 100)),
)


def assert_charged_sums_leases(heap):
    assert heap.leased == sum(r.bytes for r in heap.leases.values())
    assert heap.charged == heap.footprint_total + heap.leased
    assert heap.free == heap.capacity - heap.charged


@settings(deadline=None, max_examples=200)
@given(st.lists(_heap_ops, max_size=30))
def test_charged_is_footprint_plus_lease_bytes(ops):
    """The running lease total matches the leases after any sequence of
    charges, releases and reaps."""
    heap = HeapLedger(10_000_000, Registry(_DEMO_SPECS, _DEMO_OVERRIDES))
    for name, *args in ops:
        if name == "charge":
            holder, nbytes, rid, expires_at = args
            heap.charge(holder, nbytes, resource_id=rid, expires_at=expires_at)
        else:
            getattr(heap, name)(*args)
        assert_charged_sums_leases(heap)


def test_charged_after_leaks_and_rejuvenation():
    # three leaks fill the 57 MB left above the footprints twice in 90 s:
    # rolling rejuvenation releases component leases while the leaks go on
    s = Scenario(duration_ms=90_000, seed=3)
    s.cluster = ClusterConfig(heap_bytes_per_node=200_000_000)
    s.workload = WorkloadConfig(clients_per_node=300)
    s.stores = StoreConfig(session_store="external")
    s.rejuvenation = RejuvenationConfig(enabled=True, alarm_bytes=20_000_000,
                                        sufficient_bytes=40_000_000)
    s.faults = [FaultConfig(0, "app_memory_leak", "Item", bytes_per_invoke=20_000),
                FaultConfig(0, "app_memory_leak", "ViewItem", bytes_per_invoke=250_000),
                FaultConfig(0, "leak_outside_app_intra_process", bytes_per_invoke=1_000)]
    w = World(s)
    w.run()
    heap = w.nodes[0].heap
    assert w.rejuvenators[0].completed_passes == 2 and len(heap.leases) == 3
    assert_charged_sums_leases(heap)
