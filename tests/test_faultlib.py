import pytest

from murbsim.faultlib import (CURE_COMPONENT, CURE_MANUAL, CURE_PROCESS,
                              CURE_SELF, CURE_WEB, RECOVERY_LEVELS, Fault,
                              FaultError, FaultPlan, RecoveryOp, cure_profile,
                              is_cured)


def new_fault(cls, mode="", target="X", fault_id=1, node=0):
    return Fault(fault_id=fault_id, fault_class=cls, target=target,
                 mode=mode, node=node, inject_at=0)


def op(level, components=frozenset(), node=0):
    """A completed recovery action of `level` covering `components`."""
    return RecoveryOp(RECOVERY_LEVELS[level], node, components, "", 0, 0, "direct")


class TestCureProfiles:
    @pytest.mark.parametrize("cls", ["deadlock", "infinite_loop", "transient_exception"])
    def test_component_scoped_faults(self, cls):
        assert cure_profile(cls).min_cure_level == CURE_COMPONENT

    def test_leak_levels(self):
        assert cure_profile("app_memory_leak").min_cure_level == CURE_COMPONENT
        assert cure_profile("leak_outside_app_intra_process").min_cure_level == CURE_PROCESS
        assert cure_profile("leak_outside_process").min_cure_level == "node"

    def test_stateless_attr_modes(self):
        assert cure_profile("corrupt_stateless_attr", "null").min_cure_level == CURE_SELF
        assert cure_profile("corrupt_stateless_attr", "invalid").min_cure_level == CURE_SELF
        wrong = cure_profile("corrupt_stateless_attr", "wrong")
        assert wrong.min_cure_level == "component_and_web"
        assert wrong.requires_manual_data_repair

    def test_session_store_rows(self):
        assert cure_profile("corrupt_inproc_session", "null").min_cure_level == CURE_WEB
        assert cure_profile("corrupt_external_session").min_cure_level == CURE_SELF
        assert cure_profile("corrupt_db_row").min_cure_level == CURE_MANUAL

    def test_wrong_modes_flag_manual_repair(self):
        for cls in ("corrupt_primary_key", "corrupt_tx_map"):
            assert cure_profile(cls, "wrong").requires_manual_data_repair
            assert not cure_profile(cls, "null").requires_manual_data_repair

    def test_unknown_class(self):
        with pytest.raises(FaultError):
            cure_profile("gremlins")


class TestModeValidation:
    def test_corruption_class_requires_mode(self):
        with pytest.raises(FaultError):
            new_fault("corrupt_primary_key")

    def test_behavior_class_takes_no_mode(self):
        with pytest.raises(FaultError):
            new_fault("deadlock", mode="null")

    def test_store_corruptions_mode_optional(self):
        new_fault("corrupt_external_session")
        new_fault("corrupt_db_row")


class TestIsCured:
    def test_transient_cured_by_its_group(self):
        fault = new_fault("transient_exception", target="BrowseCategories")
        hit = op("murb_group", frozenset({"BrowseCategories"}))
        miss = op("murb_group", frozenset({"ViewItem"}))
        assert is_cured(fault, hit)
        assert not is_cured(fault, miss)

    def test_intra_process_leak_needs_process_restart(self):
        fault = new_fault("leak_outside_app_intra_process", target="")
        assert not is_cured(fault, op("murb_group", frozenset({"ViewItem"})))
        assert not is_cured(fault, op("restart_application"))
        assert is_cured(fault, op("restart_process"))

    def test_self_clearing(self):
        fault = new_fault("corrupt_stateless_attr", mode="null", target="MakeBid")
        assert is_cured(fault, op("murb_group", frozenset({"ViewItem"})))

    def test_manual_never_cured_by_reboot(self):
        fault = new_fault("corrupt_db_row", target="Item")
        for level in ("murb_group", "murb_web", "restart_application",
                      "restart_process", "reboot_node"):
            assert not is_cured(fault, op(level, frozenset({"Item"})))

    def test_war_level_needs_web_reboot(self):
        fault = new_fault("corrupt_inproc_session", mode="null", target="")
        assert not is_cured(fault, op("murb_group", frozenset({"Item"})))
        assert is_cured(fault, op("murb_web", frozenset({"WebUI"})))
        assert is_cured(fault, op("restart_process"))

    def test_combined_bean_and_web_cure(self):
        fault = new_fault("corrupt_stateless_attr", mode="wrong", target="MakeBid")
        bean = op("murb_group", frozenset({"MakeBid"}))
        web = op("murb_web", frozenset({"WebUI"}))
        combined = op("murb_web", frozenset({"MakeBid", "WebUI"}))
        assert not is_cured(fault, bean)
        assert not is_cured(fault, web)
        assert is_cured(fault, web, prior=(bean,))   # sequential escalation
        assert is_cured(fault, combined)             # one combined reboot
        assert is_cured(fault, op("restart_application"))


class TestFaultPlan:
    def test_clear_then_double_clear(self):
        plan = FaultPlan()
        fault = plan.register(new_fault("transient_exception", target="X"))
        fault.armed = True
        plan.clear(1)
        with pytest.raises(FaultError):
            plan.clear(1)

    def test_apply_recovery_keeps_leaks_active(self):
        plan = FaultPlan()
        leak = plan.register(new_fault("app_memory_leak", target="ViewItem", fault_id=1))
        exc = plan.register(new_fault("transient_exception", target="ViewItem", fault_id=2))
        leak.armed = leak.active = True
        exc.armed = exc.active = True
        cured = plan.apply_recovery(op("murb_group", frozenset({"ViewItem"})))
        assert {c.fault_id for c in cured} == {1, 2}
        assert leak.active          # leaky code keeps leaking on new instances
        assert not exc.active
