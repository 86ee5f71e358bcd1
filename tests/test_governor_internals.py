"""Unit tests for baseline governor internals: capacity ordering,
interactive knobs, deferrable-timer behaviour, ondemand stepping."""

import pytest

from repro.browser import Browser, Page
from repro.core.governors import (
    InteractiveGovernor,
    OndemandGovernor,
    config_capacity,
)
from repro.errors import HardwareError
from repro.hardware import CpuConfig, WorkUnit, odroid_xu_e
from repro.web import Document


def attach(platform, governor):
    page = Page(name="g", document=Document())
    return Browser(platform, page, policy=governor)


class TestCapacityOrdering:
    def test_capacity_formula(self):
        platform = odroid_xu_e()
        assert config_capacity(platform, CpuConfig("big", 1800)) == 1800
        assert config_capacity(platform, CpuConfig("little", 600)) == 300

    def test_monotone_across_clusters(self):
        platform = odroid_xu_e()
        capacities = [config_capacity(platform, c) for c in platform.all_configs()]
        assert capacities == sorted(capacities)


class TestInteractiveKnobs:
    def test_parameter_validation(self):
        platform = odroid_xu_e()
        with pytest.raises(HardwareError):
            InteractiveGovernor(platform, target_load=0)
        with pytest.raises(HardwareError):
            InteractiveGovernor(platform, go_hispeed_load=1.5)

    def test_lowest_with_capacity(self):
        platform = odroid_xu_e()
        governor = InteractiveGovernor(platform)
        assert governor._lowest_with_capacity(0) == CpuConfig("little", 350)
        assert governor._lowest_with_capacity(300) == CpuConfig("little", 600)
        assert governor._lowest_with_capacity(301) == CpuConfig("big", 800)
        assert governor._lowest_with_capacity(99_999) == CpuConfig("big", 1800)

    def test_input_boost_disabled(self):
        platform = odroid_xu_e()
        governor = InteractiveGovernor(platform, input_boost=False)
        browser = attach(platform, governor)
        platform.run_for(200_000)
        btn = browser.page.document.root
        browser.dispatch_event("click", btn)
        platform.run_for(200)
        # Input alone does not boost... but the IPC wake (idle-exit
        # observer) still can once work lands; at +200us nothing ran yet.
        assert platform.config == CpuConfig("little", 350)

    def test_deferrable_timer_skips_idle_samples(self):
        platform = odroid_xu_e()
        governor = InteractiveGovernor(platform)
        attach(platform, governor)
        platform.set_config(CpuConfig("big", 1500))
        platform.run_for(500_000)  # many timer periods, all idle
        assert governor.timer_fires >= 20
        assert platform.config == CpuConfig("big", 1500)  # parked

    def test_sustained_load_holds_high_config(self):
        platform = odroid_xu_e()
        governor = InteractiveGovernor(platform)
        browser = attach(platform, governor)
        context = platform.create_context("load")
        # Saturate: 0.5 s of continuous work.
        context.submit(WorkUnit(cycles=2_000_000_000))
        platform.run_for(400_000)
        assert platform.config == CpuConfig("big", 1800)


class TestOndemandStepping:
    def test_parameter_validation(self):
        platform = odroid_xu_e()
        with pytest.raises(HardwareError):
            OndemandGovernor(platform, up_threshold=0.2, down_threshold=0.5)

    def test_steps_down_one_level_when_idle(self):
        platform = odroid_xu_e()
        governor = OndemandGovernor(platform)
        attach(platform, governor)
        platform.set_config(CpuConfig("little", 500))
        platform.run_for(100)
        start_index = platform.config_table.ladder.index(platform.config)
        platform.run_for(21_000)  # one timer period of idleness
        assert platform.config_table.ladder.index(platform.config) == start_index - 1

    def test_jumps_to_max_under_load(self):
        platform = odroid_xu_e()
        governor = OndemandGovernor(platform)
        attach(platform, governor)
        context = platform.create_context("load")
        context.submit(WorkUnit(cycles=1_000_000_000))
        platform.run_for(50_000)
        assert platform.config == CpuConfig("big", 1800)

    def test_floor_reached_and_held(self):
        platform = odroid_xu_e()
        governor = OndemandGovernor(platform)
        attach(platform, governor)
        platform.run_for(2_000_000)  # long idle: step down to the floor
        assert platform.config == CpuConfig("little", 350)
