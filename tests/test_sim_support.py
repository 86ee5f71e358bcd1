"""Tests for clock conversions, tracing, and RNG streams."""

import pytest
from hypothesis import given, strategies as st

from repro.hardware.dvfs import CpuConfig

from repro.sim import (
    MILLISECOND,
    SECOND,
    RngStreams,
    TraceLog,
    ms_to_us,
    s_to_us,
    us_to_ms,
    us_to_s,
)


class TestClock:
    def test_constants(self):
        assert MILLISECOND == 1_000
        assert SECOND == 1_000_000

    def test_ms_round_trip(self):
        assert us_to_ms(ms_to_us(16.6)) == pytest.approx(16.6)

    def test_s_round_trip(self):
        assert us_to_s(s_to_us(1.5)) == pytest.approx(1.5)

    def test_rounding_never_shortens(self):
        assert ms_to_us(0.0004) == 1
        assert s_to_us(1e-9) == 1

    def test_zero(self):
        assert ms_to_us(0) == 0
        assert s_to_us(0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ms_to_us(-1)
        with pytest.raises(ValueError):
            s_to_us(-0.5)

    @given(st.floats(min_value=0.001, max_value=1e6, allow_nan=False))
    def test_property_ms_conversion_within_one_tick(self, ms):
        ticks = ms_to_us(ms)
        assert ticks >= ms * 1000
        assert ticks - ms * 1000 <= 1.0001


class TestTraceLog:
    def test_emit_and_filter(self):
        log = TraceLog()
        log.emit(10, "dvfs", "freq_switch", to="big@1800MHz")
        log.emit(20, "frame", "displayed", uid=1)
        log.emit(30, "dvfs", "migrate")
        assert log.count(category="dvfs") == 2
        assert log.count(category="dvfs", name="migrate") == 1
        assert log.filter(category="frame")[0]["uid"] == 1

    def test_time_window_filter(self):
        log = TraceLog()
        for t in (10, 20, 30, 40):
            log.emit(t, "x", "y")
        assert len(log.filter(since_us=20, until_us=30)) == 2

    def test_hooks_record_in_emission_order(self):
        log = TraceLog()
        log.config_applied(5, CpuConfig("big", 800))
        log.emit(6, "dvfs", "freq_switch", to="big@1800MHz")
        log.observed(7, "#b@click", "stable", 12_000, 16_600, False)
        assert [(r.time_us, r.category, r.name) for r in log] == [
            (5, "config", "applied"), (6, "dvfs", "freq_switch"), (7, "greenweb", "observe")
        ]
        assert log.records[2].data == {
            "key": "#b@click", "phase": "stable", "observed_us": 12_000,
            "target_us": 16_600, "violated": False,
        }

    def test_clear(self):
        log = TraceLog()
        log.emit(1, "a", "b")
        log.clear()
        assert len(log) == 0

    def test_record_getitem(self):
        log = TraceLog()
        log.emit(1, "a", "b", answer=42)
        assert log.records[0]["answer"] == 42


class TestRngStreams:
    def test_same_seed_same_sequence(self):
        a = RngStreams(seed=7).stream("work")
        b = RngStreams(seed=7).stream("work")
        assert list(a.integers(0, 1000, 10)) == list(b.integers(0, 1000, 10))

    def test_different_names_are_independent(self):
        streams = RngStreams(seed=7)
        a = list(streams.stream("alpha").integers(0, 10**9, 8))
        b = list(streams.stream("beta").integers(0, 10**9, 8))
        assert a != b

    def test_different_seeds_differ(self):
        a = RngStreams(seed=1).stream("x")
        b = RngStreams(seed=2).stream("x")
        assert list(a.integers(0, 10**9, 8)) != list(b.integers(0, 10**9, 8))

    def test_stream_is_cached(self):
        streams = RngStreams(seed=3)
        assert streams.stream("s") is streams.stream("s")

    def test_fork_is_deterministic(self):
        a = RngStreams(seed=11).fork("app").stream("w")
        b = RngStreams(seed=11).fork("app").stream("w")
        assert list(a.integers(0, 100, 5)) == list(b.integers(0, 100, 5))

    def test_adding_consumer_does_not_perturb_existing(self):
        first = RngStreams(seed=5)
        baseline = list(first.stream("stable").integers(0, 10**9, 8))
        second = RngStreams(seed=5)
        second.stream("newcomer").integers(0, 10**9, 8)  # extra consumer
        assert list(second.stream("stable").integers(0, 10**9, 8)) == baseline
