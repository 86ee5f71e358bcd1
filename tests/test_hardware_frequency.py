"""Tests for OPP tables and the paper's frequency ranges."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import FrequencyError
from repro.hardware import OperatingPoint, OppTable, cortex_a15_opps, cortex_a7_opps


class TestOperatingPoint:
    def test_ordering_by_frequency(self):
        slow = OperatingPoint(800, 1.0)
        fast = OperatingPoint(1800, 0.9)
        assert slow < fast

    def test_rejects_nonpositive(self):
        with pytest.raises(FrequencyError):
            OperatingPoint(0, 1.0)
        with pytest.raises(FrequencyError):
            OperatingPoint(100, -0.1)

    def test_str(self):
        assert str(OperatingPoint(800, 0.9)) == "800MHz@0.900V"


class TestOppTable:
    def make(self):
        return OppTable(
            [OperatingPoint(400, 0.9), OperatingPoint(200, 0.8), OperatingPoint(600, 1.0)]
        )

    def test_sorted_on_construction(self):
        assert self.make().frequencies == (200, 400, 600)

    def test_empty_rejected(self):
        with pytest.raises(FrequencyError):
            OppTable([])

    def test_duplicates_rejected(self):
        with pytest.raises(FrequencyError):
            OppTable([OperatingPoint(200, 0.8), OperatingPoint(200, 0.9)])

    def test_min_max(self):
        table = self.make()
        assert table.min.freq_mhz == 200
        assert table.max.freq_mhz == 600

    def test_exact_lookup(self):
        assert self.make().at(400).voltage_v == 0.9

    def test_missing_lookup_raises(self):
        with pytest.raises(FrequencyError):
            self.make().at(500)

    def test_contains(self):
        table = self.make()
        assert 400 in table
        assert 500 not in table


class TestPaperTables:
    """The paper's Sec. 7.1 hardware description."""

    def test_a15_range_and_granularity(self):
        table = cortex_a15_opps()
        assert table.min.freq_mhz == 800
        assert table.max.freq_mhz == 1800
        steps = {b - a for a, b in zip(table.frequencies, table.frequencies[1:])}
        assert steps == {100}
        assert len(table) == 11

    def test_a7_range_and_granularity(self):
        table = cortex_a7_opps()
        assert table.min.freq_mhz == 350
        assert table.max.freq_mhz == 600
        steps = {b - a for a, b in zip(table.frequencies, table.frequencies[1:])}
        assert steps == {50}
        assert len(table) == 6

    def test_voltage_monotonic_in_frequency(self):
        for table in (cortex_a15_opps(), cortex_a7_opps()):
            voltages = [p.voltage_v for p in table]
            assert voltages == sorted(voltages)

    @given(st.sampled_from(list(range(800, 1801, 100))))
    def test_property_every_a15_step_is_an_opp(self, freq):
        assert freq in cortex_a15_opps()
