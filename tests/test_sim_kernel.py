"""Tests for the discrete-event kernel."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SchedulingError
from repro.sim import Kernel


class TestScheduling:
    def test_starts_at_zero(self):
        assert Kernel().now_us == 0

    def test_custom_start_time(self):
        assert Kernel(start_time_us=500).now_us == 500

    def test_negative_start_rejected(self):
        with pytest.raises(SchedulingError):
            Kernel(start_time_us=-1)

    def test_schedule_in_past_rejected(self):
        kernel = Kernel(start_time_us=100)
        with pytest.raises(SchedulingError):
            kernel.schedule_at(50, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SchedulingError):
            Kernel().schedule_in(-1, lambda: None)

    def test_event_fires_at_scheduled_time(self):
        kernel = Kernel()
        fired_at = []
        kernel.schedule_at(42, lambda: fired_at.append(kernel.now_us))
        kernel.run_until(100)
        assert fired_at == [42]
        assert kernel.now_us == 100

    def test_zero_delay_event_fires(self):
        kernel = Kernel()
        fired = []
        kernel.schedule_in(0, lambda: fired.append(kernel.now_us))
        kernel.run_until(0)
        assert fired == [0]
        assert kernel.events_fired == 1


class TestOrdering:
    def test_same_timestamp_fires_in_insertion_order(self):
        kernel = Kernel()
        order = []
        kernel.schedule_at(10, lambda: order.append("a"))
        kernel.schedule_at(10, lambda: order.append("b"))
        kernel.schedule_at(10, lambda: order.append("c"))
        kernel.run_until(10)
        assert order == ["a", "b", "c"]

    def test_events_fire_in_time_order_regardless_of_insertion(self):
        kernel = Kernel()
        order = []
        kernel.schedule_at(30, lambda: order.append(30))
        kernel.schedule_at(10, lambda: order.append(10))
        kernel.schedule_at(20, lambda: order.append(20))
        kernel.run_until(30)
        assert order == [10, 20, 30]

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=50))
    def test_property_fire_times_are_sorted(self, times):
        kernel = Kernel()
        seen = []
        for t in times:
            kernel.schedule_at(t, (lambda tt: lambda: seen.append(tt))(t))
        kernel.run_until(10_000)
        assert seen == sorted(times)

    def test_actions_scheduling_actions_within_window(self):
        kernel = Kernel()
        hits = []

        def first():
            hits.append(kernel.now_us)
            kernel.schedule_in(5, lambda: hits.append(kernel.now_us))

        kernel.schedule_at(10, first)
        kernel.run_until(100)
        assert hits == [10, 15]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        kernel = Kernel()
        fired = []
        handle = kernel.schedule_at(10, lambda: fired.append(True))
        handle.cancel()
        kernel.run_until(20)
        assert fired == []
        assert handle.cancelled
        assert not handle.fired

    def test_pending_transitions(self):
        kernel = Kernel()
        handle = kernel.schedule_at(10, lambda: None)
        assert handle.pending
        kernel.run_until(10)
        assert handle.fired
        assert not handle.pending

    def test_cancel_from_another_action(self):
        kernel = Kernel()
        fired = []
        victim = kernel.schedule_at(20, lambda: fired.append("victim"))
        kernel.schedule_at(10, victim.cancel)
        kernel.run_until(30)
        assert fired == []


class TestRunControl:
    def test_run_until_rejects_past_deadline(self):
        kernel = Kernel(start_time_us=100)
        with pytest.raises(SchedulingError):
            kernel.run_until(50)

    def test_run_for_advances_clock(self):
        kernel = Kernel()
        kernel.run_for(1234)
        assert kernel.now_us == 1234

    def test_not_reentrant(self):
        kernel = Kernel()
        errors = []

        def bad():
            try:
                kernel.run_until(kernel.now_us + 10)
            except SchedulingError as exc:
                errors.append(exc)

        kernel.schedule_at(5, bad)
        kernel.run_until(10)
        assert len(errors) == 1

    def test_step_not_reentrant(self):
        """An action that steps the clock with run_for must not fire a
        later event inside itself and resume with the clock moved under it."""
        kernel = Kernel()
        errors = []
        seen = []

        def bad():
            try:
                kernel.run_for(10)
            except SchedulingError as exc:
                errors.append(exc)
            seen.append(kernel.now_us)

        kernel.schedule_at(10, bad)
        kernel.schedule_at(20, lambda: seen.append(("late", kernel.now_us)))
        kernel.run_until(15)
        assert len(errors) == 1
        assert seen == [10]
        assert kernel.pending_count == 1
        kernel.run_for(5)
        assert seen == [10, ("late", 20)]

    def test_events_beyond_deadline_stay_queued(self):
        kernel = Kernel()
        fired = []
        kernel.schedule_at(50, lambda: fired.append(50))
        kernel.run_until(40)
        assert fired == []
        assert kernel.pending_count == 1
        kernel.run_until(60)
        assert fired == [50]

    def test_events_fired_counter(self):
        kernel = Kernel()
        for t in range(5):
            kernel.schedule_at(t, lambda: None)
        kernel.run_until(10)
        assert kernel.events_fired == 5


class TestEvery:
    def test_fires_at_start_plus_k_periods(self):
        kernel = Kernel(start_time_us=7)
        times = []
        kernel.every(10, lambda: times.append(kernel.now_us))
        kernel.run_until(50)
        assert times == [17, 27, 37, 47]

    def test_event_scheduled_for_the_next_tick_fires_first(self):
        # The series re-arms after its action returns, where a
        # self-rescheduling action would schedule its next tick.
        kernel = Kernel()
        order = []

        def tick():
            order.append(("tick", kernel.now_us))
            if kernel.now_us == 10:
                kernel.schedule_at(20, lambda: order.append(("other", kernel.now_us)))

        kernel.every(10, tick)
        kernel.run_until(20)
        assert order == [("tick", 10), ("other", 20), ("tick", 20)]

    def test_matches_a_self_rescheduling_action(self):
        def run(periodic):
            kernel = Kernel()
            order = []

            def sampler():
                order.append(("sample", kernel.now_us))
                kernel.schedule_in(5, lambda: order.append(("work", kernel.now_us)))
                if not periodic:
                    kernel.schedule_in(5, sampler)

            if periodic:
                kernel.every(5, sampler)
            else:
                kernel.schedule_in(5, sampler)
            kernel.schedule_at(10, lambda: order.append(("input", kernel.now_us)))
            kernel.run_until(30)
            return order, kernel.events_fired

        assert run(periodic=True) == run(periodic=False)

    def test_cancel_from_inside_the_action_ends_the_series(self):
        kernel = Kernel()
        times = []

        def tick():
            times.append(kernel.now_us)
            if len(times) == 3:
                handle.cancel()

        handle = kernel.every(10, tick)
        kernel.run_until(100)
        assert times == [10, 20, 30]
        assert handle.cancelled and not handle.pending
        assert kernel.pending_count == 0

    def test_cancel_from_outside_ends_the_series(self):
        kernel = Kernel()
        times = []
        handle = kernel.every(10, lambda: times.append(kernel.now_us))
        kernel.schedule_at(25, handle.cancel)
        kernel.run_until(100)
        assert times == [10, 20]
        assert kernel.pending_count == 0

    def test_handle_stays_pending_until_cancelled(self):
        kernel = Kernel()
        handle = kernel.every(10, lambda: None)
        kernel.run_until(35)
        assert handle.pending and handle.time_us == 40
        assert kernel.pending_count == 1
        handle.cancel()
        assert not handle.pending
        assert kernel.pending_count == 0

    def test_event_scheduled_at_now_fires_between_ticks(self):
        # The tick's entry stays at the top of the heap while its action
        # runs; an event at the same instant sorts behind it.
        kernel = Kernel()
        order = []

        def tick():
            order.append(("tick", kernel.now_us))
            if kernel.now_us == 10:
                kernel.schedule_in(0, lambda: order.append(("now", kernel.now_us)))

        kernel.every(10, tick)
        kernel.run_until(20)
        assert order == [("tick", 10), ("now", 10), ("tick", 20)]
        assert kernel.events_fired == 3

    def test_action_cancelling_another_series(self):
        kernel = Kernel()
        fired = []
        other = kernel.every(10, lambda: fired.append(("other", kernel.now_us)))

        def tick():
            fired.append(("tick", kernel.now_us))
            if kernel.now_us == 15:
                other.cancel()

        handle = kernel.every(15, tick)
        kernel.run_until(50)
        assert fired == [("other", 10), ("tick", 15), ("tick", 30), ("tick", 45)]
        assert other.cancelled and not other.pending
        assert handle.pending and handle.time_us == 60
        assert kernel.pending_count == 1

    def test_pending_count_inside_an_action(self):
        # The tick in progress is fired, not pending, while its action
        # runs, and pending again once re-armed.
        kernel = Kernel()
        counts = []

        def tick():
            counts.append(kernel.pending_count)
            if len(counts) == 1:
                kernel.schedule_in(5, lambda: None)

        handle = kernel.every(10, tick)
        kernel.schedule_at(100, lambda: None)
        kernel.run_until(20)
        assert counts == [1, 1]
        assert handle.pending and kernel.pending_count == 2

    def test_one_shot_queued_behind_a_periodic_head(self):
        # A one-shot scheduled after the series for the same instant
        # sorts behind the tick, and fires while the tick is re-armed.
        kernel = Kernel()
        order = []
        handle = kernel.every(10, lambda: order.append(("tick", kernel.now_us)))

        def one_shot():
            order.append(("one-shot", kernel.now_us))
            order.append(("re-armed at", handle.time_us))

        kernel.schedule_at(10, one_shot)
        kernel.run_until(10)
        assert order == [("tick", 10), ("one-shot", 10), ("re-armed at", 20)]
        assert handle.pending and handle.time_us == 20
        assert kernel.events_fired == 2 and kernel.pending_count == 1

    def test_exception_out_of_the_action_ends_the_series(self):
        kernel = Kernel()

        def tick():
            raise RuntimeError("boom")

        handle = kernel.every(10, tick)
        with pytest.raises(RuntimeError, match="boom"):
            kernel.run_until(30)
        assert not handle.pending
        assert kernel.pending_count == 0
        kernel.run_until(100)
        assert kernel.events_fired == 1

    def test_each_tick_counts_once(self):
        kernel = Kernel()
        kernel.every(10, lambda: None)
        kernel.schedule_at(15, lambda: None)
        kernel.run_until(100)
        assert kernel.events_fired == 11

    @pytest.mark.parametrize("period_us", [0, -5])
    def test_non_positive_period_rejected(self, period_us):
        kernel = Kernel()
        with pytest.raises(SchedulingError, match="period"):
            kernel.every(period_us, lambda: None)
        assert kernel.pending_count == 0
