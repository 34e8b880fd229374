"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import SimulationError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    out = []
    sim.schedule(2.0, out.append, "late")
    sim.schedule(1.0, out.append, "early")
    sim.schedule(3.0, out.append, "latest")
    sim.run()
    assert out == ["early", "late", "latest"]


def test_equal_time_events_fire_fifo():
    sim = Simulator()
    out = []
    for i in range(10):
        sim.schedule(1.0, out.append, i)
    sim.run()
    assert out == list(range(10))


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.0]
    assert sim.now == 5.0


def test_run_until_stops_clock_at_until():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(10.0, lambda: None)
    sim.run(until=5.0)
    assert sim.now == 5.0
    assert sim.pending_count == 1  # the t=10 event survives


def test_run_until_advances_clock_even_when_heap_drains():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(until=7.5)
    assert sim.now == 7.5


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    out = []

    def first():
        sim.schedule(1.0, out.append, "second")
        out.append("first")

    sim.schedule(1.0, first)
    sim.run()
    assert out == ["first", "second"]


def test_cancel_prevents_firing():
    sim = Simulator()
    out = []
    handle = sim.schedule(1.0, out.append, "cancelled")
    sim.schedule(2.0, out.append, "kept")
    handle.cancel()
    sim.run()
    assert out == ["kept"]
    assert handle.cancelled and not handle.fired


def test_cancel_is_idempotent_and_safe_after_fire():
    sim = Simulator()
    handle = sim.schedule(0.5, lambda: None)
    sim.run()
    assert handle.fired
    handle.cancel()  # no error
    assert not handle.pending


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(0.5, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_stop_halts_processing():
    sim = Simulator()
    out = []
    sim.schedule(1.0, lambda: (out.append(1), sim.stop()))
    sim.schedule(2.0, out.append, 2)
    sim.run()
    assert out == [1]
    sim.run()  # resume
    assert out == [1, 2]


def test_step_executes_single_event():
    sim = Simulator()
    out = []
    sim.schedule(1.0, out.append, "a")
    sim.schedule(2.0, out.append, "b")
    assert sim.step() is True
    assert out == ["a"]
    assert sim.step() is True
    assert sim.step() is False
    assert out == ["a", "b"]


def test_peek_time_skips_cancelled():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h.cancel()
    assert sim.peek_time() == 3.0 or sim.peek_time() == 2.0
    assert sim.peek_time() == 2.0


def test_reentrant_run_rejected():
    sim = Simulator()

    def recurse():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, recurse)
    sim.run()


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_zero_delay_event_fires_at_current_time():
    sim = Simulator(start_time=3.0)
    seen = []
    sim.schedule(0.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [3.0]


def test_random_schedules_fire_sorted():
    from hypothesis import given, settings, strategies as st

    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def run(delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    run()


def test_interleaved_schedule_and_cancel():
    from hypothesis import given, settings, strategies as st

    @given(st.lists(st.tuples(st.floats(0.0, 10.0), st.booleans()), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def run(entries):
        sim = Simulator()
        fired = []
        handles = []
        for d, cancel in entries:
            handles.append((sim.schedule(d, lambda d=d: fired.append(d)), cancel))
        for h, cancel in handles:
            if cancel:
                h.cancel()
        sim.run()
        expected = sorted(d for (d, cancel) in entries if not cancel)
        assert sorted(fired) == expected

    run()


class _Owner:
    def tick(self):
        pass


def test_quiet_until_without_foreign_ignores_only_neutral_events():
    sim = Simulator()

    def neutral():
        pass

    neutral._radio_neutral = True
    sim.at(1.0, neutral)
    assert sim.quiet_until(2.0)
    handle = sim.at(1.5, _Owner().tick)
    assert not sim.quiet_until(2.0)
    assert not sim.quiet_until(1.5)  # the window's end is inclusive
    assert sim.quiet_until(1.4)
    handle.cancel()
    assert sim.quiet_until(2.0)


def test_quiet_until_skips_foreign_events_and_blocks_the_rest():
    sim = Simulator()
    ours, theirs = _Owner(), _Owner()
    asked = []

    def foreign(handle):
        asked.append(handle.time)
        return handle.callback.__self__ is theirs

    def neutral():
        pass

    neutral._radio_neutral = True
    sim.at(0.5, neutral)
    sim.at(1.0, theirs.tick)
    sim.at(3.0, ours.tick)  # outside the window
    sim.at(1.2, ours.tick).cancel()
    assert not sim.quiet_until(2.0)
    assert sim.quiet_until(2.0, foreign)
    # Only live, non-neutral events inside the window are classified.
    assert asked == [1.0]
    sim.at(1.5, ours.tick)
    assert not sim.quiet_until(2.0, foreign)
    sim.at(1.7, lambda: None)  # unclassifiable: never foreign
    assert not sim.quiet_until(2.0, lambda h: getattr(h.callback, "__self__", None) is not ours)
