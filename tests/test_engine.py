from __future__ import annotations

import math

import numpy as np
import pytest

from hmisim.engine import EventCalendar, EventKind, RandomStreams, SimulationError


def make_calendar():
    cal = EventCalendar()
    fired: list[tuple[float, str, object]] = []

    def dispatch(time, kind, payload):
        fired.append((time, kind.value, payload))

    return cal, fired, dispatch


def test_events_fire_in_time_order():
    cal, fired, dispatch = make_calendar()
    cal.schedule(5.0, EventKind.TASK_END, "late")
    cal.schedule(1.0, EventKind.ROAD_CHANGE, "early")
    cal.schedule(3.0, EventKind.TRIGGER, "mid")
    cal.run_until(10.0, dispatch)
    assert [p for _, _, p in fired] == ["early", "mid", "late"]
    assert cal.clock == 10.0


def test_simultaneous_events_fire_fifo():
    cal, fired, dispatch = make_calendar()
    cal.schedule(2.0, EventKind.TRIGGER, "first")
    cal.schedule(2.0, EventKind.TRIGGER, "second")
    cal.schedule(2.0, EventKind.TRIGGER, "third")
    cal.run_until(5.0, dispatch)
    assert [p for _, _, p in fired] == ["first", "second", "third"]


def test_road_and_take_over_events_fire_first_at_equal_times_and_each_rank_stays_fifo():
    cal, fired, dispatch = make_calendar()
    cal.schedule(2.0, EventKind.TRIGGER, "trigger")
    cal.schedule(2.0, EventKind.SPEED_CHANGE, "speed")
    cal.schedule(2.0, EventKind.TASK_END, "task-end")
    cal.schedule(2.0, EventKind.TOR, "tor-a")
    cal.schedule(2.0, EventKind.ROAD_CHANGE, "road")
    cal.schedule(2.0, EventKind.TOR, "tor-b")
    cal.schedule(2.0, EventKind.TRIGGER, "trigger-b")
    cal.schedule(1.0, EventKind.TASK_END, "earlier")  # time still comes first
    cal.run_until(5.0, dispatch)
    assert [p for _, _, p in fired] == [
        "earlier", "tor-a", "road", "tor-b", "trigger", "speed", "task-end", "trigger-b"
    ]


def test_a_take_over_scheduled_at_the_current_time_fires_before_other_kinds_already_due():
    cal = EventCalendar()
    seen: list[str] = []

    def dispatch(time, kind, payload):
        seen.append(payload)
        if payload == "road":
            cal.schedule(time, EventKind.TOR, "tor")

    cal.schedule(1.0, EventKind.SPEED_CHANGE, "speed")
    cal.schedule(1.0, EventKind.ROAD_CHANGE, "road")
    cal.run_until(1.0, dispatch)
    assert seen == ["road", "tor", "speed"]


def test_run_until_is_inclusive_of_endpoint():
    cal, fired, dispatch = make_calendar()
    cal.schedule(4.0, EventKind.TRIGGER, "at-end")
    cal.schedule(4.0000001, EventKind.TRIGGER, "after-end")
    cal.run_until(4.0, dispatch)
    assert [p for _, _, p in fired] == ["at-end"]
    # the later event survives and fires on a subsequent run
    cal.run_until(5.0, dispatch)
    assert [p for _, _, p in fired] == ["at-end", "after-end"]


@pytest.mark.parametrize("bad_time", [math.nan, math.inf, -math.inf])
def test_schedule_rejects_non_finite_times(bad_time):
    cal = EventCalendar()
    with pytest.raises(SimulationError):
        cal.schedule(bad_time, EventKind.TRIGGER, None)


def test_schedule_rejects_times_before_clock():
    cal, fired, dispatch = make_calendar()
    cal.schedule(2.0, EventKind.TRIGGER, "x")
    cal.run_until(2.0, dispatch)
    with pytest.raises(SimulationError):
        cal.schedule(1.9, EventKind.TRIGGER, "past")
    # scheduling exactly at the clock is allowed
    cal.schedule(2.0, EventKind.TRIGGER, "now")


def test_run_until_rejects_an_end_before_the_clock():
    cal, fired, dispatch = make_calendar()
    cal.schedule(2.0, EventKind.TRIGGER, "x")
    cal.run_until(3.0, dispatch)
    with pytest.raises(SimulationError, match=r"run_until\(2.5\) is before current clock t=3.0"):
        cal.run_until(2.5, dispatch)
    assert cal.clock == 3.0 and fired == [(2.0, EventKind.TRIGGER.value, "x")]


def test_dispatcher_can_schedule_at_current_timestamp():
    cal = EventCalendar()
    seen: list[str] = []

    def dispatch(time, kind, payload):
        seen.append(payload)
        if payload == "a":
            cal.schedule(time, EventKind.TRIGGER, "b")

    cal.schedule(1.0, EventKind.TRIGGER, "a")
    cal.run_until(1.0, dispatch)
    assert seen == ["a", "b"]


def test_dispatcher_errors_are_wrapped_with_context():
    cal = EventCalendar()

    def dispatch(time, kind, payload):
        raise ValueError("boom")

    cal.schedule(3.5, EventKind.ROAD_CHANGE, None)
    with pytest.raises(SimulationError) as err:
        cal.run_until(10.0, dispatch)
    assert "road-change" in str(err.value)
    assert "3.5" in str(err.value)


def test_simulation_errors_pass_through_unwrapped():
    cal = EventCalendar()
    original = SimulationError("already wrapped")

    def dispatch(time, kind, payload):
        raise original

    cal.schedule(1.0, EventKind.TRIGGER, None)
    with pytest.raises(SimulationError) as err:
        cal.run_until(2.0, dispatch)
    assert err.value is original


def test_max_pending_tracks_queue_depth():
    cal, fired, dispatch = make_calendar()
    for t in (1.0, 2.0, 3.0):
        cal.schedule(t, EventKind.TRIGGER, t)
    assert cal.max_pending == 3
    cal.run_until(10.0, dispatch)
    assert len(fired) == 3
    assert cal.max_pending == 3


def test_streams_reproducible_across_instances():
    a = RandomStreams(1234).stream("road").random(8)
    b = RandomStreams(1234).stream("road").random(8)
    assert list(a) == list(b)


def test_streams_differ_by_name_and_seed():
    streams = RandomStreams(1234)
    road = streams.stream("road").random(8)
    other = streams.stream("cf:check_speed").random(8)
    assert list(road) != list(other)

    reseeded = RandomStreams(1235).stream("road").random(8)
    assert list(road) != list(reseeded)


def test_stream_is_cached_per_name():
    streams = RandomStreams(7)
    first = streams.stream("road")
    assert streams.stream("road") is first


def test_master_seed_uses_64_bits():
    wide = RandomStreams(2**64 + 5)
    narrow = RandomStreams(5)
    assert list(wide.stream("x").random(4)) == list(narrow.stream("x").random(4))


#: The first draw of each Generator method on two streams of master seed 20201, by ``float.hex``,
#: and the tag each name derives (the first 8 bytes of its SHA-256, big-endian).
PINNED_STREAMS = {
    "road": (0x362A284952D3A725, {
        "normal": "-0x1.4b7f3b21bab4fp+0", "exponential": "0x1.cf90a32d22892p+0", "random": "0x1.5e53b8ac56221p-1",
    }),
    "cf:speed_check": (0xFE063360B299B669, {
        "normal": "-0x1.fe9286939ca1fp-1", "exponential": "0x1.2e8a8e9f406c3p+1", "random": "0x1.df3729af771a2p-1",
    }),
}


@pytest.mark.parametrize("name", PINNED_STREAMS)
def test_stream_draws_are_pinned(name):
    # Every golden digest rests on these bits: the same inputs and seed give the same
    # trial only as long as numpy's SeedSequence and Generator algorithms are unchanged.
    tag, pinned = PINNED_STREAMS[name]
    drawn = {method: getattr(RandomStreams(20201).stream(name), method)().hex() for method in pinned}
    tagged = {method: getattr(np.random.default_rng([20201, tag]), method)().hex() for method in pinned}
    assert drawn == tagged, f"stream {name!r} no longer derives its seed from the tag {tag:#x}"
    assert drawn == pinned, f"numpy {np.__version__} draws other bits than those pinned for stream {name!r}"
