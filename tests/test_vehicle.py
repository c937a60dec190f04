from __future__ import annotations

import math
from itertools import islice, takewhile

import numpy as np
import pytest

from hmisim.engine import EventCalendar, RandomStreams
from hmisim.vehicle import (
    GROUND_TRUTH_PARAMETERS,
    PARAM_AD_AVAILABLE,
    PARAM_LEVEL,
    PARAM_ROAD_MAX,
    PARAM_SPEED,
    AutomationStateMachine,
    DwellParams,
    RoadProcessParams,
    RoadSegment,
    RoadTimeline,
    TorPayload,
    TorPhase,
    generate_timeline,
    schedule_tor,
)


def timeline(*triples):
    return RoadTimeline(segments=tuple(RoadSegment(s, e, m) for s, e, m in triples))


# ---------------------------------------------------------------------------
# timelines


@pytest.mark.parametrize(
    "triples",
    [
        (),
        ((0, 5, 2), (6, 10, 3)),  # gap
        ((0, 5, 2), (4, 10, 3)),  # overlap
        ((0, 5, 7),),  # level out of range
        ((0, 0, 2),),  # empty segment
        ((1, 5, 2),),  # does not start at zero
    ],
)
def test_timeline_rejects_non_partitions(triples):
    with pytest.raises(ValueError):
        RoadTimeline(segments=tuple(RoadSegment(*t) for t in triples))


def test_generate_timeline_is_a_valid_partition():
    params = RoadProcessParams(
        initial_level=2,
        dwell={2: DwellParams(180, 60, 600), 4: DwellParams(300, 90, 900)},
        transitions={2: {4: 1.0}, 4: {2: 1.0}},
    )
    drawn = generate_timeline(params, RandomStreams(42).stream("road"))
    line = RoadTimeline(tuple(takewhile(lambda seg: seg.start < 60_000.0, drawn)))  # checks the partition
    assert line.segments[0].start == 0.0
    assert line.segments[-1].end >= 60_000.0
    # strict alternation under these transitions
    levels = [seg.max_level for seg in line.segments]
    assert all(a != b for a, b in zip(levels, levels[1:]))
    # dwell clamps respected, the last segment's too: nothing cuts it
    for seg in line.segments:
        dwell = params.dwell[seg.max_level]
        width = seg.end - seg.start
        assert dwell.minimum - 1e-9 <= width <= dwell.maximum + 1e-9


def test_generate_timeline_dwell_means_match_clamped_expectation():
    # oracle: mean of Exp(mean=m) clamped to [lo, hi] computed by quadrature
    mean, lo, hi = 300.0, 90.0, 900.0
    xs = np.linspace(0, 12 * mean, 600_001)
    pdf = np.exp(-xs / mean) / mean
    clamped = np.clip(xs, lo, hi)
    expected = float(np.trapezoid(clamped * pdf, xs))

    params = RoadProcessParams(
        initial_level=4,
        dwell={4: DwellParams(mean, lo, hi), 2: DwellParams(1.0)},
        transitions={4: {2: 1.0}, 2: {4: 1.0}},
    )
    drawn = generate_timeline(params, RandomStreams(7).stream("road"))
    widths = [seg.end - seg.start for seg in islice(drawn, 8000) if seg.max_level == 4]
    assert len(widths) == 4000
    observed = float(np.mean(widths))
    assert abs(observed - expected) / expected < 0.05


def test_generate_timeline_absorbing_level_is_the_last_and_has_no_end():
    params = RoadProcessParams(
        initial_level=2,
        dwell={2: DwellParams(10.0), 0: DwellParams(10.0)},
        transitions={2: {0: 1.0}},  # level 0 has no way out
    )
    segments = list(generate_timeline(params, RandomStreams(3).stream("road")))
    assert [seg.max_level for seg in segments] == [2, 0]
    assert segments[-1].end == math.inf


def test_generate_timeline_same_seed_same_result():
    params = RoadProcessParams(
        initial_level=2,
        dwell={2: DwellParams(180, 60, 600), 4: DwellParams(300, 90, 900)},
        transitions={2: {4: 1.0}, 4: {2: 1.0}},
    )
    a = list(islice(generate_timeline(params, RandomStreams(5).stream("road")), 100))
    b = list(islice(generate_timeline(params, RandomStreams(5).stream("road")), 100))
    assert a == b


def test_generate_timeline_has_no_end_without_an_absorbing_level():
    params = RoadProcessParams(
        initial_level=0,
        dwell={0: DwellParams(1.0), 1: DwellParams(1.0)},
        transitions={0: {1: 1.0}, 1: {0: 1.0}},
    )
    segments = list(islice(generate_timeline(params, RandomStreams(1).stream("road")), 10_000))
    assert len(segments) == 10_000
    RoadTimeline(tuple(segments))  # a partition from 0
    assert segments[-1].end < math.inf


# ---------------------------------------------------------------------------
# take-over request scheduling


def scheduled_tors(line, **leads):
    """The (time, payload) of each request ``schedule_tor`` puts on a calendar, in firing order."""
    calendar = EventCalendar()
    schedule_tor(line, calendar, **leads)
    fired = []
    calendar.run_until(line.segments[-1].end, lambda time, kind, payload: fired.append((time, payload)))
    return fired


def test_tor_scheduled_at_lead_times_before_drop():
    line = timeline((0, 200, 4), (200, 300, 2))
    events = scheduled_tors(line, lead_seconds=60.0, final_seconds=10.0)
    assert [(time, payload.phase) for time, payload in events] == [
        (140.0, TorPhase.EARLY),
        (190.0, TorPhase.FINAL),
    ]
    assert all(payload.boundary == 200.0 for _, payload in events)


def test_tor_clamped_to_segment_start_when_segment_is_short():
    line = timeline((0, 100, 2), (100, 130, 4), (130, 200, 2))
    events = scheduled_tors(line, lead_seconds=60.0, final_seconds=10.0)
    # early request would land before the AD segment begins; clamp to 100
    assert [(time, payload.phase) for time, payload in events] == [
        (100.0, TorPhase.EARLY),
        (120.0, TorPhase.FINAL),
    ]
    assert all(payload.segment_start == 100.0 for _, payload in events)


def test_tor_only_for_drops_out_of_top_level():
    line = timeline((0, 100, 3), (100, 200, 2), (200, 300, 4), (300, 400, 4))
    # 3 -> 2 is not an AD drop; 4 -> 4 is not a drop at all
    assert scheduled_tors(line) == []


def test_tor_for_each_distinct_ad_exit():
    line = timeline((0, 100, 4), (100, 200, 2), (200, 500, 4), (500, 600, 0))
    assert [time for time, _ in scheduled_tors(line)] == [40.0, 90.0, 440.0, 490.0]


# ---------------------------------------------------------------------------
# automation state machine


def make_machine(line=None, initial_level=4, bindings=None):
    truth = {}
    machine = AutomationStateMachine(
        timeline=line or timeline((0, 200, 4), (200, 300, 2)),
        initial_level=initial_level,
        bindings=bindings or {},
        truth=truth,
    )
    return machine, truth


def test_initial_level_clamped_to_first_segment_cap():
    machine, truth = make_machine(line=timeline((0, 100, 2), (100, 200, 4)), initial_level=4)
    assert machine.level == 2
    assert truth[PARAM_LEVEL] == 2
    assert truth[PARAM_AD_AVAILABLE] is False
    assert truth[PARAM_ROAD_MAX] == 2
    assert truth[PARAM_SPEED] == 0.0
    assert set(GROUND_TRUTH_PARAMETERS) <= set(truth)


def test_switch_up_to_available_level_granted():
    machine, truth = make_machine(initial_level=2)
    result = machine.transition("switch_up", 4)
    assert result.granted and result.level_changed
    assert (result.previous_level, result.level) == (2, 4)
    assert truth[PARAM_LEVEL] == 4


def test_switch_up_defaults_to_current_max():
    machine, _ = make_machine(initial_level=0)
    result = machine.transition("switch_up", None)
    assert result.level == 4


def test_switch_up_beyond_cap_rejected_without_level_change():
    machine, truth = make_machine(line=timeline((0, 100, 2)), initial_level=1)
    result = machine.transition("switch_up", 4)
    assert not result.granted and not result.level_changed
    assert machine.level == 1
    assert "rejected" in result.note
    assert truth[PARAM_LEVEL] == 1


def test_switch_down_defaults_to_one_below():
    machine, _ = make_machine(initial_level=4)
    result = machine.transition("switch_down", None)
    assert (result.previous_level, result.level) == (4, 3)


def test_switch_down_is_always_granted_and_never_raises_level():
    machine, _ = make_machine(initial_level=2)
    result = machine.transition("switch_down", 3)
    assert result.granted
    assert result.level == 2  # a "down" switch cannot go up
    result = machine.transition("switch_down", 0)
    assert result.level == 0
    # switching down at level 0 stays at 0
    result = machine.transition("switch_down", None)
    assert result.level == 0 and not result.level_changed


def test_level_change_emits_bound_tasks():
    # "any" comes first whatever the table's order
    bindings = {("level_change", 4): ["ad_on_msg"], ("level_change", "any"): ["level_change_msg"]}
    machine, _ = make_machine(initial_level=2, bindings=bindings)
    result = machine.transition("switch_up", 4)
    assert result.emitted == ["level_change_msg", "ad_on_msg"]
    # no-op change emits nothing
    result = machine.transition("switch_up", 4)
    assert not result.level_changed and result.emitted == []


def test_availability_drop_forces_downgrade_with_note():
    bindings = {
        ("availability_drop", 3): ["l3_off_msg"],
        ("availability_drop", 4): ["ad_off_msg"],
        ("level_change", "any"): ["level_change_msg"],
    }
    machine, truth = make_machine(initial_level=4, bindings=bindings)
    result = machine.on_boundary(RoadSegment(200, 300, 2))
    assert result.level_changed
    assert (result.previous_level, result.level) == (4, 2)
    assert result.note == "forced downgrade"
    # drop emissions walk the crossed caps top-down, then the level change
    assert result.emitted == ["ad_off_msg", "l3_off_msg", "level_change_msg"]
    assert truth[PARAM_ROAD_MAX] == 2
    assert truth[PARAM_AD_AVAILABLE] is False
    assert truth[PARAM_LEVEL] == 2


def test_availability_drop_below_current_level_only_notifies():
    machine, truth = make_machine(initial_level=2)
    result = machine.on_boundary(RoadSegment(200, 300, 3))
    assert not result.level_changed
    assert machine.level == 2
    assert truth[PARAM_ROAD_MAX] == 3


def test_availability_rise_emits_in_ascending_cap_order():
    bindings = {("availability_rise", 4): ["ad_on_a", "ad_on_b"], ("availability_rise", 3): ["l3_on"]}
    machine, truth = make_machine(line=timeline((0, 100, 2), (100, 200, 4)), initial_level=2)
    machine.bindings = bindings
    result = machine.on_boundary(RoadSegment(100, 200, 4))
    assert result.emitted == ["l3_on", "ad_on_a", "ad_on_b"]
    assert not result.level_changed  # a rise never changes the level by itself
    assert truth[PARAM_AD_AVAILABLE] is True


def test_rise_skips_caps_not_newly_crossed():
    bindings = {("availability_rise", 3): ["l3_on"], ("availability_rise", 4): ["ad_on"]}
    machine, _ = make_machine(line=timeline((0, 100, 3), (100, 200, 4)), initial_level=2)
    machine.bindings = bindings
    result = machine.on_boundary(RoadSegment(100, 200, 4))
    assert result.emitted == ["ad_on"]  # 3 was already available


def test_tor_fires_only_at_top_level():
    bindings = {("tor60", None): ["tor60_vocal"], ("tor10", None): ["tor10_haptic"]}
    machine, _ = make_machine(initial_level=4, bindings=bindings)
    payload = TorPayload(phase=TorPhase.EARLY, boundary=200.0, segment_start=0.0)
    active, emitted = machine.on_tor(payload)
    assert active and emitted == ["tor60_vocal"]

    final = TorPayload(phase=TorPhase.FINAL, boundary=200.0, segment_start=0.0)
    active, emitted = machine.on_tor(final)
    assert active and emitted == ["tor10_haptic"]


def test_tor_is_stale_when_driver_already_took_over():
    bindings = {("tor60", None): ["tor60_vocal"]}
    machine, _ = make_machine(initial_level=4, bindings=bindings)
    machine.transition("switch_down", 2)
    payload = TorPayload(phase=TorPhase.EARLY, boundary=200.0, segment_start=0.0)
    active, emitted = machine.on_tor(payload)
    assert not active and emitted == []


def test_set_speed_mirrors_into_truth():
    machine, truth = make_machine()
    machine.set_speed(88.0)
    assert truth[PARAM_SPEED] == 88.0
