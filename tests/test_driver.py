from __future__ import annotations

import numpy as np
import pytest

from hmisim.driver import (
    ALL_LEVELS,
    MIN_TRIGGER_INTERVAL,
    AwarenessParameter,
    CognitiveFunction,
    awareness,
    default_sigma,
    discretize,
    next_trigger,
)
from hmisim.engine import RandomStreams


def make_function(mean=20.0, sigma=0.0, levels=ALL_LEVELS):
    return CognitiveFunction(
        name="speed_check",
        mean_interval=mean,
        sigma=sigma,
        target_task="check_speed",
        enabled_levels=levels,
    )


def test_zero_sigma_fires_exactly_at_mean():
    stream = RandomStreams(1).stream("cf:speed_check")
    assert next_trigger(make_function(mean=22.0, sigma=0.0), stream, now=10.0) == 32.0


def test_intervals_are_floored_at_minimum():
    function = make_function(mean=0.0, sigma=0.0)
    stream = RandomStreams(1).stream("cf:speed_check")
    assert next_trigger(function, stream, now=5.0) == 5.0 + MIN_TRIGGER_INTERVAL

    # a hugely negative draw can never schedule into the past
    wild = make_function(mean=-1000.0, sigma=0.1)
    assert next_trigger(wild, stream, now=5.0) == 5.0 + MIN_TRIGGER_INTERVAL


def test_interval_distribution_tracks_mean_and_sigma():
    function = make_function(mean=20.0, sigma=5.0)
    stream = RandomStreams(99).stream("cf:speed_check")
    now = 0.0
    intervals = []
    for _ in range(10_000):
        nxt = next_trigger(function, stream, now)
        intervals.append(nxt - now)
        now = nxt
    intervals = np.asarray(intervals)
    assert abs(intervals.mean() - 20.0) < 0.5
    assert abs(intervals.std() - 5.0) < 0.5
    assert intervals.min() >= MIN_TRIGGER_INTERVAL


def test_draws_are_reproducible_per_seed():
    function = make_function(mean=20.0, sigma=5.0)
    a = next_trigger(function, RandomStreams(7).stream("cf:speed_check"), 0.0)
    b = next_trigger(function, RandomStreams(7).stream("cf:speed_check"), 0.0)
    c = next_trigger(function, RandomStreams(8).stream("cf:speed_check"), 0.0)
    assert a == b
    assert a != c


def test_default_sigma_is_quarter_of_mean():
    assert default_sigma(20.0) == 5.0
    assert default_sigma(1.0) == 0.25


@pytest.mark.parametrize(
    ("value", "resolution", "expected"),
    [
        (93.4, 1.0, 93.0),
        (93.5, 1.0, 94.0),
        (93.4, 5.0, 95.0),
        (93.4, None, 93.4),
        (True, 1.0, True),
        (False, None, False),
        ("motorway", 1.0, "motorway"),
        (3, 2.0, 4.0),
    ],
)
def test_discretize(value, resolution, expected):
    assert discretize(value, resolution) == expected


def test_awareness_with_nothing_tracked_is_one():
    assert awareness({}, {}, {}) == 1.0


def test_awareness_counts_matching_beliefs():
    truth = {"speed": 92.7, "automation_level": 2}
    params = {
        "speed": AwarenessParameter("speed", resolution=1.0),
        "automation_level": AwarenessParameter("automation_level"),
    }
    beliefs = {"speed": 93.0, "automation_level": 2}
    assert awareness(beliefs, truth, params) == 1.0  # 92.7 snaps to 93.0

    truth["speed"] = 95.0
    assert awareness(beliefs, truth, params) == 0.5

    truth["automation_level"] = 4
    assert awareness(beliefs, truth, params) == 0.0


def test_missing_belief_counts_as_mismatch():
    params = {"speed": AwarenessParameter("speed", resolution=1.0)}
    assert awareness({}, {"speed": 50.0}, params) == 0.0


def test_unknown_ground_truth_parameter_raises():
    params = {"speed": AwarenessParameter("speed")}
    with pytest.raises(KeyError):
        awareness({"speed": 1.0}, {}, params)
