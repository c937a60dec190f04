"""Vehicle environment: road availability timeline and automation state.

The road is a semi-Markov sequence of segments from t = 0, each capping
the available automation level at 0-4 (4 = autonomous driving).  A drawn
road has no end unless a level is absorbing; a trial keeps the segments
that start within its length.  The vehicle state machine keeps the
active level and the road's current cap, and mirrors them and the
scripted speed into ground truth; it enforces that drivers may switch up
only to an available level, that drivers may always switch down, and
that an availability drop forces the level down to the new cap.

Where automation at the top level is about to become unavailable, two
take-over requests are scheduled ahead of the boundary: an early one
(default 60 s before) and a final one (default 10 s before), both clamped
to the start of the top-level segment and effective only if the vehicle
is actually at the top level when they fire.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterator

import numpy as np

from .engine import EventCalendar, EventKind

MAX_LEVEL = 4
TOP_LEVEL = 4  # full autonomous driving

#: Ground-truth parameter names maintained by this module.
PARAM_SPEED = "speed"
PARAM_LEVEL = "automation_level"
PARAM_AD_AVAILABLE = "ad_available"
PARAM_ROAD_MAX = "road_max_level"
GROUND_TRUTH_PARAMETERS = (PARAM_SPEED, PARAM_LEVEL, PARAM_AD_AVAILABLE, PARAM_ROAD_MAX)


class TorPhase(str, Enum):
    EARLY = "TOR60"
    FINAL = "TOR10"


@dataclass(frozen=True)
class RoadSegment:
    start: float
    end: float
    max_level: int


@dataclass(frozen=True)
class RoadTimeline:
    """Segments that partition the road from t = 0 to the last segment's end."""

    segments: tuple[RoadSegment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("timeline needs at least one segment")
        expected = 0.0
        for seg in self.segments:
            if seg.start != expected or seg.end <= seg.start:
                raise ValueError(f"segments must partition the road from 0: bad segment {seg}")
            if not 0 <= seg.max_level <= MAX_LEVEL:
                raise ValueError(f"max_level outside 0..{MAX_LEVEL}: {seg}")
            expected = seg.end


@dataclass(frozen=True)
class DwellParams:
    mean: float
    minimum: float = 0.0
    maximum: float = math.inf


@dataclass(frozen=True)
class RoadProcessParams:
    initial_level: int
    dwell: dict[int, DwellParams]
    transitions: dict[int, dict[int, float]]


def generate_timeline(params: RoadProcessParams, stream: np.random.Generator) -> Iterator[RoadSegment]:
    """Draw a semi-Markov availability road from t = 0, one segment at a time.

    Dwell times are exponential with the configured mean, clamped to
    [minimum, maximum].  The segments have no end unless a level is
    absorbing (it has no outgoing transitions): that level's segment ends
    at ``math.inf`` and is the last.
    """
    level = params.initial_level
    t = 0.0
    while True:
        dwell = params.dwell[level]
        weights = params.transitions.get(level) or {}
        if not weights:
            yield RoadSegment(t, math.inf, level)  # absorbing state
            return
        draw = float(stream.exponential(dwell.mean))
        duration = min(max(draw, dwell.minimum), dwell.maximum)
        duration = max(duration, 1e-9)  # keep the partition strict
        yield RoadSegment(t, t + duration, level)
        t += duration
        level = _weighted_choice(weights, stream)


def _weighted_choice(weights: dict[int, float], stream: np.random.Generator) -> int:
    items = sorted(weights.items())
    total = sum(w for _, w in items)
    u = float(stream.random()) * total
    acc = 0.0
    for level, weight in items:
        acc += weight
        if u < acc:
            return level
    return items[-1][0]


# ---------------------------------------------------------------------------
# take-over-request scheduling

@dataclass(frozen=True)
class TorPayload:
    phase: TorPhase
    boundary: float
    segment_start: float


def schedule_tor(
    timeline: RoadTimeline,
    calendar: EventCalendar,
    lead_seconds: float = 60.0,
    final_seconds: float = 10.0,
) -> None:
    """Schedule early/final take-over requests before each drop out of AD.

    Request times are boundary minus lead, clamped to the AD segment start.
    """
    for seg, nxt in zip(timeline.segments, timeline.segments[1:]):
        if seg.max_level == TOP_LEVEL and nxt.max_level < TOP_LEVEL:
            boundary = seg.end
            for phase, lead in ((TorPhase.EARLY, lead_seconds), (TorPhase.FINAL, final_seconds)):
                calendar.schedule(
                    max(boundary - lead, seg.start),
                    EventKind.TOR,
                    TorPayload(phase=phase, boundary=boundary, segment_start=seg.start),
                )


# ---------------------------------------------------------------------------
# automation state machine

@dataclass
class TransitionResult:
    granted: bool
    previous_level: int
    level: int
    emitted: list[str] = field(default_factory=list)
    note: str = ""

    @property
    def level_changed(self) -> bool:
        return self.level != self.previous_level


#: Vehicle events that emit bound machine tasks, in the order they are parsed and checked.
BINDING_EVENTS = ("tor60", "tor10", "level_change", "availability_rise", "availability_drop")

#: Machine tasks the cockpit emits per ``(event, level)``.  The level is None
#: for ``tor60``/``tor10``, a level or ``"any"`` for ``level_change``, and the
#: crossed cap for ``availability_rise``/``availability_drop``.
EventBindings = dict[tuple[str, int | str | None], list[str]]

_TOR_EVENTS = {TorPhase.EARLY: "tor60", TorPhase.FINAL: "tor10"}


class AutomationStateMachine:
    """Holds the automation ``level`` and the road's ``current_max``, mirrors
    them into the ground-truth dict, and resolves which machine tasks each
    state change emits."""

    def __init__(
        self,
        timeline: RoadTimeline,
        initial_level: int,
        bindings: EventBindings,
        truth: dict[str, Any],
        initial_speed: float = 0.0,
    ) -> None:
        self.bindings = bindings
        self.truth = truth
        first_max = timeline.segments[0].max_level
        self.level = min(initial_level, first_max)
        self.current_max = first_max
        truth[PARAM_SPEED] = initial_speed
        truth[PARAM_LEVEL] = self.level
        truth[PARAM_AD_AVAILABLE] = first_max == TOP_LEVEL
        truth[PARAM_ROAD_MAX] = first_max

    # -- state changes -------------------------------------------------------

    def transition(self, action: str, target: int | None) -> TransitionResult:
        """Apply a driver control: ``"switch_up"`` or ``"switch_down"`` to ``target``."""
        if action == "switch_up":
            target = target if target is not None else self.current_max
            if target > self.current_max:
                return TransitionResult(
                    granted=False,
                    previous_level=self.level,
                    level=self.level,
                    note=f"switch-up to {target} rejected: max available is {self.current_max}",
                )
            return self._set_level(target)
        target = target if target is not None else max(self.level - 1, 0)
        return self._set_level(min(target, self.level))  # switching "down" never raises

    def _set_level(self, target: int) -> TransitionResult:
        previous = self.level
        if target == previous:
            return TransitionResult(granted=True, previous_level=previous, level=previous)
        self.level = target
        self.truth[PARAM_LEVEL] = target
        return TransitionResult(
            granted=True,
            previous_level=previous,
            level=target,
            emitted=self.bindings.get(("level_change", "any"), [])
            + self.bindings.get(("level_change", target), []),
        )

    def on_boundary(self, segment: RoadSegment) -> TransitionResult:
        """Enter a road segment: its cap, the tasks bound to the change, and a
        forced downgrade if the level is above the new cap."""
        old_max = self.current_max
        new_max = self.current_max = segment.max_level
        self.truth[PARAM_ROAD_MAX] = new_max
        self.truth[PARAM_AD_AVAILABLE] = new_max == TOP_LEVEL
        # Each newly crossed cap in crossing order: ascending on a rise, descending on a drop.
        event, crossed = (
            ("availability_rise", range(old_max + 1, new_max + 1))
            if new_max > old_max
            else ("availability_drop", range(old_max, new_max, -1))
        )
        emitted = [name for cap in crossed for name in self.bindings.get((event, cap), [])]
        if self.level <= new_max:
            return TransitionResult(
                granted=True,
                previous_level=self.level,
                level=self.level,
                emitted=emitted,
            )
        forced = self._set_level(new_max)
        forced.emitted = emitted + forced.emitted
        forced.note = "forced downgrade"
        return forced

    def on_tor(self, payload: TorPayload) -> tuple[bool, list[str]]:
        """Apply a take-over request; emits only if the vehicle is in AD."""
        if self.level != TOP_LEVEL:
            return False, []
        return True, self.bindings.get((_TOR_EVENTS[payload.phase], None), [])

    def set_speed(self, value: float) -> None:
        self.truth[PARAM_SPEED] = value
