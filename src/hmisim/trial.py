"""Single-trial orchestration.

One trial wires a task configuration and a scenario onto the event
kernel: the road timeline and take-over requests are scheduled up front,
cognitive functions keep re-arming themselves, machine tasks are emitted
by vehicle events, and every task request passes through attention
admission.  Completing a task can refresh a driver belief, fire a follow-up
task, and operate the automation level.  All of it is folded into the
four trial indicators and, in a traced trial, recorded as a timeline trace.

Within one completion the order is fixed: release and queue admissions,
then the belief update, then the follow-up request, then the automation
control action.  Ties on the calendar resolve by scheduling order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, takewhile
from typing import Any, Callable, Iterable

import numpy as np

from . import driver as driver_mod
from .attention import Aborted, AttentionState, Granted, Queued, TaskInstance
from .engine import EventCalendar, EventKind, RandomStreams
from .metrics import MetricsCollector, TraceRecord, TraceSink, TrialMetrics, eyes_off_contribution
from .scenario import ControlBinding, Scenario, cross_validate
from .tasks import Configuration, ConfigurationError, Task, Violation, validate
from .vehicle import (
    AutomationStateMachine,
    RoadSegment,
    RoadTimeline,
    TorPayload,
    TransitionResult,
    generate_timeline,
    schedule_tor,
)

ROAD_STREAM = "road"


@dataclass
class TrialResult:
    metrics: TrialMetrics
    records: list[TraceRecord]


class _TaskRow:
    """What the handlers need of one task, worked out once per trial.

    ``queued`` and ``start`` hold the task's fixed fields of its
    task-queued and task-start trace payloads, in trace key order.
    """

    __slots__ = ("task", "total_time", "eyes_off", "chain_source", "control", "queued", "start")

    def __init__(self, task: Task, on_road: bool, control: ControlBinding | None) -> None:
        self.task = task
        self.total_time = total_time = task.total_time()
        channel = task.perception_type.value
        self.eyes_off = eyes_off_contribution(total_time, channel, on_road)  # per completion
        self.chain_source = f"chain:{task.name}"  # request source of its follow-up
        self.control = control
        self.queued = {
            "initiator": task.initiator.value,
            "channel": channel,
            "cognitive": task.cognitive_workload,
            "perceptual": task.perceptual_workload,
        }
        self.start = {**self.queued, "location": task.location, "on_road": on_road, "total_time": total_time}


@dataclass(frozen=True, slots=True)
class _FunctionRow:
    """A cognitive function with its random substream and request source."""

    function: driver_mod.CognitiveFunction
    stream: np.random.Generator
    source: str


def run_trial(
    config: Configuration,
    scenario: Scenario,
    seed: int,
    trial_length: float,
    trace: bool | TraceSink = True,
) -> TrialResult:
    """Run one fully deterministic trial: its metrics, and its trace unless ``trace=False``.

    With ``trace=True`` the trace is ``TrialResult.records``; a sink (see
    :class:`~hmisim.metrics.MetricsCollector`) is handed each record as it is
    made instead, and ``records`` stays empty.
    """
    problems = validate(config)
    problems += [v for v in cross_validate(scenario, config) if v.severity == "error"]
    if problems:
        raise ConfigurationError(problems)
    if not 0 < trial_length < math.inf:
        raise ConfigurationError(
            [Violation("error", "trial", f"trial length must be > 0 and finite, got {trial_length}")]
        )
    return _Trial(config, scenario, seed, trial_length, trace).run()


class _Trial:
    """One trial; an untraced one builds no trace payload (each sits under ``if self.trace``)."""

    def __init__(
        self, config: Configuration, scenario: Scenario, seed: int, trial_length: float, trace: bool | TraceSink
    ) -> None:
        self.scenario = scenario
        self.seed = seed
        self.length = trial_length
        self.trace = trace
        # Built per trial, never cached: local_search edits copies of a design.
        self.rows = {
            t.name: _TaskRow(t, config.elements[t.location].on_road, scenario.controls.get(t.name))
            for t in config.tasks
        }
        self.calendar = EventCalendar()
        streams = RandomStreams(seed)
        self._uids = count(1)

        road = scenario.road
        if isinstance(road, RoadTimeline):
            covered = road.segments[-1].end
            if covered < trial_length:
                message = f"fixed timeline covers {covered} s but the trial needs {trial_length} s"
                raise ConfigurationError([Violation("error", "scenario road", message)])
            segments: Iterable[RoadSegment] = road.segments
        else:
            segments = generate_timeline(road, streams.stream(ROAD_STREAM))
        # The trial keeps the segments that start within its length, the last one whole.
        timeline = RoadTimeline(tuple(takewhile(lambda segment: segment.start < trial_length, segments)))

        self.truth: dict[str, Any] = {}
        self.machine = AutomationStateMachine(
            timeline=timeline,
            initial_level=scenario.vehicle.initial_level,
            bindings=scenario.bindings,
            truth=self.truth,
            initial_speed=scenario.speed.initial_value(),
        )
        self.beliefs = {
            name: driver_mod.discretize(
                param.initial if param.initial is not None else self.truth[name], param.resolution
            )
            for name, param in scenario.awareness.items()
        }

        self.attention = AttentionState()
        self.collector = MetricsCollector(
            trial_length, self.attention, self.machine, None if isinstance(trace, bool) else trace
        )
        self._update_awareness()

        # Everything time-driven is scheduled before the clock starts:
        # road boundaries, take-over requests, the speed script chain, and
        # the first firing of every cognitive function.
        for segment in timeline.segments[1:]:
            self.calendar.schedule(segment.start, EventKind.ROAD_CHANGE, segment)
        schedule_tor(
            timeline,
            self.calendar,
            scenario.vehicle.tor_lead_seconds,
            scenario.vehicle.tor_final_seconds,
        )
        self._speed_changes = scenario.speed.changes()
        self._schedule_speed_change()
        for function in scenario.cognitive_functions:
            source = f"cf:{function.name}"
            self._schedule_firing(_FunctionRow(function, streams.stream(source), source), 0.0)

    def _update_awareness(self) -> None:
        """Re-score awareness; called after every change to beliefs or ground truth."""
        self.collector.awareness = driver_mod.awareness(
            self.beliefs, self.truth, self.scenario.awareness
        )

    # -- main loop ---------------------------------------------------------------

    def run(self) -> TrialResult:
        if self.trace:
            self.collector.record(0.0, "init", {"seed": self.seed, "trial_length": self.length})
        self.calendar.run_until(self.length, self._dispatch)
        if self.trace:
            self._truncate_remaining()
        metrics = self.collector.finalize(self.seed)
        return TrialResult(metrics=metrics, records=self.collector.records)

    def _dispatch(self, now: float, kind: EventKind, payload: Any) -> None:
        self.collector.advance(now)
        _HANDLERS[kind](self, payload, now)

    # -- handlers ------------------------------------------------------------------

    def _schedule_firing(self, cf: _FunctionRow, now: float) -> None:
        """Draw a function's next firing; one past the horizon (even at inf) never fires."""
        next_at = driver_mod.next_trigger(cf.function, cf.stream, now)
        if next_at <= self.length:
            self.calendar.schedule(next_at, EventKind.TRIGGER, cf)

    def _on_cognitive_trigger(self, cf: _FunctionRow, now: float) -> None:
        function = cf.function
        self._schedule_firing(cf, now)
        enabled = self.machine.level in function.enabled_levels
        if self.trace:
            self.collector.record(
                now,
                "trigger",
                {"function": function.name, "task": function.target_task, "enabled": enabled},
            )
        if enabled:
            self._request_task(function.target_task, now, cf.source)

    def _request_task(self, name: str, now: float, source: str) -> None:
        row = self.rows.get(name)
        if row is None:
            # Bound/control names may legitimately be absent from a design.
            return
        instance = TaskInstance(task=row.task, uid=next(self._uids), requested_at=now, source=source)
        counts = self.collector.count(name)
        counts.triggered += 1
        outcome = self.attention.request(instance, now)
        if isinstance(outcome, Granted):
            self._start_instance(row, instance, now, source)
        elif isinstance(outcome, Queued):
            counts.queued += 1
            if self.trace:
                self.collector.record(
                    now,
                    "task-queued",
                    {
                        "task": name,
                        "instance": instance.uid,
                        **row.queued,
                        "reason": outcome.reason.value,
                        "position": outcome.position,
                        "coalesced": outcome.coalesced,
                        "source": source,
                    },
                )
        else:
            assert isinstance(outcome, Aborted)
            counts.aborted += 1
            self.collector.add_abort(outcome.reason, row.total_time)
            if self.trace:
                self.collector.record(
                    now,
                    "task-abort",
                    {
                        "task": name,
                        "instance": instance.uid,
                        "initiator": row.queued["initiator"],
                        "reason": outcome.reason.value,
                        "total_time": row.total_time,
                        "source": source,
                    },
                )

    def _emit_bound(self, names: tuple[str, ...], now: float, source: str) -> None:
        """Emit the machine tasks bound to one vehicle event.

        Within a single emitted list, a task that another listed task
        names as its follow-up is not requested here: it rides the
        follow-up chain at the first task's completion instead.  Pointing
        one bound task's follow-up at another is therefore all it takes
        to serialize two simultaneous signals.
        """
        chained: set[str] = set()
        for name in names:
            row = self.rows.get(name)
            if row is not None and row.task.triggers is not None and row.task.triggers in names:
                chained.add(row.task.triggers)
        for name in names:
            if name not in chained:
                self._request_task(name, now, source)

    def _start_instance(self, row: _TaskRow, instance: TaskInstance, now: float, source: str) -> None:
        self.calendar.schedule(now + row.total_time, EventKind.TASK_END, instance)
        if self.trace:
            self.collector.record(
                now,
                "task-start",
                {"task": row.task.name, "instance": instance.uid, **row.start, "source": source},
            )

    def _release(self, instance: TaskInstance, now: float, completed: bool) -> list[TaskInstance]:
        """Free an instance and record its end; a completed end returns the queued instances it admits."""
        admitted = self.attention.release(instance, now, admit=completed)
        if self.trace:
            self.collector.record(
                now,
                "task-end",
                {
                    "task": instance.task.name,
                    "instance": instance.uid,
                    "completed": completed,
                    "started_at": instance.started_at,
                },
            )
        return admitted

    def _on_task_end(self, instance: TaskInstance, now: float) -> None:
        task = instance.task
        row = self.rows[task.name]
        admitted = self._release(instance, now, completed=True)
        self.collector.count(task.name).executed += 1
        self.collector.add_eyes_off(row.eyes_off)
        for waiting in admitted:
            self._start_instance(self.rows[waiting.task.name], waiting, now, f"dequeued:{waiting.source}")
        parameter = task.awareness_parameter
        if parameter is not None:
            previous = self.beliefs[parameter]
            value = self.beliefs[parameter] = driver_mod.discretize(
                self.truth[parameter], self.scenario.awareness[parameter].resolution
            )
            if value != previous:  # else awareness cannot change
                self._update_awareness()
            if self.trace:
                self.collector.record(
                    now,
                    "memory-update",
                    {
                        "parameter": parameter,
                        "value": value,
                        "task": task.name,
                        "instance": instance.uid,
                    },
                )
        if task.triggers is not None:
            self._request_task(task.triggers, now, row.chain_source)
        if row.control is not None:
            self._apply_control(task.name, row.control, now)

    def _apply_control(self, task_name: str, control: ControlBinding, now: float) -> None:
        result = self.machine.transition(control.action, control.target)
        self._update_awareness()
        if self.trace:
            self._record_level(now, result, f"control:{task_name}", control.action)
        self._emit_bound(result.emitted, now, source="binding:level_change")

    def _on_boundary(self, segment: RoadSegment, now: float) -> None:
        previous_max = self.machine.current_max
        result = self.machine.on_boundary(segment)
        self._update_awareness()
        if self.trace:
            self.collector.record(
                now, "road-change", {"max_level": segment.max_level, "previous_max": previous_max}
            )
            if result.level_changed:
                self._record_level(now, result, "availability-drop")
        self._emit_bound(result.emitted, now, source="binding:availability")

    def _record_level(self, now: float, result: TransitionResult, cause: str, action: str | None = None) -> None:
        """Record a level vehicle-transition; only a driver control has an ``action``."""
        head: dict[str, Any] = {"change": "level", "cause": cause}
        if action is not None:
            head["action"] = action
        self.collector.record(
            now,
            "vehicle-transition",
            {
                **head,
                "granted": result.granted,
                "previous": result.previous_level,
                "level": result.level,
                "note": result.note,
            },
        )

    def _on_tor(self, payload: TorPayload, now: float) -> None:
        active, emitted = self.machine.on_tor(payload)
        if self.trace:
            self.collector.record(
                now,
                "vehicle-transition",
                {
                    "change": "tor",
                    "phase": payload.phase.value,
                    "boundary": payload.boundary,
                    "segment_start": payload.segment_start,
                    "emitted": active,
                },
            )
        if active:
            self._emit_bound(emitted, now, source=f"binding:{payload.phase.value}")

    def _on_speed_change(self, change: tuple[float, float], now: float) -> None:
        speed = change[1]
        self.machine.set_speed(speed)
        self._update_awareness()
        if self.trace:
            self.collector.record(now, "vehicle-transition", {"change": "speed", "speed": speed})
        self._schedule_speed_change()

    def _schedule_speed_change(self) -> None:
        """Take the speed script's next change; one past the length never fires."""
        change = next(self._speed_changes, None)
        if change is not None and change[0] <= self.length:
            self.calendar.schedule(change[0], EventKind.SPEED_CHANGE, change)

    def _truncate_remaining(self) -> None:
        """Record the books balanced at the trial horizon (traced trials only).

        Instances still active at the end are released without queue
        admission and recorded as uncompleted ends; they contribute no
        eyes-off time, no belief updates, and no follow-ups.  The
        indicators are integrated to the horizon before any release.
        """
        self.collector.advance(self.length)
        active = self.attention.active_instances()
        leftover_queue = [q.task.name for q in self.attention.queued_instances()]
        for instance in active:
            self._release(instance, self.length, completed=False)
        self.collector.record(
            self.length,
            "trial-end",
            {"truncated": [i.task.name for i in active], "still_queued": leftover_queue},
        )


#: The handler of each calendar event kind, called as ``handler(trial, payload, now)``.
#: Plain functions, not bound methods kept on the trial: those would form a
#: reference cycle that keeps a finished trial and its trace alive until a cyclic GC.
_HANDLERS: dict[EventKind, Callable[[_Trial, Any, float], None]] = {
    EventKind.TRIGGER: _Trial._on_cognitive_trigger,
    EventKind.TASK_END: _Trial._on_task_end,
    EventKind.ROAD_CHANGE: _Trial._on_boundary,
    EventKind.TOR: _Trial._on_tor,
    EventKind.SPEED_CHANGE: _Trial._on_speed_change,
}
