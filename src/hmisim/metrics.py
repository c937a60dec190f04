"""Trial indicators, timeline traces, aggregation, and file formats.

Four indicators summarize a trial, each as a percentage:

* ``eyes_off_pct`` — share of trial time spent looking away from the road:
  the sum of gaze + duration + gaze over completed visual tasks located on
  off-road elements (head-up display counts as on-road; non-visual tasks
  never contribute).
* ``cog_overload_pct`` — share of time the total cognitive demand (active
  plus queued) exceeds capacity; a machine task aborted on the cognitive
  cap adds its full occupancy time as a point contribution.
* ``perc_overload_pct`` — the perceptual analogue; channel-conflict aborts
  and channel-conflict queuing count as perceptual contention.
* ``sa_avg_pct`` — time average of situation awareness.

The timeline trace is the replayable record of a trial: one record per
fired or synchronous event carrying the event payload and a post-event
snapshot (active workload sums, awareness, automation level, road cap).
Exports are line-delimited JSON with a stable field order.  A collector
hands each record to its sink: by default a list of :class:`TraceRecord`,
and for ``hmisim run`` the trace file itself, one :func:`trace_line` each.
"""

from __future__ import annotations

import gc
import json
import re
from dataclasses import dataclass, field, fields
from json.encoder import c_make_encoder, encode_basestring
from pathlib import Path
from statistics import median_low  # for an even count, the lower middle; re-exported as hmisim.median_low
from typing import Any, Callable, Iterable, Iterator

from .attention import CAP_TOLERANCE, CAPACITY, AbortReason, AttentionState
from .tasks import replacing, write_csv
from .vehicle import AutomationStateMachine

METRICS_CSV_HEADER = ["seed", "eyes_off_pct", "cog_overload_pct", "perc_overload_pct", "sa_avg_pct"]
SUMMARY_CSV_HEADER = ["config", "trials"] + METRICS_CSV_HEADER[1:]
SCATTER_CSV_HEADER = ["config"] + METRICS_CSV_HEADER
COUNTS_CSV_HEADER = ["task", "triggered", "executed", "queued", "aborted"]
PAIRED_CSV_HEADER = ["seed"] + [f"d_{name}" for name in METRICS_CSV_HEADER[1:]]
TIMELINE_CSV_HEADER = [
    "time", "kind", "task", "cognitive_sum", "perceptual_sum", "awareness", "level", "road_max",
]

#: What ``json.dumps(..., ensure_ascii=False)`` builds per call, built once.
_TRACE_ENCODER = json.JSONEncoder(ensure_ascii=False)
#: ``_encode(value, 0)`` gives the JSON text of ``value`` in chunks: the C encoder that
#: ``_TRACE_ENCODER.encode`` builds per call, built once and without its cycle check.
_encode = (
    c_make_encoder(
        None, _TRACE_ENCODER.default, encode_basestring, _TRACE_ENCODER.indent,
        _TRACE_ENCODER.key_separator, _TRACE_ENCODER.item_separator,
        _TRACE_ENCODER.sort_keys, _TRACE_ENCODER.skipkeys, _TRACE_ENCODER.allow_nan,
    )
    if c_make_encoder is not None
    else lambda value, _level: (_TRACE_ENCODER.encode(value),)
)
_TRACE_DECODER = json.JSONDecoder()
#: About how many characters of lines :func:`iter_trace` decodes in one call.
_TRACE_CHUNK_HINT = 256 * 1024
#: A comma between two objects with no line break around it: two records on one line.
_TWO_OBJECTS = re.compile(r"\}[ \t\r]*,[ \t\r]*\{")


@dataclass
class TaskCounts:
    triggered: int = 0
    executed: int = 0
    queued: int = 0
    aborted: int = 0


@dataclass
class TrialMetrics:
    seed: int
    trial_length: float
    eyes_off_fraction: float
    cognitive_overload_fraction: float
    perceptual_overload_fraction: float
    sa_average: float
    eyes_off_seconds: float
    cognitive_overload_seconds: float
    perceptual_overload_seconds: float
    per_task_counts: dict[str, TaskCounts] = field(default_factory=dict)

    def indicator_row(self) -> list[float]:
        return [
            self.eyes_off_fraction,
            self.cognitive_overload_fraction,
            self.perceptual_overload_fraction,
            self.sa_average,
        ]


@dataclass
class TraceRecord:
    time: float
    kind: str
    payload: dict[str, Any]
    cognitive_sum: float
    perceptual_sum: float
    awareness: float
    level: int
    road_max: int

    def to_json(self) -> str:
        """One JSON object whose keys follow the field order above: its :func:`trace_line`, unended."""
        return trace_line(*vars(self).values())[:-1]


#: The trace keys, in the order ``to_json`` writes them.
_TRACE_FIELDS = tuple(f.name for f in fields(TraceRecord))

#: Where a collector sends each trace record, called with the record's fields in order.
TraceSink = Callable[[float, str, dict[str, Any], float, float, float, int, int], object]


def trace_line(
    time: float, kind: str, payload: dict[str, Any],
    cognitive_sum: float, perceptual_sum: float, awareness: float, level: int, road_max: int,
) -> str:
    """One trace record as its line of the trace file.

    The line is ``json.dumps`` of the fields, in order, with ``ensure_ascii=False``, plus
    ``\\n``, where the numbers outside the payload are ints or finite floats, as a trial
    records them: those are written by their ``repr``.
    """
    return (
        f'{{"time": {time!r}, "kind": {encode_basestring(kind)}, "payload": {"".join(_encode(payload, 0))}, '
        f'"cognitive_sum": {cognitive_sum!r}, "perceptual_sum": {perceptual_sum!r}, '
        f'"awareness": {awareness!r}, "level": {level!r}, "road_max": {road_max!r}}}\n'
    )


def eyes_off_contribution(total_time: float, perception_type: str, on_road: bool) -> float:
    """Seconds of eyes-off-road one completed task execution adds."""
    if perception_type != "visual" or on_road:
        return 0.0
    return total_time


class MetricsCollector:
    """Accumulates the indicators and the trace records it is given.

    The collector reads the trial's state where the trial keeps it: the
    workload sums, demands and channel-conflict flag on ``attention``, the
    automation level and road cap on ``machine``, and :attr:`awareness`,
    which the trial sets whenever beliefs or ground truth change.  The
    orchestrator calls :meth:`advance` with the event time before touching
    any state (integrating the signals that held since the last record),
    then applies its changes, then :meth:`record`s them.  The indicators
    need only :meth:`advance` and the point accruals: an untraced trial
    never calls :meth:`record`, so it builds no payloads and no records,
    and :attr:`records` stays empty.  :meth:`record` hands each record's
    fields to ``sink``; without one they are kept in :attr:`records`.
    """

    def __init__(
        self, trial_length: float, attention: AttentionState, machine: AutomationStateMachine, sink: TraceSink | None = None
    ) -> None:
        self.trial_length = trial_length
        self.attention = attention
        self.machine = machine
        self.awareness = 1.0
        self.records: list[TraceRecord] = []
        append = self.records.append  # the default sink builds each record positionally
        self.sink = (lambda *fields: append(TraceRecord(*fields))) if sink is None else sink
        self.counts: dict[str, TaskCounts] = {}
        self._last_time = 0.0
        self._eyes_off = 0.0
        self._cog_over = 0.0
        self._perc_over = 0.0
        self._sa_integral = 0.0

    def advance(self, now: float) -> None:
        dt = now - self._last_time
        if dt <= 0:
            return
        attention = self.attention
        if attention.cognitive_demand > CAPACITY + CAP_TOLERANCE:
            self._cog_over += dt
        if attention.perceptual_demand > CAPACITY + CAP_TOLERANCE or attention.channel_conflict:
            self._perc_over += dt
        self._sa_integral += self.awareness * dt
        self._last_time = now

    def record(self, now: float, kind: str, payload: dict[str, Any]) -> None:
        attention, machine = self.attention, self.machine
        self.sink(
            now, kind, payload, attention.cognitive_sum, attention.perceptual_sum,
            self.awareness, machine.level, machine.current_max,
        )

    # -- point accruals -------------------------------------------------------

    def add_eyes_off(self, seconds: float) -> None:
        self._eyes_off += seconds

    def add_abort(self, reason: AbortReason, occupancy_seconds: float) -> None:
        if reason is AbortReason.COGNITIVE:
            self._cog_over += occupancy_seconds
        else:
            self._perc_over += occupancy_seconds

    def count(self, task_name: str) -> TaskCounts:
        counts = self.counts.get(task_name)
        if counts is None:
            counts = self.counts[task_name] = TaskCounts()
        return counts

    # -- finalization ----------------------------------------------------------

    def finalize(self, seed: int) -> TrialMetrics:
        self.advance(self.trial_length)
        length = self.trial_length
        return TrialMetrics(
            seed=seed,
            trial_length=length,
            eyes_off_fraction=100.0 * self._eyes_off / length,
            cognitive_overload_fraction=min(100.0, 100.0 * self._cog_over / length),
            perceptual_overload_fraction=min(100.0, 100.0 * self._perc_over / length),
            sa_average=100.0 * self._sa_integral / length,
            eyes_off_seconds=self._eyes_off,
            cognitive_overload_seconds=self._cog_over,
            perceptual_overload_seconds=self._perc_over,
            per_task_counts=self.counts,
        )


# ---------------------------------------------------------------------------
# aggregation

@dataclass
class AggregateSummary:
    trials: int
    medians: dict[str, float]


def aggregate(trials: list[TrialMetrics]) -> AggregateSummary:
    if not trials:
        raise ValueError("aggregate needs at least one trial")
    columns = zip(*(t.indicator_row() for t in trials))
    medians = {name: median_low(column) for name, column in zip(METRICS_CSV_HEADER[1:], columns)}
    return AggregateSummary(trials=len(trials), medians=medians)


# ---------------------------------------------------------------------------
# file formats

def write_trace(records: Iterable[TraceRecord], path: str | Path) -> None:
    """Write one :func:`trace_line` per record, through :func:`~hmisim.tasks.replacing`."""
    with replacing(path) as handle:
        handle.writelines(trace_line(*vars(record).values()) for record in records)


def read_trace(path: str | Path) -> list[TraceRecord]:
    """Every record of a trace, as :func:`iter_trace` yields them.

    The records hold no reference cycles, so the cyclic garbage collector
    is paused while they are read: each of its passes would traverse the
    records read so far and free none of them.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return list(iter_trace(path))
    finally:
        if enabled:
            gc.enable()


def iter_trace(path: str | Path) -> Iterator[TraceRecord]:
    """Parse a trace, one record per line, skipping blank lines.

    A line with a missing or unknown key, or whose payload is not a JSON
    object, raises TypeError; a line that is not one JSON value, with only
    JSON whitespace around it, raises json.JSONDecodeError.  The first bad
    line raises.
    """
    with open(path, encoding="utf-8") as handle:
        while chunk := handle.readlines(_TRACE_CHUNK_HINT):
            lines = [line for line in chunk if not line.isspace()]
            rows = _one_record_per_line(lines)
            if rows is None:
                yield from map(_trace_record, lines)  # the first bad line raises what it raises alone
            else:
                del chunk, lines  # the records hold what they need of the text
                yield from map(_trace_row, rows)


def _one_record_per_line(lines: list[str]) -> list[Any] | None:
    """The values of ``lines`` from one decode call, one per line, or None when they cannot
    be shown to be one object per line.

    One call shares each key string across the chunk.  It is trusted when it gives as many
    objects as lines and no comma sits between two objects with no line break around it.
    Proof: n values need n - 1 top-level commas.  Each line but the file's last ends with
    its line break, so a top-level comma inside a line would be such a comma, and each
    joining comma, which follows a line break, is not.  So the n - 1 joining commas are the
    top-level ones, and each line holds exactly one value.
    """
    text = "[" + ",".join(lines) + "]"
    try:
        rows = _TRACE_DECODER.decode(text)
    except (ValueError, RecursionError):
        return None
    if len(rows) != len(lines) or not all(type(row) is dict for row in rows) or _TWO_OBJECTS.search(text):
        return None
    return rows


def _trace_record(line: str) -> TraceRecord:
    text = line.strip(" \t\n\r")  # the JSON whitespace around a value
    row, end = _TRACE_DECODER.raw_decode(text)  # one JSON value from the start, and where it ends
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return _trace_row(row)


def _trace_row(row: Any) -> TraceRecord:
    if type(row) is dict and tuple(row) == _TRACE_FIELDS and type(row["payload"]) is dict:
        return TraceRecord(*row.values())
    record = TraceRecord(**row)  # a missing or unknown key raises TypeError
    if type(record.payload) is not dict:
        raise TypeError(f"trace payload must be a JSON object, got {record.payload!r}")
    return record


def write_metrics_csv(trials: Iterable[TrialMetrics], path: str | Path) -> None:
    write_csv(path, METRICS_CSV_HEADER, ([t.seed, *t.indicator_row()] for t in trials))


def write_counts_csv(counts: dict[str, TaskCounts], path: str | Path) -> None:
    rows = ([n, c.triggered, c.executed, c.queued, c.aborted] for n, c in sorted(counts.items()))
    write_csv(path, COUNTS_CSV_HEADER, rows)


def write_summary_csv(batches: dict[str, list[TrialMetrics]], path: str | Path) -> None:
    """One row per batch: its name, its trial count and its four medians."""
    summaries = ((name, aggregate(trials)) for name, trials in batches.items())
    write_csv(path, SUMMARY_CSV_HEADER, ([name, s.trials, *s.medians.values()] for name, s in summaries))


def write_scatter_csv(batches: dict[str, list[TrialMetrics]], path: str | Path) -> None:
    """One row per trial: its batch's name, its seed and its four indicators."""
    rows = ([name, t.seed, *t.indicator_row()] for name, trials in batches.items() for t in trials)
    write_csv(path, SCATTER_CSV_HEADER, rows)


def write_timeline_csv(records: Iterable[TraceRecord], path: str | Path) -> None:
    """Flatten a trace into a plot-ready per-record table."""
    rows = (
        [
            r.time, r.kind, r.payload.get("task") or r.payload.get("function") or "",
            r.cognitive_sum, r.perceptual_sum, r.awareness, r.level, r.road_max,
        ]
        for r in records
    )
    write_csv(path, TIMELINE_CSV_HEADER, rows)


def write_paired_csv(
    seeds: list[int], diffs: list[tuple[float, float, float, float]], path: str | Path
) -> None:
    write_csv(path, PAIRED_CSV_HEADER, ([seed, *row] for seed, row in zip(seeds, diffs)))
