"""Trace replay: recompute rules and indicators from a trace alone.

These functions reconstruct the attention state purely from trace
records, so they double as an independent integration path for the
indicators and as an audit of the hard rules (channel exclusivity,
capacity caps, machine tasks never queued, driver tasks never aborted,
balanced start/end pairs, automation level never above the road cap,
take-over request lead times).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Iterable

from .attention import CAP_TOLERANCE, CAPACITY, AbortReason
from .metrics import TraceRecord


@dataclass
class ReplayedMetrics:
    eyes_off_seconds: float
    cognitive_overload_seconds: float
    perceptual_overload_seconds: float
    sa_integral: float

    def sa_average(self, trial_length: float) -> float:
        return 100.0 * self.sa_integral / trial_length


@dataclass
class ReplayReport:
    violations: list[str] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.violations


def replay_metrics(records: Iterable[TraceRecord], trial_length: float) -> ReplayedMetrics:
    """Second, trace-only computation of the four indicators, in one pass.

    The demand (active plus queued workload, and whether a queued task
    waits for a busy channel) changes only at a task-start, a
    non-coalesced task-queued or a task-end, so only those records
    recompute it.  Every record closes the stretch since the one before,
    so overload accrues one term per record, then one per machine abort.
    """
    # each instance maps to its own task-start or task-queued payload, never modified
    active: dict[int, dict[str, Any]] = {}
    queued: dict[int, dict[str, Any]] = {}
    # and to its workloads; a demand is the fsum of a dict's values, whatever their order
    active_cognitive: dict[int, float] = {}
    active_perceptual: dict[int, float] = {}
    queued_cognitive: dict[int, float] = {}
    queued_perceptual: dict[int, float] = {}
    aborts: list[tuple[AbortReason, float]] = []
    eyes_off = cognitive = perceptual = sa_integral = 0.0
    last_time = 0.0
    records = iter(records)
    first = next(records, None)
    last_awareness = 1.0 if first is None else first.awareness
    # overload of the demand holding since the previous record (none before the first)
    cognitive_over = perceptual_over = False
    for record in records if first is None else chain((first,), records):
        now = record.time
        sa_integral += last_awareness * (now - last_time)
        if cognitive_over or perceptual_over:
            dt = max(min(now, trial_length) - last_time, 0.0)
            if cognitive_over:
                cognitive += dt
            if perceptual_over:
                perceptual += dt
        last_time = now
        last_awareness = record.awareness
        kind = record.kind
        payload = record.payload
        if kind == "task-start":
            uid = payload["instance"]
            if queued.pop(uid, None) is not None:
                del queued_cognitive[uid], queued_perceptual[uid]
            active[uid] = payload
            active_cognitive[uid] = payload["cognitive"]
            active_perceptual[uid] = payload["perceptual"]
        elif kind == "task-queued" and not payload["coalesced"]:
            uid = payload["instance"]
            queued[uid] = payload
            queued_cognitive[uid] = payload["cognitive"]
            queued_perceptual[uid] = payload["perceptual"]
        elif kind == "task-end":
            uid = payload["instance"]
            entry = active.pop(uid, None)
            if entry is None:
                continue  # nothing was active under this instance: the demand holds
            del active_cognitive[uid], active_perceptual[uid]
            if payload["completed"] and entry["channel"] == "visual" and not entry["on_road"]:
                eyes_off += entry["total_time"]  # a completed glance away from the road
        else:
            if kind == "task-abort":
                aborts.append((AbortReason(payload["reason"]), payload["total_time"]))
            continue
        cognitive_over = (
            math.fsum(active_cognitive.values()) + math.fsum(queued_cognitive.values()) > CAPACITY + CAP_TOLERANCE
        )
        perceptual_over = (
            math.fsum(active_perceptual.values()) + math.fsum(queued_perceptual.values()) > CAPACITY + CAP_TOLERANCE
        )
        if queued and not perceptual_over:
            busy = {t["channel"] for t in active.values()}
            perceptual_over = any(w["channel"] in busy for w in queued.values())
    if cognitive_over or perceptual_over:
        dt = max(trial_length - last_time, 0.0)
        if cognitive_over:
            cognitive += dt
        if perceptual_over:
            perceptual += dt
    sa_integral += last_awareness * (trial_length - last_time)
    for reason, seconds in aborts:
        if reason is AbortReason.COGNITIVE:
            cognitive += seconds
        else:  # perceptual cap and channel conflicts are perceptual contention
            perceptual += seconds
    return ReplayedMetrics(
        eyes_off_seconds=eyes_off,
        cognitive_overload_seconds=cognitive,
        perceptual_overload_seconds=perceptual,
        sa_integral=sa_integral,
    )


def check_safety_rules(records: Iterable[TraceRecord]) -> ReplayReport:
    """Audit the hard admission rules over a trace."""
    report = ReplayReport()
    active: dict[int, dict[str, Any]] = {}
    starts = 0
    ends = 0
    last_time = -math.inf
    for record in records:
        if record.time < last_time:
            report.violations.append(f"time went backwards at {record.time}")
        last_time = record.time
        payload = record.payload
        if record.kind == "task-start":
            starts += 1
            channel = payload["channel"]
            holders = [t for t in active.values() if t["channel"] == channel]
            if holders:
                report.violations.append(
                    f"t={record.time}: channel {channel} double-occupied by "
                    f"{holders[0]['task']} and {payload['task']}"
                )
            active[payload["instance"]] = payload
            cog = math.fsum(t["cognitive"] for t in active.values())
            perc = math.fsum(t["perceptual"] for t in active.values())
            if cog > CAPACITY + CAP_TOLERANCE:
                report.violations.append(
                    f"t={record.time}: active cognitive sum {cog} exceeds {CAPACITY}"
                )
            if perc > CAPACITY + CAP_TOLERANCE:
                report.violations.append(
                    f"t={record.time}: active perceptual sum {perc} exceeds {CAPACITY}"
                )
        elif record.kind == "task-queued":
            if payload["initiator"] == "machine":
                report.violations.append(f"t={record.time}: machine task {payload['task']} was queued")
        elif record.kind == "task-abort":
            if payload["initiator"] == "driver":
                report.violations.append(f"t={record.time}: driver task {payload['task']} was aborted")
        elif record.kind == "task-end":
            ends += 1
            if active.pop(payload["instance"], None) is None:
                report.violations.append(
                    f"t={record.time}: end of instance {payload['instance']} that never started"
                )
        if record.level > record.road_max:
            report.violations.append(
                f"t={record.time}: automation level {record.level} above road cap {record.road_max}"
            )
    if starts != ends:
        report.violations.append(f"unbalanced start/end records: {starts} starts, {ends} ends")
    if active:
        report.violations.append(f"{len(active)} instances never released")
    return report


def check_tor_lead_times(
    records: Iterable[TraceRecord],
    lead_seconds: float = 60.0,
    final_seconds: float = 10.0,
    tolerance: float = 1e-9,
) -> ReplayReport:
    """Check every take-over request instant against its boundary."""
    report = ReplayReport()
    for record in records:
        if record.kind != "vehicle-transition" or record.payload.get("change") != "tor":
            continue
        boundary = record.payload["boundary"]
        segment_start = record.payload["segment_start"]
        lead = lead_seconds if record.payload["phase"] == "TOR60" else final_seconds
        expected = max(boundary - lead, segment_start)
        if abs(record.time - expected) > tolerance:
            report.violations.append(
                f"{record.payload['phase']} at t={record.time}: expected {expected} "
                f"(boundary {boundary}, segment start {segment_start})"
            )
    return report
