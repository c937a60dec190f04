"""Span tracer for the benchmark's traced run.

The tracer wraps the public calls into each hmisim module from outside:
it replaces the name where the caller looks it up (``hmisim.trial.
generate_timeline``, ``EventCalendar.schedule``, ...) with a wrapper that
records a span, and puts the original back when :meth:`Tracer.installed`
ends.  No hmisim source is touched, so an untraced run executes the
program exactly as users do.

Every span is folded, when it closes, into a table keyed by
``(parent span name, span name)`` holding calls, total seconds and self
seconds (the span's duration minus the time covered by its child spans).
The per-event spans (calendar, attention, driver, collector) are only
folded; the coarse ones (one or a few per trial or per call) are also
kept whole -- name, start, end, parent -- and written out when the run
ends.  Folding keeps memory flat: a 60 000 s trial opens about 200 000
spans.

Pool workers: ``hmisim.experiment`` fans trials out with a
``ProcessPoolExecutor``.  With the fork start method (the Linux default
before Python 3.14) the workers inherit the installed wrappers.  The
wrapper of the worker entry point (``experiment._run_star``) starts each
task with empty tables and appends them to a spool file when the task
ends; :meth:`Tracer.merge_spool` folds the spool files into the parent's
tables.

Two tables are kept, one per phase: ``ops`` (the timed workload
operations) and ``checks`` (the output checks that follow them).
"""

from __future__ import annotations

import itertools
import json
import os
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

#: Spans kept whole (besides being folded into the table).
COARSE = {
    "bench.op",
    "cli.main",
    "trial.run_trial",
    "engine.run_until",
    "tasks.validate",
    "tasks.load_configuration",
    "tasks.copy_configuration",
    "scenario.load_scenario",
    "scenario.cross_validate",
    "vehicle.generate_timeline",
    "vehicle.schedule_tor",
    "metrics.write_trace",
    "metrics.read_trace",
    "metrics.write_csv",
    "replay.replay_metrics",
    "replay.check_safety_rules",
    "replay.check_tor_lead_times",
    "experiment.load_plan",
    "experiment.local_search",
    "experiment.run_many",
    "experiment.run_metrics",
    "experiment.enumerate_moves",
    "experiment.apply_move",
}

#: Children of ``trial.run_trial`` that make up its fixed per-trial cost.
TRIAL_FIXED = ("tasks.validate", "scenario.cross_validate", "vehicle.generate_timeline", "vehicle.schedule_tor")


class Tracer:
    def __init__(self, spool: Path) -> None:
        self.pid = os.getpid()
        self.spool = spool
        self.tables: dict[str, dict] = {"ops": {}, "checks": {}}
        self.counters: dict[str, dict] = {"ops": {}, "checks": {}}
        self.spans: list[tuple] = []
        self._pid = self.pid
        self._stack: list[list] = []  # frames: [name, child seconds, span id, pid]
        self._ids = itertools.count(1)
        self._replacements: list[tuple[object, str, object]] | None = None
        self.set_phase("ops")

    # -- recording -------------------------------------------------------------

    def set_phase(self, phase: str) -> None:
        self.phase = phase
        self._table = self.tables[phase]
        self._counters = self.counters[phase]

    def add(self, key: str, amount: float) -> None:
        self._counters[key] = self._counters.get(key, 0) + amount

    def _close(self, frame: list, start: float) -> float:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        dt = end - start
        if stack:
            parent = stack[-1]
            parent[1] += dt
            key = (parent[0], frame[0])
        else:
            parent = None
            key = (None, frame[0])
        agg = self._table.get(key)
        if agg is None:
            agg = self._table[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dt
        agg[2] += dt - frame[1]
        if frame[0] in COARSE:
            self.spans.append((
                self.phase, self._pid, frame[2],
                parent[3] if parent else None, parent[2] if parent else None,
                frame[0], start, end,
            ))
        return dt

    def wrap(self, name: str, fn, on_exit=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``on_exit(args, kwargs, result, seconds)`` runs after a call that
        returned, for counters that need the arguments or the result.
        """
        stack = self._stack
        ids = self._ids
        close = self._close

        def traced(*args, **kwargs):
            frame = [name, 0.0, next(ids), self._pid]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = close(frame, start)
            if on_exit is not None:
                on_exit(args, kwargs, result, dt)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        frame = [name, 0.0, next(self._ids), self._pid]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(frame, start)

    # -- installing the wrappers --------------------------------------------------

    @contextmanager
    def installed(self, hm):
        """Put the wrappers in place for the duration of the block."""
        if self._replacements is None:
            self._replacements = self._build(hm)
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in self._replacements]
        for owner, attr, replacement in self._replacements:
            setattr(owner, attr, replacement)
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _build(self, hm) -> list[tuple[object, str, object]]:
        """Where each layer is entered, and the span name it gets there."""
        cli, trial, experiment, engine = hm.cli, hm.trial, hm.experiment, hm.engine
        attention, driver, vehicle = hm.attention, hm.driver, hm.vehicle
        metrics, replay = hm.metrics, hm.replay
        out: list[tuple[object, str, object]] = []

        def put(owner, attr, name, on_exit=None):
            out.append((owner, attr, self.wrap(name, getattr(owner, attr), on_exit)))

        def file_bytes(counter, index):
            def hook(args, kwargs, result, dt):
                self.add(counter, os.path.getsize(args[index]))
            return hook

        def trial_counts(args, kwargs, result, dt):
            self.add("trial.records", len(result.records))
            counts = result.metrics.per_task_counts.values()
            self.add("trial.queued", sum(c.queued for c in counts))
            self.add("trial.aborted", sum(c.aborted for c in counts))

        def pool_capacity(args, kwargs, result, dt):
            seeds = args[2]
            jobs = args[4] if len(args) > 4 else kwargs.get("jobs", 1)
            workers = min(jobs, len(seeds)) if jobs > 1 and len(seeds) > 1 else 1
            self.add("experiment.worker_capacity_s", workers * dt)

        def evaluations(args, kwargs, result, dt):
            self.add("experiment.evaluations", result.evaluations)

        put(cli, "main", "cli.main")
        put(cli, "load_configuration", "tasks.load_configuration")
        put(cli, "load_scenario", "scenario.load_scenario")
        put(cli, "load_plan", "experiment.load_plan")
        put(cli, "run_trial", "trial.run_trial", trial_counts)
        put(cli, "local_search", "experiment.local_search", evaluations)
        put(cli, "write_trace", "metrics.write_trace", file_bytes("metrics.write_trace_bytes", 1))
        for writer in ("write_metrics_csv", "write_counts_csv", "write_summary_csv", "write_scatter_csv"):
            put(cli, writer, "metrics.write_csv")

        put(experiment, "load_configuration", "tasks.load_configuration")
        put(experiment, "load_scenario", "scenario.load_scenario")
        put(experiment, "run_trial", "trial.run_trial", trial_counts)
        put(experiment, "run_many", "experiment.run_many", pool_capacity)
        put(experiment, "run_metrics", "experiment.run_metrics")
        put(experiment, "enumerate_moves", "experiment.enumerate_moves")
        put(experiment, "apply_move", "experiment.apply_move")
        put(experiment, "copy_configuration", "tasks.copy_configuration")
        put(experiment, "validate", "tasks.validate")
        out.append((experiment, "_run_star", self._worker_entry(experiment._run_star)))
        out.append((experiment, "ProcessPoolExecutor", self._counting_pool(experiment.ProcessPoolExecutor)))

        put(trial, "validate", "tasks.validate")
        put(trial, "cross_validate", "scenario.cross_validate")
        put(trial, "generate_timeline", "vehicle.generate_timeline")
        put(trial, "schedule_tor", "vehicle.schedule_tor")

        calendar = engine.EventCalendar
        put(calendar, "schedule", "engine.schedule")
        run_until = calendar.run_until

        def run_until_traced_dispatch(cal, t_end, dispatcher):
            return run_until(cal, t_end, self.wrap("trial.dispatch", dispatcher))

        out.append((calendar, "run_until", self.wrap("engine.run_until", run_until_traced_dispatch)))

        state = attention.AttentionState
        put(state, "request", "attention.request")
        put(state, "release", "attention.release")
        put(state, "snapshot", "attention.snapshot")
        put(state, "queued_channel_conflict", "attention.conflict_scan")

        put(driver, "awareness", "driver.awareness")
        put(driver, "next_trigger", "driver.next_trigger")

        machine = vehicle.AutomationStateMachine
        for method in ("on_boundary", "on_tor", "transition", "set_speed"):
            put(machine, method, "vehicle.machine")

        collector = metrics.MetricsCollector
        put(collector, "record", "metrics.record")
        put(collector, "advance", "metrics.advance")
        # Called by the benchmark itself, through the module attribute.
        put(metrics, "read_trace", "metrics.read_trace", file_bytes("metrics.read_trace_bytes", 0))
        for check in ("replay_metrics", "check_safety_rules", "check_tor_lead_times"):
            put(replay, check, f"replay.{check}")
        return out

    def _counting_pool(self, base):
        tracer = self

        class ProcessPoolExecutor(base):
            def __init__(self, *args, **kwargs):
                tracer.add("experiment.pools_created", 1)
                super().__init__(*args, **kwargs)

        return ProcessPoolExecutor

    def _worker_entry(self, original):
        """Wrap the pool task function so a forked worker reports its spans.

        The wrapper takes the original's module and name, so the executor
        still pickles it by reference and the worker finds this wrapper.
        """
        def entry(*args, **kwargs):
            if os.getpid() == self.pid:
                return original(*args, **kwargs)
            self._begin_worker_task()
            try:
                return original(*args, **kwargs)
            finally:
                self._spool_worker_task()

        entry.__module__ = original.__module__
        entry.__qualname__ = original.__qualname__
        entry.__name__ = original.__name__
        return entry

    def _begin_worker_task(self) -> None:
        inherited = self._stack[-1] if self._stack else None
        self._pid = os.getpid()
        for table in self.tables.values():
            table.clear()
        for counters in self.counters.values():
            counters.clear()
        self.spans.clear()
        self._stack.clear()
        # The spans of the task hang under the run_many span that forked the pool.
        parent_id, parent_pid = (inherited[2], inherited[3]) if inherited else (None, None)
        self._stack.append(["experiment.worker", 0.0, parent_id, parent_pid])

    def _spool_worker_task(self) -> None:
        record = {
            "phase": self.phase,
            "table": [[p, n, *agg] for (p, n), agg in self._table.items()],
            "counters": self._counters,
            "spans": self.spans,
        }
        self.spool.mkdir(parents=True, exist_ok=True)
        with open(self.spool / f"worker-{self._pid}.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")

    def merge_spool(self) -> int:
        """Fold the worker spool files into the tables; returns tasks merged."""
        merged = 0
        for path in sorted(self.spool.glob("worker-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                table = self.tables[record["phase"]]
                for parent, name, calls, total, self_s in record["table"]:
                    agg = table.setdefault((parent, name), [0, 0.0, 0.0])
                    agg[0] += calls
                    agg[1] += total
                    agg[2] += self_s
                counters = self.counters[record["phase"]]
                for key, value in record["counters"].items():
                    counters[key] = counters.get(key, 0) + value
                self.spans.extend(tuple(span) for span in record["spans"])
                merged += 1
            path.unlink()
        return merged

    def write_spans(self, path: Path) -> None:
        fields = ("phase", "pid", "id", "parent_pid", "parent_id", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s[6]):
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics

def layer_metrics(table: dict, counters: dict) -> dict[str, float | None]:
    """Per-layer figures from one phase table; None where undefined.

    Time and count figures of the trial path are per trial; trace I/O,
    replay, load and CLI figures are per call; experiment counts are per
    workload operation (``bench.op`` span).
    """
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for (_parent, name), (n, t, s) in table.items():
        calls[name] = calls.get(name, 0) + n
        total[name] = total.get(name, 0.0) + t
        self_s[name] = self_s.get(name, 0.0) + s

    def ratio(a, b):
        return a / b if b else None

    trials = calls.get("trial.run_trial", 0)
    ops = calls.get("bench.op", 0)
    events = calls.get("trial.dispatch", 0)

    def n(name):
        return calls.get(name, 0)

    def per_trial(value):
        return ratio(value, trials)

    def per_call(name, value=None):
        return ratio(total.get(name, 0.0) if value is None else value, n(name))

    fixed = sum(table.get(("trial.run_trial", child), (0, 0.0, 0.0))[1] for child in TRIAL_FIXED)
    written = counters.get("metrics.write_trace_bytes", 0)
    read = counters.get("metrics.read_trace_bytes", 0)
    capacity = counters.get("experiment.worker_capacity_s", 0.0)
    return {
        "engine.events_fired": per_trial(events),
        "engine.schedule_calls": per_trial(n("engine.schedule")),
        "engine.schedule_s": per_trial(total.get("engine.schedule", 0.0)),
        "engine.run_until_self_s": per_trial(self_s.get("engine.run_until", 0.0)),
        "engine.host_us_per_event": ratio(1e6 * total.get("engine.run_until", 0.0), events),
        "attention.request_s": per_trial(total.get("attention.request", 0.0)),
        "attention.release_s": per_trial(total.get("attention.release", 0.0)),
        "attention.snapshot_calls": per_trial(n("attention.snapshot")),
        "attention.snapshot_s": per_trial(total.get("attention.snapshot", 0.0)),
        "attention.conflict_scan_s": per_trial(total.get("attention.conflict_scan", 0.0)),
        "driver.awareness_calls": per_trial(n("driver.awareness")),
        "driver.awareness_s": per_trial(total.get("driver.awareness", 0.0)),
        "driver.next_trigger_s": per_trial(total.get("driver.next_trigger", 0.0)),
        "vehicle.generate_timeline_s": per_trial(total.get("vehicle.generate_timeline", 0.0)),
        "vehicle.machine_s": per_trial(self_s.get("vehicle.machine", 0.0)),
        "metrics.record_calls": per_trial(n("metrics.record")),
        "metrics.record_self_s": per_trial(self_s.get("metrics.record", 0.0)),
        "metrics.advance_s": per_trial(total.get("metrics.advance", 0.0)),
        "metrics.trace_bytes": ratio(written, n("metrics.write_trace")),
        "metrics.write_trace_s": per_call("metrics.write_trace"),
        "metrics.write_trace_mb_per_s": ratio(written / 1e6, total.get("metrics.write_trace", 0.0)),
        "metrics.read_trace_s": per_call("metrics.read_trace"),
        "metrics.read_trace_mb_per_s": ratio(read / 1e6, total.get("metrics.read_trace", 0.0)),
        "metrics.csv_write_s": per_call("metrics.write_csv"),
        "replay.replay_metrics_s": per_call("replay.replay_metrics"),
        "replay.check_safety_rules_s": per_call("replay.check_safety_rules"),
        "replay.check_tor_lead_times_s": per_call("replay.check_tor_lead_times"),
        "trial.run_trial_s": per_trial(total.get("trial.run_trial", 0.0)),
        "trial.self_s": per_trial(self_s.get("trial.run_trial", 0.0)),
        "trial.fixed_s": per_trial(fixed),
        "trial.records_per_trial": per_trial(counters.get("trial.records", 0)),
        "trial.queued_per_trial": per_trial(counters.get("trial.queued", 0)),
        "trial.aborted_per_trial": per_trial(counters.get("trial.aborted", 0)),
        "tasks.load_configuration_s": per_call("tasks.load_configuration"),
        "tasks.validate_calls": per_trial(n("tasks.validate")),
        "tasks.validate_s": per_trial(total.get("tasks.validate", 0.0)),
        "tasks.copy_configuration_s": per_call("tasks.copy_configuration"),
        "scenario.load_scenario_s": per_call("scenario.load_scenario"),
        "scenario.cross_validate_s": per_trial(total.get("scenario.cross_validate", 0.0)),
        "experiment.load_plan_s": per_call("experiment.load_plan"),
        "experiment.run_many_calls": ratio(n("experiment.run_many"), ops),
        "experiment.run_many_s": per_call("experiment.run_many"),
        "experiment.pools_created": ratio(counters.get("experiment.pools_created", 0), ops),
        "experiment.worker_busy_frac": ratio(total.get("experiment.run_metrics", 0.0), capacity),
        "experiment.enumerate_moves_s": per_call("experiment.enumerate_moves"),
        "experiment.apply_move_calls": ratio(n("experiment.apply_move"), ops),
        "experiment.apply_move_s": per_call("experiment.apply_move"),
        "experiment.eval_yield": ratio(counters.get("experiment.evaluations", 0), n("experiment.apply_move")),
        "cli.self_s": ratio(self_s.get("cli.main", 0.0), n("cli.main")),
    }
