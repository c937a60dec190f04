"""The two benchmark workloads and the checks on their outputs.

Each workload drives one user-facing command in-process through
``hmisim.cli.main``, on the bundled demo inputs, with seeds generated from
the benchmark's ``--seed``.  One operation is one command call; the
workload times it, checks what it wrote, and records a SHA-256 of every
output file with the simulated statistics, so two commits can be
compared for identical behaviour.

Why these two (the same text is in perfbench/README.md):

* ``run_trace`` -- the only workload that pays for TraceRecord
  construction, trace encode (write) and decode (read), and the replay
  oracle.  Write and read are timed apart.  It never touches a pool.
* ``optimize_search`` -- metrics only, no trace file: the trial hot path
  spread over process pools, plus the per-candidate cost (a fresh pool
  per candidate, validation per trial, move enumeration).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import multiprocessing
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from setup_probe import DEMO_ELEMENTS, DEMO_PLAN, DEMO_SCENARIO, DEMO_TASKS

INDICATORS = ["eyes_off_pct", "cog_overload_pct", "perc_overload_pct", "sa_avg_pct"]
FULL_LENGTH = 60_000.0  # seconds: the paper's unit of work, one trial


@dataclass
class Op:
    """One timed command call and what its outputs showed."""

    seed: int
    call_s: float = 0.0
    audit_s: float | None = None
    trials: int = 0
    evaluations: int = 0
    sim_s: float = 0.0
    wall_s: float = 0.0  # the whole operation, checks included
    traced: bool = False
    failures: list[str] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)
    stats: dict = field(default_factory=dict)

    @property
    def timed_s(self) -> float:
        return self.call_s + (self.audit_s or 0.0)


def call_cli(hm, argv: list[str]) -> tuple[int, str]:
    """Run ``hmisim <argv>`` in-process; returns (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = hm.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, err.getvalue().strip()


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def count_events(records) -> int:
    """Calendar events a trial fired, recovered from its trace.

    Triggers, road boundaries, completed task ends, take-over requests and
    speed changes are calendar events; level changes by controls or
    availability drops are recorded synchronously inside another event.
    """
    fired = 0
    for r in records:
        if r.kind in ("trigger", "road-change"):
            fired += 1
        elif r.kind == "task-end":
            fired += r.payload["completed"]
        elif r.kind == "vehicle-transition" and r.payload["change"] in ("tor", "speed"):
            fired += 1
    return fired


def audit_run_dir(hm, out: Path, length: float, scenario) -> tuple[float, list[str], dict]:
    """Read, replay and audit the trace ``hmisim run`` wrote to ``out``.

    Times read + replay + both audits; then checks that the replayed
    indicators equal ``metrics.csv`` to 1e-9 and that both audits are
    clean.  Returns (seconds, failures, simulated statistics).
    """
    start = perf_counter()
    records = hm.metrics.read_trace(out / "trace.jsonl")
    replayed = hm.replay.replay_metrics(records, length)
    safety = hm.replay.check_safety_rules(records)
    tor = hm.replay.check_tor_lead_times(
        records, scenario.vehicle.tor_lead_seconds, scenario.vehicle.tor_final_seconds
    )
    seconds = perf_counter() - start

    failures: list[str] = []
    row = read_rows(out / "metrics.csv")[0]
    expected = [
        100.0 * replayed.eyes_off_seconds / length,
        min(100.0, 100.0 * replayed.cognitive_overload_seconds / length),
        min(100.0, 100.0 * replayed.perceptual_overload_seconds / length),
        replayed.sa_average(length),
    ]
    for name, value in zip(INDICATORS, expected):
        if not math.isclose(float(row[name]), value, rel_tol=1e-9, abs_tol=1e-9):
            failures.append(f"{out.name}: replayed {name} {value!r} != metrics.csv {row[name]}")
    failures += [f"{out.name}: safety audit: {v}" for v in safety.violations[:3]]
    failures += [f"{out.name}: take-over audit: {v}" for v in tor.violations[:3]]
    counts = read_rows(out / "task_counts.csv")
    stats = {
        "indicators": [row[name] for name in INDICATORS],
        "records": len(records),
        "events": count_events(records),
        "queued": sum(int(c["queued"]) for c in counts),
        "aborted": sum(int(c["aborted"]) for c in counts),
    }
    return seconds, failures, stats


def _audit_server(conn, hm, run_argv: list[str], out: Path, scenario) -> None:
    """Write a trace to ``out`` with ``hmisim <run_argv>``, then audit it once
    per true message; runs in a forked child."""
    code, err = call_cli(hm, run_argv)
    conn.send([] if code == 0 else [f"hmisim run exited {code}: {err}"])
    while code == 0 and conn.recv():
        seconds, failures, _stats = audit_run_dir(hm, out, FULL_LENGTH, scenario)
        conn.send((seconds, failures))
    conn.close()


class Workload:
    name = ""
    why = ""

    def __init__(self, hm, inputs: dict, work: Path, seed: int, jobs: int) -> None:
        self.hm = hm
        self.inputs = inputs
        self.scenario = inputs["scenario"]
        self.work = work
        self.jobs = jobs
        self.first_seed = 1000 * seed + 1
        #: audit_s samples of a workload whose operations write no trace
        self.audit_samples: list[float] = []
        #: failures found while taking those samples
        self.sample_failures: list[str] = []

    def settings(self) -> dict:
        return {"first_seed": self.first_seed, "jobs": self.jobs}

    def op(self, index: int, tag: str) -> Op:
        """Run operation ``index`` (its seeds follow from the index) into ``tag``."""
        raise NotImplementedError

    def check_run(self, first: Op) -> list[str]:
        """Checks made once per run, after the timed loop; returns failures."""
        raise NotImplementedError

    def sample(self, due: int) -> None:
        """Take the workload's own samples, between operations, until
        ``due`` are taken.  Most workloads have none."""

    def close(self) -> None:
        """Stop every process :meth:`sample` started, and wait for it."""

    def _finish(self, op: Op, out: Path, names: list[str]) -> None:
        for name in names:
            path = out / name
            if path.is_file():
                op.files[name] = sha256(path)
            else:
                op.failures.append(f"missing output {name}")

    @staticmethod
    def _run_argv(tasks: Path, elements: Path, seed: int, out: Path) -> list[str]:
        """``hmisim run`` of one design at 60 000 s."""
        return [
            "run", "--tasks", str(tasks), "--elements", str(elements),
            "--scenario", str(DEMO_SCENARIO), "--seed", str(seed),
            "--length", repr(FULL_LENGTH), "--out", str(out),
        ]


class RunTrace(Workload):
    name = "run_trace"
    why = (
        "hmisim run at 60 000 s, then read, replay and audit its trace: the only workload "
        "paying for trace records, trace encode/decode and the replay oracle"
    )

    def op(self, index: int, tag: str) -> Op:
        op = Op(seed=self.first_seed + index, trials=1, evaluations=1, sim_s=FULL_LENGTH)
        out = self.work / tag
        start = perf_counter()
        code, err = call_cli(self.hm, self._run_argv(DEMO_TASKS, DEMO_ELEMENTS, op.seed, out))
        op.call_s = perf_counter() - start
        if code != 0:
            op.failures.append(f"hmisim run exited {code}: {err}")
        else:
            op.audit_s, failures, op.stats = audit_run_dir(self.hm, out, FULL_LENGTH, self.scenario)
            op.failures += failures
            self._finish(op, out, ["metrics.csv", "trace.jsonl", "task_counts.csv"])
        shutil.rmtree(out, ignore_errors=True)
        return op

    def check_run(self, first: Op) -> list[str]:
        """The metrics-only path gives the same indicator row, bit for bit."""
        if not first.stats:
            return []
        config = self.inputs["designs"]["demo"][0]
        (trial,) = self.hm.experiment.run_many(config, self.scenario, [first.seed], FULL_LENGTH, 1)
        row = [repr(v) for v in trial.indicator_row()]
        if row != first.stats["indicators"]:
            return [f"seed {first.seed}: run_many row {row} != hmisim run {first.stats['indicators']}"]
        return []


_EVALUATIONS = re.compile(r"^# (\d+) candidate evaluation\(s\), (\d+) accepted move\(s\), (\w+)$", re.M)


class OptimizeSearch(Workload):
    name = "optimize_search"
    why = (
        "hmisim optimize, budget 6 over 4 trials of 12 000 s, jobs = nproc: a fresh pool, "
        "pickling and validation per candidate, plus move enumeration, on top of the trials"
    )
    #: 12 000 s trials and a budget of 6, so 7 pools start per call: each
    #: pool start-up is a burst of fork and exit work on both cores, which a
    #: busy shared host slows most.  On a 2-core shared VM the quartile
    #: spread of call times was 0.06 of the median with 7 pools per call,
    #: and 0.13 with 3 000 s trials and a budget of 12 (13 pools).
    BUDGET = 6
    TRIALS = 4
    LENGTH = 12_000.0
    SA_FLOOR = 75

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.auditor = None

    def settings(self) -> dict:
        return {
            **super().settings(), "budget": self.BUDGET, "trials": self.TRIALS,
            "length": self.LENGTH, "sa_floor": self.SA_FLOOR,
        }

    def _argv(self, seed: int, out: Path) -> list[str]:
        return [
            "optimize", "--plan", str(DEMO_PLAN), "--sa-floor", str(self.SA_FLOOR),
            "--budget", str(self.BUDGET), "--trials", str(self.TRIALS),
            "--length", repr(self.LENGTH), "--jobs", str(self.jobs),
            "--seed", str(seed), "--out", str(out),
        ]

    def op(self, index: int, tag: str, keep: bool = False) -> Op:
        op = Op(seed=self.first_seed + index * self.TRIALS)
        out = self.work / tag
        start = perf_counter()
        code, err = call_cli(self.hm, self._argv(op.seed, out))
        op.call_s = perf_counter() - start
        if code != 0:
            op.failures.append(f"hmisim optimize exited {code}: {err}")
        else:
            op.failures += self._check_outputs(op, out)
            self._finish(op, out, ["moves.log", "optimized_tasks.csv", "summary.csv", "scatter.csv"])
        if not keep:
            shutil.rmtree(out, ignore_errors=True)
        return op

    def _check_outputs(self, op: Op, out: Path) -> list[str]:
        log = (out / "moves.log").read_text(encoding="utf-8")
        match = _EVALUATIONS.search(log)
        if match is None:
            return ["moves.log has no evaluation summary line"]
        op.evaluations = int(match.group(1))
        op.trials = (op.evaluations + 1) * self.TRIALS  # the initial design is scored too
        op.sim_s = op.trials * self.LENGTH
        op.stats = {
            "evaluations": op.evaluations,
            "accepted": int(match.group(2)),
            "verdict": match.group(3),
            "final": log.splitlines()[-2],
        }
        try:
            config = self.hm.load_configuration(out / "optimized_tasks.csv", DEMO_ELEMENTS)
        except self.hm.ConfigurationError as exc:
            return [f"optimized_tasks.csv does not load: {exc}"]
        errors = [v for v in self.hm.validate(config) if v.severity == "error"]
        return [f"optimized_tasks.csv: {v}" for v in errors]

    def check_run(self, first: Op) -> list[str]:
        """A repeated call on the first seed gives byte-identical outputs;
        the first seed of each design, rerun sequentially in-process, gives
        the pool's indicator row bit for bit (criterion 6); and the
        optimized design runs a full 60 000 s trial that audits clean."""
        if not first.stats:
            return []
        again = self.op(0, "check-repeat", keep=True)
        failures = list(again.failures)
        if again.files != first.files:
            changed = sorted(k for k in first.files if again.files.get(k) != first.files[k])
            failures.append(f"seed {first.seed}: repeated optimize changed {changed}")
        repeat = self.work / "check-repeat"
        tasks = repeat / "optimized_tasks.csv"
        if not again.failures:
            failures += self._check_sequential(repeat, first.seed)
            out = self.work / "check-optimized"
            code, err = call_cli(self.hm, self._run_argv(tasks, DEMO_ELEMENTS, first.seed, out))
            if code != 0:
                failures.append(f"hmisim run exited {code}: {err}")
            else:
                failures += audit_run_dir(self.hm, out, FULL_LENGTH, self.scenario)[1]
            shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(repeat, ignore_errors=True)
        return failures

    def sample(self, due: int) -> None:
        """The calls write no trace, so the audit_s samples come from one
        60 000 s trace of the initial design, written once and audited
        between operations.  A forked child writes and audits it, and lives
        until :meth:`close`, so that the trace counts neither in this
        process's peak memory nor in that of its finished children."""
        if self.sample_failures:
            return
        if self.auditor is None:
            ((_config, tasks, elements),) = self.inputs["designs"].values()
            run_argv = self._run_argv(tasks, elements, self.first_seed, self.work / "audit-trace")
            conn, child_conn = multiprocessing.Pipe()
            process = multiprocessing.get_context("fork").Process(
                target=_audit_server, args=(child_conn, self.hm, run_argv, self.work / "audit-trace", self.scenario)
            )
            process.start()
            child_conn.close()
            self.auditor = (process, conn)
            self.sample_failures += conn.recv()
            if self.sample_failures:
                self.close()
                return
        process, conn = self.auditor
        while len(self.audit_samples) < due:
            conn.send(True)
            seconds, failures = conn.recv()
            self.audit_samples.append(seconds)
            self.sample_failures += failures

    def close(self) -> None:
        if self.auditor is None:
            return
        process, conn = self.auditor
        self.auditor = None
        try:
            conn.send(False)
        except OSError:
            pass
        process.join(timeout=30)
        if process.is_alive():
            process.kill()
            process.join()
        conn.close()

    def _check_sequential(self, out: Path, seed: int) -> list[str]:
        """``scatter.csv`` rows, computed in pool workers, against the same
        seed run in this process with ``jobs=1``."""
        scatter = {(r["config"], r["seed"]): [r[k] for k in INDICATORS] for r in read_rows(out / "scatter.csv")}
        ((initial, _tasks, _elements),) = self.inputs["designs"].values()
        designs = {
            "initial": initial,
            "optimized": self.hm.load_configuration(out / "optimized_tasks.csv", DEMO_ELEMENTS),
        }
        failures = []
        for name, config in designs.items():
            (trial,) = self.hm.experiment.run_many(config, self.scenario, [seed], self.LENGTH, 1)
            row = [repr(v) for v in trial.indicator_row()]
            if row != scatter.get((name, str(seed))):
                failures.append(f"{name} seed {seed}: sequential {row} != pool {scatter.get((name, str(seed)))}")
        return failures


WORKLOADS = {w.name: w for w in (RunTrace, OptimizeSearch)}
