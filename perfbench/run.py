#!/usr/bin/env python3
"""hmisim benchmark: end-to-end timings untraced, per-layer timings traced.

    python3 perfbench/run.py --workload run_trace --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One process, one client, closed loop: each operation (one ``hmisim``
command call, in-process through ``hmisim.cli.main``) starts when the
previous one has finished, until ``--seconds`` are spent.  Pools use
``--jobs`` = the number of usable cores.  All timings are host seconds.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced calls on the same seeds, and prints the per-layer
metrics of the traced ones (see tracer.py) plus the tracing overhead.

Every run checks the outputs of every operation; ``failed`` counts the
operations whose call failed or whose outputs failed a check.  The last
line of stdout is the result object; the full record (run context,
samples, output digests, simulated statistics, per-layer sources) goes
to ``.bench_out/results/``, and the traced run's spans next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: Set-up probes per run, and audits where the operations write no trace.
SAMPLES = 5
#: Minimum operations per run; a traced run needs one traced and one untraced.
MIN_OPS = 2
#: Per-layer time figures that only some workloads can produce: they read 0
#: elsewhere, so they are in the result record but not in the result line.
RECORD_ONLY = (
    "experiment.load_plan_s", "experiment.enumerate_moves_s",
    "experiment.apply_move_s", "tasks.copy_configuration_s",
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples
    beyond it, never below the median; with fewer than 21 samples that is
    the median."""
    ordered = sorted(samples)
    n = len(ordered)
    median = statistics.median(ordered)
    if n < 21:
        return median, 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup_probe(workload: str) -> float:
    """Set-up seconds of one fresh interpreter (see setup_probe.py)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and of any child it has
    waited for (pool workers, set-up probes).  The audit helper of a
    workload whose calls write no trace is still running, so not counted."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_context(jobs: int) -> dict:
    import numpy
    import yaml

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "hmisim").glob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "jobs": jobs,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "git_commit": commit,
        "src_hmisim_lines": src_lines,
        "platform": platform.platform(),
        "model_validity": "unvalidated against real-driver data; timings and behaviour only, no accuracy figure",
    }


def take_samples(workload, setup: list[float], due: int) -> None:
    """Set-up probes and the workload's own samples, until ``due`` of each."""
    while len(setup) < due:
        setup.append(setup_probe(workload.name))
    workload.sample(due)


def measure(workload, seconds: float, tracer, hm, setup: list[float]) -> list:
    """Closed loop until ``seconds`` of operations are spent.  With a tracer,
    operations come in pairs on one seed -- untraced and traced, alternating
    which goes first -- and the pair must write identical outputs.

    The samples (see take_samples) are taken between operations, outside the
    time budget, at evenly spaced points of it, so that like the operations
    they sample the whole run and not one moment of a noisy machine."""
    ops = []
    spent = 0.0
    index = 0
    while True:
        start = perf_counter()
        if tracer is None:
            plan = [False]
        else:
            plan = [False, True] if index % 2 == 0 else [True, False]
        for traced in plan:
            t0 = perf_counter()
            if traced:
                with tracer.installed(hm), tracer.span("bench.op"):
                    op = workload.op(index, f"op{index}-traced")
            else:
                op = workload.op(index, f"op{index}")
            op.wall_s = perf_counter() - t0
            op.traced = traced
            ops.append(op)
        if tracer is not None and ops[-1].files != ops[-2].files:
            ops[-1].failures.append(f"seed {ops[-1].seed}: traced outputs differ from untraced")
        index += 1
        spent += perf_counter() - start
        take_samples(workload, setup, min(SAMPLES, 1 + int(SAMPLES * spent / seconds)))
        typical = statistics.median(o.wall_s for o in ops) * len(plan)
        if len(ops) >= MIN_OPS and spent + typical > seconds:
            take_samples(workload, setup, SAMPLES)
            return ops


def end_to_end(ops, audits: list[float], setup: list[float], peak_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and the sample counts behind them."""
    calls = [o.call_s for o in ops]
    call_tail, call_pct = tail(calls)
    audit_tail, audit_pct = tail(audits) if audits else (0.0, 0.0)
    values = {
        "setup_s": statistics.median(setup),
        "call_s_p50": statistics.median(calls),
        "call_s_tail": call_tail,
        "audit_s_p50": statistics.median(audits) if audits else 0.0,
        "audit_s_tail": audit_tail,
        # Rates are medians over operations, like the timings, so that a
        # few calls slowed by a busy host do not move them.
        "trials_per_s": statistics.median(o.trials / o.call_s for o in ops),
        "evals_per_s": statistics.median(o.evaluations / o.call_s for o in ops),
        "sim_s_per_host_s": statistics.median(o.sim_s / o.timed_s for o in ops),
        "peak_rss_mb": peak_mb,
    }
    samples = {
        "setup_s": setup,
        "call_s": calls,
        "call_s_tail_percentile": call_pct,
        "audit_s": audits,
        "audit_s_tail_percentile": audit_pct,
    }
    return values, samples


def per_layer(tracer, names: list[str]) -> tuple[dict, dict, dict]:
    """Per-layer values from the traced operations; a figure the operations
    cannot give (no call of that layer) comes from the output checks."""
    from tracer import layer_metrics

    from_ops = layer_metrics(tracer.tables["ops"], tracer.counters["ops"])
    from_checks = layer_metrics(tracer.tables["checks"], tracer.counters["checks"])
    values, sources = {}, {}
    for name in from_ops:
        if from_ops[name] is not None:
            values[name], sources[name] = from_ops[name], "ops"
        elif from_checks[name] is not None:
            values[name], sources[name] = from_checks[name], "checks"
        else:
            values[name], sources[name] = 0.0, "not called"
    missing = [n for n in names if n not in values and n != "tracing.overhead_frac"]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    record_only = {n: values.pop(n) for n in RECORD_ONLY}
    return values, sources, record_only


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "hmisim" / "__init__.py").is_file():
        print(f"perfbench: no hmisim sources under {SRC}; run it from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    import hmisim
    import hmisim.cli  # noqa: F401  (the package does not import its CLI)
    from setup_probe import load_inputs
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    jobs = len(os.sched_getaffinity(0))
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    work = OUT / "work" / stamp
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(work / "spool") if args.trace else None
    workload = None
    try:
        inputs = load_inputs(hmisim, args.workload)
        workload = WORKLOADS[args.workload](hmisim, inputs, work, args.seed, jobs)
        setup: list[float] = []
        ops = measure(workload, args.seconds, tracer, hmisim, setup)
        peak_mb = peak_rss_mb()
        workload.close()
        if tracer is not None:
            tracer.set_phase("checks")
            with tracer.installed(hmisim), tracer.span("bench.op"):
                run_failures = workload.check_run(ops[0])
            tracer.merge_spool()
        else:
            run_failures = workload.check_run(ops[0])
        ops[0].failures += run_failures + workload.sample_failures
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work, ignore_errors=True)

    untraced = [o for o in ops if not o.traced]
    audits = [o.audit_s for o in untraced if o.audit_s is not None] or workload.audit_samples
    e2e, samples = end_to_end(untraced, audits, setup, peak_mb)
    failed = sum(1 for o in ops if o.failures)
    record = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": run_context(jobs),
        "settings": workload.settings(),
        "end_to_end": e2e,
        "samples": samples,
        "ops": [o.__dict__ for o in ops],
    }
    if tracer is None:
        wanted = spec["end_to_end"]
        values = e2e
    else:
        wanted = spec["per_layer"]
        values, sources, record_only = per_layer(tracer, [m["name"] for m in wanted])
        traced = [o for o in ops if o.traced]
        traced_e2e, _ = end_to_end(traced, [o.audit_s for o in traced if o.audit_s is not None]
                                   or workload.audit_samples, setup, peak_mb)
        overhead = [t.timed_s / u.timed_s - 1.0 for u, t in zip(untraced, traced)]
        values["tracing.overhead_frac"] = statistics.median(overhead)
        record.update(per_layer=values, per_layer_source=sources, record_only=record_only,
                      traced_end_to_end=traced_e2e, tracing_overhead_pairs=overhead)
        tracer.write_spans(results / f"{stamp}-spans.jsonl")
    (results / f"{stamp}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for op in ops:
        for failure in op.failures:
            print(f"perfbench: FAILED {failure}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
