"""Command-line entry point.

Five subcommands cover the workflow end to end::

    hmisim validate      check a task catalog (and optionally a scenario)
    hmisim run           one seeded trial -> metrics.csv, trace.jsonl, task_counts.csv
    hmisim compare       paired A/B batch -> summary.csv, scatter.csv, paired.csv
    hmisim optimize      local search -> moves.log, optimized_tasks.csv, summary.csv, scatter.csv
    hmisim export-trace  one seeded trial -> trace.jsonl + plot-ready timeline.csv

Every subcommand is deterministic given its flags, files and seeds.
Exit codes: 0 success, 1 validation failure, 2 runtime/usage failure.
The default output directory comes from ``$HMISIM_OUT_DIR`` (falling
back to the current directory).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack
from pathlib import Path

from .experiment import (
    DEFAULT_TRIAL_LENGTH,
    DEFAULT_TRIALS,
    MAX_TRIALS,
    ExperimentPlan,
    NamedConfiguration,
    ObjectiveWeights,
    PlanError,
    SearchResult,
    compare,
    load_plan,
    local_search,
)
from .metrics import (
    METRICS_CSV_HEADER,
    trace_line,
    write_counts_csv,
    write_metrics_csv,
    write_paired_csv,
    write_scatter_csv,
    write_summary_csv,
    write_timeline_csv,
    write_trace,
)
from .scenario import Scenario, cross_validate, load_scenario
from .tasks import (
    Configuration,
    ConfigurationError,
    Violation,
    as_integer,
    as_number,
    load_configuration,
    read_input,
    replacing,
    write_tasks_csv,
)
from .trial import run_trial


class UsageError(Exception):
    """Flags/plan combination does not form a runnable invocation."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmisim",
        description="Discrete-event simulation of driver-cockpit interaction "
        "under adaptive vehicle automation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="subcommand")

    def add_config_flags(p: argparse.ArgumentParser, required: bool) -> None:
        p.add_argument("--tasks", help="task catalog CSV", required=required)
        p.add_argument("--elements", help="interface element catalog YAML", required=required)
        p.add_argument("--scale", help="workload scale overrides YAML (optional)")

    def add_out_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--out",
            default=os.environ.get("HMISIM_OUT_DIR", "."),
            help="output directory (default: $HMISIM_OUT_DIR or the current directory)",
        )

    p_validate = sub.add_parser("validate", help="validate a configuration (and scenario)")
    add_config_flags(p_validate, required=True)
    p_validate.add_argument("--scenario", help="scenario YAML to cross-validate (optional)")
    p_validate.set_defaults(handler=_cmd_validate)

    for name, summary in (
        ("run", "run one seeded trial and write its artifacts"),
        ("export-trace", "run one trial, export trace + timeline CSV"),
    ):
        p_trial = sub.add_parser(name, help=summary)
        add_config_flags(p_trial, required=True)
        p_trial.add_argument("--scenario", required=True, help="scenario YAML")
        p_trial.add_argument("--seed", type=int, default=1, help="master seed (default 1)")
        p_trial.add_argument(
            "--length", type=float, default=DEFAULT_TRIAL_LENGTH,
            help=f"trial length in seconds (default {DEFAULT_TRIAL_LENGTH:g})",
        )
        add_out_flag(p_trial)
        p_trial.set_defaults(handler=_cmd_run)

    p_compare = sub.add_parser("compare", help="paired A/B comparison of two designs")
    p_compare.add_argument("--plan", help="experiment plan YAML (first two configurations)")
    add_config_flags(p_compare, required=False)
    p_compare.add_argument("--tasks-b", help="task catalog CSV of the second design")
    p_compare.add_argument("--scenario", help="scenario YAML")
    _add_batch_flags(p_compare)
    add_out_flag(p_compare)
    p_compare.set_defaults(handler=_cmd_compare)

    p_opt = sub.add_parser("optimize", help="local search over design moves")
    p_opt.add_argument("--plan", help="experiment plan YAML (first configuration)")
    add_config_flags(p_opt, required=False)
    p_opt.add_argument("--scenario", help="scenario YAML")
    p_opt.add_argument(
        "--sa-floor", type=float,
        help="median situation-awareness floor in percent (required here or in the plan)",
    )
    p_opt.add_argument(
        "--budget", type=int,
        help="candidate evaluation budget (required here or in the plan)",
    )
    p_opt.add_argument(
        "--weights",
        help="objective weights as 'COGNITIVE,PERCEPTUAL,EYES_OFF' (default 1,1,1)",
    )
    _add_batch_flags(p_opt)
    add_out_flag(p_opt)
    p_opt.set_defaults(handler=_cmd_optimize)

    return parser


def _add_batch_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, help="first master seed (seeds count up from it)")
    p.add_argument("--seeds-file", help="file with one master seed per line")
    p.add_argument("--trials", type=int, help=f"trials per design, 1 to {MAX_TRIALS} (default {DEFAULT_TRIALS})")
    p.add_argument("--length", type=float, help=f"trial length in seconds (default {DEFAULT_TRIAL_LENGTH:g})")
    p.add_argument("--jobs", type=int, help="worker processes for trial fan-out (default 1)")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ConfigurationError as exc:
        print(exc, file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure: stable exit contract
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# handlers

def _cmd_validate(args: argparse.Namespace) -> int:
    issues: list[Violation] = []
    config: Configuration | None = None
    try:
        config = load_configuration(args.tasks, args.elements, args.scale)
        issues.extend(config.warnings)
    except ConfigurationError as exc:
        issues.extend(exc.violations)
    scenario = None
    if args.scenario:
        try:
            scenario = load_scenario(args.scenario)
        except ConfigurationError as exc:
            issues.extend(exc.violations)
    if config is not None and scenario is not None:
        issues.extend(cross_validate(scenario, config))
    for violation in issues:
        print(violation)
    errors = sum(1 for v in issues if v.severity == "error")
    if errors:
        print(f"FAIL: {errors} error(s), {len(issues) - errors} warning(s)")
        return 1
    suffix = f", {len(issues)} warning(s)" if issues else ""
    assert config is not None
    print(f"OK: {len(config.tasks)} task(s), {len(config.elements)} element(s){suffix}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_configuration(args.tasks, args.elements, args.scale)
    scenario = load_scenario(args.scenario)
    if args.subcommand == "export-trace":
        result = run_trial(config, scenario, args.seed, args.length)
        out = _out_dir(args)
        write_trace(result.records, out / "trace.jsonl")
        write_timeline_csv(result.records, out / "timeline.csv")
        print(f"{len(result.records)} trace records -> {out / 'trace.jsonl'}, {out / 'timeline.csv'}")
        return 0
    with ExitStack() as stack:
        write = None

        def sink(*fields) -> None:
            """Write each record to the trace file, opened at the first one: after the trial's checks."""
            nonlocal write
            if write is None:
                write = stack.enter_context(replacing(_out_dir(args) / "trace.jsonl")).write
            write(trace_line(*fields))

        result = run_trial(config, scenario, args.seed, args.length, sink)
    out = _out_dir(args)
    write_metrics_csv([result.metrics], out / "metrics.csv")
    write_counts_csv(result.metrics.per_task_counts, out / "task_counts.csv")
    for name, value in zip(METRICS_CSV_HEADER[1:], result.metrics.indicator_row()):
        print(f"{name}={value!r}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    plan, (config_a, config_b), scenario = _resolve_plan(args)
    name_a, name_b = (named.name for named in plan.configurations[:2])
    result = compare(
        config_a, config_b, scenario, plan.master_seeds, plan.trial_length,
        jobs=plan.jobs, name_a=name_a, name_b=name_b,
    )
    out = _out_dir(args)
    write_summary_csv(result.batches(), out / "summary.csv")
    write_scatter_csv(result.batches(), out / "scatter.csv")
    write_paired_csv(result.seeds, result.paired_diffs, out / "paired.csv")
    for name, summary in ((result.name_a, result.summary_a), (result.name_b, result.summary_b)):
        medians = " ".join(f"{k}={summary.medians[k]!r}" for k in METRICS_CSV_HEADER[1:])
        print(f"{name}: trials={summary.trials} {medians}")
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    plan, (config,), scenario = _resolve_plan(args)
    result = local_search(
        config, scenario, plan.master_seeds, plan.trial_length,
        sa_floor=plan.sa_floor, budget=plan.budget, weights=plan.weights, jobs=plan.jobs,
    )
    out = _out_dir(args)
    write_tasks_csv(result.config, out / "optimized_tasks.csv")
    _write_moves_log(result, out / "moves.log", plan)
    if result.initial_metrics is None:
        print("budget 0: no simulations run, design unchanged")
        return 0
    batches = {"initial": result.initial_metrics, "optimized": result.final_metrics}
    write_summary_csv(batches, out / "summary.csv")
    write_scatter_csv(batches, out / "scatter.csv")
    for record in result.log:
        if record.accepted:
            print(record.describe())
    initial, final, weights = result.initial_objective, result.objective, plan.weights
    print(
        f"{result.evaluations} candidate evaluation(s), {len(result.accepted_moves)} accepted move(s); "
        f"weighted score {initial.score(weights)!r} -> {final.score(weights)!r}, "
        f"median sa {final.sa_average!r} (floor {result.sa_floor:g}, "
        f"{'feasible' if result.feasible else 'infeasible'})"
    )
    return 0


# ---------------------------------------------------------------------------
# shared plumbing

def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read_seeds_file(path: str) -> list[int]:
    issues: list[Violation] = []
    text = read_input(Path(path), "seeds", issues)
    if text is None:
        raise ConfigurationError(issues)
    seeds: list[int] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            seeds.append(int(line))
        except ValueError:
            raise ConfigurationError(
                [Violation("error", f"{path} line {line_no}", f"not an integer seed: {line!r}")]
            ) from None
    if not seeds:
        raise ConfigurationError([Violation("error", path, "seeds file holds no seeds")])
    return seeds


def _resolve_plan(args: argparse.Namespace) -> tuple[ExperimentPlan, list[Configuration], Scenario]:
    """The final plan of a ``compare``/``optimize`` call, with its designs and scenario loaded.

    The plan is the ``--plan`` file or one built from the design and scenario flags.
    Its designs and scenario load before any flag value is checked; then each flag
    given overrides the plan, and ``master_seeds`` holds exactly the batch seeds.
    """
    designs = 2 if args.subcommand == "compare" else 1
    if args.plan:
        plan = load_plan(args.plan)
        if len(plan.configurations) < designs:
            message = "compare needs a plan with at least two configurations"
            raise PlanError([Violation("error", args.plan, message)])
    else:
        task_files = [args.tasks, getattr(args, "tasks_b", None)][:designs]
        if not (all(task_files) and args.elements and args.scenario):
            needs = "/".join(["--tasks", "--tasks-b"][:designs] + ["--elements", "--scenario"])
            raise UsageError(f"{args.subcommand} needs --plan or {needs}")
        stems = [Path(tasks).stem for tasks in task_files]
        names = ["A", "B"] if len(set(stems)) < designs else stems
        scale = None if args.scale is None else Path(args.scale)
        plan = ExperimentPlan(
            name=args.subcommand,
            scenario_path=Path(args.scenario),
            configurations=[
                NamedConfiguration(name, Path(tasks), Path(args.elements), scale)
                for name, tasks in zip(names, task_files)
            ],
            master_seeds=[],  # no plan seeds: the seed flags, or 1..trials, choose them
        )
    configs = [named.load() for named in plan.configurations[:designs]]
    scenario = plan.load_scenario()

    trials = args.trials
    issues: list[Violation] = []
    if trials is not None:
        as_integer(trials, "--trials", "trials", issues, at_least=1, at_most=MAX_TRIALS)
    if args.length is not None:
        plan.trial_length = as_number(args.length, "--length", "trials", issues, above=0)
    if args.jobs is not None:
        plan.jobs = as_integer(args.jobs, "--jobs", "trials", issues, at_least=1)
    if issues:
        raise ConfigurationError(issues)
    if args.seeds_file:
        seeds = _read_seeds_file(args.seeds_file)
    elif args.seed is not None or not plan.master_seeds:
        first = 1 if args.seed is None else args.seed
        seeds = list(range(first, first + (plan.trials_per_config if trials is None else trials)))
    else:
        seeds = plan.master_seeds
    if trials is None:  # a plan file sets the trial count; the flags form runs one trial per seed
        trials = plan.trials_per_config if args.plan else len(seeds)
    if trials > MAX_TRIALS:  # a count only a seeds file can set: --trials and the plan are bounded
        message = f"{trials} seeds, but a batch runs at most {MAX_TRIALS} trials; --trials picks the first ones"
        raise ConfigurationError([Violation("error", args.seeds_file, message)])
    if len(seeds) < trials:
        raise ConfigurationError(
            [Violation("error", "seeds", f"{trials} trials need {trials} seeds, got {len(seeds)}")]
        )
    first_of: dict[int, int] = {}  # a trial takes its seed modulo 2**64 (engine.RandomStreams)
    for seed in seeds[:trials]:
        key = seed % 2**64
        if key in first_of:  # only a seeds file or a plan's list can name one twice
            message = f"seed {seed} repeats seed {first_of[key]} (equal modulo 2**64); a batch runs each seed once"
            raise ConfigurationError([Violation("error", args.seeds_file or args.plan, message)])
        first_of[key] = seed
    plan.master_seeds, plan.trials_per_config = seeds[:trials], trials
    if args.subcommand == "compare":
        return plan, configs, scenario

    if args.sa_floor is not None:
        plan.sa_floor = as_number(args.sa_floor, "--sa-floor", "optimize", issues, at_least=0, at_most=100)
    if plan.sa_floor is None:  # a bad --sa-floor, or none here or in the plan
        raise UsageError(issues[0].message if issues else "optimize needs --sa-floor (there is no endorsed default)")
    if args.budget is not None:
        plan.budget = as_integer(args.budget, "--budget", "optimize", issues, at_least=0)
    if issues:
        raise ConfigurationError(issues)
    if plan.budget is None:
        raise UsageError("optimize needs --budget (candidate evaluation limit)")
    if args.weights is not None:
        parts = args.weights.split(",")
        if len(parts) != 3:
            raise UsageError("--weights needs exactly three comma-separated numbers")
        keys = ("cognitive", "perceptual", "eyes_off")
        weights = [as_number(p, f"--weights {key}", "optimize", issues, at_least=0) for key, p in zip(keys, parts)]
        if issues:
            raise UsageError(issues[0].message)
        try:
            plan.weights = ObjectiveWeights(*weights)
        except ValueError as exc:  # every weight zero
            raise UsageError(f"bad --weights: {exc}") from None
    return plan, configs, scenario


def _write_moves_log(result: SearchResult, path: Path, plan: ExperimentPlan) -> None:
    sa_floor, weights = result.sa_floor, plan.weights

    def describe_point(point) -> str:
        return (
            f"cog={point.cognitive_overload!r} perc={point.perceptual_overload!r} "
            f"eyes={point.eyes_off!r} sa={point.sa_average!r} "
            f"(weighted score {point.score(weights)!r})"
        )

    lines = [
        f"# local search: budget {plan.budget}, sa floor {sa_floor:g}, "
        f"weights cog={weights.cognitive:g} perc={weights.perceptual:g} eyes={weights.eyes_off:g}",
    ]
    if result.initial_metrics is None:
        lines.append("# budget 0: no evaluations, design unchanged")
    else:
        initial = result.initial_objective
        lines.append(f"# initial: {describe_point(initial)}")
        if initial.sa_average < sa_floor:
            lines.append(
                f"# initial design infeasible: sa {initial.sa_average!r} "
                f"below floor {sa_floor:g}; seeking feasibility first"
            )
        lines.extend(record.describe() for record in result.log)
        lines.append(f"# final: {describe_point(result.objective)}")
        lines.append(
            f"# {result.evaluations} candidate evaluation(s), "
            f"{len(result.accepted_moves)} accepted move(s), "
            f"{'feasible' if result.feasible else 'infeasible'}"
        )
    with replacing(path) as handle:
        handle.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
