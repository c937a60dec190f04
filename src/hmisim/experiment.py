"""Monte Carlo experiments over cockpit designs.

Three layers sit on top of the single-trial runner:

* seeded trial batches (optionally fanned out over processes, with
  results merged back in seed order);
* paired A/B comparison: trial *i* of both designs shares one master
  seed, so the road timeline and the trigger instants are bit-identical
  and per-seed indicator differences isolate the design change;
* a greedy first-improvement local search over four kinds of design
  move (reallocate a visual task to another element, remove a task,
  serialize two co-emitted signals, swap a descriptor for a lighter
  one).  A move is accepted when it Pareto-dominates the incumbent or
  improves a weighted sum of (cognitive overload, perceptual overload,
  eyes-off), while the median situation awareness stays at or above a
  caller-chosen floor.  Starting below the floor is reported, and the
  search then accepts only awareness-raising moves until it is feasible.

The search budget counts candidate evaluations (one evaluation = one
candidate scored on the seed batch, which a search runs once per distinct
design); a budget of zero returns the input design without running a
single simulation.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Union

from .metrics import AggregateSummary, TrialMetrics, aggregate
from .scenario import Scenario, load_scenario
from .tasks import (
    Configuration,
    ConfigurationError,
    Task,
    Violation,
    as_integer,
    as_mapping,
    as_number,
    copy_configuration,
    load_configuration,
    name_of,
    named_entries,
    not_a_name,
    optional,
    optional_name,
    read_yaml,
    validate,
)
from .trial import run_trial
from .vehicle import BINDING_EVENTS
from .workload import AttentionalChannel, ScaleCategory, perceptual_category

DEFAULT_TRIALS = 20
#: Most trials per design a plan may ask for: its seed list is built in memory.
MAX_TRIALS = 100_000
DEFAULT_TRIAL_LENGTH = 60_000.0  # seconds (1000 simulated minutes)


# ---------------------------------------------------------------------------
# trial batches

def run_metrics(
    config: Configuration, scenario: Scenario, seed: int, trial_length: float
) -> TrialMetrics:
    """One trial's indicators, from a trial that builds no trace."""
    return run_trial(config, scenario, seed, trial_length, trace=False).metrics


def _run_star(args: tuple[Configuration, Scenario, int, float]) -> TrialMetrics:
    return run_metrics(*args)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pool(jobs: int, seeds: list[int]) -> AbstractContextManager[Executor | None]:
    """The worker pool for batches over ``seeds``; ``None`` runs them in-process.

    A pool starts all its workers at its first task, so it gets no more
    than there are usable cores: more could only queue for them.
    """
    if jobs <= 1 or len(seeds) <= 1:
        return nullcontext()
    return ProcessPoolExecutor(max_workers=min(jobs, len(seeds), _usable_cores()))


def run_many(
    config: Configuration,
    scenario: Scenario,
    seeds: list[int],
    trial_length: float,
    jobs: int = 1,
    *,
    pool: Executor | None = None,
) -> list[TrialMetrics]:
    """Run one trial per seed; results come back in seed-list order.

    ``jobs > 1`` fans trials out over worker processes, on ``pool`` when
    the caller holds one open for several batches.  Each trial is a pure
    function of its arguments, so the fan-out changes wall-clock time
    only, never a single output bit.
    """
    with nullcontext(pool) if pool is not None else _pool(jobs, seeds) as pool:
        if pool is None:
            return [run_metrics(config, scenario, s, trial_length) for s in seeds]
        return list(pool.map(_run_star, [(config, scenario, s, trial_length) for s in seeds]))


# ---------------------------------------------------------------------------
# paired comparison

@dataclass
class Comparison:
    """Paired A/B batch: both designs' trials, trial *i* of each on seed *i*."""

    name_a: str
    name_b: str
    metrics_a: list[TrialMetrics]
    metrics_b: list[TrialMetrics]

    @property
    def seeds(self) -> list[int]:
        return [t.seed for t in self.metrics_a]

    @property
    def summary_a(self) -> AggregateSummary:
        return aggregate(self.metrics_a)

    @property
    def summary_b(self) -> AggregateSummary:
        return aggregate(self.metrics_b)

    @property
    def paired_diffs(self) -> list[tuple[float, float, float, float]]:
        """Per seed, B minus A: (eyes_off, cog_overload, perc_overload, sa_avg)."""
        return [
            tuple(vb - va for va, vb in zip(a.indicator_row(), b.indicator_row()))
            for a, b in zip(self.metrics_a, self.metrics_b)
        ]

    def batches(self) -> dict[str, list[TrialMetrics]]:
        return {self.name_a: self.metrics_a, self.name_b: self.metrics_b}


def compare(
    config_a: Configuration,
    config_b: Configuration,
    scenario: Scenario,
    seeds: list[int],
    trial_length: float,
    jobs: int = 1,
    name_a: str = "A",
    name_b: str = "B",
) -> Comparison:
    """Run both designs on the same seed list (and pool) and pair the results."""
    with _pool(jobs, seeds) as pool:
        metrics_a = run_many(config_a, scenario, seeds, trial_length, jobs, pool=pool)
        metrics_b = run_many(config_b, scenario, seeds, trial_length, jobs, pool=pool)
    return Comparison(name_a, name_b, metrics_a, metrics_b)


# ---------------------------------------------------------------------------
# objective

@dataclass(frozen=True)
class ObjectiveWeights:
    """Weights of the minimized components; all >= 0 and finite, not all zero."""

    cognitive: float = 1.0
    perceptual: float = 1.0
    eyes_off: float = 1.0

    def __post_init__(self) -> None:
        weights = (self.cognitive, self.perceptual, self.eyes_off)
        if not all(0 <= w < math.inf for w in weights):
            raise ValueError(f"objective weights must be >= 0 and finite, got {weights}")
        if self.cognitive == self.perceptual == self.eyes_off == 0:
            raise ValueError("at least one objective weight must be > 0")


@dataclass(frozen=True)
class ObjectivePoint:
    """Median indicators of one design over one seed batch.

    The first three components are minimized; ``sa_average`` is the
    constraint value (kept at or above the floor), not part of the sum.
    """

    cognitive_overload: float
    perceptual_overload: float
    eyes_off: float
    sa_average: float

    def __post_init__(self) -> None:
        for value in (self.cognitive_overload, self.perceptual_overload, self.eyes_off, self.sa_average):
            if not math.isfinite(value):
                raise ValueError(f"objective components must be finite, got {value}")

    def score(self, weights: ObjectiveWeights) -> float:
        return (
            weights.cognitive * self.cognitive_overload
            + weights.perceptual * self.perceptual_overload
            + weights.eyes_off * self.eyes_off
        )

    def dominates(self, other: "ObjectivePoint") -> bool:
        """No minimized component worse, at least one strictly better."""
        mine = (self.cognitive_overload, self.perceptual_overload, self.eyes_off)
        theirs = (other.cognitive_overload, other.perceptual_overload, other.eyes_off)
        return all(m <= t for m, t in zip(mine, theirs)) and any(m < t for m, t in zip(mine, theirs))


def objective_point(trials: list[TrialMetrics]) -> ObjectivePoint:
    medians = aggregate(trials).medians
    return ObjectivePoint(
        cognitive_overload=medians["cog_overload_pct"],
        perceptual_overload=medians["perc_overload_pct"],
        eyes_off=medians["eyes_off_pct"],
        sa_average=medians["sa_avg_pct"],
    )


# ---------------------------------------------------------------------------
# design moves

@dataclass(frozen=True)
class ReallocateLocation:
    """Move a visual task to another interface element.

    The task's gaze time is refreshed from the destination element, so
    moving a message from an off-road display to the head-up display
    both removes its eyes-off contribution and shortens its occupancy.
    """

    task: str
    new_location: str

    def describe(self) -> str:
        return f"reallocate {self.task} to {self.new_location}"


@dataclass(frozen=True)
class RemoveTask:
    """Drop a task nothing else references (no trigger chain, no
    cognitive function); bindings that still name it are skipped at
    run time."""

    task: str

    def describe(self) -> str:
        return f"remove {self.task}"


@dataclass(frozen=True)
class SerializeSignals:
    """Chain ``second`` behind ``first`` so two signals bound to the
    same vehicle event stop competing for admission at the same instant:
    the emission skips ``second`` and ``first``'s completion raises it."""

    first: str
    second: str

    def describe(self) -> str:
        return f"serialize {self.second} after {self.first}"


@dataclass(frozen=True)
class ReplaceDescriptor:
    """Swap a task's cognitive or perceptual descriptor for a strictly
    lighter one on the same scale category, refreshing the workload."""

    task: str
    slot: str  # "cognitive" | "perceptual"
    descriptor: str

    def describe(self) -> str:
        return f"replace {self.task} {self.slot} descriptor with {self.descriptor!r}"


DesignMove = Union[ReallocateLocation, RemoveTask, SerializeSignals, ReplaceDescriptor]


def apply_move(config: Configuration, move: DesignMove) -> Configuration:
    """Apply one move to a copy of the design and re-validate it."""
    result = copy_configuration(config)
    tasks = {t.name: t for t in result.tasks}

    if isinstance(move, ReallocateLocation):
        task = _require_task(tasks, move.task, move)
        if move.new_location not in result.elements:
            raise ConfigurationError(
                [Violation("error", f"move {move.describe()}", "unknown destination element")]
            )
        task.location = move.new_location
        if task.perception_type is AttentionalChannel.VISUAL:
            task.gaze_time = result.elements[move.new_location].gaze_time
    elif isinstance(move, RemoveTask):
        _require_task(tasks, move.task, move)
        result.tasks = [t for t in result.tasks if t.name != move.task]
    elif isinstance(move, SerializeSignals):
        first = _require_task(tasks, move.first, move)
        _require_task(tasks, move.second, move)
        first.triggers = move.second
    elif isinstance(move, ReplaceDescriptor):
        task = _require_task(tasks, move.task, move)
        if move.slot == "cognitive":
            task.cognitive_workload = result.scale.lookup(ScaleCategory.COGNITIVE, move.descriptor)
            task.cognitive_descriptor = move.descriptor
        elif move.slot == "perceptual":
            category = perceptual_category(task.perception_type)
            task.perceptual_workload = result.scale.lookup(category, move.descriptor)
            task.perceptual_descriptor = move.descriptor
        else:
            raise ConfigurationError(
                [Violation("error", f"move {move.describe()}", f"unknown descriptor slot {move.slot!r}")]
            )
    else:
        raise ConfigurationError([Violation("error", "move", f"unknown move type {move!r}")])

    problems = validate(result)
    if problems:
        raise ConfigurationError(problems)
    return result


def _require_task(tasks: dict[str, Task], name: str, move: DesignMove) -> Task:
    task = tasks.get(name)
    if task is None:
        raise ConfigurationError([Violation("error", f"move {move.describe()}", f"unknown task {name!r}")])
    return task


def enumerate_moves(config: Configuration, scenario: Scenario) -> list[DesignMove]:
    """The deterministic move neighborhood of one design.

    * reallocations: every visual task to every other visual surface —
      an element is a visual surface when it is on-road or costs gaze
      time (an off-road element with instant refocus is degenerate);
    * removals: tasks no trigger chain or cognitive function references;
    * serializations: ordered pairs co-emitted by one vehicle event,
      where the first has no follow-up yet and chaining stays acyclic;
    * descriptor swaps: strictly lighter descriptors only (equal-value
      swaps change nothing and would burn budget).
    """
    tasks = {t.name: t for t in config.tasks}
    moves: list[DesignMove] = []

    for task in config.tasks:
        if task.perception_type is not AttentionalChannel.VISUAL:
            continue
        for element in config.elements.values():
            if element.name == task.location:
                continue
            if element.on_road or element.gaze_time > 0:
                moves.append(ReallocateLocation(task=task.name, new_location=element.name))

    referenced = {t.triggers for t in config.tasks if t.triggers is not None}
    referenced |= {f.target_task for f in scenario.cognitive_functions}
    for task in config.tasks:
        if task.name not in referenced:
            moves.append(RemoveTask(task=task.name))

    seen_pairs: set[tuple[str, str]] = set()
    bindings = scenario.bindings
    # Bound lists in event order, and within an event by str(level) ("any" after the digits).
    for key in sorted(bindings, key=lambda key: (BINDING_EVENTS.index(key[0]), str(key[1]))):
        present = [n for n in bindings[key] if n in tasks]
        for first in present:
            if tasks[first].triggers is not None:
                continue
            for second in present:
                if second == first or (first, second) in seen_pairs:
                    continue
                if _chain_reaches(tasks, start=second, goal=first):
                    continue  # chaining would close a trigger cycle
                seen_pairs.add((first, second))
                moves.append(SerializeSignals(first=first, second=second))

    for task in config.tasks:
        for descriptor, value in config.scale.descriptors(ScaleCategory.COGNITIVE).items():
            if value < task.cognitive_workload:
                moves.append(ReplaceDescriptor(task=task.name, slot="cognitive", descriptor=descriptor))
        category = perceptual_category(task.perception_type)
        for descriptor, value in config.scale.descriptors(category).items():
            if value < task.perceptual_workload:
                moves.append(ReplaceDescriptor(task=task.name, slot="perceptual", descriptor=descriptor))

    return moves


def _chain_reaches(tasks: dict[str, Task], start: str, goal: str) -> bool:
    """Whether following follow-up links from ``start`` reaches ``goal``."""
    seen = set()
    current: str | None = start
    while current is not None and current not in seen:
        if current == goal:
            return True
        seen.add(current)
        task = tasks.get(current)
        current = task.triggers if task is not None else None
    return False


# ---------------------------------------------------------------------------
# local search

@dataclass(frozen=True)
class MoveRecord:
    """One evaluated candidate: the move, both objective points, verdict."""

    move: DesignMove
    accepted: bool
    before: ObjectivePoint
    after: ObjectivePoint
    reason: str

    def describe(self) -> str:
        verdict = "accepted" if self.accepted else "rejected"
        return f"{verdict}: {self.move.describe()} ({self.reason})"


@dataclass
class SearchResult:
    """What a search ran: the final design, its candidate log and both designs' trials.

    ``initial_metrics`` and ``final_metrics`` are ``None`` when nothing ran
    (budget 0); so are the objective points and ``feasible`` derived from them.
    """

    config: Configuration
    sa_floor: float
    log: list[MoveRecord]
    initial_metrics: list[TrialMetrics] | None
    final_metrics: list[TrialMetrics] | None

    @property
    def evaluations(self) -> int:
        return len(self.log)

    @property
    def accepted_moves(self) -> list[DesignMove]:
        return [record.move for record in self.log if record.accepted]

    @property
    def initial_objective(self) -> ObjectivePoint | None:
        return None if self.initial_metrics is None else objective_point(self.initial_metrics)

    @property
    def objective(self) -> ObjectivePoint | None:
        return None if self.final_metrics is None else objective_point(self.final_metrics)

    @property
    def feasible(self) -> bool | None:
        objective = self.objective
        return None if objective is None else objective.sa_average >= self.sa_floor


def replay_moves(config: Configuration, moves: Iterable[DesignMove]) -> Configuration:
    """Re-apply an accepted-move log; reproduces ``SearchResult.config``."""
    for move in moves:
        config = apply_move(config, move)
    return config


def local_search(
    config: Configuration,
    scenario: Scenario,
    seeds: list[int],
    trial_length: float,
    sa_floor: float,
    budget: int,
    weights: ObjectiveWeights | None = None,
    jobs: int = 1,
) -> SearchResult:
    """Greedy first-improvement hill climb over the move neighborhood.

    Every candidate is evaluated on the same seed batch as the incumbent
    (common random numbers), consuming one unit of ``budget``.  After an
    accepted move the neighborhood is re-enumerated from the new design.
    The search stops at the budget or at a local optimum (a full pass
    with no accepted move).  With ``jobs > 1`` every batch runs on one
    worker pool, held open for the whole search.

    A candidate equal (``Configuration ==``) to a design this call has
    already simulated, such as the undo of an accepted move, reuses that
    batch: with seeds and length fixed, a new one would give the same
    bits.  It still costs one unit of budget and logs the same record.
    """
    if not 0.0 <= sa_floor <= 100.0:
        raise ValueError(f"sa_floor must be within [0, 100], got {sa_floor}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    weights = weights or ObjectiveWeights()
    if budget == 0:
        return SearchResult(config, sa_floor, [], None, None)

    current = config
    log: list[MoveRecord] = []
    with _pool(jobs, seeds) as pool:
        simulated: list[tuple[Configuration, list[TrialMetrics]]] = []

        def batch(design: Configuration) -> list[TrialMetrics]:
            for seen, trials in simulated:
                if seen == design:
                    return trials
            trials = run_many(design, scenario, seeds, trial_length, jobs, pool=pool)
            simulated.append((design, trials))
            return trials

        initial_metrics = current_metrics = batch(current)
        current_point = objective_point(current_metrics)

        searching = True
        while searching and len(log) < budget:
            searching = False
            for move in enumerate_moves(current, scenario):
                if len(log) >= budget:
                    break
                try:
                    candidate = apply_move(current, move)
                except ConfigurationError:
                    continue  # structurally invalid; costs no simulation
                candidate_metrics = batch(candidate)
                candidate_point = objective_point(candidate_metrics)
                accepted, reason = _accepts(current_point, candidate_point, weights, sa_floor)
                log.append(
                    MoveRecord(
                        move=move,
                        accepted=accepted,
                        before=current_point,
                        after=candidate_point,
                        reason=reason,
                    )
                )
                if accepted:
                    current, current_point, current_metrics = candidate, candidate_point, candidate_metrics
                    searching = True
                    break  # first improvement: restart from the new incumbent

    return SearchResult(current, sa_floor, log, initial_metrics, current_metrics)


def _accepts(
    current: ObjectivePoint,
    candidate: ObjectivePoint,
    weights: ObjectiveWeights,
    sa_floor: float,
) -> tuple[bool, str]:
    if current.sa_average < sa_floor:
        # Infeasible incumbent: feasibility first, objectives later.
        if candidate.sa_average > current.sa_average:
            return True, (
                f"sa {current.sa_average:.3f} -> {candidate.sa_average:.3f} "
                f"(seeking floor {sa_floor})"
            )
        return False, f"sa {candidate.sa_average:.3f} does not raise infeasible {current.sa_average:.3f}"
    if candidate.sa_average < sa_floor:
        return False, f"sa {candidate.sa_average:.3f} below floor {sa_floor}"
    if candidate.dominates(current):
        return True, "dominates incumbent on all objectives"
    before, after = current.score(weights), candidate.score(weights)
    if after < before:
        return True, f"weighted score {before:.6g} -> {after:.6g}"
    return False, f"weighted score {after:.6g} not below {before:.6g}"


# ---------------------------------------------------------------------------
# experiment plans

class PlanError(ConfigurationError):
    """Experiment plan file failed validation."""


@dataclass(frozen=True)
class NamedConfiguration:
    name: str
    tasks: Path
    elements: Path
    scale: Path | None = None

    def load(self) -> Configuration:
        return load_configuration(self.tasks, self.elements, self.scale)


@dataclass
class ExperimentPlan:
    """A file-backed experiment: named designs, scenario, seeds, search knobs.

    ``master_seeds`` holds the seeds the plan names; ``[]`` names none.
    """

    name: str
    scenario_path: Path
    configurations: list[NamedConfiguration]
    master_seeds: list[int]
    trials_per_config: int = DEFAULT_TRIALS
    trial_length: float = DEFAULT_TRIAL_LENGTH
    sa_floor: float | None = None
    budget: int | None = None
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    jobs: int = 1

    def load_scenario(self) -> Scenario:
        return load_scenario(self.scenario_path)


def load_plan(path: str | Path) -> ExperimentPlan:
    """Load an experiment plan; relative paths resolve against the plan file.

    ``master_seeds`` is either an explicit list or ``{first, count}``;
    omitted it is ``[]``: the plan names no seeds.  An optional key set to
    null, at the top level or inside ``weights`` and ``master_seeds``,
    counts as left out.
    """
    path = Path(path)
    where = str(path)
    issues: list[Violation] = []
    raw = read_yaml(path, "plan", issues)
    if raw is None:
        raise PlanError(issues)

    base = path.parent

    def resolve(value: str) -> Path:
        p = Path(value)
        return p if p.is_absolute() else base / p

    configurations: list[NamedConfiguration] = []
    entries = named_entries(
        raw.get("configurations"), "configurations", ("name", "tasks", "elements"), where, issues,
        "needs name, tasks and elements", "configuration name",
    )
    for spot, names, entry in entries:
        scale = optional_name(entry, "scale", spot, issues)
        configurations.append(
            NamedConfiguration(
                name=names["name"],
                tasks=resolve(names["tasks"]),
                elements=resolve(names["elements"]),
                scale=resolve(scale) if scale else None,
            )
        )
    if not configurations and not issues:
        issues.append(Violation("error", where, "plan needs at least one configuration"))

    scenario = name_of(raw.get("scenario"))
    if scenario is None:
        wrong = not_a_name("scenario", raw.get("scenario"))
        issues.append(Violation("error", where, wrong or "plan needs a scenario path"))
        scenario_path = Path(".")
    else:
        scenario_path = resolve(scenario)

    raw_seeds = raw.get("master_seeds")
    seeds: list[int] = []
    if isinstance(raw_seeds, dict):
        first = as_integer(optional(raw_seeds, "first", 1), "master_seeds first", where, issues)
        count = as_integer(
            raw_seeds.get("count"), "master_seeds count", where, issues, at_least=1, at_most=MAX_TRIALS
        )
        if first is not None and count is not None:
            seeds = list(range(first, first + count))
    elif isinstance(raw_seeds, list):
        found = (as_integer(s, "master seed", where, issues) for s in raw_seeds)
        seeds = [s for s in found if s is not None]
    elif raw_seeds is not None:
        issues.append(Violation("error", where, "master_seeds must be a list or {first, count}"))

    trials = raw.get("trials_per_config")
    if trials is None:
        trials = len(seeds) if seeds else DEFAULT_TRIALS
    trials = as_integer(trials, "trials_per_config", where, issues, at_least=1, at_most=MAX_TRIALS) or 1
    if seeds and len(seeds) < trials:
        issues.append(
            Violation("error", where, f"{trials} trials per config but only {len(seeds)} master seeds")
        )

    length = as_number(optional(raw, "trial_length", DEFAULT_TRIAL_LENGTH), "trial_length", where, issues, above=0)
    sa_floor = raw.get("sa_floor")
    if sa_floor is not None:
        sa_floor = as_number(sa_floor, "sa_floor", where, issues, at_least=0, at_most=100)

    budget = raw.get("budget")
    if budget is not None:
        budget = as_integer(budget, "budget", where, issues, at_least=0)

    raw_weights = as_mapping(raw.get("weights"), "weights", where, issues)
    parts = {
        key: as_number(optional(raw_weights, key, 1.0), f"{key} weight", where, issues, at_least=0)
        for key in ("cognitive", "perceptual", "eyes_off")
    }
    weights = ObjectiveWeights()
    if None not in parts.values():
        try:
            weights = ObjectiveWeights(**parts)
        except ValueError as exc:  # every weight zero
            issues.append(Violation("error", where, f"bad weights: {exc}"))

    jobs = as_integer(optional(raw, "jobs", 1), "jobs", where, issues, at_least=1) or 1
    name = optional_name(raw, "name", where, issues) or path.stem

    if issues:
        raise PlanError(issues)
    return ExperimentPlan(
        name=name,
        scenario_path=scenario_path,
        configurations=configurations,
        master_seeds=seeds,
        trials_per_config=trials,
        trial_length=length,
        sa_floor=sa_floor,
        budget=budget,
        weights=weights,
        jobs=jobs,
    )
