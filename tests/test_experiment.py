from __future__ import annotations

import dataclasses
import math
import re
from enum import Enum
from importlib import resources
from pathlib import Path

import pytest

from hmisim import experiment, metrics
from hmisim.cli import main
from hmisim.experiment import (
    Comparison,
    ExperimentPlan,
    MoveRecord,
    NamedConfiguration,
    ObjectivePoint,
    ObjectiveWeights,
    PlanError,
    ReallocateLocation,
    RemoveTask,
    ReplaceDescriptor,
    SearchResult,
    SerializeSignals,
    _accepts,
    apply_move,
    compare,
    enumerate_moves,
    load_plan,
    local_search,
    objective_point,
    replay_moves,
    run_many,
    run_metrics,
)
from hmisim.tasks import Configuration, ConfigurationError, copy_configuration, load_configuration
from hmisim.workload import AttentionalChannel

PKG_DATA = Path(str(resources.files("hmisim") / "data"))

THREE_MOVES = [
    ReallocateLocation(task="ad_available_msg", new_location="head_up_display"),
    RemoveTask(task="ad_available_vocal"),
    SerializeSignals(first="tor10_haptic", second="drive_now_vocal"),
]


# ---------------------------------------------------------------------------
# batches and pairing


def test_run_many_returns_results_in_seed_order(demo_config, demo_scenario):
    seeds = [5, 2, 9]
    results = run_many(demo_config, demo_scenario, seeds, trial_length=1000.0)
    assert [m.seed for m in results] == seeds


def test_run_many_parallel_matches_sequential(demo_config, demo_scenario):
    seeds = [1, 2, 3, 4]
    sequential = run_many(demo_config, demo_scenario, seeds, trial_length=1500.0, jobs=1)
    parallel = run_many(demo_config, demo_scenario, seeds, trial_length=1500.0, jobs=4)
    assert sequential == parallel


def test_compare_identical_configs_has_zero_diffs(demo_config, demo_scenario):
    comparison = compare(
        demo_config,
        demo_config,
        demo_scenario,
        seeds=[1, 2, 3],
        trial_length=1000.0,
        name_a="base",
        name_b="same",
    )
    assert comparison.paired_diffs == [(0.0, 0.0, 0.0, 0.0)] * 3
    assert comparison.summary_a.medians == comparison.summary_b.medians
    assert comparison.batches() == {"base": comparison.metrics_a, "same": comparison.metrics_b}
    assert comparison.seeds == [1, 2, 3]
    # Everything else derives from the trials that ran.
    assert [f.name for f in dataclasses.fields(Comparison)] == ["name_a", "name_b", "metrics_a", "metrics_b"]


def test_compare_pairs_seeds_one_to_one(demo_config, optimized_config, demo_scenario):
    comparison = compare(
        demo_config, optimized_config, demo_scenario, seeds=[1, 2], trial_length=1000.0
    )
    for i, (a, b) in enumerate(zip(comparison.metrics_a, comparison.metrics_b)):
        assert a.seed == b.seed == comparison.seeds[i]
        diff = comparison.paired_diffs[i]
        assert diff[0] == b.eyes_off_fraction - a.eyes_off_fraction
        assert diff[3] == b.sa_average - a.sa_average


def test_run_metrics_builds_no_trace(monkeypatch, demo_config, demo_scenario):
    def no_records(*args, **kwargs):
        raise AssertionError("a metrics-only trial built a trace record")

    monkeypatch.setattr(metrics, "TraceRecord", no_records)
    assert run_metrics(demo_config, demo_scenario, 1, 1500.0).seed == 1


@pytest.fixture
def pools(monkeypatch):
    """Counts the worker pools that experiment functions start."""
    started = []

    class CountingPool(experiment.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(experiment, "_usable_cores", lambda: 4)  # the counts hold on any machine
    return started


def test_compare_starts_one_pool(pools, demo_config, optimized_config, demo_scenario):
    args = (demo_config, optimized_config, demo_scenario, [1, 2, 3], 1500.0)
    sequential = compare(*args, jobs=1)
    assert pools == []
    assert compare(*args, jobs=2) == sequential
    assert pools == [2]


def test_local_search_starts_one_pool(pools, demo_config, demo_scenario):
    args = (demo_config, demo_scenario, [1, 2], 1500.0)
    knobs = {"sa_floor": 0.0, "budget": 3}
    sequential = local_search(*args, **knobs, jobs=1)
    assert pools == []
    assert sequential.evaluations == 3
    parallel = local_search(*args, **knobs, jobs=2)
    assert pools == [2]
    assert parallel == sequential  # log, config, objectives and metrics


def test_no_pool_for_one_job_one_seed_or_no_budget(pools, demo_config, demo_scenario):
    run_many(demo_config, demo_scenario, [1, 2], 500.0, jobs=1)
    run_many(demo_config, demo_scenario, [1], 500.0, jobs=2)
    compare(demo_config, demo_config, demo_scenario, [1], 500.0, jobs=2)
    local_search(demo_config, demo_scenario, [1, 2], 500.0, sa_floor=0.0, budget=0, jobs=2)
    local_search(demo_config, demo_scenario, [1], 500.0, sa_floor=0.0, budget=1, jobs=2)
    assert pools == []


def test_pool_workers_are_capped_at_the_usable_cores(monkeypatch, demo_config, demo_scenario):
    """Asking for thousands of jobs starts no more workers than there are cores.

    A recording stand-in replaces the pool and runs the batch in-process,
    so the test starts no process at all.
    """
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiment, "_usable_cores", lambda: 3)
    seeds = [1, 2, 3, 4, 5]
    sequential = run_many(demo_config, demo_scenario, seeds, 300.0, jobs=1)
    assert run_many(demo_config, demo_scenario, seeds, 300.0, jobs=5000) == sequential
    assert run_many(demo_config, demo_scenario, seeds[:2], 300.0, jobs=5000) == sequential[:2]
    local_search(demo_config, demo_scenario, seeds, 300.0, sa_floor=0.0, budget=1, jobs=5000)
    assert started == [3, 2, 3]


def test_usable_cores_is_at_least_one():
    assert experiment._usable_cores() >= 1


# ---------------------------------------------------------------------------
# objective


def test_weights_validation():
    with pytest.raises(ValueError):
        ObjectiveWeights(cognitive=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="must be >= 0 and finite"):
            ObjectiveWeights(eyes_off=bad)
    with pytest.raises(ValueError):
        ObjectiveWeights(cognitive=0.0, perceptual=0.0, eyes_off=0.0)
    assert ObjectiveWeights(cognitive=0.0, perceptual=2.0, eyes_off=0.0).perceptual == 2.0


def test_objective_point_score_and_finiteness():
    point = ObjectivePoint(1.0, 2.0, 3.0, 80.0)
    assert point.score(ObjectiveWeights()) == 6.0
    assert point.score(ObjectiveWeights(cognitive=2.0, perceptual=0.5, eyes_off=1.0)) == 6.0
    with pytest.raises(ValueError):
        ObjectivePoint(math.nan, 0.0, 0.0, 0.0)


def test_dominates_requires_strict_improvement_somewhere():
    base = ObjectivePoint(1.0, 2.0, 3.0, 80.0)
    assert ObjectivePoint(1.0, 2.0, 2.9, 10.0).dominates(base)  # sa plays no part
    assert ObjectivePoint(0.5, 1.0, 1.0, 80.0).dominates(base)
    assert not ObjectivePoint(1.0, 2.0, 3.0, 99.0).dominates(base)  # equal everywhere
    assert not ObjectivePoint(0.5, 2.5, 1.0, 80.0).dominates(base)  # trade-off
    assert not base.dominates(base)


def test_objective_point_uses_lower_median(demo_config, demo_scenario):
    metrics = run_many(demo_config, demo_scenario, [1, 2, 3, 4], trial_length=800.0)
    point = objective_point(metrics)
    eyes = sorted(m.eyes_off_fraction for m in metrics)
    assert point.eyes_off == eyes[1]  # lower of the two middle values


# ---------------------------------------------------------------------------
# moves


def test_reallocate_updates_location_and_gaze(demo_config):
    moved = apply_move(demo_config, ReallocateLocation("check_navigation", "head_up_display"))
    task = moved.task_map()["check_navigation"]
    assert task.location == "head_up_display"
    assert task.gaze_time == 0.1
    # original untouched
    assert demo_config.task_map()["check_navigation"].location == "central_console"


def test_reallocate_non_visual_task_keeps_zero_gaze(demo_config):
    moved = apply_move(demo_config, ReallocateLocation("tor60_vocal", "instrument_cluster"))
    task = moved.task_map()["tor60_vocal"]
    assert task.location == "instrument_cluster"
    assert task.gaze_time == 0.0


def test_reallocate_to_unknown_element_rejected(demo_config):
    with pytest.raises(ConfigurationError):
        apply_move(demo_config, ReallocateLocation("check_speed", "holographic_dome"))


def test_remove_task(demo_config):
    smaller = apply_move(demo_config, RemoveTask("ad_available_vocal"))
    assert "ad_available_vocal" not in smaller.task_map()
    assert len(smaller.tasks) == len(demo_config.tasks) - 1


def test_remove_trigger_target_rejected(demo_config):
    # ad_available_msg triggers activate_ad; dropping the target dangles
    with pytest.raises(ConfigurationError):
        apply_move(demo_config, RemoveTask("activate_ad"))


def test_serialize_signals_sets_follow_up(demo_config):
    chained = apply_move(demo_config, SerializeSignals("tor10_haptic", "drive_now_vocal"))
    assert chained.task_map()["tor10_haptic"].triggers == "drive_now_vocal"
    assert demo_config.task_map()["tor10_haptic"].triggers is None


def test_serializing_into_a_cycle_rejected(demo_config):
    with pytest.raises(ConfigurationError):
        apply_move(demo_config, SerializeSignals("tor10_haptic", "tor10_haptic"))


def test_replace_descriptor_both_slots(demo_config):
    lighter = apply_move(
        demo_config, ReplaceDescriptor("check_navigation", "cognitive", "Simple association")
    )
    task = lighter.task_map()["check_navigation"]
    assert task.cognitive_descriptor == "Simple association"
    assert task.cognitive_workload == 1.0

    lighter = apply_move(
        demo_config, ReplaceDescriptor("check_navigation", "perceptual", "Detect simple signal")
    )
    task = lighter.task_map()["check_navigation"]
    assert task.perceptual_descriptor == "Detect simple signal"
    assert task.perceptual_workload == 1.0


def test_replace_descriptor_bad_slot_rejected(demo_config):
    with pytest.raises(ConfigurationError):
        apply_move(demo_config, ReplaceDescriptor("check_speed", "emotional", "Sigh"))


def test_unknown_task_in_move_rejected(demo_config):
    with pytest.raises(ConfigurationError):
        apply_move(demo_config, RemoveTask("ghost"))


@pytest.mark.parametrize(
    ("move", "named"),
    [
        (RemoveTask("ghost"), "ghost"),
        (ReallocateLocation("ghost", "head_up_display"), "ghost"),
        (SerializeSignals("tor10_haptic", "ghost"), "ghost"),
        (ReplaceDescriptor("ghost", "cognitive", "Simple association"), "ghost"),
        (ReallocateLocation("check_speed", "holographic_dome"), "holographic_dome"),
        (ReplaceDescriptor("check_speed", "emotional", "Sigh"), "emotional"),
        ("shuffle", "shuffle"),
    ],
    ids=["remove", "reallocate", "serialize", "replace", "destination", "slot", "move-type"],
)
def test_rejected_move_is_one_error_naming_it(demo_config, move, named):
    before = demo_config.tasks[:]
    with pytest.raises(ConfigurationError) as err:
        apply_move(demo_config, move)
    [violation] = err.value.violations
    assert violation.severity == "error"
    assert violation.where.startswith("move")
    assert named in str(violation)
    assert demo_config.tasks == before


@pytest.mark.parametrize(
    "move",
    [
        RemoveTask("ghost"),
        ReallocateLocation("ghost", "head_up_display"),
        SerializeSignals("ghost", "tor10_haptic"),
        SerializeSignals("tor10_haptic", "ghost"),
        ReplaceDescriptor("ghost", "cognitive", "Simple association"),
        ReplaceDescriptor("check_speed", "emotional", "Sigh"),
    ],
    ids=["remove", "reallocate", "serialize-first", "serialize-second", "replace", "slot"],
)
def test_a_rejected_move_is_located_at_its_description(demo_config, move):
    with pytest.raises(ConfigurationError) as err:
        apply_move(demo_config, move)
    [violation] = err.value.violations
    assert violation.where == f"move {move.describe()}"


# ---------------------------------------------------------------------------
# neighborhood


def test_neighborhood_contains_the_bundled_move_set(demo_config, demo_scenario):
    moves = enumerate_moves(demo_config, demo_scenario)
    for move in THREE_MOVES:
        assert move in moves


def test_reallocations_target_only_visual_surfaces(demo_config, demo_scenario):
    tasks = demo_config.task_map()
    reallocs = [m for m in enumerate_moves(demo_config, demo_scenario) if isinstance(m, ReallocateLocation)]
    assert reallocs
    for move in reallocs:
        assert tasks[move.task].perception_type is AttentionalChannel.VISUAL
        destination = demo_config.elements[move.new_location]
        assert destination.on_road or destination.gaze_time > 0
        assert move.new_location != tasks[move.task].location


def test_a_serialization_that_would_close_a_trigger_cycle_is_not_offered(demo_config, demo_scenario):
    cycle = SerializeSignals("tor10_haptic", "drive_now_vocal")
    assert cycle.describe() == "serialize drive_now_vocal after tor10_haptic"
    assert cycle in enumerate_moves(demo_config, demo_scenario)
    config = copy_configuration(demo_config)
    config.task_map()["drive_now_vocal"].triggers = "tor10_haptic"
    assert cycle not in enumerate_moves(config, demo_scenario)


def test_removals_spare_referenced_tasks(demo_config, demo_scenario):
    removals = {m.task for m in enumerate_moves(demo_config, demo_scenario) if isinstance(m, RemoveTask)}
    assert removals == {
        "ad_available_msg",
        "ad_available_vocal",
        "level_change_msg",
        "tor60_vocal",
        "tor10_haptic",
        "drive_now_vocal",
    }


def test_serializations_are_exactly_the_legal_co_emitted_pairs(demo_config, demo_scenario):
    pairs = {
        (m.first, m.second)
        for m in enumerate_moves(demo_config, demo_scenario)
        if isinstance(m, SerializeSignals)
    }
    # tor10 pair: the vocal already chains take_over, so only the haptic
    # can lead; availability pair: the message already chains activate_ad
    assert pairs == {
        ("tor10_haptic", "drive_now_vocal"),
        ("ad_available_vocal", "ad_available_msg"),
    }


def test_descriptor_swaps_are_strictly_lighter(demo_config, demo_scenario):
    tasks = demo_config.task_map()
    swaps = [m for m in enumerate_moves(demo_config, demo_scenario) if isinstance(m, ReplaceDescriptor)]
    assert swaps
    for move in swaps:
        task = tasks[move.task]
        if move.slot == "cognitive":
            from hmisim.workload import ScaleCategory

            value = demo_config.scale.lookup(ScaleCategory.COGNITIVE, move.descriptor)
            assert value < task.cognitive_workload
        else:
            from hmisim.workload import perceptual_category

            value = demo_config.scale.lookup(
                perceptual_category(task.perception_type), move.descriptor
            )
            assert value < task.perceptual_workload
    # nothing lighter exists below the floor of a scale
    assert not any(m.task == "tor10_haptic" and m.slot == "perceptual" for m in swaps)


def test_replay_moves_reproduces_bundled_optimized_design(demo_config, optimized_config):
    rebuilt = replay_moves(demo_config, THREE_MOVES)
    assert rebuilt.tasks == optimized_config.tasks


# ---------------------------------------------------------------------------
# acceptance rule


def point(cog=1.0, perc=1.0, eyes=1.0, sa=80.0):
    return ObjectivePoint(cog, perc, eyes, sa)


def test_accepts_domination():
    ok, reason = _accepts(point(), point(eyes=0.5), ObjectiveWeights(), sa_floor=50.0)
    assert ok and "dominates" in reason


def test_accepts_weighted_sum_improvement_on_trade_off():
    # worse cognitive, much better eyes-off: not dominating, better sum
    ok, reason = _accepts(point(), point(cog=1.5, eyes=0.1), ObjectiveWeights(), sa_floor=50.0)
    assert ok and "weighted score" in reason


def test_rejects_equal_score():
    ok, _ = _accepts(point(), point(), ObjectiveWeights(), sa_floor=50.0)
    assert not ok


def test_rejects_below_floor_even_when_dominating():
    ok, reason = _accepts(point(sa=80.0), point(eyes=0.0, sa=49.0), ObjectiveWeights(), sa_floor=50.0)
    assert not ok and "below floor" in reason


def test_infeasible_incumbent_accepts_only_awareness_gains():
    incumbent = point(sa=40.0)
    better_sa_worse_objectives = point(cog=9.0, perc=9.0, eyes=9.0, sa=45.0)
    ok, reason = _accepts(incumbent, better_sa_worse_objectives, ObjectiveWeights(), sa_floor=50.0)
    assert ok and "seeking floor" in reason

    better_objectives_same_sa = point(eyes=0.0, sa=40.0)
    ok, reason = _accepts(incumbent, better_objectives_same_sa, ObjectiveWeights(), sa_floor=50.0)
    assert not ok and "does not raise" in reason


def test_weight_vector_steers_the_trade_off():
    current, candidate = point(), point(cog=1.5, eyes=0.9)
    eyes_heavy = ObjectiveWeights(cognitive=0.1, perceptual=1.0, eyes_off=10.0)
    cog_heavy = ObjectiveWeights(cognitive=10.0, perceptual=1.0, eyes_off=0.1)
    assert _accepts(current, candidate, eyes_heavy, sa_floor=0.0)[0]
    assert not _accepts(current, candidate, cog_heavy, sa_floor=0.0)[0]


# ---------------------------------------------------------------------------
# local search


def test_local_search_budget_zero_runs_nothing(scripted_config, scripted_scenario):
    result = local_search(
        scripted_config,
        scripted_scenario,
        seeds=[1],
        trial_length=-123.0,  # would raise if any trial actually ran
        sa_floor=50.0,
        budget=0,
    )
    assert result.config is scripted_config
    assert result.evaluations == 0
    assert result.objective is None and result.initial_objective is None
    assert result.feasible is None
    assert result.log == [] and result.accepted_moves == []


def test_local_search_validates_floor(scripted_config, scripted_scenario):
    with pytest.raises(ValueError):
        local_search(
            scripted_config, scripted_scenario, [1], 100.0, sa_floor=101.0, budget=1
        )


def test_local_search_rejects_negative_budget(scripted_config, scripted_scenario):
    with pytest.raises(ValueError, match="budget must be >= 0, got -3"):
        local_search(scripted_config, scripted_scenario, [1], 100.0, sa_floor=50.0, budget=-3)


def test_local_search_finds_the_head_up_reallocation(scripted_config, scripted_scenario):
    result = local_search(
        scripted_config,
        scripted_scenario,
        seeds=[1, 2, 3],
        trial_length=100.0,
        sa_floor=75.0,
        budget=40,
    )
    assert result.accepted_moves == [ReallocateLocation("check_speed", "head_up_display")]
    assert result.initial_objective.eyes_off == 5.6
    assert result.objective.eyes_off == 0.0
    assert result.objective.sa_average == 81.0
    assert result.feasible is True
    # one accepted evaluation plus one full pass over the new neighborhood
    assert 1 < result.evaluations <= 40
    assert sum(r.accepted for r in result.log) == 1
    assert all(isinstance(r, MoveRecord) for r in result.log)
    # the accepted-move log reproduces the returned design
    rebuilt = replay_moves(scripted_config, result.accepted_moves)
    assert rebuilt.tasks == result.config.tasks
    assert result.final_metrics is not None
    assert objective_point(result.final_metrics) == result.objective


def test_a_candidate_that_apply_move_rejects_costs_no_budget(tmp_path, monkeypatch, demo_config, demo_scenario):
    # Refocusing on far_display takes so long that any task's total time overflows to inf.
    elements = tmp_path / "elements.yaml"
    far = "  - {name: far_display, on_road: false, gaze_time: 1.0e308}\n"
    elements.write_text((PKG_DATA / "demo_elements.yaml").read_text() + far)
    with_far = load_configuration(PKG_DATA / "demo_tasks.csv", elements)
    to_far = [m for m in enumerate_moves(with_far, demo_scenario) if getattr(m, "new_location", None) == "far_display"]
    assert len(to_far) == 6
    for move in to_far:
        with pytest.raises(ConfigurationError, match=r"duration \+ 2 \* gaze_time must be finite, got inf"):
            apply_move(with_far, move)

    tried = []

    def tracking(design, move):
        tried.append(move)
        return apply_move(design, move)

    monkeypatch.setattr(experiment, "apply_move", tracking)
    search = dict(scenario=demo_scenario, seeds=[1, 2], trial_length=600.0, sa_floor=75.0, budget=6)
    plain = local_search(demo_config, **search)
    tried_plain, tried[:] = list(tried), []
    assert local_search(with_far, **search).log == plain.log
    assert [move for move in tried if move not in tried_plain] == [to_far[0]]  # tried, rejected, not logged


def test_local_search_infeasible_start_seeks_awareness(scripted_config, scripted_scenario):
    # The scripted design tops out at SA 81; a floor of 90 is unreachable.
    # Dropping the final-request vibration postpones the level change to
    # the forced downgrade at t=70, which *raises* average awareness to 85
    # (the stale belief is wrong for 30 s instead of 38 s) -> it is the
    # only admissible move, and the search must still report infeasible.
    result = local_search(
        scripted_config,
        scripted_scenario,
        seeds=[1],
        trial_length=100.0,
        sa_floor=90.0,
        budget=40,
    )
    assert result.feasible is False
    assert result.accepted_moves == [RemoveTask("tor10_haptic")]
    assert result.initial_objective.sa_average == 81.0
    assert result.objective.sa_average == 85.0
    rejected_reasons = [r.reason for r in result.log if not r.accepted]
    assert any("does not raise" in reason for reason in rejected_reasons)


def test_local_search_respects_budget(scripted_config, scripted_scenario):
    result = local_search(
        scripted_config,
        scripted_scenario,
        seeds=[1],
        trial_length=100.0,
        sa_floor=0.0,
        budget=3,
    )
    assert result.evaluations <= 3
    assert len(result.log) == result.evaluations


def test_search_result_keeps_only_what_the_search_ran(scripted_config, scripted_scenario):
    assert [f.name for f in dataclasses.fields(SearchResult)] == [
        "config", "sa_floor", "log", "initial_metrics", "final_metrics",
    ]
    result = local_search(scripted_config, scripted_scenario, [1], 100.0, sa_floor=90.0, budget=40)
    assert result.evaluations == len(result.log)
    assert result.accepted_moves == [r.move for r in result.log if r.accepted]
    assert result.initial_objective == objective_point(result.initial_metrics)
    assert result.objective == result.log[-1].before == objective_point(result.final_metrics)
    assert result.feasible is (result.objective.sa_average >= 90.0)


# ---------------------------------------------------------------------------
# the batch memo of one search

MEMO_SEEDS = [1001, 1002, 1003, 1004]
MEMO_LENGTH = 12_000.0


@pytest.fixture
def batches(monkeypatch):
    """The designs ``local_search`` hands to ``run_many``, one per seed batch it runs."""
    designs = []

    def counting(config, *args, **kwargs):
        designs.append(config)
        return run_many(config, *args, **kwargs)

    monkeypatch.setattr(experiment, "run_many", counting)
    return designs


def test_search_simulates_each_distinct_design_once(batches, demo_config, demo_scenario):
    result = local_search(demo_config, demo_scenario, MEMO_SEEDS, MEMO_LENGTH, sa_floor=75.0, budget=6)
    assert result.evaluations == 6
    # The undo of the accepted move (the initial design) and the repeated
    # first candidate reuse their batches.
    assert len(batches) == 5
    assert all(design != earlier for i, design in enumerate(batches) for earlier in batches[:i])
    design = demo_config
    for record in result.log:
        candidate = apply_move(design, record.move)
        assert record.after == objective_point(run_many(candidate, demo_scenario, MEMO_SEEDS, MEMO_LENGTH))
        if record.accepted:
            design = candidate
    assert design == result.config


def test_a_budget_spent_on_a_reused_batch_still_counts(batches, demo_config, demo_scenario):
    result = local_search(demo_config, demo_scenario, MEMO_SEEDS, MEMO_LENGTH, sa_floor=75.0, budget=4)
    assert result.evaluations == 4 and len(batches) == 3
    first, accepted, undo, repeat = result.log
    assert accepted.accepted and undo.move == ReallocateLocation("check_speed", "instrument_cluster")
    assert undo.after == result.initial_objective
    assert repeat.move == first.move and repeat.after == first.after


def _different(value):
    """A value of the same kind that is not equal to ``value``."""
    if isinstance(value, Enum):
        return next(member for member in type(value) if member is not value)
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if value is None or isinstance(value, str):
        return f"{value}_other"
    if isinstance(value, dict):
        return dict(list(value.items())[1:])
    if isinstance(value, list):
        return value[1:] or [None]
    field = dataclasses.fields(value)[0].name
    return dataclasses.replace(value, **{field: _different(getattr(value, field))})


def test_design_equality_reads_every_field_but_the_warnings(demo_config):
    """A search reuses the batch of an equal design, so ``==`` must tell apart
    any two designs a trial can: a field left out of it would be a false hit."""
    element = next(iter(demo_config.elements.values()))
    for instance in (demo_config.tasks[0], element, demo_config.scale, demo_config):
        for f in dataclasses.fields(instance):
            changed = dataclasses.replace(instance, **{f.name: _different(getattr(instance, f.name))})
            ignored = isinstance(instance, Configuration) and f.name == "warnings"
            assert (changed == instance) is ignored, f"{type(instance).__name__}.{f.name}"


# ---------------------------------------------------------------------------
# experiment plans


def test_bundled_demo_plan_loads(tmp_path):
    plan = load_plan(PKG_DATA / "demo_plan.yaml")
    assert [c.name for c in plan.configurations] == ["base", "optimized"]
    assert plan.master_seeds == list(range(1, 21))
    assert plan.trials_per_config == 20
    assert plan.trial_length == 60_000.0
    assert plan.sa_floor == 75.0
    assert plan.budget == 40
    assert plan.weights == ObjectiveWeights(1.0, 1.0, 1.0)
    # relative paths resolved against the plan's own directory
    assert plan.scenario_path == PKG_DATA / "demo_scenario.yaml"
    assert plan.configurations[0].tasks == PKG_DATA / "demo_tasks.csv"
    config = plan.configurations[0].load()
    assert len(config.tasks) == 12
    assert plan.load_scenario().name == "demo-motorway"


def write_plan(tmp_path, body):
    path = tmp_path / "plan.yaml"
    path.write_text(body)
    return path


#: A YAML integer too large for a float.
HUGE = "1" + "0" * 400

MINIMAL_PLAN = """\
scenario: scenario.yaml
configurations:
  - {name: base, tasks: tasks.csv, elements: elements.yaml}
"""


def test_plan_defaults(tmp_path):
    plan = load_plan(write_plan(tmp_path, MINIMAL_PLAN))
    assert plan.name == "plan"
    assert plan.master_seeds == []
    assert plan.trials_per_config == 20
    assert plan.trial_length == 60_000.0
    assert plan.sa_floor is None and plan.budget is None
    assert plan.jobs == 1
    assert plan.configurations[0].tasks == tmp_path / "tasks.csv"
    assert plan.configurations[0].scale is None


def test_plan_with_an_empty_seed_list_names_no_seeds(tmp_path):
    plan = load_plan(write_plan(tmp_path, MINIMAL_PLAN + "trials_per_config: 3\nmaster_seeds: []\n"))
    assert plan.master_seeds == []
    assert plan.trials_per_config == 3


def test_plan_explicit_seed_list_sets_trial_count(tmp_path):
    plan = load_plan(write_plan(tmp_path, MINIMAL_PLAN + "master_seeds: [11, 7, 5]\n"))
    assert plan.master_seeds == [11, 7, 5]
    assert plan.trials_per_config == 3


def test_plan_seed_shorthand(tmp_path):
    plan = load_plan(
        write_plan(tmp_path, MINIMAL_PLAN + "master_seeds: {first: 100, count: 5}\n")
    )
    assert plan.master_seeds == [100, 101, 102, 103, 104]


def test_plan_trials_can_use_seed_prefix(tmp_path):
    plan = load_plan(
        write_plan(
            tmp_path,
            MINIMAL_PLAN + "master_seeds: [4, 5, 6, 7]\ntrials_per_config: 2\n",
        )
    )
    assert plan.master_seeds == [4, 5, 6, 7]
    assert plan.trials_per_config == 2


@pytest.mark.parametrize(
    ("extra", "fragment"),
    [
        ("master_seeds: [1]\ntrials_per_config: 5\n", "only 1 master seeds"),
        ("master_seeds: [1, two]\n", "master seed must be an integer, got 'two'"),
        ("master_seeds: [1, true]\n", "master seed must be an integer, got True"),
        ("master_seeds: 7\n", "list or {first, count}"),
        ("master_seeds: {first: 1, count: 0}\n", "master_seeds count must be an integer >= 1 and <= 100000, got 0"),
        ("master_seeds: {first: 1, count: true}\n", "master_seeds count must be an integer >= 1 and <= 100000, got True"),
        ("master_seeds: {first: false, count: 3}\n", "master_seeds first must be an integer, got False"),
        ("trials_per_config: true\n", "trials_per_config must be an integer >= 1 and <= 100000, got True"),
        ("trials_per_config: 0\n", "trials_per_config must be an integer >= 1 and <= 100000, got 0"),
        ("trial_length: -1\n", "trial_length must be > 0"),
        ("trial_length: .inf\n", "trial_length must be > 0 and finite, got inf"),
        ("trial_length: .nan\n", "trial_length must be > 0 and finite, got nan"),
        pytest.param(f"trial_length: {HUGE}\n", f"trial_length must be a number, got {HUGE}", id="huge trial_length"),
        ("trial_length: true\n", "trial_length must be a number, got True"),
        ("sa_floor: 140\n", "sa_floor must be >= 0 and <= 100 and finite, got 140"),
        ("sa_floor: true\n", "sa_floor must be a number, got True"),
        ("budget: -3\n", "budget must be an integer >= 0, got -3"),
        ("budget: true\n", "budget must be an integer >= 0, got True"),
        ("budget: 2.5\n", "budget must be an integer >= 0, got 2.5"),
        ("weights: {cognitive: -1}\n", "cognitive weight must be >= 0 and finite, got -1"),
        ("weights: {eyes_off: .nan}\n", "eyes_off weight must be >= 0 and finite, got nan"),
        pytest.param(
            f"weights: {{perceptual: {HUGE}}}\n", f"perceptual weight must be a number, got {HUGE}", id="huge weight"
        ),
        ("weights: {cognitive: 0, perceptual: 0, eyes_off: 0}\n", "bad weights: at least one objective weight must be > 0"),
        ("jobs: 0\n", "jobs must be an integer >= 1, got 0"),
        ("jobs: true\n", "jobs must be an integer >= 1, got True"),
    ],
)
def test_plan_rejects_bad_values(tmp_path, capsys, extra, fragment):
    plan = write_plan(tmp_path, MINIMAL_PLAN + extra)
    with pytest.raises(PlanError) as err:
        load_plan(plan)
    assert len(err.value.violations) == 1
    assert fragment in str(err.value)
    assert main(["compare", "--plan", str(plan), "--out", str(tmp_path / "out")]) == 1
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize(
    ("key", "fragment"),
    [
        ("scenario", "plan needs a scenario path"),
        ("tasks", "configurations[0]: needs name, tasks and elements"),
        ("elements", "configurations[0]: needs name, tasks and elements"),
        ("name", "configurations[0]: needs name, tasks and elements"),
    ],
)
@pytest.mark.parametrize("empty", ["null", "''"])
def test_plan_treats_a_null_or_empty_path_or_name_as_missing(tmp_path, capsys, key, fragment, empty):
    body, count = re.subn(rf"\b{key}: [\w.]+", f"{key}: {empty}", MINIMAL_PLAN)
    assert count == 1
    plan = write_plan(tmp_path, body)
    with pytest.raises(PlanError) as err:
        load_plan(plan)
    assert len(err.value.violations) == 1
    assert fragment in str(err.value)
    assert main(["compare", "--plan", str(plan), "--out", str(tmp_path / "out")]) == 1
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("empty", ["null", "''"])
def test_plan_with_a_null_or_empty_name_is_named_after_its_file(tmp_path, empty):
    assert load_plan(write_plan(tmp_path, MINIMAL_PLAN + f"name: {empty}\n")).name == "plan"


def test_plan_needs_scenario_and_configurations(tmp_path):
    with pytest.raises(PlanError) as err:
        load_plan(write_plan(tmp_path, "name: empty\n"))
    text = str(err.value)
    assert "at least one configuration" in text
    assert "needs a scenario path" in text


@pytest.mark.parametrize(
    ("extra", "field", "expected"),
    [
        ("trial_length: null\n", "trial_length", 60_000.0),
        ("jobs: null\n", "jobs", 1),
        ("weights: {cognitive: null}\n", "weights", ObjectiveWeights(1.0, 1.0, 1.0)),
        ("master_seeds: {first: null, count: 3}\n", "master_seeds", [1, 2, 3]),
    ],
)
def test_plan_optional_key_set_to_null_counts_as_left_out(tmp_path, extra, field, expected):
    plan = load_plan(write_plan(tmp_path, MINIMAL_PLAN + extra))
    assert getattr(plan, field) == expected


def test_plan_rejects_duplicate_configuration_names(tmp_path):
    body = MINIMAL_PLAN + "  - {name: base, tasks: other.csv, elements: elements.yaml}\n"
    with pytest.raises(PlanError) as err:
        load_plan(write_plan(tmp_path, body))
    assert "duplicate configuration name" in str(err.value)


def test_plan_missing_file(tmp_path):
    with pytest.raises(PlanError) as err:
        load_plan(tmp_path / "absent.yaml")
    assert "plan file not found" in str(err.value)
