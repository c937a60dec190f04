from __future__ import annotations

import gc
import tempfile
import textwrap
import weakref
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from hmisim import trial as trial_mod
from hmisim.metrics import MetricsCollector, eyes_off_contribution
from hmisim.replay import check_safety_rules, check_tor_lead_times, replay_metrics
from hmisim.scenario import load_scenario
from hmisim.tasks import Configuration, ConfigurationError, copy_configuration, validate
from hmisim.trial import run_trial

# ---------------------------------------------------------------------------
# the scripted 100 s oracle
#
# Every number below is reproducible by hand from the scripted data files:
#
# * eyes-off: 4 speed checks (t = 22/44/66/88, zero-sigma triggers), each
#   occupying 1.0 + 2 * 0.2 = 1.4 s on the off-road cluster -> 5.6 s = 5.6 %.
#   The vocal/haptic/psychomotor tasks contribute nothing.
# * overload: no two tasks ever overlap, nothing queues or aborts -> 0 %.
# * awareness: speed never changes so that belief always matches; the
#   automation_level belief (4) goes stale when the driver switches down at
#   t = 62 and is never refreshed -> awareness 1.0 for 62 s, 0.5 for 38 s
#   -> (62 + 19) / 100 = 81 %.


@pytest.fixture(scope="module")
def oracle(scripted_config, scripted_scenario):
    return run_trial(scripted_config, scripted_scenario, seed=123, trial_length=100.0)


def test_oracle_indicators_match_hand_computation(oracle):
    m = oracle.metrics
    assert m.eyes_off_seconds == 5.6
    assert m.eyes_off_fraction == 5.6
    assert m.cognitive_overload_fraction == 0.0
    assert m.perceptual_overload_fraction == 0.0
    assert m.sa_average == 81.0


def test_oracle_task_counts(oracle):
    counts = oracle.metrics.per_task_counts
    assert {(n, c.triggered, c.executed, c.queued, c.aborted) for n, c in counts.items()} == {
        ("check_speed", 4, 4, 0, 0),
        ("tor60_vocal", 1, 1, 0, 0),
        ("tor10_haptic", 1, 1, 0, 0),
        ("take_over", 1, 1, 0, 0),
    }


def test_oracle_event_times(oracle):
    records = oracle.records
    tors = [
        (r.time, r.payload["phase"], r.payload["emitted"])
        for r in records
        if r.kind == "vehicle-transition" and r.payload.get("change") == "tor"
    ]
    assert tors == [(10.0, "TOR60", True), (60.0, "TOR10", True)]

    triggers = [r.time for r in records if r.kind == "trigger"]
    assert triggers == [22.0, 44.0, 66.0, 88.0]

    controls = [
        r
        for r in records
        if r.kind == "vehicle-transition" and r.payload.get("cause") == "control:take_over"
    ]
    assert len(controls) == 1
    assert controls[0].time == 62.0
    assert (controls[0].payload["previous"], controls[0].payload["level"]) == (4, 3)

    road = [r for r in records if r.kind == "road-change"]
    assert [(r.time, r.payload["max_level"]) for r in road] == [(70.0, 2)]

    forced = [
        r
        for r in records
        if r.kind == "vehicle-transition" and r.payload.get("note") == "forced downgrade"
    ]
    assert len(forced) == 1
    assert forced[0].time == 70.0
    assert (forced[0].payload["previous"], forced[0].payload["level"]) == (3, 2)


def test_oracle_chain_fires_take_over(oracle):
    starts = {
        r.payload["task"]: r for r in oracle.records if r.kind == "task-start"
    }
    assert starts["take_over"].time == 61.0
    assert starts["take_over"].payload["source"] == "chain:tor10_haptic"


def test_oracle_trace_is_bracketed(oracle):
    records = oracle.records
    assert records[0].kind == "init"
    assert records[0].payload == {"seed": 123, "trial_length": 100.0}
    assert records[-1].kind == "trial-end"
    assert records[-1].payload == {"truncated": [], "still_queued": []}
    assert records[-1].time == 100.0


def test_oracle_passes_its_own_audits(oracle):
    assert check_safety_rules(oracle.records).ok()
    assert check_tor_lead_times(oracle.records, 60.0, 10.0).ok()
    replayed = replay_metrics(oracle.records, 100.0)
    assert replayed.eyes_off_seconds == 5.6
    assert replayed.cognitive_overload_seconds == 0.0
    assert replayed.perceptual_overload_seconds == 0.0
    assert replayed.sa_average(100.0) == 81.0


def test_oracle_memory_updates_only_for_speed(oracle):
    updates = [r for r in oracle.records if r.kind == "memory-update"]
    assert [u.payload["parameter"] for u in updates] == ["speed"] * 4
    assert all(u.payload["value"] == 50.0 for u in updates)


# ---------------------------------------------------------------------------
# determinism and common random numbers


def test_same_seed_reproduces_trace_and_metrics(demo_config, demo_scenario):
    a = run_trial(demo_config, demo_scenario, seed=11, trial_length=2000.0)
    b = run_trial(demo_config, demo_scenario, seed=11, trial_length=2000.0)
    assert [r.to_json() for r in a.records] == [r.to_json() for r in b.records]
    assert a.metrics == b.metrics


@pytest.mark.parametrize(
    ("inputs", "seed", "length"),
    [("demo", 1, 12_000.0), ("demo", 2, 12_000.0), ("demo", 3, 12_000.0), ("scripted", 123, 100.0)],
)
def test_untraced_trial_has_the_traced_metrics(request, inputs, seed, length):
    config = request.getfixturevalue(f"{inputs}_config")
    scenario = request.getfixturevalue(f"{inputs}_scenario")
    traced = run_trial(config, scenario, seed, length)
    untraced = run_trial(config, scenario, seed, length, trace=False)
    assert traced.records
    assert untraced.records == []
    assert untraced.metrics == traced.metrics
    # repr tells apart every float bit pattern that == lets through (-0.0).
    assert repr(untraced.metrics) == repr(traced.metrics)


@pytest.mark.parametrize(("inputs", "length"), [("demo", 12_000.0), ("scripted", 100.0)])
def test_untraced_trial_never_records(request, monkeypatch, inputs, length):
    def record(*args, **kwargs):
        raise AssertionError("an untraced trial called MetricsCollector.record")

    monkeypatch.setattr(MetricsCollector, "record", record)
    config = request.getfixturevalue(f"{inputs}_config")
    scenario = request.getfixturevalue(f"{inputs}_scenario")
    assert run_trial(config, scenario, 1, length, trace=False).records == []


def test_finished_trial_is_freed_without_the_cyclic_gc(monkeypatch, demo_config, demo_scenario):
    # A reference cycle through the trial (say, bound handlers kept on it)
    # would keep its collector, and with it the whole trace, alive until a
    # gen-2 collection.
    collectors = []

    class Collector(MetricsCollector):
        def __init__(self, *args):
            super().__init__(*args)
            collectors.append(weakref.ref(self))

    monkeypatch.setattr(trial_mod, "MetricsCollector", Collector)
    gc.disable()
    try:
        result = run_trial(demo_config, demo_scenario, seed=1, trial_length=2000.0)
        assert result.records
        del result
        assert [ref() for ref in collectors] == [None]
    finally:
        gc.enable()


def _moved_and_retimed(config):
    """The design with check_speed moved to the head-up display and check_navigation retimed."""
    variant = copy_configuration(config)
    tasks = variant.task_map()
    tasks["check_speed"].location = "head_up_display"
    tasks["check_speed"].gaze_time = variant.elements["head_up_display"].gaze_time
    tasks["check_navigation"].duration = 3.5
    return variant


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), length=st.floats(50.0, 12_000.0), variant=st.booleans())
def test_traced_and_untraced_trials_agree(demo_config, demo_scenario, seed, length, variant):
    config = _moved_and_retimed(demo_config) if variant else demo_config
    traced = run_trial(config, demo_scenario, seed, length)
    untraced = run_trial(config, demo_scenario, seed, length, trace=False)
    assert repr(untraced.metrics) == repr(traced.metrics)
    # The per-trial task table must describe this design, not an earlier one.
    tasks = config.task_map()
    eyes_off = 0.0
    for r in traced.records:
        task = tasks.get(r.payload.get("task"))
        if r.kind == "task-start":
            assert r.payload["location"] == task.location
            assert r.payload["total_time"] == task.total_time()
        elif r.kind == "task-end" and r.payload["completed"]:
            on_road = config.elements[task.location].on_road
            eyes_off += eyes_off_contribution(task.total_time(), task.perception_type.value, on_road)
    assert untraced.metrics.eyes_off_seconds == eyes_off


def test_different_seeds_differ(demo_config, demo_scenario):
    a = run_trial(demo_config, demo_scenario, seed=11, trial_length=2000.0)
    b = run_trial(demo_config, demo_scenario, seed=12, trial_length=2000.0)
    assert [r.to_json() for r in a.records] != [r.to_json() for r in b.records]


def test_design_change_shares_road_and_trigger_draws(demo_config, demo_scenario):
    """A task-catalog edit must not disturb the environment substreams."""
    variant = copy_configuration(demo_config)
    msg = variant.task_map()["ad_available_msg"]
    msg.location = "head_up_display"
    msg.gaze_time = variant.elements["head_up_display"].gaze_time

    a = run_trial(demo_config, demo_scenario, seed=21, trial_length=3000.0)
    b = run_trial(variant, demo_scenario, seed=21, trial_length=3000.0)

    road_a = [r.time for r in a.records if r.kind == "road-change"]
    road_b = [r.time for r in b.records if r.kind == "road-change"]
    assert road_a == road_b and road_a

    trig_a = [r.time for r in a.records if r.kind == "trigger"]
    trig_b = [r.time for r in b.records if r.kind == "trigger"]
    assert trig_a == trig_b and trig_a

    # and the change did change the execution record
    assert [r.to_json() for r in a.records] != [r.to_json() for r in b.records]


def _reversing(names, prefix):
    """New names for ``names`` whose sort order is the reverse of theirs."""
    ordered = sorted(names)
    return {name: f"{prefix}{len(ordered) - i:02d}" for i, name in enumerate(ordered)}


def test_renaming_tasks_and_elements_leaves_the_indicators_bit_identical(demo_config, demo_scenario):
    """Names are labels: no indicator may depend on them or on their sort order."""
    task = _reversing([t.name for t in demo_config.tasks], "task")
    element = _reversing(demo_config.elements, "element")
    renamed = Configuration(
        tasks=[
            replace(t, name=task[t.name], location=element[t.location], triggers=t.triggers and task[t.triggers])
            for t in demo_config.tasks
        ],
        elements={element[n]: replace(e, name=element[n]) for n, e in demo_config.elements.items()},
        scale=demo_config.scale,
    )
    scenario = replace(
        demo_scenario,
        cognitive_functions=[replace(f, target_task=task[f.target_task]) for f in demo_scenario.cognitive_functions],
        bindings={key: [task[n] for n in names] for key, names in demo_scenario.bindings.items()},
        controls={task[n]: control for n, control in demo_scenario.controls.items()},
    )
    names = [t.name for t in demo_config.tasks]
    assert sorted(names, key=task.get) == sorted(names, reverse=True)
    assert [v for v in validate(renamed) if v.severity == "error"] == []
    for seed in (1, 2, 3):
        before = run_trial(demo_config, demo_scenario, seed, 20_000.0, trace=False).metrics
        after = run_trial(renamed, scenario, seed, 20_000.0, trace=False).metrics
        assert [v.hex() for v in after.indicator_row()] == [v.hex() for v in before.indicator_row()]


def test_demo_trial_replay_matches_collector(demo_config, demo_scenario):
    result = run_trial(demo_config, demo_scenario, seed=1, trial_length=5000.0)
    m = result.metrics
    replayed = replay_metrics(result.records, 5000.0)
    assert replayed.eyes_off_seconds == pytest.approx(m.eyes_off_seconds, rel=1e-9)
    assert replayed.cognitive_overload_seconds == pytest.approx(
        m.cognitive_overload_seconds, rel=1e-9, abs=1e-9
    )
    assert replayed.perceptual_overload_seconds == pytest.approx(
        m.perceptual_overload_seconds, rel=1e-9, abs=1e-9
    )
    assert replayed.sa_average(5000.0) == pytest.approx(m.sa_average, rel=1e-12)
    assert check_safety_rules(result.records).ok()
    assert check_tor_lead_times(result.records, 60.0, 10.0).ok()


def test_replay_keeps_its_own_eyes_off_rule(optimized_config, demo_scenario):
    # The optimized demo design shows its availability message on the head-up
    # display, so completed on-road glances reach both the collector and the replay.
    result = run_trial(optimized_config, demo_scenario, seed=1, trial_length=5000.0)
    on_road = [
        r for r in result.records
        if r.kind == "task-start" and r.payload["channel"] == "visual" and r.payload["on_road"]
    ]
    assert on_road
    replayed = replay_metrics(result.records, 5000.0)
    assert replayed.eyes_off_seconds == pytest.approx(result.metrics.eyes_off_seconds, rel=1e-9)


# ---------------------------------------------------------------------------
# serialization of simultaneous signals via follow-up chains


def _chained_scenario(tmp_path):
    path = tmp_path / "tor_pair.yaml"
    path.write_text(
        textwrap.dedent(
            """\
            road:
              fixed_segments:
                - [0, 70, 4]
                - [70, 100, 2]
            speed: {constant: 50}
            cognitive_functions:
              - {name: speed_check, task: check_speed, mean: 1000, sigma: 0}
              - {name: mode_check, task: check_mode, mean: 1000, sigma: 0}
              - {name: nav_check, task: check_navigation, mean: 1000, sigma: 0}
              - {name: mirror_scan, task: scan_mirrors, mean: 1000, sigma: 0}
            bindings:
              tor10: [tor10_haptic, drive_now_vocal]
            awareness:
              speed: {resolution: 1}
              automation_level: {}
              ad_available: {}
            vehicle: {initial_level: 4}
            """
        )
    )
    return load_scenario(path)


def test_co_emitted_tasks_start_together_without_chain(tmp_path, demo_config):
    scenario = _chained_scenario(tmp_path)
    result = run_trial(demo_config, scenario, seed=1, trial_length=100.0)
    starts_at_60 = sorted(
        r.payload["task"] for r in result.records if r.kind == "task-start" and r.time == 60.0
    )
    assert starts_at_60 == ["drive_now_vocal", "tor10_haptic"]


def test_follow_up_chain_serializes_co_emitted_pair(tmp_path, optimized_config):
    # In the optimized catalog the vibration names the vocal prompt as its
    # follow-up, so the emission skips the vocal and the chain raises it.
    scenario = _chained_scenario(tmp_path)
    result = run_trial(optimized_config, scenario, seed=1, trial_length=100.0)
    starts = [r for r in result.records if r.kind == "task-start"]
    assert [r.payload["task"] for r in starts if r.time == 60.0] == ["tor10_haptic"]
    vocal = next(r for r in starts if r.payload["task"] == "drive_now_vocal")
    assert vocal.time == 61.0
    assert vocal.payload["source"] == "chain:tor10_haptic"


# ---------------------------------------------------------------------------
# edge behaviour


def test_truncation_balances_the_books(scripted_config, scripted_scenario):
    # length 22.5 cuts the t=22 speed check mid-flight
    result = run_trial(scripted_config, scripted_scenario, seed=1, trial_length=22.5)
    counts = result.metrics.per_task_counts["check_speed"]
    assert (counts.triggered, counts.executed) == (1, 0)
    assert result.metrics.eyes_off_seconds == 0.0  # uncompleted: no contribution

    tail = result.records[-2]
    assert tail.kind == "task-end"
    assert tail.payload["task"] == "check_speed"
    assert tail.payload["completed"] is False
    assert result.records[-1].payload["truncated"] == ["check_speed"]
    assert check_safety_rules(result.records).ok()


def test_awareness_is_full_when_nothing_tracked(tmp_path, scripted_config):
    config = copy_configuration(scripted_config)
    for task in config.tasks:
        task.awareness_parameter = None
    path = tmp_path / "untracked.yaml"
    path.write_text(
        "road:\n  fixed_segments:\n    - [0, 100, 4]\n"
        "cognitive_functions:\n  - {name: speed_check, task: check_speed, mean: 22, sigma: 0}\n"
        "vehicle: {initial_level: 4}\n"
    )
    result = run_trial(config, load_scenario(path), seed=1, trial_length=100.0)
    assert result.metrics.sa_average == 100.0


def test_bound_task_missing_from_catalog_is_skipped(scripted_config, scripted_scenario):
    config = copy_configuration(scripted_config)
    config.tasks = [t for t in config.tasks if t.name != "tor60_vocal"]
    result = run_trial(config, scripted_scenario, seed=1, trial_length=100.0)
    assert not any(
        r.payload.get("task") == "tor60_vocal"
        for r in result.records
        if r.kind in ("task-start", "task-queued", "task-abort")
    )
    # the request is still recorded as an (inactive) TOR event
    assert any(
        r.payload.get("change") == "tor" and r.payload["phase"] == "TOR60"
        for r in result.records
        if r.kind == "vehicle-transition"
    )


def test_cross_validation_errors_block_the_trial(scripted_config, demo_scenario):
    # scripted tasks reference functions the demo scenario does not define
    with pytest.raises(ConfigurationError):
        run_trial(scripted_config, demo_scenario, seed=1, trial_length=100.0)


@pytest.mark.parametrize("length", [0.0, -5.0])
def test_non_positive_trial_length_rejected(scripted_config, scripted_scenario, length):
    with pytest.raises(ConfigurationError) as err:
        run_trial(scripted_config, scripted_scenario, seed=1, trial_length=length)
    assert "trial length must be > 0" in str(err.value)


def test_fixed_timeline_shorter_than_trial_rejected(scripted_config, scripted_scenario):
    with pytest.raises(ConfigurationError) as err:
        run_trial(scripted_config, scripted_scenario, seed=1, trial_length=150.0)
    assert "covers 100.0 s but the trial needs 150.0 s" in str(err.value)


def test_fixed_timeline_longer_than_trial_is_clipped(scripted_config, scripted_scenario):
    result = run_trial(scripted_config, scripted_scenario, seed=1, trial_length=50.0)
    # The 70 s boundary lies beyond the horizon, so it does not exist in
    # this trial's world -- and neither do its take-over requests.
    assert not any(r.kind == "road-change" for r in result.records)
    assert not any(
        r.payload.get("change") == "tor"
        for r in result.records
        if r.kind == "vehicle-transition"
    )
    # the clock still ran the full 50 s with the speed checks intact
    assert [r.time for r in result.records if r.kind == "trigger"] == [22.0, 44.0]
    assert result.records[-1].time == 50.0


def test_a_road_change_fires_before_the_take_over_request_it_shares_a_time_with(tmp_path, scripted_config):
    # TOR60 is clamped to the start of the level-4 segment (50 s); TOR10 has no lead, so it falls on the drop (70 s).
    raw = yaml.safe_load((Path(__file__).parent / "data" / "scripted_scenario.yaml").read_text())
    raw["road"] = {"fixed_segments": [[0, 50, 2], [50, 70, 4], [70, 100, 2]]}
    raw["vehicle"] = {"initial_level": 2, "tor_lead_seconds": 60, "tor_final_seconds": 0}
    path = tmp_path / "ties.yaml"
    path.write_text(yaml.safe_dump(raw))
    records = run_trial(scripted_config, load_scenario(path), seed=1, trial_length=100.0).records

    def road_and_tor_at(time):
        return [
            (r.kind, r.payload.get("phase"))
            for r in records
            if r.time == time and (r.kind == "road-change" or r.payload.get("change") == "tor")
        ]

    assert road_and_tor_at(50.0) == [("road-change", None), ("vehicle-transition", "TOR60")]
    assert road_and_tor_at(70.0) == [("road-change", None), ("vehicle-transition", "TOR10")]


# ---------------------------------------------------------------------------
# the world before L does not depend on L


def _road_and_speed_before(records, end):
    """The ``(time, payload)`` of every road change and speed change before ``end``."""
    return [
        (r.time, r.payload)
        for r in records
        if r.time < end
        and (r.kind == "road-change" or (r.kind == "vehicle-transition" and r.payload["change"] == "speed"))
    ]


DEMO_SCENARIO = resources.files("hmisim") / "data" / "demo_scenario.yaml"
_LEVELS = st.sets(st.integers(0, 4), min_size=1).map(sorted)
_SPEEDS = st.floats(-200.0, 200.0)


@st.composite
def _drawn_road(draw):
    """A road ``process`` section; some levels may be absorbing."""
    levels = draw(_LEVELS)
    dwell, transitions = {}, {}
    for level in levels:
        entry = {"mean": draw(st.floats(0.1, 600.0)), "min": draw(st.floats(0.0, 300.0))}
        if draw(st.booleans()):
            entry["max"] = entry["min"] + draw(st.floats(0.1, 600.0))
        dwell[level] = entry
        others = [other for other in levels if other != level]
        targets = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
        transitions[level] = {target: draw(st.floats(0.01, 10.0)) for target in targets}
    initial = draw(st.sampled_from(levels))
    return {"process": {"initial_level": initial, "dwell": dwell, "transitions": transitions}}


@st.composite
def _fixed_road(draw, covers):
    """A ``fixed_segments`` section that ends at or after ``covers``."""
    end = covers + draw(st.floats(0.0, 500.0))
    cuts = sorted(set(draw(st.lists(st.floats(0.0, end, exclude_min=True, exclude_max=True), max_size=20))))
    bounds = [0.0, *cuts, end]
    return {"fixed_segments": [[a, b, draw(st.integers(0, 4))] for a, b in zip(bounds, bounds[1:])]}


_SPEED_SECTIONS = st.one_of(
    st.builds(lambda value: {"constant": value}, _SPEEDS),
    st.dictionaries(st.floats(0.0, 3000.0, exclude_min=True), _SPEEDS, max_size=20).map(
        lambda changes: {"steps": [[0.0, 0.0], *([time, changes[time]] for time in sorted(changes))]}
    ),
    st.builds(
        lambda period, values: {"cycle": {"period": period, "values": values}},
        st.floats(0.1, 1000.0),
        st.lists(_SPEEDS, min_size=1, max_size=6),
    ),
)


@st.composite
def _worlds(draw):
    """A road and a speed section for the demo scenario, and trial lengths L1 < L2."""
    short = draw(st.floats(1.0, 1500.0))
    long = short + draw(st.floats(0.001, 1500.0))
    road = draw(st.one_of(_drawn_road(), _fixed_road(long)))
    return road, draw(_SPEED_SECTIONS), short, long


@settings(max_examples=50, deadline=None)
@given(world=_worlds(), seed=st.integers(0, 2**64 - 1))
def test_road_and_speed_before_the_shorter_length_do_not_depend_on_the_length(demo_config, world, seed):
    road, speed, short, long = world
    raw = {**yaml.safe_load(DEMO_SCENARIO.read_text()), "road": road, "speed": speed}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.yaml"
        path.write_text(yaml.safe_dump(raw))
        scenario = load_scenario(path)
    first = run_trial(demo_config, scenario, seed, short).records
    second = run_trial(demo_config, scenario, seed, long).records
    assert _road_and_speed_before(first, short) == _road_and_speed_before(second, short)


def test_the_scripted_fixed_road_and_speed_before_50_s_do_not_depend_on_the_length(
    scripted_config, scripted_scenario
):
    first = run_trial(scripted_config, scripted_scenario, seed=1, trial_length=50.0).records
    second = run_trial(scripted_config, scripted_scenario, seed=1, trial_length=100.0).records
    assert _road_and_speed_before(first, 50.0) == _road_and_speed_before(second, 50.0)
    assert _road_and_speed_before(second, 100.0) == [(70.0, {"max_level": 2, "previous_max": 4})]
