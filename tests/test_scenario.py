from __future__ import annotations

import contextlib
import copy
import io
import sys
import textwrap
from importlib import resources
from itertools import islice
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmisim.cli import main
from hmisim.driver import ALL_LEVELS
from hmisim.experiment import PlanError, SerializeSignals, enumerate_moves, load_plan
from hmisim.metrics import read_trace, write_trace
from hmisim.replay import check_safety_rules, replay_metrics
from hmisim.scenario import (
    ControlBinding,
    ScenarioError,
    SpeedScript,
    cross_validate,
    load_scenario,
)
from hmisim.tasks import ConfigurationError, Initiator, Violation, load_configuration
from hmisim.trial import run_trial
from hmisim.vehicle import GROUND_TRUTH_PARAMETERS, RoadProcessParams, RoadSegment, RoadTimeline


def write_scenario(tmp_path, body):
    path = tmp_path / "scenario.yaml"
    path.write_text(textwrap.dedent(body))
    return path


MINIMAL = """\
road:
  fixed_segments:
    - [0, 100, 2]
"""


# ---------------------------------------------------------------------------
# speed scripts


def test_speed_constant():
    script = SpeedScript(steps=((0.0, 50.0),))
    assert script.initial_value() == 50.0
    assert list(script.changes()) == []


def test_speed_steps():
    script = SpeedScript(steps=((0.0, 30.0), (10.0, 50.0), (25.0, 80.0)))
    assert script.initial_value() == 30.0
    assert list(script.changes()) == [(10.0, 50.0), (25.0, 80.0)]


def test_speed_cycle_wraps_values():
    script = SpeedScript(period=120.0, values=(50.0, 70.0, 90.0))
    assert script.initial_value() == 50.0
    assert list(islice(script.changes(), 4)) == [(120.0, 70.0), (240.0, 90.0), (360.0, 50.0), (480.0, 70.0)]
    # a period with inexact multiples still moves strictly forward (4.3 / 0.1 rounds to 42.99...)
    tenth = list(islice(SpeedScript(period=0.1, values=(1.0, 2.0)).changes(), 44))
    assert tenth[42:] == [(43 * 0.1, 2.0), (44 * 0.1, 1.0)]
    assert all(a[0] < b[0] for a, b in zip(tenth, tenth[1:]))


def test_speed_steps_from_a_scenario_file_drive_a_trial(tmp_path, scripted_config):
    text = (Path(__file__).parent / "data" / "scripted_scenario.yaml").read_text()
    assert text.count("constant: 50") == 1
    path = tmp_path / "scenario.yaml"
    path.write_text(text.replace("constant: 50", "steps: [[0, 50], [30, 80], [60, 50]]"))
    records = run_trial(scripted_config, load_scenario(path), seed=1, trial_length=100.0).records
    speeds = [
        (r.time, r.payload["speed"])
        for r in records
        if r.kind == "vehicle-transition" and r.payload["change"] == "speed"
    ]
    assert speeds == [(30.0, 80.0), (60.0, 50.0)]


# ---------------------------------------------------------------------------
# loading


def test_load_minimal_scenario_defaults(tmp_path):
    scenario = load_scenario(write_scenario(tmp_path, MINIMAL))
    assert scenario.name == "scenario"
    assert scenario.road == RoadTimeline(segments=(RoadSegment(0.0, 100.0, 2),))
    assert scenario.speed == SpeedScript(steps=((0.0, 0.0),))  # constant 0
    assert scenario.cognitive_functions == []
    assert scenario.controls == {}
    assert scenario.awareness == {}
    assert scenario.vehicle.initial_level == 0
    assert scenario.vehicle.tor_lead_seconds == 60.0
    assert scenario.vehicle.tor_final_seconds == 10.0


@pytest.mark.parametrize("name", ["null", "''"])
def test_null_or_empty_name_falls_back_to_the_file_stem(tmp_path, name):
    scenario = load_scenario(write_scenario(tmp_path, f"name: {name}\n" + MINIMAL))
    assert scenario.name == "scenario"


def test_load_full_scenario(tmp_path):
    scenario = load_scenario(
        write_scenario(
            tmp_path,
            """\
            name: full
            road:
              process:
                initial_level: 2
                dwell:
                  2: {mean: 180, min: 60, max: 600}
                  4: {mean: 300, min: 90, max: 900}
                transitions:
                  2: {4: 1.0}
                  4: {2: 1.0}
            speed:
              cycle: {period: 120, values: [50, 70]}
            cognitive_functions:
              - {name: speed_check, task: check_speed, mean: 20, sigma: 5}
              - {name: mirror_scan, task: scan_mirrors, mean: 25, levels: [0, 1, 2]}
            bindings:
              tor60: [tor60_vocal]
              tor10: [tor10_haptic]
              level_change:
                any: [level_change_msg]
              availability_rise:
                4: [ad_available_msg]
            controls:
              activate_ad: {action: switch_up, target: 4}
              take_over: {action: switch_down}
            awareness:
              speed: {resolution: 1}
              automation_level: {}
            vehicle:
              initial_level: 2
              tor_lead_seconds: 45
              tor_final_seconds: 8
            """,
        )
    )
    assert scenario.name == "full"
    assert isinstance(scenario.road, RoadProcessParams)
    assert scenario.road.initial_level == 2
    assert scenario.road.dwell[4].minimum == 90
    assert scenario.road.transitions[2] == {4: 1.0}
    assert scenario.speed == SpeedScript(period=120.0, values=(50.0, 70.0))

    by_name = {f.name: f for f in scenario.cognitive_functions}
    assert by_name["speed_check"].sigma == 5
    assert by_name["speed_check"].enabled_levels == ALL_LEVELS
    assert by_name["mirror_scan"].sigma == 6.25  # defaults to mean / 4
    assert by_name["mirror_scan"].enabled_levels == frozenset({0, 1, 2})

    assert scenario.bindings == {
        ("tor60", None): ["tor60_vocal"],
        ("tor10", None): ["tor10_haptic"],
        ("level_change", "any"): ["level_change_msg"],
        ("availability_rise", 4): ["ad_available_msg"],
    }

    assert scenario.controls["activate_ad"] == ControlBinding("switch_up", 4)
    assert scenario.controls["take_over"] == ControlBinding("switch_down", None)

    assert scenario.awareness["speed"].resolution == 1.0
    assert scenario.awareness["automation_level"].resolution is None
    assert scenario.vehicle.tor_lead_seconds == 45.0


def test_missing_file_raises(tmp_path):
    with pytest.raises(ScenarioError) as err:
        load_scenario(tmp_path / "nope.yaml")
    assert "scenario file not found" in str(err.value)


@pytest.mark.parametrize(
    ("body", "fragment"),
    [
        ("speed: {constant: 10}\n", "needs a 'road' section"),
        ("road: {}\n", "'process' or 'fixed_segments'"),
        ("road:\n  fixed_segments: []\n", "fixed_segments is empty"),
        ("road:\n  fixed_segments:\n    - [0, 50, 2]\n    - [60, 100, 3]\n", "partition"),
        (
            "road:\n  process:\n    initial_level: 2\n    dwell:\n      2: {mean: -5}\n"
            "    transitions:\n      2: {4: 1}\n",
            "road: dwell mean for level 2 must be >= 0.1 and finite, got -5",
        ),
        (
            "road:\n  process:\n    initial_level: 2\n    dwell:\n      2: {mean: 10}\n"
            "    transitions:\n      2: {4: 1}\n",
            "reachable level 4 has no dwell",
        ),
        (
            "road:\n  process:\n    initial_level: 2\n    dwell:\n      2: {mean: 10, min: 10, max: 5}\n"
            "    transitions:\n      2: {}\n",
            "road: dwell bounds for level 2 need min <= max",
        ),
        (
            "road:\n  process:\n    initial_level: 2\n    dwell:\n      2: {mean: 10}\n"
            "    transitions:\n      2: {2: 1}\n",
            "self-transition",
        ),
        (MINIMAL + "speed:\n  steps:\n    - [5, 50]\n", "must start at time 0"),
        (MINIMAL + "speed:\n  steps:\n    - [0, 50]\n    - 7\n", "speed: steps[1] must be [time, value]"),
        (MINIMAL + "speed:\n  steps:\n    - [0, 50]\n    - [0, 60]\n", "must increase"),
        (MINIMAL + "speed:\n  steps:\n    - [0, 50]\n    - [.nan, 60]\n", "speed: steps[1] time must be finite, got nan"),
        (MINIMAL + "speed:\n  steps:\n    - [0, 50]\n    - [5, .nan]\n", "speed: steps[1] value must be finite, got nan"),
        (MINIMAL + "speed:\n  cycle: {period: 0, values: [5]}\n", "speed: cycle period must be >= 0.1 and finite, got 0"),
        (
            MINIMAL + "speed:\n  cycle: {period: 1.0e-6, values: [5]}\n",
            "speed: cycle period must be >= 0.1 and finite, got 1e-06",
        ),
        (MINIMAL + "speed:\n  cycle: {period: 120, values: []}\n", "speed: cycle needs a non-empty values list"),
        (MINIMAL + "speed:\n  warp: 9\n", "one of constant/steps/cycle"),
        (MINIMAL + "cognitive_functions:\n  - {name: a, task: t, mean: 0}\n", "[0]: mean must be >= 0.1 and finite, got 0"),
        (MINIMAL + "cognitive_functions:\n  - {name: a, task: t, mean: 5, sigma: -1}\n", "sigma"),
        (
            MINIMAL + "cognitive_functions:\n  - {name: a, task: t, mean: 5}\n  - {name: a, task: u, mean: 5}\n",
            "duplicate cognitive function",
        ),
        (MINIMAL + "cognitive_functions:\n  - {task: t, mean: 5}\n", "'name' and 'task'"),
        (MINIMAL + "bindings:\n  on_crash: [x]\n", "unknown binding event"),
        (MINIMAL + "bindings:\n  tor60: not-a-list\n", "expected a list"),
        (MINIMAL + "bindings:\n  level_change:\n    9: [x]\n", "outside 0..4"),
        (MINIMAL + "controls:\n  t: {action: explode}\n", "switch_up or switch_down"),
        (MINIMAL + "awareness:\n  cabin_temp: {}\n", "no ground-truth counterpart"),
        (MINIMAL + "awareness:\n  speed: {resolution: 0}\n", "resolution must be > 0"),
        (MINIMAL + "vehicle:\n  initial_level: 7\n", "outside 0..4"),
        (MINIMAL + "vehicle:\n  initial_level: 2.5\n", "vehicle: automation level expected, got 2.5"),
        (MINIMAL + "vehicle:\n  initial_level: true\n", "vehicle: automation level expected, got True"),
        ("road:\n  fixed_segments:\n    - [0, 100, 2.5]\n", "fixed_segments[0]: automation level expected, got 2.5"),
        (MINIMAL + "bindings:\n  level_change:\n    true: [x]\n", "level_change: automation level expected, got True"),
        (
            MINIMAL + "vehicle:\n  tor_lead_seconds: 5\n  tor_final_seconds: 10\n",
            "vehicle: need tor_lead_seconds >= tor_final_seconds",
        ),
    ],
)
def test_invalid_scenarios_rejected(tmp_path, body, fragment):
    with pytest.raises(ScenarioError) as err:
        load_scenario(write_scenario(tmp_path, body))
    assert fragment in str(err.value)


@pytest.mark.parametrize(("key", "level"), [("'1'", 1), ("2.0", 2), (" 3 ", 3)])
def test_level_may_be_integer_text_or_a_whole_float(tmp_path, key, level):
    scenario = load_scenario(write_scenario(tmp_path, MINIMAL + f"vehicle:\n  initial_level: {key}\n"))
    assert scenario.vehicle.initial_level == level


PROCESS = "road:\n  process:\n    initial_level: 2\n    dwell:\n      2: {mean: 10}\n      4: {mean: 10}\n"


@pytest.mark.parametrize(
    ("body", "spot", "level"),
    [
        (MINIMAL + "bindings:\n  level_change:\n    1: [a]\n    '1': [b]\n", "bindings level_change", 1),
        (MINIMAL + "bindings:\n  availability_rise:\n    4: [a]\n    ' 4': [b]\n", "bindings availability_rise", 4),
        (MINIMAL + "bindings:\n  availability_drop:\n    '2': [a]\n    2: [b]\n", "bindings availability_drop", 2),
        (PROCESS + "      '4': {mean: 20}\n", "road dwell", 4),
        (PROCESS + "    transitions:\n      2: {4: 1}\n      '2': {4: 2}\n", "road transitions", 2),
        (PROCESS + "    transitions:\n      2: {4: 1, '4': 2}\n", "road transitions[2]", 4),
    ],
    ids=["level_change", "availability_rise", "availability_drop", "dwell", "transitions", "transition targets"],
)
def test_level_given_twice_is_one_located_error(tmp_path, body, spot, level):
    path = write_scenario(tmp_path, body)
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert err.value.violations == [Violation("error", f"{path} {spot}", f"automation level {level} given twice")]


def test_all_issues_collected(tmp_path):
    body = MINIMAL + "speed:\n  warp: 9\nawareness:\n  cabin_temp: {}\n"
    with pytest.raises(ScenarioError) as err:
        load_scenario(write_scenario(tmp_path, body))
    assert len(err.value.violations) == 2


# ---------------------------------------------------------------------------
# cross-validation


def test_demo_cross_validates_cleanly(demo_scenario, demo_config):
    assert cross_validate(demo_scenario, demo_config) == []


def test_function_targeting_unknown_task(tmp_path, demo_config):
    scenario = load_scenario(
        write_scenario(
            tmp_path, MINIMAL + "cognitive_functions:\n  - {name: f, task: ghost, mean: 5}\n"
        )
    )
    issues = cross_validate(scenario, demo_config)
    assert any("targets unknown task 'ghost'" in v.message for v in issues)


def test_function_targeting_machine_task(tmp_path, demo_config):
    scenario = load_scenario(
        write_scenario(
            tmp_path,
            MINIMAL + "cognitive_functions:\n  - {name: f, task: tor60_vocal, mean: 5}\n",
        )
    )
    issues = cross_validate(scenario, demo_config)
    assert any("must be driver-initiated" in v.message for v in issues)


def test_task_naming_undefined_function(tmp_path, demo_config):
    scenario = load_scenario(write_scenario(tmp_path, MINIMAL))
    issues = cross_validate(scenario, demo_config)
    # demo tasks reference speed_check etc. which this scenario lacks
    assert any("which the scenario does not define" in v.message for v in issues)


def test_task_with_mismatched_function_target(tmp_path, demo_config):
    scenario = load_scenario(
        write_scenario(
            tmp_path,
            MINIMAL
            + "cognitive_functions:\n"
            + "  - {name: speed_check, task: check_mode, mean: 5}\n"
            + "  - {name: mode_check, task: check_mode, mean: 5}\n"
            + "  - {name: nav_check, task: check_navigation, mean: 5}\n"
            + "  - {name: mirror_scan, task: scan_mirrors, mean: 5}\n"
            + "awareness:\n  speed: {}\n  automation_level: {}\n  ad_available: {}\n",
        )
    )
    issues = cross_validate(scenario, demo_config)
    assert any("targets 'check_mode', not this task" in v.message for v in issues)


def test_untracked_awareness_parameter_is_error(scripted_scenario, demo_config):
    issues = cross_validate(scripted_scenario, demo_config)
    assert any("'ad_available' is not tracked" in v.message for v in issues)


def test_missing_bound_task_is_warning(tmp_path, demo_scenario, demo_config):
    scenario = load_scenario(
        write_scenario(tmp_path, MINIMAL + "bindings:\n  tor60: [ghost_chime]\n")
    )
    issues = [v for v in cross_validate(scenario, demo_config) if "ghost_chime" in v.message]
    assert len(issues) == 1
    assert issues[0].severity == "warning"
    assert "skipped" in issues[0].message


def test_driver_initiated_bound_task_is_error(tmp_path, demo_config):
    scenario = load_scenario(
        write_scenario(tmp_path, MINIMAL + "bindings:\n  tor10: [check_speed]\n")
    )
    issues = cross_validate(scenario, demo_config)
    assert any(
        v.severity == "error" and "must be machine-initiated" in v.message for v in issues
    )


def test_missing_control_task_is_warning(tmp_path, demo_config):
    scenario = load_scenario(
        write_scenario(tmp_path, MINIMAL + "controls:\n  ghost_lever: {action: switch_down}\n")
    )
    issues = [v for v in cross_validate(scenario, demo_config) if "ghost_lever" in v.message]
    assert len(issues) == 1 and issues[0].severity == "warning"


def test_machine_initiated_control_task_is_error(tmp_path, demo_config):
    scenario = load_scenario(
        write_scenario(tmp_path, MINIMAL + "controls:\n  tor10_haptic: {action: switch_down}\n")
    )
    issues = cross_validate(scenario, demo_config)
    assert any(
        v.severity == "error" and "must be driver-initiated" in v.message for v in issues
    )


# Events and level keys are written out of order: every binding check reports in
# event order (tor60, tor10, level_change, availability_rise, availability_drop),
# and within an event in file order.
SHUFFLED_GHOST_BINDINGS = """\
bindings:
  availability_drop:
    4: [ghost_drop4]
    2: [ghost_drop2]
  level_change:
    3: [ghost_level3]
    any: [ghost_any]
    1: [ghost_level1]
  tor10: [ghost_tor10]
  availability_rise:
    4: [ghost_rise4]
    1: [ghost_rise1]
  tor60: [ghost_tor60]
"""


def test_binding_warnings_keep_spots_texts_and_order(tmp_path, demo_config):
    scenario = load_scenario(write_scenario(tmp_path, MINIMAL + SHUFFLED_GHOST_BINDINGS))
    issues = [v for v in cross_validate(scenario, demo_config) if v.where.startswith("bindings")]
    expected = [
        ("tor60", "ghost_tor60"),
        ("tor10", "ghost_tor10"),
        ("level_change[3]", "ghost_level3"),
        ("level_change[any]", "ghost_any"),
        ("level_change[1]", "ghost_level1"),
        ("availability_rise[4]", "ghost_rise4"),
        ("availability_rise[1]", "ghost_rise1"),
        ("availability_drop[4]", "ghost_drop4"),
        ("availability_drop[2]", "ghost_drop2"),
    ]
    assert issues == [
        Violation("warning", f"bindings {spot}", f"bound task {name!r} is not in the catalog; skipped")
        for spot, name in expected
    ]


def test_binding_parse_errors_keep_spots_texts_and_order(tmp_path):
    body = MINIMAL + textwrap.dedent("""\
        bindings:
          on_crash: [x]
          availability_drop:
            4: drop4
            7: [x]
          level_change:
            3: level3
            any: anything
          tor10: tor10
          availability_rise:
            up: [x]
            1: rise1
          tor60: tor60
        """)
    path = write_scenario(tmp_path, body)
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    not_a_list = "expected a list of task names"
    expected = [
        ("tor60", not_a_list),
        ("tor10", not_a_list),
        ("level_change[3]", not_a_list),
        ("level_change.any", not_a_list),
        ("availability_rise", "automation level expected, got 'up'"),
        ("availability_rise[1]", not_a_list),
        ("availability_drop[4]", not_a_list),
        ("availability_drop", "automation level 7 outside 0..4"),
        ("", "unknown binding event 'on_crash'"),
    ]
    assert err.value.violations == [
        Violation("error", f"{path} bindings {spot}".rstrip(), message) for spot, message in expected
    ]


def test_serialize_moves_follow_binding_event_order(tmp_path, demo_config):
    scenario = load_scenario(
        write_scenario(
            tmp_path,
            MINIMAL
            + textwrap.dedent("""\
                bindings:
                  availability_drop:
                    2: [tor10_haptic, level_change_msg]
                  level_change:
                    any: [level_change_msg, tor60_vocal]
                    3: [tor60_vocal, ad_available_vocal]
                  tor10: [tor10_haptic, drive_now_vocal]
                  availability_rise:
                    4: [ad_available_msg, ad_available_vocal]
                    2: [ad_available_vocal, level_change_msg]
                  tor60: [tor60_vocal, tor10_haptic]
                """),
        )
    )
    pairs = [
        (m.first, m.second) for m in enumerate_moves(demo_config, scenario) if isinstance(m, SerializeSignals)
    ]
    # tor60, tor10, level_change by str(level) ("3" before "any"), then the
    # availability rise and drop by ascending level; a pair is offered once.
    assert pairs == [
        ("tor60_vocal", "tor10_haptic"),
        ("tor10_haptic", "tor60_vocal"),
        ("tor10_haptic", "drive_now_vocal"),
        ("tor60_vocal", "ad_available_vocal"),
        ("ad_available_vocal", "tor60_vocal"),
        ("level_change_msg", "tor60_vocal"),
        ("tor60_vocal", "level_change_msg"),
        ("ad_available_vocal", "level_change_msg"),
        ("level_change_msg", "ad_available_vocal"),
        ("ad_available_vocal", "ad_available_msg"),
        ("tor10_haptic", "level_change_msg"),
        ("level_change_msg", "tor10_haptic"),
    ]


# ---------------------------------------------------------------------------
# generated inputs: every malformed section is rejected, never crashes, and every
# accepted scenario runs a trial that passes the trace audits


PKG_DATA = Path(str(resources.files("hmisim") / "data"))
DEMO_SCENARIO = yaml.safe_load((PKG_DATA / "demo_scenario.yaml").read_text())

#: One key path into every section the loader reads; a new key (``fixed_segments``,
#: ``constant``, ``steps``) switches the section to that form.
KEY_PATHS = [
    (),
    ("name",),
    ("road",),
    ("road", "fixed_segments"),
    ("road", "process"),
    ("road", "process", "initial_level"),
    ("road", "process", "dwell"),
    ("road", "process", "dwell", 4),
    ("road", "process", "dwell", 4, "mean"),
    ("road", "process", "dwell", 4, "min"),
    ("road", "process", "dwell", 4, "max"),
    ("road", "process", "transitions"),
    ("road", "process", "transitions", 4),
    ("road", "process", "transitions", 4, 2),
    ("speed",),
    ("speed", "constant"),
    ("speed", "steps"),
    ("speed", "cycle"),
    ("speed", "cycle", "period"),
    ("speed", "cycle", "values"),
    ("speed", "cycle", "values", 0),
    ("cognitive_functions",),
    ("cognitive_functions", 0),
    ("cognitive_functions", 0, "name"),
    ("cognitive_functions", 0, "task"),
    ("cognitive_functions", 0, "mean"),
    ("cognitive_functions", 0, "sigma"),
    ("cognitive_functions", 3, "levels"),
    ("cognitive_functions", 3, "levels", 0),
    ("bindings",),
    ("bindings", "tor60"),
    ("bindings", "tor10"),
    ("bindings", "level_change"),
    ("bindings", "level_change", "any"),
    ("bindings", "availability_rise"),
    ("bindings", "availability_rise", 4),
    ("bindings", "availability_drop"),
    ("controls",),
    ("controls", "activate_ad"),
    ("controls", "activate_ad", "action"),
    ("controls", "activate_ad", "target"),
    ("awareness",),
    ("awareness", "speed"),
    ("awareness", "speed", "resolution"),
    ("awareness", "speed", "initial"),
    ("vehicle",),
    ("vehicle", "initial_level"),
    ("vehicle", "tor_lead_seconds"),
    ("vehicle", "tor_final_seconds"),
]

#: Unbounded ``st.integers()`` practically never leaves the float range, so the
#: overflowing integers, the extreme finite floats and tiny positive intervals are
#: drawn on purpose; the in-range floats (from ``MIN_INTERVAL`` up) let accepted
#: scenarios reach the trial.
EDGE_NUMBERS = st.sampled_from(
    [10**400, -(10**400), 1e-300, 1e-308, sys.float_info.max, 0.05]
) | st.floats(min_value=0.1, max_value=1e3)
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | EDGE_NUMBERS
YAML_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(SCALARS, inner, max_size=3),
    max_leaves=6,
)


def replaced(document, path, value):
    """A deep copy of ``document`` with the value at ``path`` replaced (or added)."""
    if not path:
        return value
    document = copy.deepcopy(document)
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return document


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    return tmp_path_factory.mktemp("generated")


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(KEY_PATHS), value=YAML_VALUES)
@example(path=("speed", "cycle", "period"), value=0.1)
@example(path=("awareness", "speed", "initial"), value=10**400)
@example(path=("awareness", "speed", "resolution"), value=1e-308)
def test_generated_scenario_is_loaded_or_rejected(generated, demo_config, path, value):
    scenario = generated / "scenario.yaml"
    scenario.write_text(yaml.safe_dump(replaced(DEMO_SCENARIO, path, value)))
    try:
        loaded = load_scenario(scenario)
    except ScenarioError:
        loaded = None
    code = quiet_main([
        "validate", "--tasks", str(PKG_DATA / "demo_tasks.csv"),
        "--elements", str(PKG_DATA / "demo_elements.yaml"), "--scenario", str(scenario),
    ])
    assert code in (0, 1)
    if loaded is None or code == 1:
        assert code == 1
        return
    # Accepted: a short traced trial runs and its trace passes the audits.
    length = 600.0
    result = run_trial(demo_config, loaded, seed=1, trial_length=length)
    assert check_safety_rules(result.records).ok()
    replayed = replay_metrics(result.records, length)
    m = result.metrics
    assert replayed.eyes_off_seconds == pytest.approx(m.eyes_off_seconds, rel=1e-9, abs=1e-9)
    assert replayed.cognitive_overload_seconds == pytest.approx(m.cognitive_overload_seconds, rel=1e-9, abs=1e-9)
    assert replayed.perceptual_overload_seconds == pytest.approx(m.perceptual_overload_seconds, rel=1e-9, abs=1e-9)
    assert replayed.sa_average(length) == pytest.approx(m.sa_average, rel=1e-9, abs=1e-9)
    # The trace reads back as written, and a rerun of the trial writes the same bytes.
    first, second = generated / "first.jsonl", generated / "second.jsonl"
    write_trace(result.records, first)
    assert read_trace(first) == result.records
    write_trace(run_trial(demo_config, loaded, seed=1, trial_length=length).records, second)
    assert second.read_bytes() == first.read_bytes()


DEMO_ELEMENTS = yaml.safe_load((PKG_DATA / "demo_elements.yaml").read_text())
DEMO_PLAN = yaml.safe_load((PKG_DATA / "demo_plan.yaml").read_text())
# Absolute input paths, so the generated plan can be written anywhere.
DEMO_PLAN["scenario"] = str(PKG_DATA / DEMO_PLAN["scenario"])
for _entry in DEMO_PLAN["configurations"]:
    _entry.update(tasks=str(PKG_DATA / _entry["tasks"]), elements=str(PKG_DATA / _entry["elements"]))

#: (file, key path) into every part of the element file and the plan their loaders read.
FILE_KEY_PATHS = [("elements", path) for path in [
    (),
    ("elements",),
    ("elements", 0),
    ("elements", 0, "name"),
    ("elements", 0, "on_road"),
    ("elements", 0, "gaze_time"),
    ("elements", 2, "gaze_time"),
]] + [("plan", path) for path in [
    (),
    ("name",),
    ("scenario",),
    ("configurations",),
    ("configurations", 0),
    ("configurations", 0, "name"),
    ("configurations", 0, "tasks"),
    ("configurations", 0, "scale"),
    ("configurations", 1, "elements"),
    ("trials_per_config",),
    ("trial_length",),
    ("master_seeds",),
    ("master_seeds", "first"),
    ("master_seeds", "count"),
    ("sa_floor",),
    ("budget",),
    ("weights",),
    ("weights", "cognitive"),
    ("weights", "eyes_off"),
    ("jobs",),
]]


@settings(max_examples=200, deadline=None)
@given(target=st.sampled_from(FILE_KEY_PATHS), value=YAML_VALUES)
@example(target=("plan", ("master_seeds", "count")), value=10**400)
@example(target=("plan", ("trials_per_config",)), value=10**400)
def test_generated_element_file_or_plan_is_loaded_or_rejected(generated, target, value):
    kind, path = target
    document = DEMO_ELEMENTS if kind == "elements" else DEMO_PLAN
    file = generated / f"{kind}.yaml"
    file.write_text(yaml.safe_dump(replaced(document, path, value)))
    if kind == "elements":
        with contextlib.suppress(ConfigurationError):
            load_configuration(PKG_DATA / "demo_tasks.csv", file)
        argv = [
            "validate", "--tasks", str(PKG_DATA / "demo_tasks.csv"), "--elements", str(file),
            "--scenario", str(PKG_DATA / "demo_scenario.yaml"),
        ]
    else:
        with contextlib.suppress(PlanError):
            load_plan(file)
        argv = [
            "compare", "--plan", str(file), "--seed", "1", "--trials", "1", "--length", "50",
            "--jobs", "1", "--out", str(generated / "out"),
        ]
    assert quiet_main(argv) in (0, 1)


#: (file, key path) of each optional scenario or element key whose null counts as left out.
NULL_KEY_PATHS = [("scenario", path) for path in [
    ("road", "process", "dwell", 4, "min"),
    ("road", "process", "dwell", 4, "max"),
    ("cognitive_functions", 0, "sigma"),
    ("vehicle", "initial_level"),
    ("vehicle", "tor_lead_seconds"),
    ("vehicle", "tor_final_seconds"),
]] + [("elements", path) for path in [
    ("elements", 0, "on_road"),
    ("elements", 0, "gaze_time"),
]]


def left_out(document, path):
    """A deep copy of ``document`` without the key at ``path``."""
    document = copy.deepcopy(document)
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    return document


@pytest.mark.parametrize("target", NULL_KEY_PATHS, ids=lambda t: ".".join(map(str, t[1])))
def test_null_optional_key_counts_as_left_out(tmp_path, target):
    kind, path = target
    if kind == "scenario":
        document, load = DEMO_SCENARIO, load_scenario
    else:
        document, load = DEMO_ELEMENTS, lambda file: load_configuration(PKG_DATA / "demo_tasks.csv", file)
    null, missing = tmp_path / f"null_{kind}.yaml", tmp_path / f"{kind}.yaml"
    null.write_text(yaml.safe_dump(replaced(document, path, None)))
    missing.write_text(yaml.safe_dump(left_out(document, path)))
    assert load(null) == load(missing)


# ---------------------------------------------------------------------------
# the name rule: a name or path in any input file is its text without surrounding
# blanks, and one that is null or blank is missing


KNOWN = ", ".join(GROUND_TRUTH_PARAMETERS)
FUNCTION = "cognitive_functions:\n  - {name: %s, task: %s, mean: 5}\n"
PLAN = "scenario: scenario.yaml\nconfigurations:\n  - {name: %s, tasks: %s, elements: %s}\n"

#: (file, body, location after the file's path, message) of each null, blank or repeated name.
NAME_ERRORS = [
    ("elements", "elements:\n  - {name: null}\n", "elements[0]", "each element needs at least a 'name'"),
    ("elements", "elements:\n  - {name: ''}\n", "elements[0]", "each element needs at least a 'name'"),
    ("elements", "elements:\n  - {name: ' '}\n", "elements[0]", "each element needs at least a 'name'"),
    ("scenario", MINIMAL + FUNCTION % ("null", "t"), "cognitive_functions[0]", "needs at least 'name' and 'task'"),
    ("scenario", MINIMAL + FUNCTION % ("' '", "t"), "cognitive_functions[0]", "needs at least 'name' and 'task'"),
    ("scenario", MINIMAL + FUNCTION % ("f", "null"), "cognitive_functions[0]", "needs at least 'name' and 'task'"),
    (
        "scenario",
        MINIMAL + FUNCTION % ("f", "t") + "  - {name: ' f ', task: u, mean: 5}\n",
        "cognitive_functions[1]",
        "duplicate cognitive function 'f'",
    ),
    ("scenario", MINIMAL + "controls:\n  null: {action: switch_up}\n", "controls", "a control needs a task name, got None"),
    ("scenario", MINIMAL + "controls:\n  '': {action: switch_up}\n", "controls", "a control needs a task name, got ''"),
    ("scenario", MINIMAL + "bindings:\n  tor60: [null, '']\n", "bindings tor60", "expected a list of task names"),
    (
        "scenario",
        MINIMAL + "bindings:\n  level_change:\n    any: [msg, ' ']\n",
        "bindings level_change.any",
        "expected a list of task names",
    ),
    ("scale", "scale:\n  cognitive:\n    null: 4.0\n", "", "scale descriptor must be a name, got None"),
    ("scale", "scale:\n  visual:\n    ' ': 4.0\n", "", "scale descriptor must be a name, got ' '"),
    ("plan", PLAN.replace("scenario.yaml", "' '") % ("b", "t.csv", "e.yaml"), "", "plan needs a scenario path"),
    ("plan", PLAN % ("' '", "t.csv", "e.yaml"), "configurations[0]", "needs name, tasks and elements"),
    ("plan", PLAN % ("b", "' '", "e.yaml"), "configurations[0]", "needs name, tasks and elements"),
    ("plan", PLAN % ("b", "t.csv", "' '"), "configurations[0]", "needs name, tasks and elements"),
    (
        "plan",
        PLAN % ("b", "t.csv", "e.yaml") + "  - {name: ' b ', tasks: u.csv, elements: e.yaml}\n",
        "configurations[1]",
        "duplicate configuration name 'b'",
    ),
    (
        "scenario",
        MINIMAL + "controls:\n  t: {action: switch_up}\n  ' t ': {action: switch_down}\n",
        "",
        "duplicate key ' t ' at line 6 (first at line 5)",
    ),
    (
        "scenario",
        MINIMAL + "awareness:\n  speed: {}\n  ' speed ': {}\n",
        "",
        "duplicate key ' speed ' at line 6 (first at line 5)",
    ),
    (
        "scale",
        "scale:\n  cognitive:\n    Evaluate single aspect: 4.0\n    ' Evaluate single aspect ': 5.0\n",
        "",
        "duplicate key ' Evaluate single aspect ' at line 4 (first at line 3)",
    ),
]


def load_input(tmp_path, kind, body):
    """Load ``body`` written to ``<kind>.yaml``: an element or scale file beside an empty task catalog."""
    path = tmp_path / f"{kind}.yaml"
    path.write_text(body)
    tasks = tmp_path / "tasks.csv"
    tasks.write_text("")
    if kind == "elements":
        return load_configuration(tasks, path)
    if kind == "scale":
        return load_configuration(tasks, PKG_DATA / "demo_elements.yaml", path)
    return load_scenario(path) if kind == "scenario" else load_plan(path)


@pytest.mark.parametrize(("kind", "body", "spot", "message"), NAME_ERRORS)
def test_a_null_blank_or_repeated_name_is_one_located_error(tmp_path, kind, body, spot, message):
    with pytest.raises(ConfigurationError) as err:
        load_input(tmp_path, kind, body)
    assert err.value.violations == [Violation("error", f"{tmp_path / kind}.yaml {spot}".rstrip(), message)]


#: (file, body, location after the file's path, message) of a name or path that is neither text nor a number.
NOT_A_NAME = [
    ("scenario", MINIMAL + "name: [a]\n", "", "name must be text or a number, got ['a']"),
    ("scenario", MINIMAL + "name: 2020-01-01\n", "", "name must be text or a number, got datetime.date(2020, 1, 1)"),
    ("scenario", MINIMAL + "controls:\n  true: {action: switch_up}\n", "controls", "a control needs a task name, got True"),
    ("scenario", MINIMAL + "bindings:\n  tor60: [true]\n", "bindings tor60", "expected a list of task names"),
    ("scenario", MINIMAL + "awareness:\n  false: {}\n", "awareness", f"False has no ground-truth counterpart (known: {KNOWN})"),
    ("scale", "scale:\n  cognitive:\n    true: 4.0\n", "", "scale descriptor must be a name, got True"),
    ("plan", "name: true\n" + PLAN % ("b", "t.csv", "e.yaml"), "", "name must be text or a number, got True"),
    ("plan", PLAN.replace("scenario.yaml", "[s.yaml]") % ("b", "t.csv", "e.yaml"), "", "scenario must be text or a number, got ['s.yaml']"),
    (
        "plan",
        PLAN % ("b", "{x: 1}", "e.yaml"),
        "configurations[0]",
        "needs name, tasks and elements; tasks must be text or a number, got {'x': 1}",
    ),
    ("plan", PLAN % ("b", "t.csv", "e.yaml, scale: [s]"), "configurations[0]", "scale must be text or a number, got ['s']"),
]


@pytest.mark.parametrize(("kind", "body", "spot", "message"), NOT_A_NAME)
def test_a_name_that_is_not_text_or_a_number_is_one_located_error(tmp_path, kind, body, spot, message):
    with pytest.raises(ConfigurationError) as err:
        load_input(tmp_path, kind, body)
    assert err.value.violations == [Violation("error", f"{tmp_path / kind}.yaml {spot}".rstrip(), message)]


def test_a_number_is_a_name(tmp_path):
    config = load_input(tmp_path, "elements", "elements:\n  - {name: 4}\n  - {name: 2.5}\n")
    assert list(config.elements) == ["4", "2.5"]


#: (file, text, the same text with blanks around one name or path): both load as one input.
BLANKED = [
    ("scenario", "name: demo-motorway", "name: ' demo-motorway '"),
    ("scenario", "{name: speed_check,", "{name: ' speed_check ',"),
    ("scenario", "task: check_speed,", "task: '\tcheck_speed ',"),
    ("scenario", "tor60: [tor60_vocal]", "tor60: [' tor60_vocal ']"),
    ("scenario", "activate_ad:", "' activate_ad ':"),
    ("scenario", "speed: {resolution: 1}", "' speed ': {resolution: 1}"),
    ("plan", "scenario: scenario.yaml", "scenario: ' scenario.yaml '"),
    ("plan", "name: b,", "name: ' b ',"),
    ("plan", "tasks: t.csv,", "tasks: ' t.csv ',"),
    ("plan", "elements: e.yaml}", "elements: ' e.yaml '}"),
    ("plan", "elements: e.yaml}", "elements: e.yaml, scale: ' '}"),
    ("plan", "scenario:", "name: ' '\nscenario:"),
]


@pytest.mark.parametrize(("kind", "text", "blanked"), BLANKED)
def test_a_name_loads_without_surrounding_blanks(tmp_path, demo_config, kind, text, blanked):
    original = PLAN % ("b", "t.csv", "e.yaml")
    if kind == "scenario":
        original = (PKG_DATA / "demo_scenario.yaml").read_text()
    assert original.count(text) == 1
    expected = load_input(tmp_path, kind, original)
    loaded = load_input(tmp_path, kind, original.replace(text, blanked))
    assert loaded == expected
    if kind == "scenario":  # a task's CognitiveFunctionTrigger cell `speed_check` names the stripped function
        assert cross_validate(loaded, demo_config) == []
