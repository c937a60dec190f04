from __future__ import annotations

import contextlib
import csv
import io
import textwrap
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmisim.cli import main
from hmisim.replay import check_safety_rules, replay_metrics
from hmisim.scenario import load_scenario
from hmisim.tasks import (
    TASK_COLUMNS,
    Configuration,
    ConfigurationError,
    Initiator,
    InterfaceElement,
    Task,
    Violation,
    copy_configuration,
    load_configuration,
    read_yaml,
    validate,
    write_tasks_csv,
)
from hmisim.trial import run_trial
from hmisim.workload import (
    DEFAULT_SCALE_ENTRIES,
    AttentionalChannel,
    PERCEPTUAL_CATEGORY,
    ScaleCategory,
    UnknownDescriptorError,
    WorkloadScale,
    perceptual_category,
)

# ---------------------------------------------------------------------------
# workload scale


@pytest.mark.parametrize(("key", "expected"), sorted(DEFAULT_SCALE_ENTRIES.items()))
def test_default_scale_lookup(key, expected):
    category, descriptor = key
    assert WorkloadScale().lookup(category, descriptor) == expected


def test_default_scale_has_18_entries_over_5_categories():
    scale = WorkloadScale()
    assert len(scale.entries) == 18
    assert {c for c, _ in scale.entries} == set(ScaleCategory)


def test_lookup_strips_whitespace():
    scale = WorkloadScale()
    assert scale.lookup(ScaleCategory.VISUAL, "  Read (text) ") == 5.9
    association = scale.entries[(ScaleCategory.COGNITIVE, "Simple association")]
    assert scale.lookup(ScaleCategory.COGNITIVE, " Simple association") == association


def test_unknown_descriptor_raises():
    with pytest.raises(UnknownDescriptorError):
        WorkloadScale().lookup(ScaleCategory.VISUAL, "Stare blankly")
    with pytest.raises(UnknownDescriptorError):  # known, but in another category
        WorkloadScale().lookup(ScaleCategory.HAPTIC, "Vocal signal recognition")


def test_with_overrides_replaces_and_extends():
    scale = WorkloadScale().with_overrides(
        {
            (ScaleCategory.VISUAL, "Read (text)"): 6.2,
            (ScaleCategory.HAPTIC, "Strong vibration"): 2.0,
        }
    )
    assert scale.lookup(ScaleCategory.VISUAL, "Read (text)") == 6.2
    assert scale.lookup(ScaleCategory.HAPTIC, "Strong vibration") == 2.0
    # untouched entries and the original table survive
    assert scale.lookup(ScaleCategory.VISUAL, "Scan/Search/Monitor") == 7.0
    assert WorkloadScale().lookup(ScaleCategory.VISUAL, "Read (text)") == 5.9


def test_descriptors_filters_by_category():
    visual = WorkloadScale().descriptors(ScaleCategory.VISUAL)
    assert visual == {
        "Detect simple signal": 1.0,
        "Discriminate (Sign)": 3.7,
        "Inspect/Check (numerical)": 4.0,
        "Read (text)": 5.9,
        "Scan/Search/Monitor": 7.0,
    }


@pytest.mark.parametrize("channel", list(AttentionalChannel))
def test_every_channel_has_a_perceptual_category(channel):
    assert perceptual_category(channel) is PERCEPTUAL_CATEGORY[channel]


def test_channel_to_category_mapping():
    assert perceptual_category(AttentionalChannel.VISUAL_PERIPHERAL) is ScaleCategory.VISUAL
    assert perceptual_category(AttentionalChannel.AUDITORY_VOCAL) is ScaleCategory.AUDITORY
    assert perceptual_category(AttentionalChannel.HAPTIC_SEAT) is ScaleCategory.HAPTIC
    assert perceptual_category(AttentionalChannel.PSYCHOMOTOR) is ScaleCategory.PSYCHOMOTOR


# ---------------------------------------------------------------------------
# file loading helpers


HEADER = ",".join(TASK_COLUMNS)


def write_inputs(tmp_path, rows, elements=None):
    task_file = tmp_path / "tasks.csv"
    task_file.write_text(HEADER + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    element_file = tmp_path / "elements.yaml"
    element_file.write_text(
        elements
        or textwrap.dedent(
            """\
            elements:
              - {name: cluster, on_road: false, gaze_time: 0.2}
              - {name: hud, on_road: true, gaze_time: 0.1}
              - {name: speaker, on_road: false, gaze_time: 0.0}
            """
        )
    )
    return task_file, element_file


def row(
    name="t1",
    location="cluster",
    cog_desc="Evaluate single aspect",
    perc_desc="Inspect/Check (numerical)",
    channel="visual",
    perc="",
    cog="",
    duration="1.0",
    gaze="",
    cf="",
    awareness="",
    triggers="",
    priority="3",
    initiator="driver",
):
    return ",".join(
        [
            name, "", location, cog_desc, perc_desc, channel,
            perc, cog, duration, gaze, cf, awareness, triggers, priority, initiator,
        ]
    )


# ---------------------------------------------------------------------------
# task CSV parsing


def test_load_fills_workloads_from_descriptors(tmp_path):
    config = load_configuration(*write_inputs(tmp_path, [row()]))
    task = config.tasks[0]
    assert task.cognitive_workload == 4.6
    assert task.perceptual_workload == 4.0
    assert config.warnings == []


def test_visual_task_inherits_element_gaze_time(tmp_path):
    config = load_configuration(*write_inputs(tmp_path, [row()]))
    assert config.tasks[0].gaze_time == 0.2
    assert config.tasks[0].total_time() == pytest.approx(1.4, abs=1e-12)


def test_explicit_gaze_time_wins_over_element(tmp_path):
    config = load_configuration(*write_inputs(tmp_path, [row(gaze="0.5")]))
    assert config.tasks[0].gaze_time == 0.5


def test_non_visual_task_gets_zero_gaze(tmp_path):
    rows = [row(location="speaker", perc_desc="Vocal signal recognition", channel="auditory-vocal")]
    config = load_configuration(*write_inputs(tmp_path, rows))
    assert config.tasks[0].gaze_time == 0.0


def test_explicit_workload_override_warns_when_it_disagrees(tmp_path):
    config = load_configuration(*write_inputs(tmp_path, [row(perc="5.0")]))
    assert config.tasks[0].perceptual_workload == 5.0
    assert len(config.warnings) == 1
    assert "disagrees with scale value 4.0" in config.warnings[0].message


def test_explicit_workload_matching_scale_is_silent(tmp_path):
    config = load_configuration(*write_inputs(tmp_path, [row(perc="4.0")]))
    assert config.tasks[0].perceptual_workload == 4.0
    assert config.warnings == []


def test_workload_without_descriptor_or_value_is_an_error(tmp_path):
    with pytest.raises(ConfigurationError) as err:
        load_configuration(*write_inputs(tmp_path, [row(cog_desc="")]))
    assert any("CognitiveWorkload missing" in str(v) for v in err.value.violations)


def test_unknown_descriptor_is_an_error(tmp_path):
    with pytest.raises(ConfigurationError) as err:
        load_configuration(*write_inputs(tmp_path, [row(perc_desc="Glance wistfully")]))
    assert any("no workload entry" in str(v) for v in err.value.violations)


def test_missing_columns_reported_individually(tmp_path):
    task_file = tmp_path / "tasks.csv"
    task_file.write_text("Name,Duration\nt1,1.0\n")
    element_file = tmp_path / "elements.yaml"
    element_file.write_text("elements: []\n")
    with pytest.raises(ConfigurationError) as err:
        load_configuration(task_file, element_file)
    messages = [v.message for v in err.value.violations]
    assert sum("missing column" in m for m in messages) == len(TASK_COLUMNS) - 2


def test_unknown_column_is_a_warning_not_error(tmp_path):
    task_file = tmp_path / "tasks.csv"
    task_file.write_text(HEADER + ",Color\n" + row() + ",red\n")
    element_file = tmp_path / "elements.yaml"
    element_file.write_text("elements:\n  - {name: cluster, on_road: false, gaze_time: 0.2}\n")
    config = load_configuration(task_file, element_file)
    assert any("unknown column 'Color'" in v.message for v in config.warnings)


def test_total_time_column_is_recognized_and_checked(tmp_path):
    task_file = tmp_path / "tasks.csv"
    task_file.write_text(HEADER + ",TotalTime\n" + row() + ",9.9\n")
    element_file = tmp_path / "elements.yaml"
    element_file.write_text("elements:\n  - {name: cluster, on_road: false, gaze_time: 0.2}\n")
    config = load_configuration(task_file, element_file)
    assert any("TotalTime=9.9 is inconsistent" in v.message for v in config.warnings)
    assert not any("unknown column" in v.message for v in config.warnings)
    # derived quantity never overrides the computed one
    assert config.tasks[0].total_time() == pytest.approx(1.4)


def test_empty_task_file_is_a_valid_zero_task_catalog(tmp_path):
    task_file = tmp_path / "tasks.csv"
    task_file.write_text("")
    element_file = tmp_path / "elements.yaml"
    element_file.write_text("elements: []\n")
    config = load_configuration(task_file, element_file)
    assert config.tasks == []


def test_missing_task_file_is_an_error(tmp_path):
    element_file = tmp_path / "elements.yaml"
    element_file.write_text("elements: []\n")
    with pytest.raises(ConfigurationError) as err:
        load_configuration(tmp_path / "nope.csv", element_file)
    assert any("task file not found" in v.message for v in err.value.violations)


def test_all_row_errors_collected_not_just_first(tmp_path):
    rows = [
        row(name="a", duration="-1"),
        row(name="b", location="ghost"),
        row(name="c", priority="high"),
    ]
    with pytest.raises(ConfigurationError) as err:
        load_configuration(*write_inputs(tmp_path, rows))
    text = str(err.value)
    assert "(a): Duration must be > 0 and finite, got '-1'" in text
    assert "'ghost'" in text
    assert "Priority is not an integer" in text


@pytest.mark.parametrize(
    ("cells", "where", "message"),
    [
        ({"name": ""}, "row 2", "Name is required"),
        ({"name": "d", "duration": ""}, "row 2 (d)", "Duration is required"),
        ({"name": "p", "priority": ""}, "row 2 (p)", "Priority is required"),
    ],
)
def test_empty_required_cell_is_one_located_error(tmp_path, cells, where, message):
    task_file, element_file = write_inputs(tmp_path, [row(**cells)])
    with pytest.raises(ConfigurationError) as err:
        load_configuration(task_file, element_file)
    assert [(v.where, v.message) for v in err.value.violations] == [(f"{task_file} {where}", message)]


@pytest.mark.parametrize(
    ("raw", "expected"),
    [
        ("visual", AttentionalChannel.VISUAL),
        ("Visual", AttentionalChannel.VISUAL),
        ("auditory_vocal", AttentionalChannel.AUDITORY_VOCAL),
        ("haptic hands", AttentionalChannel.HAPTIC_HANDS),
        ("AUDITORY-NON-VOCAL", AttentionalChannel.AUDITORY_NON_VOCAL),
    ],
)
def test_channel_spelling_variants_accepted(tmp_path, raw, expected):
    kwargs = {}
    if expected is not AttentionalChannel.VISUAL:
        kwargs = dict(location="speaker", perc_desc=_descriptor_for(expected))
    config = load_configuration(*write_inputs(tmp_path, [row(channel=raw, **kwargs)]))
    assert config.tasks[0].perception_type is expected


def _descriptor_for(channel: AttentionalChannel) -> str:
    category = perceptual_category(channel)
    return next(iter(WorkloadScale().descriptors(category)))


def test_unrecognized_channel_is_an_error(tmp_path):
    with pytest.raises(ConfigurationError) as err:
        load_configuration(*write_inputs(tmp_path, [row(channel="telepathy")]))
    assert any("PerceptionType not recognized" in v.message for v in err.value.violations)


# ---------------------------------------------------------------------------
# element and scale YAML


ELEMENTS = "elements:\n  - {name: hud, on_road: true, gaze_time: 0.1}\n  - {name: knob}\n"


def load_files(tmp_path, elements=ELEMENTS, scale=None):
    """``load_configuration`` on an empty task catalog, the given element file and optional scale file."""
    (tmp_path / "tasks.csv").write_text("")
    (tmp_path / "e.yaml").write_text(elements)
    scale_file = None
    if scale is not None:
        scale_file = tmp_path / "scale.yaml"
        scale_file.write_text(scale)
    return load_configuration(tmp_path / "tasks.csv", tmp_path / "e.yaml", scale_file)


def test_load_elements(tmp_path):
    elements = load_files(tmp_path).elements
    assert elements["hud"] == InterfaceElement("hud", True, 0.1)
    assert elements["knob"] == InterfaceElement("knob", False, 0.0)


@pytest.mark.parametrize(
    "body",
    [
        "elements:\n  - {name: a, on_road: yes maybe}\n",
        "elements:\n  - {name: a, gaze_time: -0.2}\n",
        "elements:\n  - {name: a}\n  - {name: a}\n",
        "not-elements: []\n",
    ],
)
def test_bad_element_files_raise(tmp_path, body):
    with pytest.raises(ConfigurationError) as err:
        load_files(tmp_path, elements=body)
    assert all(v.where.startswith(str(tmp_path / "e.yaml")) for v in err.value.violations)


@pytest.mark.parametrize(
    ("body", "message"),
    [
        ("a: 1\nb: 2\na: 3\n", "duplicate key 'a' at line 3 (first at line 1)"),
        ("levels:\n  4: [x]\n  4.0: [y]\n", "duplicate key 4.0 at line 3 (first at line 2)"),
        ("levels: {4: [x], 4.0: [y]}\n", "duplicate key 4.0 at line 1 (first at line 1)"),
        ("outer:\n  inner: {a: 1, b: 2, b: 3}\n", "duplicate key 'b' at line 2 (first at line 2)"),
    ],
    ids=["top-level", "equal-numbers", "flow-mapping", "nested"],
)
def test_read_yaml_refuses_a_key_given_twice(tmp_path, body, message):
    path = tmp_path / "input.yaml"
    path.write_text(body)
    issues = []
    assert read_yaml(path, "scenario", issues) is None
    assert issues == [Violation("error", str(path), message)]


@pytest.mark.parametrize(
    ("body", "expected"),
    [
        ("base: &b {x: 1, y: 2}\nd:\n  <<: *b\n  x: 5\n", {"base": {"x": 1, "y": 2}, "d": {"x": 5, "y": 2}}),
        ("levels: {1: [x], '1': [y]}\n", {"levels": {1: ["x"], "1": ["y"]}}),
        ("a: {x: 1}\nb: {x: 2}\n", {"a": {"x": 1}, "b": {"x": 2}}),
    ],
    ids=["merge-key-overridden", "int-and-text", "same-key-in-two-mappings"],
)
def test_read_yaml_keeps_keys_that_are_not_repeated(tmp_path, body, expected):
    path = tmp_path / "input.yaml"
    path.write_text(body)
    issues = []
    assert read_yaml(path, "scenario", issues) == expected
    assert issues == []


def test_no_scale_file_gives_defaults(tmp_path):
    assert load_files(tmp_path).scale.entries == DEFAULT_SCALE_ENTRIES


def test_load_scale_overrides(tmp_path):
    scale = load_files(tmp_path, scale="scale:\n  visual:\n    Read (text): 6.5\n    Squint: 2.0\n").scale
    assert scale.lookup(ScaleCategory.VISUAL, "Read (text)") == 6.5
    assert scale.lookup(ScaleCategory.VISUAL, "Squint") == 2.0
    assert scale.lookup(ScaleCategory.COGNITIVE, "Simple association") == 1.0


@pytest.mark.parametrize(
    "body",
    [
        "scale:\n  visual:\n    Read (text): 11\n",
        "scale:\n  visual:\n    Read (text): 0\n",
        "scale:\n  olfactory:\n    Sniff: 1\n",
        "scale:\n  visual: 3\n",
        "nope: {}\n",
    ],
)
def test_bad_scale_files_raise(tmp_path, body):
    with pytest.raises(ConfigurationError) as err:
        load_files(tmp_path, scale=body)
    assert all(v.where == str(tmp_path / "scale.yaml") for v in err.value.violations)


# ---------------------------------------------------------------------------
# validate() on in-memory configurations


def make_task(**kwargs):
    defaults = dict(
        name="t",
        location="cluster",
        perception_type=AttentionalChannel.VISUAL,
        duration=1.0,
        priority=3,
        initiator=Initiator.DRIVER,
        perceptual_workload=4.0,
        cognitive_workload=4.6,
        gaze_time=0.2,
    )
    defaults.update(kwargs)
    return Task(**defaults)


def make_config(tasks):
    elements = {
        "cluster": InterfaceElement("cluster", False, 0.2),
        "hud": InterfaceElement("hud", True, 0.1),
    }
    return Configuration(tasks=tasks, elements=elements, scale=WorkloadScale())


def test_validate_clean_config_is_empty():
    assert validate(make_config([make_task()])) == []


def test_validate_duplicate_names():
    issues = validate(make_config([make_task(), make_task()]))
    assert any("duplicate task name" in v.message for v in issues)


def test_validate_workload_bounds():
    issues = validate(make_config([make_task(cognitive_workload=10.5)]))
    assert any("cognitive_workload = 10.5 outside" in v.message for v in issues)
    issues = validate(make_config([make_task(perceptual_workload=0.0)]))
    assert any("perceptual_workload = 0.0 outside" in v.message for v in issues)


def test_validate_gaze_on_non_visual_task():
    bad = make_task(perception_type=AttentionalChannel.PSYCHOMOTOR, gaze_time=0.2)
    issues = validate(make_config([bad]))
    assert any("gaze_time must be 0 for non-visual" in v.message for v in issues)


def test_validate_unknown_trigger_target():
    issues = validate(make_config([make_task(triggers="ghost")]))
    assert any("triggers unknown task 'ghost'" in v.message for v in issues)


def test_validate_trigger_cycle_detected():
    a = make_task(name="a", triggers="b")
    b = make_task(name="b", triggers="c")
    c = make_task(name="c", triggers="a")
    issues = validate(make_config([a, b, c]))
    assert any("trigger chain forms a cycle" in v.message for v in issues)


def test_validate_reports_each_trigger_cycle_once_from_where_it_closes():
    tail = make_task(name="tail", triggers="a")
    a = make_task(name="a", triggers="b")
    b = make_task(name="b", triggers="a")
    c = make_task(name="c", triggers="c")
    assert validate(make_config([tail, a, b, c])) == [
        Violation("error", "task a", "trigger chain forms a cycle: a -> b -> a"),
        Violation("error", "task c", "trigger chain forms a cycle: c -> c"),
    ]


def test_long_trigger_chain_validates(tmp_path, capsys):
    rows = [row(name=f"t{i}", triggers=f"t{i + 1}") for i in range(1199)] + [row(name="t1199")]
    task_file, element_file = write_inputs(tmp_path, rows)
    assert main(["validate", "--tasks", str(task_file), "--elements", str(element_file)]) == 0
    assert capsys.readouterr().out == "OK: 1200 task(s), 3 element(s)\n"


def test_validate_self_trigger_cycle():
    issues = validate(make_config([make_task(name="a", triggers="a")]))
    assert any("cycle" in v.message for v in issues)


def test_validate_linear_chain_is_fine():
    a = make_task(name="a", triggers="b")
    b = make_task(name="b", triggers="c")
    c = make_task(name="c")
    assert validate(make_config([a, b, c])) == []


def test_validate_emits_only_errors():
    issues = validate(make_config([make_task(duration=-1.0, triggers="ghost")]))
    assert issues and all(v.severity == "error" for v in issues)


CLUSTER = {"cluster": InterfaceElement("cluster", False, 0.2)}
TOO_HEAVY = {(ScaleCategory.COGNITIVE, "Evaluate single aspect"): 11.0}


@pytest.mark.parametrize(
    ("config", "where", "message"),
    [
        (make_config([make_task(gaze_time=-1.0)]), "task t", "gaze_time must be >= 0 and finite, got -1.0"),
        (
            Configuration([], {"hud": InterfaceElement("hud", True, -0.5)}, WorkloadScale()),
            "element hud",
            "gaze_time must be >= 0 and finite",
        ),
        (
            Configuration([], CLUSTER, WorkloadScale().with_overrides(TOO_HEAVY)),
            "scale (cognitive, 'Evaluate single aspect')",
            "value 11.0 outside (0, 10.0]",
        ),
    ],
    ids=["task-gaze", "element-gaze", "scale-value"],
)
def test_validate_reports_a_bad_value_as_one_located_error(config, where, message):
    assert validate(config) == [Violation("error", where, message)]


# ---------------------------------------------------------------------------
# round-trip and copying


def test_write_tasks_csv_round_trips(tmp_path, demo_config):
    out = tmp_path / "rewritten.csv"
    write_tasks_csv(demo_config, out)
    elements = tmp_path / "elements.yaml"
    elements.write_text(
        "elements:\n"
        + "".join(
            f"  - {{name: {e.name}, on_road: {str(e.on_road).lower()}, gaze_time: {e.gaze_time}}}\n"
            for e in demo_config.elements.values()
        )
    )
    again = load_configuration(out, elements)
    assert again.tasks == demo_config.tasks
    assert again.warnings == []


def test_copy_configuration_is_independent(demo_config):
    clone = copy_configuration(demo_config)
    assert clone.tasks == demo_config.tasks
    assert clone.tasks[0] is not demo_config.tasks[0]
    clone.tasks[0].duration = 99.0
    assert demo_config.tasks[0].duration != 99.0
    assert clone.scale is demo_config.scale


def test_task_map(demo_config):
    mapping = demo_config.task_map()
    assert set(mapping) == {t.name for t in demo_config.tasks}
    assert mapping["check_speed"].location == "instrument_cluster"


# ---------------------------------------------------------------------------
# generated task catalogs

PKG_DATA = Path(str(resources.files("hmisim") / "data"))
DEMO_ROWS = list(csv.reader(io.StringIO((PKG_DATA / "demo_tasks.csv").read_text(encoding="utf-8"))))

#: What a hand-edited cell can hold: numeric text (in range, so that accepted
#: catalogs reach the trial, and anywhere), non-finite and negative numbers,
#: a 400-digit integer, an empty cell, or a word.
CELL_VALUES = (
    st.floats(min_value=0.01, max_value=20.0).map(repr)
    | st.integers(min_value=-(10**6), max_value=10**6).map(str)
    | st.floats().map(repr)
    | st.sampled_from(["nan", "inf", "-inf", "-1", "-0.5", "0", "1" + "0" * 400, "", " 3 ", "true"])
    | st.text(alphabet="abcdefghijklmnopqrstuvwxyz_ ", min_size=1, max_size=10)
)


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    return tmp_path_factory.mktemp("catalogs")


@settings(max_examples=300, deadline=None)
@given(
    column=st.sampled_from(DEMO_ROWS[0]),
    row=st.integers(min_value=1, max_value=len(DEMO_ROWS) - 1),
    value=CELL_VALUES,
)
@example(column="GazeTime", row=1, value="1e308")  # finite, but the total time overflows
def test_generated_task_catalog_is_validated_or_rejected(generated, column, row, value):
    rows = [list(r) for r in DEMO_ROWS]
    rows[row][rows[0].index(column)] = value
    tasks = generated / "tasks.csv"
    with tasks.open("w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows(rows)
    inputs = ["--tasks", str(tasks), "--elements", str(PKG_DATA / "demo_elements.yaml")]
    scenario = PKG_DATA / "demo_scenario.yaml"
    code = quiet_main(["validate", *inputs, "--scenario", str(scenario)])
    assert code in (0, 1)
    if code == 1:
        return
    # Accepted: a short traced trial runs and its trace passes the audits.
    config = load_configuration(tasks, PKG_DATA / "demo_elements.yaml")
    length = 600.0
    result = run_trial(config, load_scenario(scenario), seed=1, trial_length=length)
    assert check_safety_rules(result.records).ok()
    replayed = replay_metrics(result.records, length)
    m = result.metrics
    assert replayed.eyes_off_seconds == pytest.approx(m.eyes_off_seconds, rel=1e-9, abs=1e-9)
    assert replayed.cognitive_overload_seconds == pytest.approx(m.cognitive_overload_seconds, rel=1e-9, abs=1e-9)
    assert replayed.perceptual_overload_seconds == pytest.approx(m.perceptual_overload_seconds, rel=1e-9, abs=1e-9)
    assert replayed.sa_average(length) == pytest.approx(m.sa_average, rel=1e-9, abs=1e-9)
