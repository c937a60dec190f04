from __future__ import annotations

import csv
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import hmisim
from hmisim.cli import main
from hmisim.experiment import ReallocateLocation, apply_move
from hmisim.metrics import read_trace, write_trace
from hmisim.replay import check_safety_rules, replay_metrics
from hmisim.scenario import load_scenario
from hmisim.tasks import TASK_COLUMNS, load_configuration, write_tasks_csv
from hmisim.trial import run_trial

DATA = Path(__file__).parent / "data"
PKG_DATA = Path(str(resources.files("hmisim") / "data"))

SCRIPTED = [
    "--tasks", str(DATA / "scripted_tasks.csv"),
    "--elements", str(DATA / "scripted_elements.yaml"),
]
SCRIPTED_SCENARIO = ["--scenario", str(DATA / "scripted_scenario.yaml")]
DEMO = [
    "--tasks", str(PKG_DATA / "demo_tasks.csv"),
    "--elements", str(PKG_DATA / "demo_elements.yaml"),
]


# ---------------------------------------------------------------------------
# validate


def test_validate_ok(capsys):
    code = main(["validate", *DEMO, "--scenario", str(PKG_DATA / "demo_scenario.yaml")])
    out = capsys.readouterr().out
    assert code == 0
    assert "OK: 12 task(s), 7 element(s)" in out


def test_validate_reports_errors(tmp_path, capsys):
    broken = tmp_path / "broken.csv"
    text = (DATA / "scripted_tasks.csv").read_text()
    broken.write_text(text.replace("Priority", "Prio"))
    code = main(["validate", "--tasks", str(broken), "--elements", str(DATA / "scripted_elements.yaml")])
    out = capsys.readouterr().out
    assert code == 1
    assert "missing column 'Priority'" in out
    assert "FAIL:" in out


def test_validate_counts_warnings(tmp_path, capsys):
    noisy = tmp_path / "noisy.csv"
    lines = (DATA / "scripted_tasks.csv").read_text().splitlines()
    rows = [lines[0] + ",Zing"] + [line + ",x" for line in lines[1:]]
    noisy.write_text("\n".join(rows) + "\n")
    code = main(["validate", "--tasks", str(noisy), "--elements", str(DATA / "scripted_elements.yaml")])
    out = capsys.readouterr().out
    assert code == 0
    assert "warning:" in out
    assert "OK: 4 task(s), 4 element(s), 1 warning(s)" in out


def test_validate_missing_file_fails(tmp_path, capsys):
    code = main(["validate", "--tasks", str(tmp_path / "nope.csv"), "--elements", str(DATA / "scripted_elements.yaml")])
    assert code == 1
    assert "not found" in capsys.readouterr().out


#: The demo scenario's speed script and road process, as written in the file.
CYCLE = "cycle:\n    period: 120\n    values: [50, 70, 90, 110, 90, 70]"
ROAD_PROCESS = (
    "process:\n    initial_level: 2\n    dwell:\n"
    "      4: {mean: 300, min: 90, max: 900}\n      2: {mean: 180, min: 60, max: 600}\n"
    "    transitions:\n      4: {2: 1.0}\n      2: {4: 1.0}"
)
#: A YAML integer too large for a float.
HUGE = "1" + "0" * 400


def huge(name, old, new, message):
    """A row whose value is HUGE, with a readable test id."""
    field = message.split(": ")[-1].split(" must")[0]
    return pytest.param(name, old, new.format(HUGE), message + HUGE, id=f"huge {field}")


@pytest.mark.parametrize(
    ("name", "old", "new", "message"),
    [
        (
            "demo_elements.yaml", "gaze_time: 0.2", "gaze_time: .nan",
            "elements[0]: gaze_time must be >= 0 and finite, got nan",
        ),
        (
            "demo_tasks.csv", ",1.0,,speed_check,", ",inf,,speed_check,",
            "row 2 (check_speed): Duration must be > 0 and finite, got 'inf'",
        ),
        (
            "demo_scenario.yaml", "mean: 20, sigma: 5", "mean: .inf, sigma: 5",
            "cognitive_functions[0]: mean must be >= 0.1 and finite, got inf",
        ),
        (
            "demo_scenario.yaml", "mean: 20, sigma: 5", "mean: 20, sigma: .inf",
            "cognitive_functions[0]: sigma must be >= 0 and finite, got inf",
        ),
        (
            "demo_scenario.yaml", "mean: 300, min: 90", "mean: .nan, min: 90",
            "road: dwell mean for level 4 must be >= 0.1 and finite, got nan",
        ),
        (
            "demo_scenario.yaml", "4: {2: 1.0}", "4: {2: .nan}",
            "road: transition weight 4->2 must be > 0 and finite, got nan",
        ),
        (
            "demo_scenario.yaml", "period: 120", "period: .nan",
            "speed: cycle period must be >= 0.1 and finite, got nan",
        ),
        (
            "demo_scenario.yaml", "period: 120", "period: .inf",
            "speed: cycle period must be >= 0.1 and finite, got inf",
        ),
        (
            "demo_scenario.yaml", "values: [50, 70,", "values: [.nan, 70,",
            "speed: cycle values[0] must be finite, got nan",
        ),
        (
            "demo_scenario.yaml", CYCLE, "constant: .nan",
            "speed: speed constant must be finite, got nan",
        ),
        (
            "demo_scenario.yaml", "speed: {resolution: 1}", "speed: {resolution: .nan}",
            "awareness: 'speed' resolution must be > 0 and finite, got nan",
        ),
        (
            "demo_scenario.yaml", "speed: {resolution: 1}", "speed: {resolution: .inf}",
            "awareness: 'speed' resolution must be > 0 and finite, got inf",
        ),
        (
            "demo_scenario.yaml", "speed: {resolution: 1}", "speed: {resolution: 1, initial: .nan}",
            "awareness: 'speed' initial must be finite, got nan",
        ),
        (
            "demo_scenario.yaml", "speed: {resolution: 1}", "speed: {resolution: 1, initial: .inf}",
            "awareness: 'speed' initial must be finite, got inf",
        ),
        (
            "demo_scenario.yaml", "values: [50, 70,", "values: [fast, 70,",
            "speed: cycle values[0] must be a number, got 'fast'",
        ),
        (
            "demo_scenario.yaml", CYCLE, "constant: fast",
            "speed: speed constant must be a number, got 'fast'",
        ),
        (
            "demo_scenario.yaml", CYCLE, "steps:\n    - [0, 50]\n    - [soon, 70]",
            "speed: steps[1] time must be a number, got 'soon'",
        ),
        (
            "demo_scenario.yaml", CYCLE, "steps:\n    - [0, 50]\n    - [60, fast]",
            "speed: steps[1] value must be a number, got 'fast'",
        ),
        (
            "demo_scenario.yaml", "mean: 300, min: 90", "mean: 300, min: abc",
            "road: dwell min for level 4 must be a number, got 'abc'",
        ),
        (
            "demo_scenario.yaml", "min: 90, max: 900", "min: 90, max: abc",
            "road: dwell max for level 4 must be a number, got 'abc'",
        ),
        (
            "demo_scenario.yaml", ROAD_PROCESS, "fixed_segments:\n    - [start, 500, 2]",
            "road: fixed_segments[0] start must be a number, got 'start'",
        ),
        (
            "demo_scenario.yaml", ROAD_PROCESS, "fixed_segments:\n    - [0, end, 2]",
            "road: fixed_segments[0] end must be a number, got 'end'",
        ),
        (
            "demo_scenario.yaml", ROAD_PROCESS, "fixed_segments:\n    - [0, 500, high]",
            "road fixed_segments[0]: automation level expected, got 'high'",
        ),
        (
            "demo_scenario.yaml", "mean: 300, min: 90", "mean: true, min: 90",
            "road: dwell mean for level 4 must be a number, got True",
        ),
        (
            "demo_scenario.yaml", "tor_lead_seconds: 60", "tor_lead_seconds: .inf",
            "vehicle: tor_lead_seconds must be >= 0 and finite, got inf",
        ),
        (
            "demo_tasks.csv", "1.0,,speed_check", "1.0,1e308,speed_check",
            "task check_speed: duration + 2 * gaze_time must be finite, got inf",
        ),
        huge("demo_elements.yaml", "gaze_time: 0.2", "gaze_time: {}", "elements[0]: gaze_time must be a number, got "),
        huge(
            "demo_scenario.yaml", "mean: 300, min: 90", "mean: {}, min: 90",
            "road: dwell mean for level 4 must be a number, got ",
        ),
        huge("demo_scenario.yaml", "4: {2: 1.0}", "4: {{2: {}}}", "road: transition weight 4->2 must be a number, got "),
        huge("demo_scenario.yaml", "period: 120", "period: {}", "speed: cycle period must be a number, got "),
        huge(
            "demo_scenario.yaml", "mean: 20, sigma: 5", "mean: {}, sigma: 5",
            "cognitive_functions[0]: mean must be a number, got ",
        ),
        huge(
            "demo_scenario.yaml", "mean: 20, sigma: 5", "sigma: {}, mean: 20",
            "cognitive_functions[0]: sigma must be a number, got ",
        ),
        huge(
            "demo_scenario.yaml", "speed: {resolution: 1}", "speed: {{resolution: {}}}",
            "awareness: 'speed' resolution must be a number, got ",
        ),
        huge(
            "demo_scenario.yaml", "tor_lead_seconds: 60", "tor_lead_seconds: {}",
            "vehicle: tor_lead_seconds must be a number, got ",
        ),
        huge(
            "demo_scenario.yaml", "speed: {resolution: 1}", "speed: {{resolution: 1, initial: {}}}",
            "awareness: 'speed' initial must be a number, got ",
        ),
    ],
)
def test_non_finite_input_fails_validate_and_run(tmp_path, capsys, name, old, new, message):
    paths = {n: PKG_DATA / n for n in ("demo_tasks.csv", "demo_elements.yaml", "demo_scenario.yaml")}
    text = paths[name].read_text()
    assert text.count(old) == 1
    paths[name] = tmp_path / name
    paths[name].write_text(text.replace(old, new))
    inputs = [
        "--tasks", str(paths["demo_tasks.csv"]),
        "--elements", str(paths["demo_elements.yaml"]),
        "--scenario", str(paths["demo_scenario.yaml"]),
    ]
    assert_one_error_from_validate_and_run(inputs, tmp_path / "out", capsys, message)


@pytest.mark.parametrize(
    ("old", "new", "seed"),
    [
        # A normal draw at this spread overflows to an inf first firing time.
        ("mean: 20, sigma: 5", "mean: 20, sigma: 1.0e308", 26),
        # speed / resolution overflows: a grid finer than the float spacing.
        ("speed: {resolution: 1}", "speed: {resolution: 1.0e-308}", 1),
    ],
    ids=["huge-sigma", "tiny-resolution"],
)
def test_extreme_finite_input_that_validates_also_runs(tmp_path, capsys, old, new, seed):
    text = (PKG_DATA / "demo_scenario.yaml").read_text()
    assert text.count(old) == 1
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(text.replace(old, new))
    inputs = [*DEMO, "--scenario", str(scenario)]
    assert main(["validate", *inputs]) == 0
    out = tmp_path / "out"
    assert main(["run", *inputs, "--seed", str(seed), "--length", "600", "--out", str(out)]) == 0
    capsys.readouterr()
    records = read_trace(out / "trace.jsonl")
    assert check_safety_rules(records).ok()
    eyes_off_pct = float((out / "metrics.csv").read_text().splitlines()[1].split(",")[1])
    assert 100.0 * replay_metrics(records, 600.0).eyes_off_seconds / 600.0 == pytest.approx(eyes_off_pct)


@pytest.mark.parametrize(
    ("old", "new", "message"),
    [
        ("gaze_time: 0.2", "gaze_time: .nan", "elements[0]: gaze_time must be >= 0 and finite, got nan"),
        ("- name: instrument_cluster", "- nam: instrument_cluster", "elements[0]: each element needs at least a 'name'"),
    ],
)
def test_rejected_element_is_reported_once(tmp_path, capsys, old, new, message):
    # The four demo tasks on the instrument cluster add no follow-on location errors.
    elements = tmp_path / "elements.yaml"
    text = (PKG_DATA / "demo_elements.yaml").read_text()
    assert text.count(old) == 1
    elements.write_text(text.replace(old, new))
    inputs = [*DEMO[:2], "--elements", str(elements), "--scenario", str(PKG_DATA / "demo_scenario.yaml")]
    assert_one_error_from_validate_and_run(inputs, tmp_path / "out", capsys, message)


def test_unusable_total_time_is_a_warning_from_validate_and_run(tmp_path, capsys):
    tasks = tmp_path / "tasks.csv"
    header, *rows = (DATA / "scripted_tasks.csv").read_text().splitlines()
    tasks.write_text("\n".join([header + ",TotalTime", *(row + ",soon" for row in rows)]) + "\n")
    inputs = ["--tasks", str(tasks), "--elements", str(DATA / "scripted_elements.yaml")]
    assert main(["validate", *inputs]) == 0
    out = capsys.readouterr().out
    assert "(check_speed): TotalTime must be a number, got 'soon'; ignoring it" in out
    assert "OK: 4 task(s), 4 element(s), 4 warning(s)" in out
    assert main(["run", *inputs, *SCRIPTED_SCENARIO, "--length", "100", "--out", str(tmp_path / "with")]) == 0
    assert main(run_args(tmp_path / "without")) == 0
    capsys.readouterr()
    assert (tmp_path / "with" / "metrics.csv").read_bytes() == (tmp_path / "without" / "metrics.csv").read_bytes()


@pytest.mark.parametrize(
    ("old", "new", "message"),
    [
        (
            "mean: 300, min: 90", "mean: .nan, min: 90",
            "road: dwell mean for level 4 must be >= 0.1 and finite, got nan",
        ),
        (
            "mean: 180, min: 60", "mean: 180, min: abc",
            "road: dwell min for level 2 must be a number, got 'abc'",
        ),
    ],
)
def test_rejected_dwell_is_reported_once(tmp_path, capsys, old, new, message):
    # Level 4 is reachable; level 2 is the initial level and reachable too.
    scenario = tmp_path / "scenario.yaml"
    text = (PKG_DATA / "demo_scenario.yaml").read_text()
    assert text.count(old) == 1
    scenario.write_text(text.replace(old, new))
    code = main(["validate", *DEMO, "--scenario", str(scenario)])
    errors = [line for line in capsys.readouterr().out.splitlines() if line.startswith("error:")]
    assert code == 1
    assert len(errors) == 1
    assert errors[0].endswith(message)


DWELL = "dwell:\n      4: {mean: 300, min: 90, max: 900}\n      2: {mean: 180, min: 60, max: 600}"
TRANSITIONS = "transitions:\n      4: {2: 1.0}\n      2: {4: 1.0}"
FUNCTIONS = "cognitive_functions:\n  - {name: speed_check,"
AVAILABILITY = "availability_rise:\n    4: [ad_available_msg, ad_available_vocal]"
CONTROLS = "controls:\n  activate_ad: {action: switch_up, target: 4}\n  take_over: {action: switch_down}"
AWARENESS = "awareness:\n  speed: {resolution: 1}\n  automation_level: {}\n  ad_available: {}"


def one_error(text):
    """The single error line of a validate or run output (and there must be exactly one)."""
    errors = [line.strip() for line in text.splitlines() if line.strip().startswith("error:")]
    assert len(errors) == 1, errors
    return errors[0]


def assert_one_error_from_validate_and_run(inputs, out_dir, capsys, message):
    assert main(["validate", *inputs]) == 1
    assert one_error(capsys.readouterr().out).endswith(message)
    assert main(["run", *inputs, "--length", "100", "--out", str(out_dir)]) == 1
    assert one_error(capsys.readouterr().err).endswith(message)


@pytest.mark.parametrize(
    ("old", "new", "message"),
    [
        (ROAD_PROCESS, "fixed_segments: 5", "road: fixed_segments must be a list, got 5"),
        (ROAD_PROCESS, "process: 5", "road: process must be a mapping, got 5"),
        (DWELL, "dwell: 5", "road: dwell must be a mapping, got 5"),
        (TRANSITIONS, "transitions: 5", "road: transitions must be a mapping, got 5"),
        ("4: {2: 1.0}", "4: 5", "road: transitions[4] must be a mapping, got 5"),
        (CYCLE, "steps: 5", "speed: steps must be a list, got 5"),
        (CYCLE, "cycle: 5", "speed: cycle must be a mapping, got 5"),
        ("values: [50, 70, 90, 110, 90, 70]", "values: 5", "speed: cycle values must be a list, got 5"),
        ("speed:\n  cycle:", "speed: 5\nx:\n  cycle:", "speed: speed must be a mapping, got 5"),
        (FUNCTIONS, "cognitive_functions: 5\nx:\n  - {name: speed_check,", ": cognitive_functions must be a list, got 5"),
        ("levels: [0, 1, 2]", "levels: 5", "cognitive_functions[3]: levels must be a list, got 5"),
        ("level_change:\n    any: [level_change_msg]", "level_change: 5", "bindings: level_change must be a mapping, got 5"),
        (AVAILABILITY, "availability_rise: 5", "bindings: availability_rise must be a mapping, got 5"),
        (AVAILABILITY, "availability_drop: 5", "bindings: availability_drop must be a mapping, got 5"),
        (CONTROLS, "controls: 5", "controls: controls must be a mapping, got 5"),
        (AWARENESS, "awareness: 5", "awareness: awareness must be a mapping, got 5"),
        ("speed: {resolution: 1}", "speed: 5", "awareness: 'speed' must be a mapping, got 5"),
        ("vehicle:\n  initial_level: 2", "vehicle: 5\nx:\n  initial_level: 2", "vehicle: vehicle must be a mapping, got 5"),
        ("tor_final_seconds: 10", "tor_final_seconds: 10\nspeed: {constant: 50}", "duplicate key 'speed' at line 53 (first at line 16)"),
        (AVAILABILITY, "availability_rise:\n    4: [ad_available_msg]\n    4.0: [ad_available_vocal]", "duplicate key 4.0 at line 37 (first at line 36)"),
    ],
)
def test_wrong_shape_scenario_section_is_one_located_error(tmp_path, capsys, old, new, message):
    text = (PKG_DATA / "demo_scenario.yaml").read_text()
    assert text.count(old) == 1
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(text.replace(old, new))
    inputs = [*DEMO, "--scenario", str(scenario)]
    assert_one_error_from_validate_and_run(inputs, tmp_path / "out", capsys, message)


@pytest.mark.parametrize(
    ("old", "new", "message", "detail"),
    [
        (
            "process:\n    initial_level: 2", "process:\n    initial_level: 3",
            " road: initial level 3 has no dwell parameters", None,
        ),
        (
            "vehicle:\n  initial_level: 2", "vehicle:\n  ? [a, b]\n  : 1\n  initial_level: 2",
            ": YAML parse failure: while constructing a mapping", "found unhashable key",
        ),
    ],
)
def test_a_scenario_without_initial_dwell_or_with_an_unhashable_key_is_one_located_error(
    tmp_path, capsys, old, new, message, detail
):
    text = (PKG_DATA / "demo_scenario.yaml").read_text()
    assert text.count(old) == 1
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(text.replace(old, new))
    inputs = [*DEMO, "--scenario", str(scenario)]
    assert main(["validate", *inputs]) == 1
    out = capsys.readouterr().out
    assert one_error(out) == f"error: {scenario}{message}"
    assert detail is None or f"\n{detail}\n" in out
    assert main(["run", *inputs, "--length", "100", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert one_error(err) == f"error: {scenario}{message}"
    assert detail is None or f"\n{detail}\n" in err


@pytest.mark.parametrize(
    ("flag", "body", "message"),
    [
        ("--elements", "elements: 5\n", ": elements must be a list, got 5"),
        ("--elements", "- {name: cluster}\n", ": element must be a mapping, got [{'name': 'cluster'}]"),
        ("--scale", "scale: 5\n", ": scale must be a mapping, got 5"),
        ("--scenario", "[road]\n", ": scenario must be a mapping, got ['road']"),
        ("--scenario", "road: [\n", ": YAML parse failure: while parsing a flow node"),
    ],
)
def test_wrong_shape_yaml_file_is_one_located_error(tmp_path, capsys, flag, body, message):
    path = tmp_path / "input.yaml"
    path.write_text(body)
    inputs = [*DEMO, "--scenario", str(PKG_DATA / "demo_scenario.yaml"), flag, str(path)]
    assert_one_error_from_validate_and_run(inputs, tmp_path / "out", capsys, message)


@pytest.mark.parametrize("flag", ["--elements", "--scenario"])
def test_yaml_parse_failure_is_located_in_its_file(tmp_path, capsys, flag):
    path = tmp_path / "input.yaml"
    path.write_text("road: [\n")
    inputs = [*DEMO, "--scenario", str(PKG_DATA / "demo_scenario.yaml"), flag, str(path)]
    assert main(["validate", *inputs]) == 1
    out = capsys.readouterr().out
    assert f'in "{path}", line 2, column 1:\n    \n    ^' in out  # the mark keeps its snippet
    assert "<unicode string>" not in out


def unreadable(tmp_path, how):
    """A path that exists but is not a readable UTF-8 file."""
    path = tmp_path / "unreadable"
    if how == "directory":
        path.mkdir()
        return path, "file cannot be read: Is a directory"
    path.write_bytes("name: café\n".encode("latin-1"))
    return path, "file is not UTF-8: 'utf-8' codec can't decode byte 0xe9 in position 9: invalid continuation byte"


@pytest.mark.parametrize("how", ["directory", "latin-1"])
@pytest.mark.parametrize(
    ("flag", "kind"),
    [("--tasks", "task"), ("--elements", "element"), ("--scale", "scale"), ("--scenario", "scenario")],
)
def test_unreadable_input_is_one_located_error(tmp_path, capsys, how, flag, kind):
    path, message = unreadable(tmp_path, how)
    inputs = [*DEMO, "--scenario", str(PKG_DATA / "demo_scenario.yaml"), flag, str(path)]
    assert_one_error_from_validate_and_run(inputs, tmp_path / "out", capsys, f"{path}: {kind} {message}")


def test_a_leading_byte_order_mark_is_dropped_from_every_input(tmp_path, capsys, hud_variant):
    """Spreadsheet "CSV UTF-8" exports begin with a byte-order mark (BOM)."""
    sources = [PKG_DATA / "demo_tasks.csv", PKG_DATA / "demo_elements.yaml", hud_variant]
    for side, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        folder = tmp_path / side
        folder.mkdir()
        for source in sources:
            (folder / source.name).write_bytes(prefix + source.read_bytes())
        (folder / "seeds.txt").write_bytes(prefix + b"7\n9\n")
        inputs = ["--tasks", str(folder / "demo_tasks.csv"), "--elements", str(folder / "demo_elements.yaml")]
        assert main(["validate", *inputs]) == 0
        assert "OK: 12 task(s), 7 element(s)" in capsys.readouterr().out
        run = [*inputs, "--scenario", str(PKG_DATA / "demo_scenario.yaml"), "--length", "600"]
        assert main(["run", *run, "--out", str(folder / "run")]) == 0
        compare = [*SCRIPTED, "--tasks-b", str(folder / hud_variant.name), *SCRIPTED_SCENARIO]
        compare += ["--seeds-file", str(folder / "seeds.txt"), "--length", "100"]
        assert main(["compare", *compare, "--out", str(folder / "compare")]) == 0
        capsys.readouterr()
    for output in ("run/metrics.csv", "run/trace.jsonl", "run/task_counts.csv", "compare/paired.csv"):
        assert (tmp_path / "bom" / output).read_bytes() == (tmp_path / "plain" / output).read_bytes()


DEMO_TASK_LINES = (PKG_DATA / "demo_tasks.csv").read_text().splitlines(keepends=True)


def demo_catalog(tmp_path, lines):
    """The inputs of ``validate`` and ``run`` with the demo catalog written as ``lines``."""
    path = tmp_path / "tasks.csv"
    path.write_text("".join(lines))
    elements, scenario = PKG_DATA / "demo_elements.yaml", PKG_DATA / "demo_scenario.yaml"
    return path, ["--tasks", str(path), "--elements", str(elements), "--scenario", str(scenario)]


def test_task_header_names_may_have_blanks_around_them(tmp_path, capsys):
    """The header as the tasks module and README print it, with a blank after each comma."""
    for side, header in (("plain", DEMO_TASK_LINES[0]), ("spaced", " " + ", ".join(TASK_COLUMNS) + " \n")):
        folder = tmp_path / side
        folder.mkdir()
        _, inputs = demo_catalog(folder, [header, *DEMO_TASK_LINES[1:]])
        assert main(["validate", *inputs]) == 0
        assert "OK: 12 task(s), 7 element(s)" in capsys.readouterr().out
        assert main(["run", *inputs, "--length", "600", "--out", str(folder / "run")]) == 0
        capsys.readouterr()
    for output in ("metrics.csv", "trace.jsonl", "task_counts.csv"):
        assert (tmp_path / "spaced" / "run" / output).read_bytes() == (tmp_path / "plain" / "run" / output).read_bytes()


@pytest.mark.parametrize("again", ["Duration", " Duration "])
def test_a_task_column_given_twice_is_one_located_error(tmp_path, capsys, again):
    header = DEMO_TASK_LINES[0].rstrip("\n") + f",{again}\n"
    path, inputs = demo_catalog(tmp_path, [header, *(line.rstrip("\n") + ",99\n" for line in DEMO_TASK_LINES[1:])])
    assert_one_error_from_validate_and_run(inputs, tmp_path / "out", capsys, f"{path}: column 'Duration' given twice")


def test_a_task_row_is_located_by_its_line_in_the_file(tmp_path, capsys):
    assert DEMO_TASK_LINES[2].count(",0.8,") == 1  # check_mode's Duration
    bad = DEMO_TASK_LINES[2].replace(",0.8,", ",-1,")
    path, inputs = demo_catalog(tmp_path, [DEMO_TASK_LINES[0], "\n", DEMO_TASK_LINES[1], bad, *DEMO_TASK_LINES[3:]])
    message = f"{path} row 4 (check_mode): Duration must be > 0 and finite, got '-1'"
    assert_one_error_from_validate_and_run(inputs, tmp_path / "out", capsys, message)


def test_a_task_row_with_cells_past_the_header_is_one_located_error(tmp_path, capsys):
    blank = DEMO_TASK_LINES[2].rstrip("\n") + ",, \n"  # blank cells past the header are no cells
    _, inputs = demo_catalog(tmp_path, [*DEMO_TASK_LINES[:2], blank, *DEMO_TASK_LINES[3:]])
    assert main(["validate", *inputs]) == 0
    assert "OK: 12 task(s), 7 element(s)" in capsys.readouterr().out
    extra = DEMO_TASK_LINES[2].rstrip("\n") + ",,x,\n"
    path, inputs = demo_catalog(tmp_path, [*DEMO_TASK_LINES[:2], extra, *DEMO_TASK_LINES[3:]])
    message = f"{path} row 3 (check_mode): cells past the header's last column: ['x']"
    assert_one_error_from_validate_and_run(inputs, tmp_path / "out", capsys, message)


# ---------------------------------------------------------------------------
# run / export-trace


def run_args(out_dir, seed=1):
    return [
        "run", *SCRIPTED, *SCRIPTED_SCENARIO,
        "--seed", str(seed), "--length", "100", "--out", str(out_dir),
    ]


def test_run_writes_artifacts_and_prints_indicators(tmp_path, capsys):
    code = main(run_args(tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    assert "eyes_off_pct=5.6" in out
    assert "sa_avg_pct=81.0" in out
    for name in ("metrics.csv", "trace.jsonl", "task_counts.csv"):
        assert (tmp_path / name).exists()
    counts = (tmp_path / "task_counts.csv").read_text()
    assert "check_speed,4,4,0,0" in counts


def test_run_twice_is_byte_identical(tmp_path, capsys):
    assert main(run_args(tmp_path / "one")) == 0
    assert main(run_args(tmp_path / "two")) == 0
    capsys.readouterr()
    for name in ("metrics.csv", "trace.jsonl", "task_counts.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


@pytest.mark.parametrize("length", ["-5", "nan", "inf"])
def test_run_bad_length_is_validation_failure(tmp_path, capsys, length):
    code = main([
        "run", *SCRIPTED, *SCRIPTED_SCENARIO,
        "--length", length, "--out", str(tmp_path),
    ])
    assert code == 1
    assert "trial length must be > 0" in capsys.readouterr().err


def test_run_missing_scenario_file(tmp_path, capsys):
    code = main([
        "run", *SCRIPTED, "--scenario", str(tmp_path / "ghost.yaml"),
        "--out", str(tmp_path),
    ])
    assert code == 1
    assert "scenario file not found" in capsys.readouterr().err


def test_run_failing_after_its_trial_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    trials = []
    monkeypatch.setattr(hmisim.cli, "run_trial", lambda *args: trials.append(args) or run_trial(*args))
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main(["run", *SCRIPTED, *SCRIPTED_SCENARIO, "--length", "100", "--out", str(taken)])
    out, err = capsys.readouterr()
    assert code == 2
    assert len(trials) == 1  # the output directory is made after the trial
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: FileExistsError: ")


def test_run_failing_inside_its_trial_leaves_no_trace(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    written = []

    def failing(trial, instance, now):
        written.extend(p.name for p in out.iterdir())
        raise RuntimeError(f"handler failed at {now}")

    monkeypatch.setitem(hmisim.trial._HANDLERS, hmisim.EventKind.TASK_END, failing)
    code = main(["run", *SCRIPTED, *SCRIPTED_SCENARIO, "--length", "100", "--out", str(out)])
    assert code == 2
    message = "dispatcher failed on task-end event at t=12.0: handler failed at 12.0"
    assert capsys.readouterr() == ("", f"error: SimulationError: {message}\n")
    assert written == [f".trace.jsonl.{os.getpid()}.tmp"]  # the trace was under way
    assert list(out.iterdir()) == []  # and is gone: no trace.jsonl, no temp file


def rename_in_files(tmp_path, renames):
    """The scripted design and scenario with names replaced: task and element cells, YAML scalars."""
    with open(DATA / "scripted_tasks.csv", newline="", encoding="utf-8") as handle:
        rows = [[renames.get(cell, cell) for cell in row] for row in csv.reader(handle)]
    with open(tmp_path / "tasks.csv", "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)
    for name in ("scripted_elements.yaml", "scripted_scenario.yaml"):
        text = (DATA / name).read_text(encoding="utf-8")
        for old, new in renames.items():
            text = re.sub(rf"\b{old}\b", json.dumps(new, ensure_ascii=False).replace("\\", r"\\"), text)
        (tmp_path / name).write_text(text, encoding="utf-8")
    design = ["--tasks", str(tmp_path / "tasks.csv"), "--elements", str(tmp_path / "scripted_elements.yaml")]
    return design, ["--scenario", str(tmp_path / "scripted_scenario.yaml")]


@pytest.mark.parametrize("renamed", [False, True], ids=["scripted", "non-ascii-quoted-names"])
def test_run_streams_the_trace_write_trace_writes(tmp_path, capsys, renamed):
    design, scenario = SCRIPTED, SCRIPTED_SCENARIO
    if renamed:
        renames = {"check_speed": 'Tempo "prüfen" ✓', "take_over": "Übernahme\\jetzt", "instrument_cluster": "Kombi «Mitte»"}
        design, scenario = rename_in_files(tmp_path, renames)
    assert main(["run", *design, *scenario, "--seed", "2", "--length", "100", "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    config = load_configuration(design[1], design[3])
    result = run_trial(config, load_scenario(scenario[1]), 2, 100.0)
    write_trace(result.records, tmp_path / "written.jsonl")
    streamed = (tmp_path / "out" / "trace.jsonl").read_bytes()
    assert streamed == (tmp_path / "written.jsonl").read_bytes()
    if renamed:
        assert all(json.dumps(name, ensure_ascii=False).encode() in streamed for name in renames.values())
        assert {r.payload.get("task") for r in read_trace(tmp_path / "out" / "trace.jsonl")} >= {
            'Tempo "prüfen" ✓', "Übernahme\\jetzt"
        }
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["metrics.csv", "task_counts.csv", "trace.jsonl"]


FUNCTION_LINE = "  - {name: speed_check, task: check_speed, mean: 22, sigma: 0}\n"
#: (input file, the text added to it, location after its path, message) of a name that is not text or a number.
NOT_A_NAME = [
    ("scripted_elements.yaml", "  - {name: [a, b]}\n", "elements[4]", "name must be text or a number, got ['a', 'b']"),
    ("scripted_elements.yaml", "  - {name: true}\n", "elements[4]", "name must be text or a number, got True"),
    ("scripted_elements.yaml", "  - {name: {x: 1}}\n", "elements[4]", "name must be text or a number, got {'x': 1}"),
    ("scripted_scenario.yaml", "  - {name: f, task: [a], mean: 5}\n", "cognitive_functions[1]", "task must be text or a number, got ['a']"),
]


@pytest.mark.parametrize(("name", "added", "spot", "message"), NOT_A_NAME)
def test_a_name_that_is_not_text_or_a_number_fails_validate_and_run_once(tmp_path, capsys, name, added, spot, message):
    text = (DATA / name).read_text()
    edited = tmp_path / name
    edited.write_text(text.replace(FUNCTION_LINE, FUNCTION_LINE + added) if "scenario" in name else text + added)
    paths = {"--tasks": DATA / "scripted_tasks.csv", "--elements": DATA / "scripted_elements.yaml"}
    paths["--scenario"] = DATA / "scripted_scenario.yaml"
    paths[f"--{name.split('_')[1].split('.')[0]}"] = edited
    inputs = [str(part) for flag, path in paths.items() for part in (flag, path)]
    needs = "each element needs at least a 'name'" if "elements" in name else "needs at least 'name' and 'task'"
    expected = f"error: {edited} {spot}: {needs}; {message}"
    for argv, stream in ((["validate", *inputs], 0), (["run", *inputs, "--out", str(tmp_path / "out")], 1)):
        assert main(argv) == 1
        located = [line.strip() for line in capsys.readouterr()[stream].splitlines() if str(edited) in line]
        assert located == [expected]
    assert not (tmp_path / "out").exists()


def test_out_dir_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HMISIM_OUT_DIR", str(tmp_path / "from_env"))
    code = main(["run", *SCRIPTED, *SCRIPTED_SCENARIO, "--seed", "1", "--length", "100"])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "from_env" / "trace.jsonl").exists()


def test_export_trace(tmp_path, capsys):
    code = main([
        "export-trace", *SCRIPTED, *SCRIPTED_SCENARIO,
        "--seed", "1", "--length", "100", "--out", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "trace records" in out
    assert (tmp_path / "trace.jsonl").exists()
    timeline = (tmp_path / "timeline.csv").read_text().splitlines()
    assert timeline[0] == "time,kind,task,cognitive_sum,perceptual_sum,awareness,level,road_max"
    assert len(timeline) > 10


# ---------------------------------------------------------------------------
# compare


@pytest.fixture()
def hud_variant(tmp_path_factory, scripted_config):
    """Scripted catalog with the speed check moved onto the windshield."""
    moved = apply_move(scripted_config, ReallocateLocation("check_speed", "head_up_display"))
    path = tmp_path_factory.mktemp("variant") / "hud_tasks.csv"
    write_tasks_csv(moved, path)
    return path


def test_compare_via_flags(tmp_path, capsys, hud_variant):
    code = main([
        "compare", *SCRIPTED, "--tasks-b", str(hud_variant), *SCRIPTED_SCENARIO,
        "--seed", "1", "--trials", "3", "--length", "100",
        "--out", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "scripted_tasks: trials=3" in out
    assert "hud_tasks: trials=3" in out
    for name in ("summary.csv", "scatter.csv", "paired.csv"):
        assert (tmp_path / name).exists()
    paired = (tmp_path / "paired.csv").read_text().splitlines()
    assert paired[0] == "seed,d_eyes_off_pct,d_cog_overload_pct,d_perc_overload_pct,d_sa_avg_pct"
    assert len(paired) == 4
    # moving the only off-road glance task erases all eyes-off time
    assert paired[1].startswith("1,-5.6,")


def test_compare_needs_inputs(capsys):
    code = main(["compare", "--tasks", "x.csv"])
    assert code == 2
    assert "usage error: compare needs" in capsys.readouterr().err


def test_compare_writes_large_seed_exactly(tmp_path, capsys):
    seed = 2**53 + 1  # the nearest float is 2**53
    code = main([
        "compare", *SCRIPTED, "--tasks-b", str(DATA / "scripted_tasks.csv"), *SCRIPTED_SCENARIO,
        "--seed", str(seed), "--trials", "1", "--length", "100", "--out", str(tmp_path),
    ])
    capsys.readouterr()
    assert code == 0
    scatter = (tmp_path / "scatter.csv").read_text().splitlines()[1:]
    paired = (tmp_path / "paired.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in scatter] == [str(seed)] * 2
    assert [row.split(",")[0] for row in paired] == [str(seed)]


def test_compare_via_plan(tmp_path, capsys):
    code = main([
        "compare", "--plan", str(PKG_DATA / "demo_plan.yaml"),
        "--trials", "2", "--length", "600",
        "--out", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "base: trials=2" in out
    assert "optimized: trials=2" in out
    assert len((tmp_path / "paired.csv").read_text().splitlines()) == 3
    scatter = (tmp_path / "scatter.csv").read_text().splitlines()
    assert scatter[0].startswith("config,seed,")
    assert len(scatter) == 5  # two designs x two seeds


def test_compare_seeds_file(tmp_path, capsys, hud_variant):
    seeds_file = tmp_path / "seeds.txt"
    seeds_file.write_text("# paired seeds\n7\n9\n")
    code = main([
        "compare", *SCRIPTED, "--tasks-b", str(hud_variant), *SCRIPTED_SCENARIO,
        "--seeds-file", str(seeds_file), "--length", "100",
        "--out", str(tmp_path),
    ])
    assert code == 0
    paired = (tmp_path / "paired.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in paired[1:]] == ["7", "9"]
    capsys.readouterr()


def test_bad_seeds_file(tmp_path, capsys, hud_variant):
    seeds_file = tmp_path / "seeds.txt"
    seeds_file.write_text("seven\n")
    code = main([
        "compare", *SCRIPTED, "--tasks-b", str(hud_variant), *SCRIPTED_SCENARIO,
        "--seeds-file", str(seeds_file), "--out", str(tmp_path),
    ])
    assert code == 1
    assert "not an integer seed" in capsys.readouterr().err


def test_seeds_file_of_a_comment_and_a_blank_line_holds_no_seeds(tmp_path, capsys, hud_variant):
    seeds_file = tmp_path / "seeds.txt"
    seeds_file.write_text("# none yet\n\n")
    code = main([
        "compare", *SCRIPTED, "--tasks-b", str(hud_variant), *SCRIPTED_SCENARIO,
        "--seeds-file", str(seeds_file), "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    assert one_error(capsys.readouterr().err) == f"error: {seeds_file}: seeds file holds no seeds"


def compare_error(argv, capsys):
    assert main(["compare", *argv, "--trials", "1", "--length", "100"]) == 1
    return one_error(capsys.readouterr().err)


@pytest.mark.parametrize("how", ["directory", "latin-1"])
def test_unreadable_plan_or_seeds_file_is_one_located_error(tmp_path, capsys, how):
    path, message = unreadable(tmp_path, how)
    out = ["--out", str(tmp_path / "out")]
    assert compare_error(["--plan", str(path), *out], capsys).endswith(f"{path}: plan {message}")
    plan = ["--plan", str(PKG_DATA / "demo_plan.yaml"), "--seeds-file", str(path), *out]
    assert compare_error(plan, capsys).endswith(f"{path}: seeds {message}")


def test_wrong_shape_plan_configurations_is_one_located_error(tmp_path, capsys):
    text = (PKG_DATA / "demo_plan.yaml").read_text().replace(
        "configurations:", "configurations: 5\nx:"
    ).replace("demo_", str(PKG_DATA / "demo_"))
    plan = tmp_path / "plan.yaml"
    plan.write_text(text)
    error = compare_error(["--plan", str(plan), "--out", str(tmp_path / "out")], capsys)
    assert error.endswith(f"{plan}: configurations must be a list, got 5")


def test_one_configuration_plan_is_a_plan_error_for_compare(tmp_path, capsys):
    text = (PKG_DATA / "demo_plan.yaml").read_text().replace("demo_", str(PKG_DATA / "demo_"))
    plan = tmp_path / "plan.yaml"
    plan.write_text(text[: text.index("  - name: optimized")])
    error = compare_error(["--plan", str(plan), "--out", str(tmp_path / "out")], capsys)
    assert error == f"error: {plan}: compare needs a plan with at least two configurations"


@pytest.mark.parametrize("command", ["compare", "optimize"])
@pytest.mark.parametrize("trials", ["0", "-1", pytest.param("1" + "0" * 400, id="huge"), "100001"])
def test_trials_outside_its_range_is_one_located_error(tmp_path, capsys, command, trials):
    argv = [command, "--plan", str(PKG_DATA / "demo_plan.yaml"), "--trials", trials, "--length", "100"]
    assert main([*argv, "--out", str(tmp_path)]) == 1
    error = one_error(capsys.readouterr().err)
    assert error == f"error: trials: --trials must be an integer >= 1 and <= 100000, got {trials}"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["compare", "optimize"])
@pytest.mark.parametrize(
    ("flag", "value", "message"),
    [
        ("--length", "nan", "--length must be > 0 and finite, got nan"),
        ("--length", "inf", "--length must be > 0 and finite, got inf"),
        ("--length", "0", "--length must be > 0 and finite, got 0.0"),
        ("--length", "-1", "--length must be > 0 and finite, got -1.0"),
        ("--jobs", "0", "--jobs must be an integer >= 1, got 0"),
        ("--jobs", "-1", "--jobs must be an integer >= 1, got -1"),
    ],
)
def test_bad_length_or_jobs_is_one_located_error(tmp_path, capsys, command, flag, value, message):
    argv = [command, "--plan", str(PKG_DATA / "demo_plan.yaml"), "--trials", "1", flag, value]
    assert main([*argv, "--out", str(tmp_path)]) == 1
    assert one_error(capsys.readouterr().err) == f"error: trials: {message}"
    assert list(tmp_path.iterdir()) == []


def test_worker_error_reads_the_same_at_any_jobs(tmp_path, capsys):
    # The scripted timeline covers 100 s, so each trial fails its validation in the worker.
    argv = [
        "compare", *SCRIPTED, "--tasks-b", str(DATA / "scripted_tasks.csv"), *SCRIPTED_SCENARIO,
        "--trials", "2", "--length", "200", "--out", str(tmp_path),
    ]
    stderr = []
    for jobs in ("1", "2"):
        assert main([*argv, "--jobs", jobs]) == 1
        stderr.append(capsys.readouterr().err)
    assert stderr[0] == stderr[1]
    assert one_error(stderr[0]).endswith("fixed timeline covers 100.0 s but the trial needs 200.0 s")


# ---------------------------------------------------------------------------
# flags and plans: load order, design names, seeds


@pytest.mark.parametrize("command", ["compare", "optimize"])
def test_bad_design_file_is_reported_before_a_bad_trials_flag(tmp_path, capsys, command):
    missing = tmp_path / "missing.csv"
    if command == "compare":
        extra = ["--tasks-b", str(DATA / "scripted_tasks.csv")]
    else:
        extra = ["--sa-floor", "75", "--budget", "0"]
    code = main([
        command, "--tasks", str(missing), "--elements", str(DATA / "scripted_elements.yaml"),
        *SCRIPTED_SCENARIO, *extra, "--trials", "0", "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    assert one_error(capsys.readouterr().err) == f"error: {missing}: task file not found"


def test_optimize_bad_design_file_is_reported_before_a_missing_floor(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    code = main([
        "optimize", "--tasks", str(missing), "--elements", str(DATA / "scripted_elements.yaml"),
        *SCRIPTED_SCENARIO, "--budget", "0", "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    assert one_error(capsys.readouterr().err) == f"error: {missing}: task file not found"


def test_compare_equal_task_file_stems_name_the_designs_a_and_b(tmp_path, capsys):
    task_files = []
    for design in ("first", "second"):
        (tmp_path / design).mkdir()
        task_files.append(tmp_path / design / "tasks.csv")
        task_files[-1].write_bytes((DATA / "scripted_tasks.csv").read_bytes())
    code = main([
        "compare", "--tasks", str(task_files[0]), "--tasks-b", str(task_files[1]),
        "--elements", str(DATA / "scripted_elements.yaml"), *SCRIPTED_SCENARIO,
        "--trials", "1", "--length", "100", "--out", str(tmp_path / "out"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] == ["A", "B"]
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in summary[1:]] == ["A", "B"]


def test_seed_flag_with_the_demo_plan_counts_up_its_trials(tmp_path, capsys):
    code = main([
        "compare", "--plan", str(PKG_DATA / "demo_plan.yaml"),
        "--seed", "5", "--length", "100", "--out", str(tmp_path),
    ])
    capsys.readouterr()
    assert code == 0
    paired = (tmp_path / "paired.csv").read_text().splitlines()[1:]
    assert [line.split(",")[0] for line in paired] == [str(seed) for seed in range(5, 25)]


def test_seeds_file_longer_than_max_trials_is_one_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(hmisim.cli, "MAX_TRIALS", 5)
    seeds_file = tmp_path / "seeds.txt"
    seeds_file.write_text("".join(f"{seed}\n" for seed in range(1, 7)))
    argv = [
        "compare", *SCRIPTED, "--tasks-b", str(DATA / "scripted_tasks.csv"), *SCRIPTED_SCENARIO,
        "--seeds-file", str(seeds_file), "--length", "100", "--out", str(tmp_path / "out"),
    ]
    assert main(argv) == 1
    assert one_error(capsys.readouterr().err) == (
        f"error: {seeds_file}: 6 seeds, but a batch runs at most 5 trials; --trials picks the first ones"
    )
    assert not (tmp_path / "out").exists()
    # a count set by --trials or by the plan runs the first seeds of a longer file
    assert main([*argv, "--trials", "2"]) == 0
    assert scatter_seeds(tmp_path / "out") == {"A": [1, 2], "B": [1, 2]}
    plan = ["compare", "--plan", str(seedless_plan(tmp_path)), "--seeds-file", str(seeds_file)]
    assert main([*plan, "--out", str(tmp_path / "plan")]) == 0
    capsys.readouterr()
    assert scatter_seeds(tmp_path / "plan") == {"first": [1, 2, 3], "second": [1, 2, 3]}


def test_seeds_file_shorter_than_the_demo_plan_trials_is_one_error(tmp_path, capsys):
    seeds_file = tmp_path / "seeds.txt"
    seeds_file.write_text("7\n9\n")
    argv = ["--plan", str(PKG_DATA / "demo_plan.yaml"), "--seeds-file", str(seeds_file)]
    assert main(["compare", *argv, "--out", str(tmp_path / "out")]) == 1
    assert one_error(capsys.readouterr().err) == "error: seeds: 20 trials need 20 seeds, got 2"
    assert not (tmp_path / "out").exists()


def seedless_plan(tmp_path):
    """A two-design plan on the scripted inputs with three trials and no master_seeds."""
    plan = tmp_path / "seedless.yaml"
    plan.write_text(
        f"scenario: {DATA / 'scripted_scenario.yaml'}\n"
        "trials_per_config: 3\n"
        "trial_length: 100\n"
        "configurations:\n"
        f"  - {{name: first, tasks: {DATA / 'scripted_tasks.csv'}, elements: {DATA / 'scripted_elements.yaml'}}}\n"
        f"  - {{name: second, tasks: {DATA / 'scripted_tasks.csv'}, elements: {DATA / 'scripted_elements.yaml'}}}\n"
    )
    return plan


def scatter_seeds(out):
    """The seeds of each design in a compare call's scatter.csv."""
    seeds: dict[str, list[int]] = {}
    for row in (out / "scatter.csv").read_text().splitlines()[1:]:
        name, seed = row.split(",")[:2]
        seeds.setdefault(name, []).append(int(seed))
    return seeds


@pytest.mark.parametrize(
    ("flags", "seeds_file", "expected"),
    [
        ([], None, [1, 2, 3]),
        (["--seed", "7"], None, [7, 8, 9]),
        ([], "40\n30\n20\n10\n", [40, 30, 20]),
        (["--trials", "5"], None, [1, 2, 3, 4, 5]),
    ],
    ids=["no-seed-flags", "seed", "four-seed-file", "trials-above-the-plan"],
)
def test_seedless_plan_runs_the_seeds_its_flags_name(tmp_path, capsys, flags, seeds_file, expected):
    if seeds_file is not None:
        (tmp_path / "seeds.txt").write_text(seeds_file)
        flags = ["--seeds-file", str(tmp_path / "seeds.txt")]
    out = tmp_path / "out"
    code = main(["compare", "--plan", str(seedless_plan(tmp_path)), *flags, "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert scatter_seeds(out) == {"first": expected, "second": expected}


@pytest.mark.parametrize("repeat", ["1", "18446744073709551617"], ids=["equal", "equal-modulo-2**64"])
def test_repeated_seed_in_a_seeds_file_is_one_located_error(tmp_path, capsys, repeat):
    seeds_file = tmp_path / "seeds.txt"
    seeds_file.write_text(f"1\n{repeat}\n")
    argv = [
        "compare", *SCRIPTED, "--tasks-b", str(DATA / "scripted_tasks.csv"), *SCRIPTED_SCENARIO,
        "--seeds-file", str(seeds_file), "--length", "100", "--out", str(tmp_path / "out"),
    ]
    assert main(argv) == 1
    assert one_error(capsys.readouterr().err) == (
        f"error: {seeds_file}: seed {repeat} repeats seed 1 (equal modulo 2**64); a batch runs each seed once"
    )
    assert not (tmp_path / "out").exists()


def test_repeated_master_seed_in_a_plan_is_one_located_error(tmp_path, capsys):
    plan = seedless_plan(tmp_path)
    plan.write_text(plan.read_text().replace("trials_per_config: 3\n", "master_seeds: [3, 3]\n"))
    assert main(["compare", "--plan", str(plan), "--out", str(tmp_path / "out")]) == 1
    assert one_error(capsys.readouterr().err) == (
        f"error: {plan}: seed 3 repeats seed 3 (equal modulo 2**64); a batch runs each seed once"
    )
    assert not (tmp_path / "out").exists()


def test_repeated_seed_past_the_trial_count_is_never_run(tmp_path, capsys):
    seeds_file = tmp_path / "seeds.txt"
    seeds_file.write_text("1\n2\n1\n")
    argv = [
        "compare", *SCRIPTED, "--tasks-b", str(DATA / "scripted_tasks.csv"), *SCRIPTED_SCENARIO,
        "--seeds-file", str(seeds_file), "--trials", "2", "--length", "100", "--out", str(tmp_path / "out"),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert scatter_seeds(tmp_path / "out") == {"A": [1, 2], "B": [1, 2]}


# ---------------------------------------------------------------------------
# optimize


def test_optimize_budget_zero_is_a_dry_run(tmp_path, capsys, scripted_config):
    code = main([
        "optimize", *SCRIPTED, *SCRIPTED_SCENARIO,
        "--sa-floor", "75", "--budget", "0",
        "--seed", "1", "--trials", "1", "--length", "100",
        "--out", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "budget 0: no simulations run, design unchanged" in out
    expected = tmp_path / "expected.csv"
    write_tasks_csv(scripted_config, expected)
    assert (tmp_path / "optimized_tasks.csv").read_bytes() == expected.read_bytes()
    assert "# budget 0" in (tmp_path / "moves.log").read_text()
    assert not (tmp_path / "summary.csv").exists()


def test_optimize_budget_zero_prints_and_logs_only_that_nothing_ran(tmp_path, capsys):
    code = main([
        "optimize", *SCRIPTED, *SCRIPTED_SCENARIO, "--sa-floor", "75", "--budget", "0",
        "--trials", "1", "--length", "100", "--out", str(tmp_path),
    ])
    assert code == 0
    assert capsys.readouterr().out == "budget 0: no simulations run, design unchanged\n"
    assert (tmp_path / "moves.log").read_text().splitlines() == [
        "# local search: budget 0, sa floor 75, weights cog=1 perc=1 eyes=1",
        "# budget 0: no evaluations, design unchanged",
    ]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["moves.log", "optimized_tasks.csv"]


def test_optimize_logs_an_infeasible_initial_design(tmp_path, capsys):
    code = main([
        "optimize", *SCRIPTED, *SCRIPTED_SCENARIO, "--sa-floor", "100", "--budget", "1",
        "--trials", "1", "--length", "100", "--out", str(tmp_path),
    ])
    assert code == 0
    capsys.readouterr()
    assert (tmp_path / "moves.log").read_text().splitlines()[2] == (
        "# initial design infeasible: sa 81.0 below floor 100; seeking feasibility first"
    )


def test_optimize_with_no_move_to_evaluate_reports_the_batch_it_ran(tmp_path, capsys):
    # One auditory driver task on the lightest descriptors, targeted by a cognitive
    # function: no reallocation, removal, serialization or descriptor swap applies.
    tasks = tmp_path / "tasks.csv"
    header = (DATA / "scripted_tasks.csv").read_text().splitlines()[0]
    tasks.write_text(
        header + "\nlisten,Listen to a prompt,speaker,Simple association,Vocal signal recognition,"
        "auditory-vocal,,,1.0,,listen_up,speed,,3,driver\n"
    )
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(
        "road: {fixed_segments: [[0, 100, 2]]}\nspeed: {constant: 50}\n"
        "cognitive_functions: [{name: listen_up, task: listen, mean: 22, sigma: 0}]\n"
        "awareness: {speed: {resolution: 1}}\nvehicle: {initial_level: 2}\n"
    )
    out = tmp_path / "out"
    code = main([
        "optimize", "--tasks", str(tasks), "--elements", str(DATA / "scripted_elements.yaml"),
        "--scenario", str(scenario), "--sa-floor", "0", "--budget", "5",
        "--trials", "2", "--length", "100", "--out", str(out),
    ])
    assert code == 0
    assert capsys.readouterr().out == (
        "0 candidate evaluation(s), 0 accepted move(s); weighted score 0.0 -> 0.0, "
        "median sa 100.0 (floor 0, feasible)\n"
    )
    assert (out / "moves.log").read_text().splitlines()[-1] == (
        "# 0 candidate evaluation(s), 0 accepted move(s), feasible"
    )
    assert sorted(path.name for path in out.iterdir()) == [
        "moves.log", "optimized_tasks.csv", "scatter.csv", "summary.csv",
    ]


@pytest.mark.parametrize("budget", ["-1", "-3"])
def test_optimize_negative_budget_is_one_located_error(tmp_path, capsys, budget):
    argv = ["optimize", "--plan", str(PKG_DATA / "demo_plan.yaml"), "--budget", budget, "--trials", "1"]
    assert main([*argv, "--out", str(tmp_path)]) == 1
    assert one_error(capsys.readouterr().err) == f"error: optimize: --budget must be an integer >= 0, got {budget}"
    assert list(tmp_path.iterdir()) == []


def test_optimize_requires_floor_and_budget(capsys):
    code = main([
        "optimize", *SCRIPTED, *SCRIPTED_SCENARIO, "--budget", "4",
    ])
    assert code == 2
    assert "needs --sa-floor" in capsys.readouterr().err

    code = main([
        "optimize", *SCRIPTED, *SCRIPTED_SCENARIO, "--sa-floor", "75",
    ])
    assert code == 2
    assert "needs --budget" in capsys.readouterr().err


def test_optimize_runs_the_search(tmp_path, capsys):
    code = main([
        "optimize", *SCRIPTED, *SCRIPTED_SCENARIO,
        "--sa-floor", "75", "--budget", "40", "--weights", "1,1,1",
        "--seed", "1", "--trials", "2", "--length", "100",
        "--out", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "accepted: reallocate check_speed to head_up_display" in out
    assert "feasible" in out
    assert "head_up_display" in (tmp_path / "optimized_tasks.csv").read_text()
    log = (tmp_path / "moves.log").read_text()
    assert "accepted: reallocate check_speed to head_up_display" in log
    assert "# final:" in log
    for name in ("summary.csv", "scatter.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[1].startswith("initial,")
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[2].startswith("optimized,")


def test_optimize_via_plan_budget_flag_overrides(tmp_path, capsys):
    code = main([
        "optimize", "--plan", str(PKG_DATA / "demo_plan.yaml"),
        "--budget", "0", "--out", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "budget 0" in out
    assert (tmp_path / "optimized_tasks.csv").exists()
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize(
    ("weights", "message"),
    [
        ("1,2", "usage error: --weights needs exactly three"),
        ("nan,1,1", "usage error: --weights cognitive must be >= 0 and finite, got 'nan'"),
    ],
)
def test_optimize_bad_weights(capsys, tmp_path, weights, message):
    code = main([
        "optimize", *SCRIPTED, *SCRIPTED_SCENARIO,
        "--sa-floor", "75", "--budget", "0", "--weights", weights,
        "--out", str(tmp_path),
    ])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    ("weights", "message"),
    [
        ("x,1,1", "--weights cognitive must be a number, got 'x'"),
        ("1,-1,1", "--weights perceptual must be >= 0 and finite, got '-1'"),
        ("1,1,inf", "--weights eyes_off must be >= 0 and finite, got 'inf'"),
        ("1,true,1", "--weights perceptual must be a number, got 'true'"),
        ("0,0,0", "bad --weights: at least one objective weight must be > 0"),
    ],
)
def test_optimize_weights_follow_the_number_rule(capsys, tmp_path, weights, message):
    code = main([
        "optimize", "--plan", str(PKG_DATA / "demo_plan.yaml"), "--budget", "0", "--weights", weights,
        "--out", str(tmp_path),
    ])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"usage error: {message}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    ("floor", "shown"),
    [("150", "150.0"), ("-1", "-1.0"), ("nan", "nan"), ("inf", "inf"), ("-inf", "-inf")],
)
def test_optimize_bad_floor_is_usage_error(capsys, tmp_path, floor, shown):
    code = main([
        "optimize", *SCRIPTED, *SCRIPTED_SCENARIO,
        f"--sa-floor={floor}", "--budget", "1",
        "--seed", "1", "--trials", "1", "--length", "100",
        "--out", str(tmp_path),
    ])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"usage error: --sa-floor must be >= 0 and <= 100 and finite, got {shown}"
    ]
    assert not (tmp_path / "moves.log").exists()


@pytest.mark.parametrize("floor", ["0", "100"])
def test_optimize_floor_bounds_are_inclusive(capsys, tmp_path, floor):
    code = main([
        "optimize", *SCRIPTED, *SCRIPTED_SCENARIO,
        "--sa-floor", floor, "--budget", "0", "--out", str(tmp_path),
    ])
    assert code == 0, capsys.readouterr().err


# ---------------------------------------------------------------------------
# process-level smoke test


def test_module_invocation_round_trip(tmp_path):
    # The child imports hmisim from where this process found it.
    package_root = str(Path(hmisim.__file__).parents[1])
    search_path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "hmisim.cli", "run", *SCRIPTED, *SCRIPTED_SCENARIO,
         "--seed", "3", "--length", "100", "--out", str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": search_path},
    )
    assert result.returncode == 0, result.stderr
    assert "eyes_off_pct=5.6" in result.stdout
    assert (tmp_path / "trace.jsonl").exists()


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
