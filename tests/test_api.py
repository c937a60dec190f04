"""The public surface: the package exports, every name the benchmark's tracer patches, the
documented lists of modules and subcommands, and the README's library example."""

from __future__ import annotations

import argparse
import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import hmisim
import hmisim.cli  # the package does not import its CLI; the tracer wraps names in it
from hmisim.cli import build_parser, main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
README = Path(__file__).resolve().parents[1] / "README.md"
DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", hmisim.__all__)
def test_every_exported_name_resolves(name):
    assert getattr(hmisim, name) is not None


def test_every_imported_name_is_exported():
    tree = ast.parse(Path(hmisim.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    assert imported
    assert sorted(imported - set(hmisim.__all__)) == []


def test_replay_shares_no_accrual_code_with_the_simulator():
    """Replay stays an independent oracle: from the package it takes the record type and the caps only.

    So nothing of ``trial``, ``experiment``, ``driver``, ``vehicle`` or ``MetricsCollector``.
    """
    tree = ast.parse(Path(hmisim.replay.__file__).read_text())
    imported: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.setdefault("." * node.level + (node.module or ""), set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update((alias.name, set()) for alias in node.names)
    own = {module: names for module, names in imported.items() if module.startswith((".", "hmisim"))}
    assert own == {".metrics": {"TraceRecord"}, ".attention": {"CAPACITY", "CAP_TOLERANCE", "AbortReason"}}


def test_the_package_imports_only_itself_the_standard_library_numpy_and_yaml():
    allowed = sys.stdlib_module_names | {"numpy", "yaml"}
    outside: list[str] = []
    for module in sorted(Path(hmisim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{module.name}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert outside == []


def test_no_module_imports_a_name_it_never_uses():
    unused: list[str] = []
    for module in sorted(Path(hmisim.__file__).parent.glob("*.py")):
        if module.name == "__init__.py":  # it imports to export
            continue
        tree = ast.parse(module.read_text())
        imported: list[str] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{module.name}: {name}" for name in imported if name not in used]
    assert unused == []


def test_the_readme_module_map_names_every_module_once():
    table = README.read_text().split("\n## Module map\n", 1)[1].split("\n## ", 1)[0]
    mapped = re.findall(r"^\| `(\w+)` \|", table, re.MULTILINE)
    modules = {path.stem for path in Path(hmisim.__file__).parent.glob("*.py")} - {"__init__"}
    assert sorted(mapped) == sorted(modules)


def test_the_documented_task_catalog_header_is_the_one_the_loader_reads(tmp_path):
    readme = README.read_text().split("\n**Task catalog (CSV)**", 1)[1].split("`", 2)[1]
    docstring = hmisim.tasks.__doc__.split("::\n\n", 1)[1].split("\n\n", 1)[0]
    for listed in (readme, docstring):
        assert [name.strip() for name in listed.split(",")] == hmisim.tasks.TASK_COLUMNS
    header = tmp_path / "tasks.csv"
    header.write_text(" ".join(docstring.split()) + "\n")  # its lines joined into one
    elements = tmp_path / "elements.yaml"
    elements.write_text("elements: []\n")
    config = hmisim.load_configuration(header, elements)
    assert (config.tasks, config.warnings) == ([], [])


def test_the_cli_docstring_lists_every_subcommand_once():
    listed = re.findall(r"^    hmisim (\S+)", hmisim.cli.__doc__, re.MULTILINE)
    (subcommands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(listed) == sorted(subcommands.choices)


def test_the_readme_library_example_runs_as_written(tmp_path, monkeypatch, capsys, demo_config, demo_scenario):
    section = README.read_text().split("\n## Library use\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    data = Path(hmisim.__file__).parent / "data"
    for source, copy in [
        ("demo_tasks.csv", "tasks.csv"),
        ("demo_elements.yaml", "elements.yaml"),
        ("demo_scenario.yaml", "scenario.yaml"),
    ]:
        (tmp_path / copy).write_bytes((data / source).read_bytes())
    monkeypatch.chdir(tmp_path)
    exec(compile(example, str(README), "exec"), {})
    metrics = hmisim.run_trial(demo_config, demo_scenario, seed=1, trial_length=60_000.0, trace=False).metrics
    assert capsys.readouterr().out == f"{metrics.eyes_off_fraction} {metrics.sa_average}\n"


@pytest.fixture
def tracer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer").Tracer(tmp_path / "spool")


def test_tracer_resolves_every_name_it_patches(tracer):
    # _build looks each name up; a deleted one raises AttributeError here.
    replacements = tracer._build(hmisim)
    assert replacements
    for owner, attr, replacement in replacements:
        assert callable(getattr(owner, attr)), f"{owner!r}.{attr}"
        assert callable(replacement)


def test_traced_run_matches_the_untraced_run(tracer, tmp_path, capsys):
    argv = [
        "run",
        "--tasks", str(DATA / "scripted_tasks.csv"),
        "--elements", str(DATA / "scripted_elements.yaml"),
        "--scenario", str(DATA / "scripted_scenario.yaml"),
        "--seed", "3", "--length", "100",
    ]
    assert main([*argv, "--out", str(tmp_path / "plain")]) == 0
    with tracer.installed(hmisim):
        assert main([*argv, "--out", str(tmp_path / "traced")]) == 0
    capsys.readouterr()
    for name in ("metrics.csv", "trace.jsonl", "task_counts.csv"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()
    spans = {name for _, name in tracer.tables["ops"]}
    assert {"trial.run_trial", "trial.dispatch", "engine.schedule", "vehicle.machine"} <= spans
    # the wrappers are gone again
    assert hmisim.engine.EventCalendar.schedule.__module__ == "hmisim.engine"


def test_traced_optimize_matches_the_untraced_optimize(tracer, tmp_path, capsys):
    argv = [
        "optimize",
        "--tasks", str(DATA / "scripted_tasks.csv"),
        "--elements", str(DATA / "scripted_elements.yaml"),
        "--scenario", str(DATA / "scripted_scenario.yaml"),
        "--sa-floor", "75", "--budget", "2", "--trials", "1", "--length", "100", "--jobs", "1",
    ]
    assert main([*argv, "--out", str(tmp_path / "plain")]) == 0
    with tracer.installed(hmisim):
        assert main([*argv, "--out", str(tmp_path / "traced")]) == 0
    capsys.readouterr()
    for name in ("moves.log", "optimized_tasks.csv", "summary.csv", "scatter.csv"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()
    spans = {name for _, name in tracer.tables["ops"]}
    assert {"experiment.local_search", "experiment.run_many"} <= spans
    assert tracer.counters["ops"]["experiment.evaluations"] == 2  # read from SearchResult.evaluations


def test_traced_audit_matches_the_untraced_audit(tracer, tmp_path, capsys):
    argv = [
        "run",
        "--tasks", str(DATA / "scripted_tasks.csv"),
        "--elements", str(DATA / "scripted_elements.yaml"),
        "--scenario", str(DATA / "scripted_scenario.yaml"),
        "--seed", "3", "--length", "100", "--out", str(tmp_path),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    trace = tmp_path / "trace.jsonl"
    vehicle = hmisim.load_scenario(DATA / "scripted_scenario.yaml").vehicle

    def audit():
        # Called through the module attributes, as the benchmark calls them.
        records = hmisim.metrics.read_trace(trace)
        return (
            records,
            hmisim.replay.replay_metrics(records, 100.0),
            hmisim.replay.check_safety_rules(records),
            hmisim.replay.check_tor_lead_times(records, vehicle.tor_lead_seconds, vehicle.tor_final_seconds),
        )

    plain = audit()
    with tracer.installed(hmisim):
        traced = audit()
    assert traced == plain
    assert plain[0] and plain[2].ok() and plain[3].ok()
    assert tracer.counters["ops"]["metrics.read_trace_bytes"] == trace.stat().st_size
    spans = {name for _, name in tracer.tables["ops"]}
    checks = {"replay.replay_metrics", "replay.check_safety_rules", "replay.check_tor_lead_times"}
    assert {"metrics.read_trace"} | checks <= spans
