"""Behaviour lock: SHA-256 digests of every file a fixed set of CLI calls writes.

The digests pin the trace, metrics, counts, compare and optimize outputs
byte for byte.  A refactor or optimisation must leave all of them
unchanged; a digest may change only with a change that means to alter
behaviour, and CHANGES.md must say so.
"""

from __future__ import annotations

import hashlib
from importlib import resources
from pathlib import Path

import pytest

from hmisim.cli import main

DATA = Path(__file__).parent / "data"
PKG_DATA = Path(str(resources.files("hmisim") / "data"))

DEMO = [
    "--tasks", str(PKG_DATA / "demo_tasks.csv"),
    "--elements", str(PKG_DATA / "demo_elements.yaml"),
    "--scenario", str(PKG_DATA / "demo_scenario.yaml"),
]
SCRIPTED = [
    "--tasks", str(DATA / "scripted_tasks.csv"),
    "--elements", str(DATA / "scripted_elements.yaml"),
    "--scenario", str(DATA / "scripted_scenario.yaml"),
]
PLAN = ["--plan", str(PKG_DATA / "demo_plan.yaml")]

CASES: dict[str, tuple[list[str], dict[str, str]]] = {
    "run-demo-seed1": (
        ["run", *DEMO, "--seed", "1", "--length", "60000"],
        {
            "metrics.csv": "e518f4dbe510a743eaeb8a1cbab4b79227a58f420f399e3408cbeac78e7ff4b2",
            "task_counts.csv": "d64e2909ea8f900d5ea99aa9531ed949d218570b99c6dc578cfcd6169f8d4688",
            "trace.jsonl": "4f4e33a41a64a0aaa521b13e828a7ce7dbda93f93c94055ca54c1819b31e642a",
        },
    ),
    "run-demo-seed2": (
        ["run", *DEMO, "--seed", "2", "--length", "60000"],
        {
            "metrics.csv": "d3510b36d2cb575c1a60280ebc0d244346bf3959017d5d8de7ae8a473d220746",
            "task_counts.csv": "0793a558e8a12fce750092ba0420a3f570b303ee92c890416b86d4a096eea5bb",
            "trace.jsonl": "8b593a06b7d137b3bf6d82179f13ef92f62a2b055d67768a8cbaaef42c677fa5",
        },
    ),
    "run-demo-seed3": (
        ["run", *DEMO, "--seed", "3", "--length", "60000"],
        {
            "metrics.csv": "d449301e14b345854d752237abd0025b716869f67af978f65591ad3676882670",
            "task_counts.csv": "276d990424c910aac28c004870226580e0bfbd101a83d633d69f86117a1cf8e8",
            "trace.jsonl": "f3e8884a80c28c452ec1680542b55c7379ae87a9925e9338bfe90f931de06dba",
        },
    ),
    "run-scripted": (
        ["run", *SCRIPTED, "--length", "100"],
        {
            "metrics.csv": "fca6c114a73a951a5c73b9f6cf38d26a1d301c9aedb0c04c2e49a32455234cfc",
            "task_counts.csv": "63c90ce510db94405a62530020f276466067658b043c24aff59d2bd52d353560",
            "trace.jsonl": "a2ceac0b23892721e5f9760f88d361cd1b513b20eca2539d66dbd5bebbcf6f24",
        },
    ),
    "export-trace-scripted": (
        ["export-trace", *SCRIPTED, "--length", "100"],
        {
            "timeline.csv": "09398eb7283540f61872a36491b3d55272a2de0edbc6bb43bf3619d131eca8b5",
            "trace.jsonl": "a2ceac0b23892721e5f9760f88d361cd1b513b20eca2539d66dbd5bebbcf6f24",
        },
    ),
    "compare-demo-plan": (
        ["compare", *PLAN, "--trials", "3", "--length", "6000", "--jobs", "1"],
        {
            "paired.csv": "25130a88f3298d4fa843586ba89413228997c6bd06c3833064de87512257213f",
            "scatter.csv": "111047747dac2816633d4e07f963aa4038ad2bb830391ee8122c97f533990102",
            "summary.csv": "a5c2ce10105600afd37f31cd3e8c3c447b8b0dd32945480bbdd70ed846077e02",
        },
    ),
    "optimize-demo-plan": (
        ["optimize", *PLAN, "--trials", "2", "--length", "3000", "--budget", "5", "--jobs", "1"],
        {
            "moves.log": "90f1682ba774b42e7dde48ae7cc8c7c50c85b4ba351f11c9a23b6fc4503b8d92",
            "optimized_tasks.csv": "8a49db38bae5177cba8ea3f7d7e1b582a5aa832fa62a12eb3df30429b93dc3f9",
            "scatter.csv": "85bbadca8d553cc0b586b8953c1025a0112a54ef22410ce629a4c07cd1ad97f3",
            "summary.csv": "ac7fadd2d616033cf6a64bf7fa7c3a97b8c056c5136f3941c58452fc4333de86",
        },
    ),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", list(CASES))
def test_outputs_match_golden_digests(case, tmp_path, capsys):
    argv, expected = CASES[case]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(expected)
    assert {name: _sha256(tmp_path / name) for name in expected} == expected
