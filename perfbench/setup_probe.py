"""Time one workload set-up in a fresh interpreter.

Set-up is what every ``hmisim`` invocation pays before it simulates:
``import hmisim`` plus loading and validating the workload's inputs
(``load_configuration``/``load_scenario``, and ``load_plan`` where the
workload uses a plan).  Prints ``{"setup_s": seconds}``.

    python3 perfbench/setup_probe.py run_trace
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "hmisim" / "data"
DEMO_TASKS = DATA / "demo_tasks.csv"
DEMO_ELEMENTS = DATA / "demo_elements.yaml"
DEMO_SCENARIO = DATA / "demo_scenario.yaml"
DEMO_PLAN = DATA / "demo_plan.yaml"


def load_inputs(hm, workload: str) -> dict:
    """Load and validate a workload's inputs the way its command does.

    Returns the loaded objects: ``designs`` maps a design name to
    ``(configuration, tasks file, elements file)``.
    """
    if workload == "run_trace":
        config = hm.load_configuration(DEMO_TASKS, DEMO_ELEMENTS)
        designs = {"demo": (config, DEMO_TASKS, DEMO_ELEMENTS)}
        scenario = hm.load_scenario(DEMO_SCENARIO)
        plan = None
    else:
        plan = hm.load_plan(DEMO_PLAN)
        named = plan.configurations[0]
        designs = {named.name: (named.load(), named.tasks, named.elements)}
        scenario = plan.load_scenario()
    for config, _tasks, _elements in designs.values():
        errors = [v for v in hm.cross_validate(scenario, config) if v.severity == "error"]
        if errors:
            raise hm.ConfigurationError(errors)
    return {"designs": designs, "scenario": scenario, "plan": plan}


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import hmisim

    load_inputs(hmisim, argv[0])
    print(json.dumps({"setup_s": time.perf_counter() - _START}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
