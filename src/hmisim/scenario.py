"""Scenario files: the environment a cockpit design is evaluated in.

A scenario is a YAML document describing everything around the task
catalog: the road availability process (or a fixed timeline for scripted
runs), the scripted speed signal, the driver's periodic cognitive
functions, which machine tasks each vehicle event emits, which driver
tasks act as automation controls, and which ground-truth parameters the
driver tracks.  See the bundled ``data/demo_scenario.yaml`` for the full
schema in use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path
from typing import Any, Iterator

from .driver import ALL_LEVELS, AwarenessParameter, CognitiveFunction, default_sigma
from .tasks import Configuration, ConfigurationError, Initiator, Violation
from .tasks import as_list, as_mapping, as_number, name_of, named_entries, optional, optional_name, read_yaml
from .vehicle import (
    BINDING_EVENTS,
    GROUND_TRUTH_PARAMETERS,
    MAX_LEVEL,
    DwellParams,
    EventBindings,
    RoadProcessParams,
    RoadSegment,
    RoadTimeline,
)

#: Shortest mean or period, in seconds, of a periodic source (speed cycle, road dwell,
#: cognitive function): it bounds the events a trial of a given length can fire.
MIN_INTERVAL = 0.1


@dataclass(frozen=True)
class SpeedScript:
    """Piecewise-constant speed signal: ``(time, value)`` steps from t = 0 (a
    constant is one step), or, once ``period`` is set, ``values`` in a cycle."""

    steps: tuple[tuple[float, float], ...] = ((0.0, 0.0),)
    period: float = 0.0
    values: tuple[float, ...] = ()

    def initial_value(self) -> float:
        return self.values[0] if self.period else self.steps[0][1]

    def changes(self) -> Iterator[tuple[float, float]]:
        """The (time, value) changes after t = 0, in time order; a cycle's have no end."""
        if not self.period:
            return iter(self.steps[1:])
        return ((k * self.period, self.values[k % len(self.values)]) for k in count(1))


@dataclass(frozen=True)
class ControlBinding:
    """A driver task that operates the automation on completion."""

    action: str  # "switch_up" | "switch_down"
    target: int | None = None


@dataclass
class VehicleSettings:
    initial_level: int = 0
    tor_lead_seconds: float = 60.0
    tor_final_seconds: float = 10.0


@dataclass
class Scenario:
    name: str
    road: RoadProcessParams | RoadTimeline
    speed: SpeedScript
    cognitive_functions: list[CognitiveFunction]
    bindings: EventBindings
    controls: dict[str, ControlBinding]
    awareness: dict[str, AwarenessParameter]
    vehicle: VehicleSettings = field(default_factory=VehicleSettings)


class ScenarioError(ConfigurationError):
    """Scenario input failed validation."""


# ---------------------------------------------------------------------------
# loading

def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    where = str(path)
    issues: list[Violation] = []
    raw = read_yaml(path, "scenario", issues)
    if raw is None:
        raise ScenarioError(issues)

    name = optional_name(raw, "name", where, issues) or path.stem
    road = _parse_road(raw.get("road"), where, issues)
    speed = _parse_speed(raw.get("speed"), where, issues)
    functions = _parse_functions(raw.get("cognitive_functions"), where, issues)
    bindings = _parse_bindings(raw.get("bindings"), where, issues)
    controls = _parse_controls(raw.get("controls"), where, issues)
    awareness = _parse_awareness(raw.get("awareness"), where, issues)
    vehicle = _parse_vehicle(raw.get("vehicle"), where, issues)

    if issues:
        raise ScenarioError(issues)
    return Scenario(
        name=name,
        road=road,
        speed=speed,
        cognitive_functions=functions,
        bindings=bindings,
        controls=controls,
        awareness=awareness,
        vehicle=vehicle,
    )


def _parse_road(
    raw: Any, where: str, issues: list[Violation]
) -> RoadProcessParams | RoadTimeline | None:
    where = f"{where} road"
    if not isinstance(raw, dict):
        issues.append(Violation("error", where, "scenario needs a 'road' section"))
        return None
    reported = len(issues)  # past this, a rejected section ends the road without follow-on errors
    if "fixed_segments" in raw:
        segments: list[RoadSegment] = []
        for i, row in enumerate(as_list(raw["fixed_segments"], "fixed_segments", where, issues)):
            if not (isinstance(row, (list, tuple)) and len(row) == 3):
                issues.append(Violation("error", where, f"fixed_segments[{i}] must be [start, end, max_level]"))
                continue
            start = as_number(row[0], f"fixed_segments[{i}] start", where, issues)
            end = as_number(row[1], f"fixed_segments[{i}] end", where, issues)
            level = _parse_level(row[2], f"{where} fixed_segments[{i}]", issues)
            if start is not None and end is not None and level is not None:
                segments.append(RoadSegment(start, end, level))
        if len(issues) > reported:
            return None
        if not segments:
            issues.append(Violation("error", where, "fixed_segments is empty"))
            return None
        try:
            return RoadTimeline(segments=tuple(segments))
        except ValueError as exc:
            issues.append(Violation("error", where, str(exc)))
            return None
    if "process" not in raw:
        issues.append(Violation("error", where, "road needs 'process' or 'fixed_segments'"))
        return None
    proc = as_mapping(raw["process"], "process", where, issues)
    if len(issues) > reported:
        return None
    dwell: dict[int, DwellParams] = {}
    dwell_levels: set[int] = set()
    for key, entry in as_mapping(proc.get("dwell"), "dwell", where, issues).items():
        level = _parse_level(key, f"{where} dwell", issues, dwell_levels)
        if level is None or not isinstance(entry, dict):
            continue
        for_level = f"for level {level}"
        mean = as_number(entry.get("mean"), f"dwell mean {for_level}", where, issues, at_least=MIN_INTERVAL)
        minimum = as_number(optional(entry, "min", 0.0), f"dwell min {for_level}", where, issues, at_least=0)
        maximum = math.inf  # no upper clamp unless one is given
        if entry.get("max") is not None:
            maximum = as_number(entry["max"], f"dwell max {for_level}", where, issues, at_least=MIN_INTERVAL)
        if mean is None or minimum is None or maximum is None:
            continue
        if minimum > maximum:
            issues.append(Violation("error", where, f"dwell bounds for level {level} need min <= max"))
            continue
        dwell[level] = DwellParams(mean=mean, minimum=minimum, maximum=maximum)
    # A rejected dwell section or entry is reported once, not again as a level without dwell.
    check_dwell = len(issues) == reported
    transitions: dict[int, dict[int, float]] = {}
    sources: set[int] = set()
    for key, row in as_mapping(proc.get("transitions"), "transitions", where, issues).items():
        level = _parse_level(key, f"{where} transitions", issues, sources)
        if level is None:
            continue
        out: dict[int, float] = {}
        targets: set[int] = set()
        for target_key, weight in as_mapping(row, f"transitions[{level}]", where, issues).items():
            target = _parse_level(target_key, f"{where} transitions[{level}]", issues, targets)
            if target is None:
                continue
            if target == level:
                issues.append(Violation("error", where, f"self-transition for level {level}"))
                continue
            weight = as_number(weight, f"transition weight {level}->{target}", where, issues, above=0)
            if weight is not None:
                out[target] = weight
        if not math.isfinite(sum(weight for _, weight in sorted(out.items()))):  # summed as the draw sums them
            issues.append(Violation("error", where, f"transition weights from level {level} must have a finite sum"))
        transitions[level] = out
    initial_level = _parse_level(proc.get("initial_level"), f"{where} process", issues)
    if initial_level is None:
        return None
    if check_dwell:
        if initial_level not in dwell:
            issues.append(Violation("error", where, f"initial level {initial_level} has no dwell parameters"))
        reachable = {t for row in transitions.values() for t in row}
        for level in sorted(reachable - dwell.keys()):
            issues.append(Violation("error", where, f"reachable level {level} has no dwell parameters"))
    return RoadProcessParams(initial_level=initial_level, dwell=dwell, transitions=transitions)


def _parse_level(key: Any, where: str, issues: list[Violation], seen: set[int] | None = None) -> int | None:
    """An automation level (an integer, integer text or a whole float, not a bool), or
    None after one located error.  ``seen`` collects the levels a level-keyed section
    has given so far; a level given twice is an error."""
    try:
        level = int(key)
        if isinstance(key, bool) or (isinstance(key, float) and key != level):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        issues.append(Violation("error", where, f"automation level expected, got {key!r}"))
        return None
    if not 0 <= level <= MAX_LEVEL:
        issues.append(Violation("error", where, f"automation level {level} outside 0..{MAX_LEVEL}"))
        return None
    if seen is not None:
        if level in seen:
            issues.append(Violation("error", where, f"automation level {level} given twice"))
            return None
        seen.add(level)
    return level


def _parse_speed(raw: Any, where: str, issues: list[Violation]) -> SpeedScript:
    where = f"{where} speed"
    fallback = SpeedScript()
    if raw is None:
        return fallback
    reported = len(issues)  # past this, a rejected section ends the speed without follow-on errors
    raw = as_mapping(raw, "speed", where, issues)
    if len(issues) > reported:
        return fallback
    if "constant" in raw:
        constant = as_number(raw["constant"], "speed constant", where, issues)
        return fallback if constant is None else SpeedScript(steps=((0.0, constant),))
    if "steps" in raw:
        steps: list[tuple[float, float]] = []
        for i, row in enumerate(as_list(raw["steps"], "steps", where, issues)):
            if not (isinstance(row, (list, tuple)) and len(row) == 2):
                issues.append(Violation("error", where, f"steps[{i}] must be [time, value]"))
                continue
            time = as_number(row[0], f"steps[{i}] time", where, issues)
            value = as_number(row[1], f"steps[{i}] value", where, issues)
            if time is not None and value is not None:
                steps.append((time, value))
        if len(issues) > reported:
            return fallback
        if not steps or steps[0][0] != 0.0:
            issues.append(Violation("error", where, "speed steps must start at time 0"))
            return fallback
        if not all(a[0] < b[0] for a, b in zip(steps, steps[1:])):
            issues.append(Violation("error", where, "speed step times must increase"))
            return fallback
        return SpeedScript(steps=tuple(steps))
    if "cycle" in raw:
        cycle = as_mapping(raw["cycle"], "cycle", where, issues)
        if len(issues) > reported:
            return fallback
        period = as_number(cycle.get("period"), "cycle period", where, issues, at_least=MIN_INTERVAL)
        values = tuple(
            as_number(v, f"cycle values[{i}]", where, issues)
            for i, v in enumerate(as_list(cycle.get("values"), "cycle values", where, issues))
        )
        if len(issues) > reported:
            return fallback
        if not values:
            issues.append(Violation("error", where, "cycle needs a non-empty values list"))
            return fallback
        return SpeedScript(period=period, values=values)
    issues.append(Violation("error", where, "speed needs one of constant/steps/cycle"))
    return fallback


def _parse_functions(raw: Any, where: str, issues: list[Violation]) -> list[CognitiveFunction]:
    functions: list[CognitiveFunction] = []
    missing = "needs at least 'name' and 'task'"
    entries = named_entries(raw, "cognitive_functions", ("name", "task"), where, issues, missing, "cognitive function")
    for spot, names, entry in entries:
        mean = as_number(entry.get("mean"), "mean", spot, issues, at_least=MIN_INTERVAL)
        if mean is None:
            continue
        sigma = as_number(optional(entry, "sigma", default_sigma(mean)), "sigma", spot, issues, at_least=0)
        if sigma is None:
            continue
        enabled = ALL_LEVELS
        if entry.get("levels") is not None:
            levels = (_parse_level(lv, spot, issues) for lv in as_list(entry["levels"], "levels", spot, issues))
            enabled = frozenset(lv for lv in levels if lv is not None)
        functions.append(
            CognitiveFunction(
                name=names["name"],
                mean_interval=mean,
                sigma=sigma,
                target_task=names["task"],
                enabled_levels=enabled,
            )
        )
    return functions


def _parse_bindings(raw: Any, where: str, issues: list[Violation]) -> EventBindings:
    where = f"{where} bindings"
    bindings: EventBindings = {}
    raw = as_mapping(raw, "bindings", where, issues)

    def names(value: Any, spot: str) -> list[str]:
        if value is None:
            return []
        found = [name_of(v) for v in value] if isinstance(value, list) else None
        if found is None or None in found:
            issues.append(Violation("error", spot, "expected a list of task names"))
            return []
        return found

    for event in BINDING_EVENTS:
        if event in ("tor60", "tor10"):
            bindings[event, None] = names(raw.get(event), f"{where} {event}")
            continue
        levels: set[int] = set()
        for key, value in as_mapping(raw.get(event), event, where, issues).items():
            if event == "level_change" and key == "any":
                bindings[event, key] = names(value, f"{where} level_change.any")
                continue
            level = _parse_level(key, f"{where} {event}", issues, levels)
            if level is not None:
                bindings[event, level] = names(value, f"{where} {event}[{level}]")
    for key in raw:
        if key not in BINDING_EVENTS:
            issues.append(Violation("error", where, f"unknown binding event {key!r}"))
    return bindings


def _parse_controls(raw: Any, where: str, issues: list[Violation]) -> dict[str, ControlBinding]:
    where = f"{where} controls"
    controls: dict[str, ControlBinding] = {}
    for task_name, entry in as_mapping(raw, "controls", where, issues).items():
        name = name_of(task_name)
        if name is None:
            issues.append(Violation("error", where, f"a control needs a task name, got {task_name!r}"))
            continue
        if not isinstance(entry, dict) or entry.get("action") not in ("switch_up", "switch_down"):
            issues.append(Violation("error", where, f"{task_name!r} needs action switch_up or switch_down"))
            continue
        target = entry.get("target")
        parsed_target: int | None = None
        if target is not None:
            parsed_target = _parse_level(target, f"{where} {name}", issues)
            if parsed_target is None:
                continue
        controls[name] = ControlBinding(action=entry["action"], target=parsed_target)
    return controls


def _parse_awareness(raw: Any, where: str, issues: list[Violation]) -> dict[str, AwarenessParameter]:
    where = f"{where} awareness"
    parameters: dict[str, AwarenessParameter] = {}
    for key, entry in as_mapping(raw, "awareness", where, issues).items():
        name = name_of(key)
        if name not in GROUND_TRUTH_PARAMETERS:
            known = ", ".join(GROUND_TRUTH_PARAMETERS)
            issues.append(Violation("error", where, f"{key!r} has no ground-truth counterpart (known: {known})"))
            continue
        entry = as_mapping(entry, repr(name), where, issues)
        resolution = entry.get("resolution")
        if resolution is not None:
            resolution = as_number(resolution, f"{name!r} resolution", where, issues, above=0)
            if resolution is None:
                continue
        initial = entry.get("initial")  # any ground-truth value; an int or float must be a finite number
        if type(initial) in (int, float) and as_number(initial, f"{name!r} initial", where, issues) is None:
            continue
        parameters[name] = AwarenessParameter(name=name, resolution=resolution, initial=initial)
    return parameters


def _parse_vehicle(raw: Any, where: str, issues: list[Violation]) -> VehicleSettings:
    where = f"{where} vehicle"
    settings = VehicleSettings()
    raw = as_mapping(raw, "vehicle", where, issues)
    level = _parse_level(optional(raw, "initial_level", 0), where, issues)
    if level is not None:
        settings.initial_level = level
    lead, final = (
        as_number(optional(raw, key, getattr(settings, key)), key, where, issues, at_least=0)
        for key in ("tor_lead_seconds", "tor_final_seconds")
    )
    if lead is None or final is None:
        return settings
    if lead < final:
        issues.append(Violation("error", where, "need tor_lead_seconds >= tor_final_seconds"))
        return settings
    settings.tor_lead_seconds = lead
    settings.tor_final_seconds = final
    return settings


# ---------------------------------------------------------------------------
# cross-validation against a configuration

def cross_validate(scenario: Scenario, config: Configuration) -> list[Violation]:
    """Check every reference between a scenario and a task configuration.

    Severity ``error`` blocks a trial.  Bound or control task names missing
    from the catalog are warnings only: removing a signal from a design is
    a legitimate design change, and the emission is simply skipped.
    """
    issues: list[Violation] = []
    tasks = config.task_map()
    functions = {f.name: f for f in scenario.cognitive_functions}

    for function in scenario.cognitive_functions:
        where = f"cognitive function {function.name}"
        target = tasks.get(function.target_task)
        if target is None:
            issues.append(Violation("error", where, f"targets unknown task {function.target_task!r}"))
        elif target.initiator is not Initiator.DRIVER:
            issues.append(Violation("error", where, f"target {target.name!r} must be driver-initiated"))

    for task in config.tasks:
        where = f"task {task.name}"
        if task.cognitive_function_trigger is not None:
            function = functions.get(task.cognitive_function_trigger)
            if function is None:
                issues.append(
                    Violation(
                        "error",
                        where,
                        f"names cognitive function {task.cognitive_function_trigger!r} "
                        "which the scenario does not define",
                    )
                )
            elif function.target_task != task.name:
                issues.append(
                    Violation(
                        "error",
                        where,
                        f"cognitive function {function.name!r} targets {function.target_task!r}, "
                        f"not this task",
                    )
                )
        if task.awareness_parameter is not None and task.awareness_parameter not in scenario.awareness:
            issues.append(
                Violation(
                    "error",
                    where,
                    f"awareness parameter {task.awareness_parameter!r} is not tracked by the scenario",
                )
            )

    for (event, level), names in scenario.bindings.items():
        spot = f"bindings {event}" if level is None else f"bindings {event}[{level}]"
        for name in names:
            task = tasks.get(name)
            if task is None:
                issues.append(
                    Violation("warning", spot, f"bound task {name!r} is not in the catalog; skipped")
                )
            elif task.initiator is not Initiator.MACHINE:
                issues.append(Violation("error", spot, f"bound task {name!r} must be machine-initiated"))

    for name, control in scenario.controls.items():
        task = tasks.get(name)
        if task is None:
            issues.append(
                Violation("warning", "controls", f"control task {name!r} is not in the catalog; skipped")
            )
        elif task.initiator is not Initiator.DRIVER:
            issues.append(Violation("error", "controls", f"control task {name!r} must be driver-initiated"))

    return issues
