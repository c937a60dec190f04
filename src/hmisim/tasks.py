"""Task catalog, interface element catalog, and configuration loading.

A cockpit design ("configuration") is a list of interaction tasks, the
catalog of interface elements they live on, and the workload scale used
to resolve descriptor strings into demand values.

Task files are CSV with one task per row under this header, whose names
may come in any order and have blanks around them, but none twice::

    Name, Description, Location, CognitiveDescriptor, PerceptualDescriptor,
    PerceptionType, PerceptualWorkload, CognitiveWorkload, Duration,
    GazeTime, CognitiveFunctionTrigger, AwarenessParameter, Triggers,
    Priority, Initiator

Empty cells are absent optionals, and a row's errors are located at
``row N``, the file line on which the row ends.  Numeric workload cells
override the scale (with a warning when the two disagree); otherwise the
workload is filled from the descriptor.  Validation reports every
violation, not just the first.
"""

from __future__ import annotations

import csv
import io
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Iterator, TextIO

import yaml

from .workload import (
    AttentionalChannel,
    ScaleCategory,
    UnknownDescriptorError,
    WorkloadScale,
    perceptual_category,
)

#: The task catalog's columns, in file order, and the ``Task`` field each one holds.
TASK_FIELDS = {
    "Name": "name",
    "Description": "description",
    "Location": "location",
    "CognitiveDescriptor": "cognitive_descriptor",
    "PerceptualDescriptor": "perceptual_descriptor",
    "PerceptionType": "perception_type",
    "PerceptualWorkload": "perceptual_workload",
    "CognitiveWorkload": "cognitive_workload",
    "Duration": "duration",
    "GazeTime": "gaze_time",
    "CognitiveFunctionTrigger": "cognitive_function_trigger",
    "AwarenessParameter": "awareness_parameter",
    "Triggers": "triggers",
    "Priority": "priority",
    "Initiator": "initiator",
}
TASK_COLUMNS = list(TASK_FIELDS)

#: Recognized but derived: checked against Duration + 2*GazeTime, never stored.
DERIVED_COLUMNS = {"TotalTime"}

WORKLOAD_MAX = 10.0
_TOLERANCE = 1e-9


class Initiator(str, Enum):
    DRIVER = "driver"
    MACHINE = "machine"


@dataclass(frozen=True)
class InterfaceElement:
    """A physical interaction surface (display, speaker, actuator, ...).

    ``gaze_time`` is the one-way visual refocus time road -> element;
    ``on_road`` marks elements (head-up display) that keep the driver's
    eyes on the road scene.
    """

    name: str
    on_road: bool
    gaze_time: float = 0.0


@dataclass
class Task:
    name: str
    location: str
    perception_type: AttentionalChannel
    duration: float
    priority: int
    initiator: Initiator
    description: str = ""
    cognitive_descriptor: str | None = None
    perceptual_descriptor: str | None = None
    perceptual_workload: float = 0.0
    cognitive_workload: float = 0.0
    gaze_time: float = 0.0
    cognitive_function_trigger: str | None = None
    awareness_parameter: str | None = None
    triggers: str | None = None

    def total_time(self) -> float:
        """Full channel occupancy: gaze there + execution + gaze back."""
        return self.duration + 2.0 * self.gaze_time


@dataclass(frozen=True)
class Violation:
    severity: str  # "error" | "warning"
    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.where}: {self.message}"


class ConfigurationError(Exception):
    """Configuration input failed validation; carries every violation.

    The violations are the only argument, so the error survives pickling from a pool worker.
    """

    def __init__(self, violations: list[Violation]) -> None:
        super().__init__(violations)
        self.violations = violations

    def __str__(self) -> str:
        lines = "\n".join(f"  {v}" for v in self.violations)
        return f"{len(self.violations)} configuration problem(s):\n{lines}"


@dataclass
class Configuration:
    tasks: list[Task]
    elements: dict[str, InterfaceElement]
    scale: WorkloadScale
    warnings: list[Violation] = field(default_factory=list, compare=False)

    def task_map(self) -> dict[str, Task]:
        return {t.name: t for t in self.tasks}


# ---------------------------------------------------------------------------
# reading input files

def read_input(path: Path, kind: str, issues: list[Violation]) -> str | None:
    """The UTF-8 text of a ``kind`` input file less a leading byte-order mark (spreadsheet
    "CSV UTF-8" exports write one), or None after one located error."""
    try:
        return path.read_bytes().decode("utf-8-sig")
    except FileNotFoundError:
        message = f"{kind} file not found"
    except OSError as exc:
        message = f"{kind} file cannot be read: {exc.strerror or exc}"
    except UnicodeDecodeError as exc:
        message = f"{kind} file is not UTF-8: {exc}"
    issues.append(Violation("error", str(path), message))
    return None


@contextmanager
def replacing(path: str | Path) -> Iterator[TextIO]:
    """Write ``path`` whole or not at all: a UTF-8 temp file beside it, written as given
    (no newline translation), that replaces ``path`` when the block ends and is removed
    if the block raises."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    handle = open(temp, "w", newline="", encoding="utf-8")
    try:
        with handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_csv(path: str | Path, header: list[str], rows: Iterable[list]) -> None:
    """Write a header and rows as a UTF-8 CSV file with ``\\n`` line ends, through :func:`replacing`."""
    with replacing(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


class _DuplicateKey(yaml.YAMLError):
    """A mapping gives one key twice."""


class _UniqueKeyLoader(yaml.SafeLoader):
    """A ``SafeLoader`` whose mappings refuse a key equal to an earlier one.

    Keys are compared as parsed values, and text as the name it gives (see ``name_of``), so ``4``
    and ``4.0`` are one key and so are ``t`` and ``' t '``; a merge key (``<<``) is not a key of
    its mapping, so the keys it brings in may be overridden.
    """

    def construct_mapping(self, node: yaml.MappingNode, deep: bool = False) -> dict:
        first_lines: dict[Any, int] = {}
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key, line = self.construct_object(key_node, deep=True), key_node.start_mark.line + 1
            same = key.strip() if isinstance(key, str) else key
            try:
                first = first_lines.get(same)
            except TypeError:  # an unhashable key: the base constructor reports it
                continue
            if first is not None:
                raise _DuplicateKey(f"duplicate key {key!r} at line {line} (first at line {first})")
            first_lines[same] = line
        return super().construct_mapping(node, deep)


def read_yaml(path: Path, kind: str, issues: list[Violation]) -> dict | None:
    """The top-level mapping of a YAML input file (``{}`` if empty), or None after one located error."""
    text = read_input(path, kind, issues)
    if text is None:
        return None
    loader = _UniqueKeyLoader(text)
    loader.name = str(path)  # what PyYAML's error marks call the input
    try:
        raw = loader.get_single_data()
    except _DuplicateKey as exc:
        issues.append(Violation("error", str(path), str(exc)))
        return None
    except yaml.YAMLError as exc:
        issues.append(Violation("error", str(path), f"YAML parse failure: {exc}"))
        return None
    finally:
        loader.dispose()
    if raw is None or isinstance(raw, dict):
        return raw or {}
    issues.append(Violation("error", str(path), f"{kind} must be a mapping, got {raw!r}"))
    return None


def optional(mapping: dict, key: str, default: Any) -> Any:
    """An optional YAML key's value, or ``default`` when it is left out or null."""
    value = mapping.get(key)
    return default if value is None else value


def as_mapping(value: Any, what: str, where: str, issues: list[Violation]) -> dict:
    """A YAML section as a mapping: ``{}`` if absent, or after one located error if not a mapping."""
    return _shaped(value, dict, "a mapping", what, where, issues)


def as_list(value: Any, what: str, where: str, issues: list[Violation]) -> list:
    """A YAML section as a list: ``[]`` if absent, or after one located error if not a list."""
    return _shaped(value, list, "a list", what, where, issues)


def name_of(value: Any) -> str | None:
    """A name or path as every input file gives it: text without surrounding blanks, or a number.

    None if null or blank, and for any other value (a bool, a list, a mapping, a date).
    """
    if isinstance(value, str):
        return value.strip() or None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return str(value)
    return None


def not_a_name(what: str, value: Any) -> str | None:
    """The error text for a value given as a name that is not one; None for a name, null or blank text."""
    if value is None or isinstance(value, str) or name_of(value) is not None:
        return None
    return f"{what} must be text or a number, got {value!r}"


def optional_name(mapping: dict, key: str, where: str, issues: list[Violation]) -> str | None:
    """An optional name key's name; None if left out, null or blank, or after one located error if not a name."""
    value = mapping.get(key)
    wrong = not_a_name(key, value)
    if wrong:
        issues.append(Violation("error", where, wrong))
    return name_of(value)


def named_entries(
    value: Any, section: str, needs: tuple[str, ...], where: str, issues: list[Violation], missing: str, noun: str
) -> Iterator[tuple[str, dict[str, str], dict]]:
    """Each mapping of a list section that names every key in ``needs``: its location, those names, the mapping.

    An entry that is not a mapping or lacks one of those names is the located error ``missing``,
    which names the first value that is not a name (see :func:`not_a_name`); one whose first
    name repeats an earlier entry's is ``duplicate {noun} {name!r}``.
    """
    seen: set[str] = set()
    for i, entry in enumerate(as_list(value, section, where, issues)):
        spot = f"{where} {section}[{i}]"
        names = {key: name_of(entry.get(key)) for key in needs} if isinstance(entry, dict) else {}
        if not names or None in names.values():
            wrong = [text for key in names if (text := not_a_name(key, entry.get(key)))]
            issues.append(Violation("error", spot, f"{missing}; {wrong[0]}" if wrong else missing))
        elif names[needs[0]] in seen:
            issues.append(Violation("error", spot, f"duplicate {noun} {names[needs[0]]!r}"))
        else:
            seen.add(names[needs[0]])
            yield spot, names, entry


def _shaped(value: Any, shape: type, noun: str, what: str, where: str, issues: list[Violation]) -> Any:
    if isinstance(value, shape):
        return value
    if value is not None:
        issues.append(Violation("error", where, f"{what} must be {noun}, got {value!r}"))
    return shape()


def as_number(
    value: Any,
    what: str,
    where: str,
    issues: list[Violation],
    *,
    above: float | None = None,
    at_least: float | None = None,
    at_most: float | None = None,
) -> float | None:
    """An input value as a finite float within the bounds, or None after one located error.

    A number is anything ``float()`` accepts (an int, a float, numeric text) except a bool.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        issues.append(Violation("error", where, f"{what} must be a number, got {value!r}"))
        return None
    if (
        math.isfinite(number)
        and (above is None or number > above)
        and (at_least is None or number >= at_least)
        and (at_most is None or number <= at_most)
    ):
        return number
    bounds = ((">", above), (">=", at_least), ("<=", at_most))
    rule = "".join(f"{sign} {bound:g} and " for sign, bound in bounds if bound is not None)
    issues.append(Violation("error", where, f"{what} must be {rule}finite, got {value!r}"))
    return None


def as_integer(
    value: Any,
    what: str,
    where: str,
    issues: list[Violation],
    *,
    at_least: int | None = None,
    at_most: int | None = None,
) -> int | None:
    """An input value as an int within the bounds, or None after one located error.

    An integer is an ``int`` but not a bool (YAML's ``true`` is no count).
    """
    if (
        isinstance(value, int)
        and not isinstance(value, bool)
        and (at_least is None or value >= at_least)
        and (at_most is None or value <= at_most)
    ):
        return value
    bounds = ((">=", at_least), ("<=", at_most))
    rule = " and ".join(f"{sign} {bound}" for sign, bound in bounds if bound is not None)
    issues.append(Violation("error", where, f"{what} must be an integer {rule}".rstrip() + f", got {value!r}"))
    return None


# ---------------------------------------------------------------------------
# parsing helpers

def _normalize_channel(raw: str) -> AttentionalChannel | None:
    text = raw.strip().lower().replace("_", " ").replace("-", " ")
    text = "-".join(text.split())
    try:
        return AttentionalChannel(text)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# element and scale files

def _load_elements(path: Path, issues: list[Violation]) -> dict[str, InterfaceElement] | None:
    """The element catalog, or None after an error that leaves it without every element's name."""
    where = str(path)
    raw = read_yaml(path, "element", issues)
    if raw is None:
        return None
    if "elements" not in raw:
        issues.append(Violation("error", where, "expected a top-level 'elements' list"))
        return None
    reported = len(issues)
    entries = as_list(raw["elements"], "elements", where, issues)
    if len(issues) > reported:
        return None
    elements: dict[str, InterfaceElement] = {}
    unnamed = "each element needs at least a 'name'"
    for spot, names, entry in named_entries(entries, "elements", ("name",), where, issues, unnamed, "element name"):
        on_road = optional(entry, "on_road", False)
        checked = len(issues)
        if not isinstance(on_road, bool):
            issues.append(Violation("error", spot, f"on_road must be a boolean, got {on_road!r}"))
        gaze = as_number(optional(entry, "gaze_time", 0.0), "gaze_time", spot, issues, at_least=0)
        if len(issues) > checked:
            # The load fails already; keeping the name known spares the tasks on it follow-on errors.
            on_road, gaze = False, 0.0
        elements[names["name"]] = InterfaceElement(name=names["name"], on_road=on_road, gaze_time=gaze)
    every_named = all(isinstance(entry, dict) and name_of(entry.get("name")) is not None for entry in entries)
    return elements if every_named else None


def _load_scale(path: Path, issues: list[Violation]) -> WorkloadScale:
    where = str(path)
    raw = read_yaml(path, "scale", issues)
    if raw is None:
        return WorkloadScale()
    if "scale" not in raw:
        issues.append(Violation("error", where, "expected a top-level 'scale' mapping"))
        return WorkloadScale()
    overrides: dict[tuple[ScaleCategory, str], float] = {}
    for cat_name, table in as_mapping(raw["scale"], "scale", where, issues).items():
        try:
            category = ScaleCategory(str(cat_name).strip().lower())
        except ValueError:
            issues.append(Violation("error", where, f"unknown scale category {cat_name!r}"))
            continue
        if not isinstance(table, dict):
            issues.append(Violation("error", where, f"category {cat_name!r} must map descriptors to values"))
            continue
        for descriptor, value in table.items():
            name = name_of(descriptor)
            if name is None:
                issues.append(Violation("error", where, f"scale descriptor must be a name, got {descriptor!r}"))
                continue
            what = f"({cat_name}, {descriptor!r}) value"
            value = as_number(value, what, where, issues, above=0, at_most=WORKLOAD_MAX)
            if value is not None:
                overrides[(category, name)] = value
    return WorkloadScale().with_overrides(overrides)


# ---------------------------------------------------------------------------
# task CSV

def _parse_task_row(
    header: list[str],
    cells: list[str],
    where: str,
    elements: dict[str, InterfaceElement],
    scale: WorkloadScale,
    errors: list[Violation],
    warnings: list[Violation],
) -> Task | None:
    row = dict(zip(header, cells))  # a short row's missing cells are empty

    def cell(column: str) -> str:
        return row.get(column, "").strip()

    name = cell("Name")
    if not name:
        errors.append(Violation("error", where, "Name is required"))
        return None
    where = f"{where} ({name})"
    extra = [value for value in cells[len(header):] if value.strip()]
    if extra:
        errors.append(Violation("error", where, f"cells past the header's last column: {extra}"))

    channel = _normalize_channel(cell("PerceptionType"))
    if channel is None:
        errors.append(
            Violation("error", where, f"PerceptionType not recognized: {cell('PerceptionType')!r}")
        )
        return None

    duration = as_number(cell("Duration"), "Duration", where, errors, above=0) if cell("Duration") else None
    if cell("Duration") == "":
        errors.append(Violation("error", where, "Duration is required"))
    priority: int | None = None
    if cell("Priority") == "":
        errors.append(Violation("error", where, "Priority is required"))
    else:
        try:
            priority = int(cell("Priority"))
        except ValueError:
            errors.append(Violation("error", where, f"Priority is not an integer: {cell('Priority')!r}"))

    initiator: Initiator | None = None
    try:
        initiator = Initiator(cell("Initiator").lower())
    except ValueError:
        errors.append(
            Violation("error", where, f"Initiator must be driver or machine, got {cell('Initiator')!r}")
        )

    location = cell("Location")
    element = elements.get(location)

    # Gaze time: explicit cell wins; otherwise visual tasks inherit the
    # element's refocus time and non-visual tasks get 0.
    if cell("GazeTime"):
        gaze = as_number(cell("GazeTime"), "GazeTime", where, errors, at_least=0)
    elif channel is AttentionalChannel.VISUAL and element is not None:
        gaze = element.gaze_time
    else:
        gaze = 0.0

    cog_desc = cell("CognitiveDescriptor") or None
    perc_desc = cell("PerceptualDescriptor") or None

    def resolve(column: str, descriptor: str | None, category: ScaleCategory) -> float | None:
        from_scale: float | None = None
        if descriptor is not None:
            try:
                from_scale = scale.lookup(category, descriptor)
            except UnknownDescriptorError as exc:
                errors.append(Violation("error", where, str(exc)))
        if not cell(column):
            if descriptor is None:
                errors.append(Violation("error", where, f"{column} missing and no descriptor to fill it from"))
            return from_scale
        explicit = as_number(cell(column), column, where, errors, above=0, at_most=WORKLOAD_MAX)
        if explicit is not None and from_scale is not None and abs(explicit - from_scale) > _TOLERANCE:
            warnings.append(
                Violation(
                    "warning",
                    where,
                    f"{column}={explicit} disagrees with scale value {from_scale} "
                    f"for {descriptor!r}; keeping the explicit value",
                )
            )
        return explicit

    perc = resolve("PerceptualWorkload", perc_desc, perceptual_category(channel))
    cog = resolve("CognitiveWorkload", cog_desc, ScaleCategory.COGNITIVE)

    if cell("TotalTime"):
        # TotalTime is derived and never stored, so a bad cell is only a warning.
        unusable: list[Violation] = []
        supplied = as_number(cell("TotalTime"), "TotalTime", where, unusable)
        warnings.extend(Violation("warning", v.where, f"{v.message}; ignoring it") for v in unusable)
        if (
            supplied is not None
            and duration is not None
            and gaze is not None
            and abs(supplied - (duration + 2.0 * gaze)) > _TOLERANCE
        ):
            warnings.append(
                Violation(
                    "warning",
                    where,
                    f"TotalTime={supplied} is inconsistent with Duration + 2*GazeTime "
                    f"= {duration + 2.0 * gaze}; ignoring it",
                )
            )

    if duration is None or priority is None or initiator is None or gaze is None or perc is None or cog is None:
        return None
    return Task(
        name=name,
        description=cell("Description"),
        location=location,
        cognitive_descriptor=cog_desc,
        perceptual_descriptor=perc_desc,
        perception_type=channel,
        perceptual_workload=perc,
        cognitive_workload=cog,
        duration=duration,
        gaze_time=gaze,
        cognitive_function_trigger=cell("CognitiveFunctionTrigger") or None,
        awareness_parameter=cell("AwarenessParameter") or None,
        triggers=cell("Triggers") or None,
        priority=priority,
        initiator=initiator,
    )


def load_configuration(
    task_file: str | Path,
    element_file: str | Path,
    scale_file: str | Path | None = None,
) -> Configuration:
    """Load and validate a full configuration.

    Raises :class:`ConfigurationError` listing *every* violation if any
    input is invalid; parse warnings are attached to the result.
    """
    errors: list[Violation] = []
    warnings: list[Violation] = []

    elements = _load_elements(Path(element_file), errors)
    if scale_file is not None:
        scale = _load_scale(Path(scale_file), errors)
    else:
        scale = WorkloadScale()

    tasks: list[Task] = []
    task_path = Path(task_file)
    text = read_input(task_path, "task", errors) or ""  # unreadable: reported, zero tasks
    reader = csv.reader(io.StringIO(text, newline=""))
    # The header is the first line that is not empty (csv reads an empty line as no cells).
    # Column names follow the name rule; a file of empty lines is a valid zero-task catalog.
    header = [column.strip() for column in next(filter(None, reader), [])]
    missing = [c for c in TASK_COLUMNS if c not in header] if header else []
    for column in missing:
        errors.append(Violation("error", str(task_path), f"missing column {column!r}"))
    repeated = [c for c in dict.fromkeys(header) if c and header.count(c) > 1]
    for column in repeated:
        errors.append(Violation("error", str(task_path), f"column {column!r} given twice"))
    for column in header:
        if column not in TASK_COLUMNS and column not in DERIVED_COLUMNS:
            warnings.append(Violation("warning", str(task_path), f"ignoring unknown column {column!r}"))
    if not missing and not repeated:
        for cells in filter(None, reader):  # csv reads a blank line as no cells
            where = f"{task_path} row {reader.line_num}"  # the line the row ends on
            task = _parse_task_row(header, cells, where, elements or {}, scale, errors, warnings)
            if task is not None:
                tasks.append(task)
    if elements is None:
        # The element file is reported already; checking locations against a catalog missing
        # names would add one follow-on error per task.
        elements = {t.location: InterfaceElement(t.location, on_road=False) for t in tasks}

    config = Configuration(tasks=tasks, elements=elements, scale=scale, warnings=warnings)
    errors.extend(validate(config))
    if errors:
        raise ConfigurationError(errors)
    return config


def validate(config: Configuration) -> list[Violation]:
    """Structural checks on an in-memory configuration.  Returns its errors; it has no warnings."""
    issues: list[Violation] = []
    seen: set[str] = set()
    names = {t.name for t in config.tasks}
    for task in config.tasks:
        where = f"task {task.name}"
        if task.name in seen:
            issues.append(Violation("error", where, "duplicate task name"))
        seen.add(task.name)
        if task.location not in config.elements:
            issues.append(Violation("error", where, f"location {task.location!r} is not a known element"))
        if not math.isfinite(task.duration) or task.duration <= 0:
            issues.append(Violation("error", where, f"duration must be > 0 and finite, got {task.duration}"))
        if not math.isfinite(task.gaze_time) or task.gaze_time < 0:
            issues.append(Violation("error", where, f"gaze_time must be >= 0 and finite, got {task.gaze_time}"))
        elif not math.isfinite(task.total_time()):  # finite parts whose sum overflows
            issues.append(Violation("error", where, f"duration + 2 * gaze_time must be finite, got {task.total_time()}"))
        if task.gaze_time != 0 and task.perception_type is not AttentionalChannel.VISUAL:
            issues.append(
                Violation(
                    "error",
                    where,
                    f"gaze_time must be 0 for non-visual tasks ({task.perception_type.value})",
                )
            )
        for label, value in (
            ("cognitive_workload", task.cognitive_workload),
            ("perceptual_workload", task.perceptual_workload),
        ):
            if not 0.0 < value <= WORKLOAD_MAX:
                issues.append(
                    Violation("error", where, f"{label} = {value} outside (0, {WORKLOAD_MAX}]")
                )
        if task.triggers is not None and task.triggers not in names:
            issues.append(Violation("error", where, f"triggers unknown task {task.triggers!r}"))
    for element in config.elements.values():
        if not math.isfinite(element.gaze_time) or element.gaze_time < 0:
            issues.append(
                Violation("error", f"element {element.name}", "gaze_time must be >= 0 and finite")
            )
    for value_key, value in config.scale.entries.items():
        if not 0.0 < value <= WORKLOAD_MAX:
            issues.append(
                Violation(
                    "error",
                    f"scale ({value_key[0].value}, {value_key[1]!r})",
                    f"value {value} outside (0, {WORKLOAD_MAX}]",
                )
            )
    issues.extend(_trigger_cycles(config))
    return issues


def _trigger_cycles(config: Configuration) -> list[Violation]:
    """Detect cycles in the follow-up (triggers) graph.

    Each task has at most one follow-up, so a walk from each task not yet
    visited runs along one chain until it leaves the catalog, meets a task
    an earlier walk visited, or closes a cycle on itself.
    """
    graph = {t.name: t.triggers for t in config.tasks}
    issues: list[Violation] = []
    done: set[str] = set()
    for start in graph:
        trail: dict[str, int] = {}  # task -> position along this walk
        node: str | None = start
        while node in graph and node not in done:
            if node in trail:
                cycle = [*list(trail)[trail[node]:], node]
                issues.append(
                    Violation("error", f"task {node}", f"trigger chain forms a cycle: {' -> '.join(cycle)}")
                )
                break
            trail[node] = len(trail)
            node = graph[node]
        done.update(trail)
    return issues


def write_tasks_csv(config: Configuration, path: str | Path) -> None:
    """Write the task list back out with workloads filled in."""
    rows = ([getattr(t, name) for name in TASK_FIELDS.values()] for t in config.tasks)
    write_csv(path, TASK_COLUMNS, rows)


def copy_configuration(config: Configuration) -> Configuration:
    """Independent copy safe to mutate (tasks are copied, scale is shared)."""
    return Configuration(
        tasks=[replace(t) for t in config.tasks],
        elements=dict(config.elements),
        scale=config.scale,
        warnings=list(config.warnings),
    )
