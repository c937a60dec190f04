from __future__ import annotations

import copy
import dataclasses
import gc
import json
import os
import pickle
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hmisim

from hmisim import metrics
from hmisim.attention import AbortReason
from hmisim.metrics import (
    COUNTS_CSV_HEADER,
    METRICS_CSV_HEADER,
    PAIRED_CSV_HEADER,
    SCATTER_CSV_HEADER,
    SUMMARY_CSV_HEADER,
    TIMELINE_CSV_HEADER,
    AggregateSummary,
    MetricsCollector,
    TaskCounts,
    TraceRecord,
    TrialMetrics,
    aggregate,
    _trace_record,
    eyes_off_contribution,
    iter_trace,
    median_low,
    read_trace,
    trace_line,
    write_counts_csv,
    write_metrics_csv,
    write_paired_csv,
    write_scatter_csv,
    write_summary_csv,
    write_timeline_csv,
    write_trace,
)

# ---------------------------------------------------------------------------
# primitives


@pytest.mark.parametrize(
    ("values", "expected"),
    [
        ([3.0], 3.0),
        ([2.0, 1.0, 3.0], 2.0),
        ([4.0, 1.0, 3.0, 2.0], 2.0),  # even count: lower middle
        ([5.0, 5.0, 1.0, 9.0], 5.0),
    ],
)
def test_median_low(values, expected):
    assert median_low(values) == expected


def test_median_low_empty_raises():
    with pytest.raises(ValueError):
        median_low([])


@pytest.mark.parametrize(
    ("total", "channel", "on_road", "expected"),
    [
        (1.4, "visual", False, 1.4),
        (1.4, "visual", True, 0.0),  # head-up display keeps eyes on road
        (2.0, "auditory-vocal", False, 0.0),
        (2.0, "psychomotor", False, 0.0),
        (0.9, "visual-peripheral", False, 0.0),
    ],
)
def test_eyes_off_contribution(total, channel, on_road, expected):
    assert eyes_off_contribution(total, channel, on_road) == expected


# ---------------------------------------------------------------------------
# collector


def make_collector(length):
    """A collector over mutable stand-ins for the trial state it reads."""
    attention = SimpleNamespace(
        cognitive_sum=0.0,
        perceptual_sum=0.0,
        cognitive_demand=0.0,
        perceptual_demand=0.0,
        channel_conflict=False,
    )
    machine = SimpleNamespace(level=2, current_max=2)
    return MetricsCollector(length, attention, machine)


def test_collector_integrates_piecewise_signals():
    collector = make_collector(length=100.0)
    attention = collector.attention

    collector.advance(20.0)  # 0-20: nothing over, awareness 1
    attention.cognitive_demand = 11.0
    collector.awareness = 0.5
    collector.record(20.0, "x", {})

    collector.advance(30.0)  # 20-30: cognitive over, awareness 0.5
    attention.cognitive_demand = 0.0
    attention.channel_conflict = True
    collector.record(30.0, "x", {})

    collector.advance(45.0)  # 30-45: channel conflict -> perceptual over
    attention.channel_conflict = False
    collector.awareness = 1.0
    collector.record(45.0, "x", {})

    collector.add_eyes_off(4.2)
    metrics = collector.finalize(seed=9)

    assert metrics.seed == 9
    assert metrics.eyes_off_seconds == pytest.approx(4.2)
    assert metrics.eyes_off_fraction == pytest.approx(4.2)
    assert metrics.cognitive_overload_seconds == pytest.approx(10.0)
    assert metrics.perceptual_overload_seconds == pytest.approx(15.0)
    # awareness: 20*1 + 10*0.5 + 15*0.5 + 55*1 = 87.5
    assert metrics.sa_average == pytest.approx(87.5)


def test_collector_abort_point_contributions():
    collector = make_collector(length=10.0)
    collector.add_abort(AbortReason.COGNITIVE, 1.0)
    collector.add_abort(AbortReason.CHANNEL, 2.0)
    collector.add_abort(AbortReason.PERCEPTUAL, 3.0)
    metrics = collector.finalize(seed=1)
    assert metrics.cognitive_overload_seconds == pytest.approx(1.0)
    assert metrics.perceptual_overload_seconds == pytest.approx(5.0)


def test_collector_overload_fractions_clamped_to_100():
    collector = make_collector(length=10.0)
    collector.add_abort(AbortReason.COGNITIVE, 25.0)  # more than the trial itself
    metrics = collector.finalize(seed=1)
    assert metrics.cognitive_overload_fraction == 100.0
    assert metrics.cognitive_overload_seconds == pytest.approx(25.0)


def test_collector_records_snapshot_fields():
    collector = make_collector(length=10.0)
    collector.attention.cognitive_sum = 3.0
    collector.attention.perceptual_sum = 4.0
    collector.awareness = 0.75
    collector.machine.level = 4
    collector.machine.current_max = 4
    collector.record(2.0, "task-start", {"task": "check_speed"})
    [rec] = collector.records
    assert rec.time == 2.0
    assert rec.kind == "task-start"
    assert rec.cognitive_sum == 3.0
    assert rec.perceptual_sum == 4.0
    assert rec.awareness == 0.75
    assert rec.level == 4
    assert rec.road_max == 4


def test_collector_count_accumulates_per_task():
    collector = make_collector(length=10.0)
    collector.count("a").triggered += 1
    collector.count("a").executed += 1
    collector.count("b").aborted += 1
    assert collector.counts["a"].triggered == 1
    assert collector.counts["a"].executed == 1
    assert collector.counts["b"].aborted == 1


# ---------------------------------------------------------------------------
# aggregation


def make_trial(seed, eyes, cog, perc, sa):
    return TrialMetrics(
        seed=seed,
        trial_length=100.0,
        eyes_off_fraction=eyes,
        cognitive_overload_fraction=cog,
        perceptual_overload_fraction=perc,
        sa_average=sa,
        eyes_off_seconds=eyes,
        cognitive_overload_seconds=cog,
        perceptual_overload_seconds=perc,
    )


def test_aggregate_medians_and_scatter():
    trials = [
        make_trial(1, 10.0, 1.0, 2.0, 90.0),
        make_trial(2, 20.0, 3.0, 4.0, 80.0),
        make_trial(3, 30.0, 5.0, 6.0, 70.0),
    ]
    summary = aggregate(trials)
    assert summary.trials == 3
    assert summary.medians == {
        "eyes_off_pct": 20.0,
        "cog_overload_pct": 3.0,
        "perc_overload_pct": 4.0,
        "sa_avg_pct": 80.0,
    }
    # The scatter is the trials themselves: the summary keeps no copy of them.
    assert [f.name for f in fields(AggregateSummary)] == ["trials", "medians"]


def test_aggregate_empty_raises():
    with pytest.raises(ValueError):
        aggregate([])


# ---------------------------------------------------------------------------
# serialization


def make_record(time=1.0, kind="task-start", payload=None):
    return TraceRecord(
        time=time,
        kind=kind,
        payload=payload if payload is not None else {"task": "check_speed"},
        cognitive_sum=4.6,
        perceptual_sum=4.0,
        awareness=0.5,
        level=2,
        road_max=4,
    )


def test_trace_record_json_key_order():
    keys = list(json.loads(make_record().to_json()))
    assert keys == [
        "time", "kind", "payload", "cognitive_sum", "perceptual_sum",
        "awareness", "level", "road_max",
    ]


#: Payload values of every JSON kind a trial writes, and some it never does.
PAYLOAD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(), st.lists(st.text(), max_size=3)
)
#: The fields of one trace record: the numbers outside the payload are ints or finite floats.
RECORD_FIELDS = st.tuples(
    st.one_of(st.integers(0, 10**9), st.floats(0.0, 1e9)),
    st.text(),
    st.dictionaries(st.text(), PAYLOAD_VALUES, max_size=5),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(0.0, 1.0),
    st.integers(0, 4),
    st.integers(0, 4),
)
#: Records whose text needs escaping or is not ASCII, and payload floats JSON has no literal for.
AWKWARD_FIELDS = [
    (600, 'task-"end"', {"task": 'Tempo "prüfen" \\ ✓', "note": "tab\there\nnew\x00\x1f\x7f"}, 4.6, 4.0, 0.5, 2, 4),
    (1.5, "trigger", {"x": float("nan"), "y": float("inf"), "z": -float("inf"), "w": -0.0}, 0.0, 0.0, 1.0, 0, 0),
    (1e16, "\u00e9\U0001f600", {"names": ["a\"b", "\u2028", ""], "on": True, "off": False, "n": None}, 1e-7, 2.5, 0.25, 4, 3),
]


def dumped(record):
    """The line ``json.dumps`` writes for a record's fields, keys in field order."""
    keys = [f.name for f in fields(TraceRecord)]
    return json.dumps(dict(zip(keys, record)), ensure_ascii=False) + "\n"


def field_values(record):
    """A record's fields, in order."""
    return [getattr(record, f.name) for f in fields(TraceRecord)]



@settings(max_examples=300, deadline=None)
@given(RECORD_FIELDS)
@example(AWKWARD_FIELDS[0])
@example(AWKWARD_FIELDS[1])
@example(AWKWARD_FIELDS[2])
def test_trace_line_is_json_dumps_of_the_fields(record):
    assert trace_line(*record) == dumped(record)
    assert TraceRecord(*record).to_json() + "\n" == dumped(record)


def test_trace_line_without_the_c_encoder_writes_the_same_text():
    # Without json's C accelerator the payload goes through JSONEncoder.encode; the text is the same.
    script = (
        "import json, json.encoder, sys\n"
        "json.encoder.c_make_encoder = None\n"
        "from hmisim import metrics\n"
        "assert metrics._encode.__name__ == '<lambda>'\n"
        "print(json.dumps([metrics.trace_line(*f) for f in json.load(sys.stdin)]))\n"
    )
    package_root = str(Path(hmisim.__file__).parents[1])
    search_path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], input=json.dumps(AWKWARD_FIELDS), capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": search_path}, check=True,
    )
    assert json.loads(done.stdout) == [dumped(f) for f in AWKWARD_FIELDS]


def test_a_trace_record_is_slotted_and_still_pickles_copies_and_replaces():
    record = make_record(payload={"task": "check_speed", "names": ["a", "b"]})
    assert not hasattr(record, "__dict__")
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.copy(record) == record
    assert dataclasses.replace(record) == record


def test_trace_round_trip(tmp_path):
    records = [make_record(time=float(i)) for i in range(5)]
    path = tmp_path / "trace.jsonl"
    write_trace(records, path)
    assert read_trace(path) == records
    assert len(path.read_text().splitlines()) == 5


@pytest.mark.parametrize(
    "edit", [lambda raw: raw.pop("level"), lambda raw: raw.update(extra=1)], ids=["missing", "unknown"]
)
def test_read_trace_rejects_missing_or_unknown_key(tmp_path, edit):
    raw = json.loads(make_record().to_json())
    edit(raw)
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps(raw) + "\n")
    with pytest.raises(TypeError):
        read_trace(path)


def long_trace(count):
    """``count`` records, with assorted blank lines between them."""
    records = [make_record(time=float(i), payload={"task": f"t{i}", "n": i}) for i in range(count)]
    lines = []
    for i, record in enumerate(records):
        lines.append(record.to_json() + "\n")
        if i % 7 == 0:
            lines.append(["\n", "   \n", "\t\n"][i % 3])
    return records, lines


def test_read_trace_round_trips_a_trace_longer_than_one_chunk(tmp_path):
    records, lines = long_trace(6000)
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    assert path.stat().st_size > 512 * 1024
    assert read_trace(path) == records


def test_read_trace_round_trips_non_ascii(tmp_path):
    records = [make_record(payload={"task": "Blinker prüfen ✓ 速度", "source": "cf:élan"})]
    path = tmp_path / "trace.jsonl"
    write_trace(records, path)
    assert "速度" in path.read_text(encoding="utf-8")
    assert read_trace(path) == records


BAD_LINES = {
    "missing": (lambda raw: json.dumps({k: v for k, v in raw.items() if k != "level"}), TypeError),
    "unknown": (lambda raw: json.dumps({**raw, "extra": 1}), TypeError),
    "not-an-object": (lambda raw: json.dumps(list(raw)), TypeError),
    "malformed": (lambda raw: json.dumps(raw)[:-9], json.JSONDecodeError),
    "two-objects": (lambda raw: json.dumps(raw) + ", " + json.dumps(raw), json.JSONDecodeError),
}


@pytest.mark.parametrize(("bad", "error"), BAD_LINES.values(), ids=list(BAD_LINES))
def test_read_trace_rejects_a_bad_line_in_a_later_chunk(tmp_path, bad, error):
    _, lines = long_trace(300)
    lines.insert(250, bad(json.loads(make_record().to_json())) + "\n")
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(error):
        read_trace(path)


@pytest.mark.parametrize(
    ("first", "error"), [("missing", TypeError), ("malformed", json.JSONDecodeError)]
)
def test_read_trace_raises_for_the_first_bad_line(tmp_path, first, error):
    order = ["missing", "malformed"] if first == "missing" else ["malformed", "missing"]
    _, lines = long_trace(20)
    for at, name in zip((5, 10), order):
        lines.insert(at, BAD_LINES[name][0](json.loads(make_record().to_json())) + "\n")
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(error):
        read_trace(path)


def test_read_trace_rejects_lines_that_join_into_records(tmp_path):
    # Cut inside the payload list, the first two lines join into one record
    # across the line break, and the third line holds two records: three
    # lines, three values if decoded as one array, yet no line is a record.
    whole = make_record(payload={"xs": [[1], [2]]}).to_json()
    head, tail = whole.split(", [2]")
    path = tmp_path / "trace.jsonl"
    path.write_text(f"{head}\n[2]{tail}\n{whole}, {whole}\n", encoding="utf-8")
    with pytest.raises(json.JSONDecodeError):
        read_trace(path)


@pytest.mark.parametrize("blank", ["\x0c\n", "\u00a0\n", " \x0c\u00a0\t\n"])
def test_read_trace_skips_a_line_that_str_strip_empties(tmp_path, blank):
    records = [make_record(time=float(i)) for i in range(2)]
    path = tmp_path / "trace.jsonl"
    path.write_text(records[0].to_json() + "\n" + blank + records[1].to_json() + "\n", encoding="utf-8")
    assert read_trace(path) == records


@pytest.mark.parametrize("around", [("\x0c", ""), ("", "\x0c"), ("\u00a0", "")])
def test_read_trace_allows_only_json_whitespace_around_a_record(tmp_path, around):
    before, after = around
    path = tmp_path / "trace.jsonl"
    path.write_text(f" \t{before}{make_record().to_json()}{after} \r\n", encoding="utf-8")
    with pytest.raises(json.JSONDecodeError):
        read_trace(path)


def test_read_trace_keeps_json_whitespace_around_a_record(tmp_path):
    record = make_record()
    path = tmp_path / "trace.jsonl"
    path.write_text(f" \t{record.to_json()}\t \r\n", encoding="utf-8")
    assert read_trace(path) == [record]


def test_read_trace_shares_one_string_per_payload_key(tmp_path):
    # One string per record and key would add about 10 MB to a demo trace.
    records, lines = long_trace(50)
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    keys = [key for record in read_trace(path) for key in record.payload]
    assert len(keys) == 100
    assert len({id(key) for key in keys}) == len(set(keys)) == 2


def chunks_of(path):
    """How many chunks ``iter_trace`` decodes the file at ``path`` in."""
    with open(path, encoding="utf-8") as handle:
        return sum(1 for _ in iter(lambda: handle.readlines(metrics._TRACE_CHUNK_HINT), []))


def test_read_trace_shares_one_string_per_payload_key_within_each_chunk(tmp_path):
    _, lines = long_trace(6000)
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    chunks = chunks_of(path)
    assert chunks > 2
    ids: dict[str, set[int]] = {}
    for record in read_trace(path):
        for key in record.payload:
            ids.setdefault(key, set()).add(id(key))
    assert sorted(ids) == ["n", "task"]
    assert all(len(strings) <= chunks for strings in ids.values())


def varied_trace(count):
    """``count`` records whose kinds and payload strings repeat."""
    kinds = ["task-start", "task-end", "trigger"]
    return [
        make_record(
            time=float(i),
            kind=kinds[i % 3],
            payload={"task": f"check_{i % 5}", "function": f"look_{i % 2}", "n": i, "on": ["left", "right"]},
        )
        for i in range(count)
    ]


def string_ids(records):
    """The ids of the string objects each text is held by, as a kind or a payload value."""
    ids: dict[str, set[int]] = {}
    for record in records:
        for value in [record.kind, *record.payload.values()]:
            if type(value) is str:
                ids.setdefault(value, set()).add(id(value))
    return ids


@pytest.mark.parametrize("count", [50, 6000], ids=["one-chunk", "many-chunks"])
def test_read_trace_shares_one_string_per_kind_and_payload_value_within_each_chunk(tmp_path, count):
    # One string per record and value would hold over a hundred thousand copies of a few dozen texts in a demo trace.
    path = tmp_path / "trace.jsonl"
    write_trace(varied_trace(count), path)
    chunks = chunks_of(path)
    assert chunks == 1 if count == 50 else chunks > 2
    ids = string_ids(read_trace(path))
    assert len(ids) == 3 + 5 + 2
    assert all(len(strings) <= chunks for strings in ids.values())  # in one chunk, exactly one each


def test_sharing_strings_keeps_every_value_its_type_and_text(tmp_path):
    # As dict keys 1 == 1.0 == True and 0.0 == -0.0: sharing such values would change them.
    payloads = [
        {"a": True, "b": 1, "c": 1.0},
        {"a": 1.0, "b": True, "c": 1},
        {"a": 1, "b": 1.0, "c": True},
        {"zero": 0.0, "minus": -0.0},
        {"zero": -0.0, "minus": 0.0},
        {"x": float("nan"), "y": float("nan")},
        {"names": ["left", "right"], "more": ["left", "look"]},
        {"task": "look", "function": "look", "n": None},
    ]
    records = [make_record(time=float(i), payload=payload) for i, payload in enumerate(payloads)]
    path = tmp_path / "trace.jsonl"
    write_trace(records, path)
    assert chunks_of(path) == 1
    read = read_trace(path)
    again = tmp_path / "again.jsonl"
    write_trace(read, again)
    assert again.read_bytes() == path.read_bytes()

    def typed(records):
        return [
            [(type(value), repr(value)) for value in field_values(r)]
            + [(key, type(value), repr(value)) for key, value in r.payload.items()]
            for r in records
        ]

    assert typed(read) == typed(records)


def read_line_by_line(path):
    """``read_trace``'s reference: ``_trace_record`` of each line that is not blank."""
    with open(path, encoding="utf-8") as handle:
        return [_trace_record(line) for line in handle if not line.isspace()]


def outcome(read, path):
    try:
        return read(path)
    except (TypeError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        return type(exc)


def test_a_record_with_a_comma_between_braces_in_a_name_is_read_line_by_line(tmp_path):
    # '},{' in a task name looks like two records on one line, so its chunk is not
    # trusted to the one decode call and is parsed again line by line.
    records = [make_record(time=float(i), payload={"task": "a},{b" if i == 3 else "c"}) for i in range(6)]
    path = tmp_path / "trace.jsonl"
    write_trace(records, path)
    with mock.patch.object(metrics, "_trace_record", side_effect=_trace_record) as per_line:
        assert read_trace(path) == records
    assert per_line.call_count == len(records)


#: Text that is JSON syntax outside a string: braces, commas, quotes and backslashes.
AWKWARD_TEXT = st.text(st.sampled_from('{},"\\ :[]ab\t'), max_size=8)
AWKWARD_RECORD_FIELDS = st.tuples(
    st.one_of(st.integers(0, 10**9), st.floats(0.0, 1e9)),
    AWKWARD_TEXT,
    st.dictionaries(
        AWKWARD_TEXT,
        st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), AWKWARD_TEXT,
                  st.lists(AWKWARD_TEXT, max_size=3)),
        max_size=4,
    ),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(0.0, 1.0),
    st.integers(0, 4),
    st.integers(0, 4),
)


@st.composite
def broken(draw, line):
    """One record line broken: cut short, split where a comma was (the pieces may join
    into one record again), two values on one line, not an object, or a key gone."""
    raw = json.loads(line)
    values = json.dumps(list(raw.values()))
    commas = [i for i, c in enumerate(line) if c == ","]
    at = draw(st.sampled_from(commas))
    return draw(st.sampled_from([
        [line[: draw(st.integers(0, len(line) - 1))]],
        [line[:at], line[at + 1:]],
        [draw(st.sampled_from([line, values])) + draw(st.sampled_from([",", ", ", " ,\t"])) + line],
        [values],
        [json.dumps({k: v for k, v in raw.items() if k != "level"})],
    ]))


@st.composite
def trace_files(draw):
    """The bytes of a trace file: record lines with JSON whitespace around them, blank
    lines, now and then a broken line, LF or CRLF line ends, and maybe no last line end."""
    lines = []
    for fields_ in draw(st.lists(AWKWARD_RECORD_FIELDS, max_size=40)):
        line = trace_line(*fields_)[:-1]
        space = st.text(st.sampled_from(" \t"), max_size=2)
        pieces = draw(broken(line)) if draw(st.integers(0, 3)) == 0 else [line]
        lines += [draw(space) + piece + draw(space) for piece in pieces]
        lines += draw(st.lists(st.sampled_from(["", " ", "\t", "\x0c", "\u00a0"]), max_size=2))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends)).encode("utf-8")


def joining_lines(last):
    """Three lines that join into an array of three values though no line is one record:
    a record split where a comma was (the pieces join again), then ``last``, two values."""
    whole = make_record(payload={"xs": [[1], [2]]}).to_json()
    head, tail = whole.split(", [2]")
    return f"{head}\n[2]{tail}\n{last.format(whole)}\n".encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(trace_files(), st.integers(1, 2048))
@example(joining_lines("{0}, {0}"), 1 << 20)
@example(joining_lines("[1, 2], {0}"), 1 << 20)
def test_read_trace_reads_as_it_reads_line_by_line(tmp_path_factory, data, chunk_hint):
    """Any file, decoded in chunks of any size, reads as it reads line by line, or raises the
    same exception type; the small chunks make most files span several."""
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    path.write_bytes(data)
    with mock.patch.object(metrics, "_TRACE_CHUNK_HINT", chunk_hint):
        assert outcome(read_trace, path) == outcome(read_line_by_line, path)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("bad", [False, True], ids=["good", "bad-line"])
def test_read_trace_pauses_the_cyclic_gc_and_leaves_it_as_it_found_it(tmp_path, enabled, bad):
    _, lines = long_trace(20)
    if bad:
        lines.insert(5, BAD_LINES["missing"][0](json.loads(make_record().to_json())) + "\n")
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    seen = []

    def spy(path):
        seen.append(gc.isenabled())
        yield from iter_trace(path)

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with mock.patch.object(metrics, "iter_trace", spy):
            if bad:
                with pytest.raises(TypeError):
                    read_trace(path)
            else:
                assert len(read_trace(path)) == 20
        assert (seen, gc.isenabled()) == ([False], enabled)
    finally:
        (gc.enable if was else gc.disable)()


def test_metrics_csv(tmp_path):
    path = tmp_path / "metrics.csv"
    write_metrics_csv([make_trial(7, 12.5, 1.25, 2.5, 87.5)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(METRICS_CSV_HEADER)
    assert lines[1] == "7,12.5,1.25,2.5,87.5"


def test_counts_csv_sorted_by_task(tmp_path):
    path = tmp_path / "counts.csv"
    write_counts_csv({"b": TaskCounts(1, 1, 0, 0), "a": TaskCounts(2, 1, 1, 0)}, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(COUNTS_CSV_HEADER)
    assert lines[1] == "a,2,1,1,0"
    assert lines[2] == "b,1,1,0,0"


def test_summary_and_scatter_csv(tmp_path):
    batches = {"base": [make_trial(1, 10.0, 1.0, 2.0, 90.0), make_trial(2, 11.0, 1.5, 2.5, 89.0)]}
    summary_path = tmp_path / "summary.csv"
    write_summary_csv(batches, summary_path)
    lines = summary_path.read_text().splitlines()
    assert lines[0] == ",".join(SUMMARY_CSV_HEADER)
    assert lines[1] == "base,2,10.0,1.0,2.0,89.0"  # the lower middle of two

    scatter_path = tmp_path / "scatter.csv"
    write_scatter_csv(batches, scatter_path)
    lines = scatter_path.read_text().splitlines()
    assert lines[0] == ",".join(SCATTER_CSV_HEADER)
    assert lines[1] == "base,1,10.0,1.0,2.0,90.0"
    assert lines[2] == "base,2,11.0,1.5,2.5,89.0"


def test_timeline_csv(tmp_path):
    records = [
        make_record(time=0.5),
        make_record(time=1.0, kind="trigger", payload={"function": "speed_check"}),
        make_record(time=2.0, kind="road-change", payload={}),
    ]
    path = tmp_path / "timeline.csv"
    write_timeline_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TIMELINE_CSV_HEADER)
    assert lines[1] == "0.5,task-start,check_speed,4.6,4.0,0.5,2,4"
    assert lines[2].split(",")[2] == "speed_check"
    assert lines[3].split(",")[2] == ""


def test_paired_csv(tmp_path):
    path = tmp_path / "paired.csv"
    write_paired_csv([1, 2], [(-0.5, 0.0, -0.25, 0.125), (0.5, 0.0, 0.0, 0.0)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(PAIRED_CSV_HEADER)
    assert lines[1] == "1,-0.5,0.0,-0.25,0.125"
    assert lines[2] == "2,0.5,0.0,0.0,0.0"


def test_read_trace_reads_a_record_whose_keys_are_in_another_order(tmp_path):
    record = make_record()
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps(dict(reversed(json.loads(record.to_json()).items()))) + "\n")
    assert read_trace(path) == [record]


@pytest.mark.parametrize("payload", [5, None, "task", [1]])
@pytest.mark.parametrize("in_order", [True, False], ids=["in-order", "reordered"])
def test_read_trace_rejects_a_payload_that_is_not_an_object(tmp_path, payload, in_order):
    raw = {**json.loads(make_record().to_json()), "payload": payload}
    if not in_order:
        raw = dict(reversed(raw.items()))
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps(raw) + "\n")
    with pytest.raises(TypeError, match="payload"):
        read_trace(path)


def test_a_trial_of_int_length_ends_its_trace_at_an_int_time(demo_config, demo_scenario):
    records = hmisim.run_trial(demo_config, demo_scenario, 1, 600).records
    end = records[-1]
    assert (end.kind, end.time, type(end.time)) == ("trial-end", 600, int)
    with pytest.raises(TypeError):
        float.__repr__(end.time)
    assert [trace_line(*field_values(r)) for r in records] == [dumped(field_values(r)) for r in records]
