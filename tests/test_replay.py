from __future__ import annotations

import dataclasses

import pytest

from hmisim.metrics import TraceRecord, iter_trace, read_trace, write_trace
from hmisim.replay import ReplayedMetrics, check_safety_rules, check_tor_lead_times, replay_metrics
from hmisim.trial import run_trial

# ---------------------------------------------------------------------------
# bit pins: the exact repr of every replayed field.  Adding the same
# terms in another order can move the last digits (adding each machine
# abort where its record falls, not after the stretches, does here).


REPLAY_PINS = {
    ("demo", 1, 12000.0): ("2690.20000000001", "129.8160297504439", "352.2983570601706", "10096.088410122931"),
    ("demo", 2, 12000.0): ("2767.600000000013", "127.87065946420498", "335.84755740727496", "10469.843583687758"),
    ("demo", 3, 12000.0): ("2718.400000000015", "120.41903358150165", "379.9601527793707", "10264.727859855113"),
    ("scripted", 1, 100.0): ("5.6", "0.0", "0.0", "81.0"),
    # 20 on-road ad_available_msg glances: the on-road half of the eyes-off rule
    ("optimized", 1, 12000.0): ("2655.400000000008", "129.01602975044383", "281.88345781781857", "10100.68841012293"),
}


@pytest.mark.parametrize(("design", "seed", "length"), list(REPLAY_PINS))
def test_replay_bits_are_pinned(
    tmp_path, design, seed, length, demo_config, demo_scenario, optimized_config, scripted_config, scripted_scenario
):
    designs = {
        "demo": (demo_config, demo_scenario),
        "optimized": (optimized_config, demo_scenario),
        "scripted": (scripted_config, scripted_scenario),
    }
    records = run_trial(*designs[design], seed, length).records
    path = tmp_path / "trace.jsonl"
    write_trace(records, path)
    assert read_trace(path) == records
    replayed = replay_metrics(records, length)
    fields = tuple(repr(getattr(replayed, f.name)) for f in dataclasses.fields(ReplayedMetrics))
    assert fields == REPLAY_PINS[design, seed, length]


def test_the_audits_leave_their_input_unchanged(tmp_path, demo_config, demo_scenario):
    """The audits track instances through the records' own payloads; they must not modify them."""
    length = 12000.0
    path = tmp_path / "trace.jsonl"
    write_trace(run_trial(demo_config, demo_scenario, 1, length).records, path)
    records = read_trace(path)
    vehicle = demo_scenario.vehicle

    def audit():
        return (
            replay_metrics(records, length),
            check_safety_rules(records),
            check_tor_lead_times(records, vehicle.tor_lead_seconds, vehicle.tor_final_seconds),
        )

    first = audit()
    assert audit() == first
    assert first[1].ok() and first[2].ok()
    assert records == read_trace(path)


def test_the_audits_read_an_iterator_as_they_read_a_list(tmp_path, demo_config, demo_scenario):
    length = 12000.0
    path = tmp_path / "trace.jsonl"
    write_trace(run_trial(demo_config, demo_scenario, 1, length).records, path)
    vehicle = demo_scenario.vehicle

    def audit(records):
        return (
            replay_metrics(records(), length),
            check_safety_rules(records()),
            check_tor_lead_times(records(), vehicle.tor_lead_seconds, vehicle.tor_final_seconds),
        )

    assert audit(lambda: iter_trace(path)) == audit(lambda: read_trace(path))
    # the first record's awareness holds from t = 0, also when it is read from an iterator
    late = [rec(2.0, "init", awareness=0.5), rec(4.0, "memory-update", awareness=1.0)]
    assert replay_metrics(iter(late), 10.0) == replay_metrics(late, 10.0) == ReplayedMetrics(0.0, 0.0, 0.0, 8.0)
    assert replay_metrics(iter([]), 8.0) == ReplayedMetrics(0.0, 0.0, 0.0, 8.0)


# ---------------------------------------------------------------------------
# overload accrual on hand-built traces


def rec(time, kind, awareness=1.0, **payload):
    return TraceRecord(time, kind, payload, 0.0, 0.0, awareness, 0, 0)


def start(time, instance, channel, cognitive, perceptual, total_time=1.0):
    return rec(
        time, "task-start", instance=instance, task=f"t{instance}", channel=channel,
        cognitive=cognitive, perceptual=perceptual, on_road=False, total_time=total_time,
    )


def end(time, instance, completed=True):
    return rec(time, "task-end", instance=instance, completed=completed)


def test_replay_overload_is_piecewise():
    records = [
        start(0.0, 1, "auditory-vocal", 5.0, 5.0),
        start(10.0, 2, "psychomotor", 6.0, 0.0),  # cognitive over for 5 s
        rec(12.0, "trigger", function="f"),  # no demand change: the stretch carries on
        end(15.0, 2),
        start(15.0, 3, "visual", 0.0, 5.5, total_time=5.0),  # perceptual over for 5 s
        end(20.0, 3),
        rec(  # channel contention for 10 s
            20.0, "task-queued", instance=4, task="t4", channel="auditory-vocal",
            cognitive=0.0, perceptual=0.0, coalesced=False,
        ),
        rec(  # a coalesced trigger joins the waiting instance: no new demand
            25.0, "task-queued", instance=5, task="t4", channel="auditory-vocal",
            cognitive=9.0, perceptual=9.0, coalesced=True,
        ),
        end(30.0, 1),
        start(30.0, 4, "auditory-vocal", 0.0, 0.0),
    ]
    replayed = replay_metrics(records, 40.0)
    assert replayed.cognitive_overload_seconds == 5.0
    assert replayed.perceptual_overload_seconds == 15.0
    assert replayed.eyes_off_seconds == 5.0  # task 3: visual, off-road, completed


def test_replay_last_demand_runs_to_the_horizon():
    replayed = replay_metrics([start(0.0, 1, "visual", 12.0, 12.0)], 7.5)
    assert replayed.cognitive_overload_seconds == replayed.perceptual_overload_seconds == 7.5


def test_replay_abort_contributions():
    def abort(reason, seconds):
        return rec(0.5, "task-abort", task="m", initiator="machine", reason=reason, total_time=seconds)

    records = [
        abort("cognitive-cap", 1.5),
        abort("perceptual-cap", 2.0),
        abort("channel-conflict", 0.5),  # channel conflicts count as perceptual
    ]
    replayed = replay_metrics(records, 1.0)
    assert replayed.cognitive_overload_seconds == 1.5
    assert replayed.perceptual_overload_seconds == 2.5


def test_replay_exact_capacity_is_not_overload():
    replayed = replay_metrics([start(0.0, 1, "visual", 10.0, 10.0)], 5.0)
    assert (replayed.cognitive_overload_seconds, replayed.perceptual_overload_seconds) == (0.0, 0.0)


def test_replay_of_an_empty_trace():
    assert replay_metrics([], 8.0) == ReplayedMetrics(0.0, 0.0, 0.0, 8.0)


def test_replay_integrates_awareness_between_records():
    records = [rec(0.0, "init", awareness=1.0), rec(4.0, "memory-update", awareness=0.5)]
    assert replay_metrics(records, 10.0).sa_average(10.0) == 70.0


# ---------------------------------------------------------------------------
# the audits on hand-built faulty traces


def tor(time, phase="TOR60", boundary=100.0):
    return rec(time, "vehicle-transition", change="tor", phase=phase, boundary=boundary, segment_start=0.0)


#: Two tasks on different channels, their ends, and an early take-over request on time.
CLEAN_TRACE = [
    rec(0.0, "init", seed=1, trial_length=100.0),
    start(1.0, 1, "visual", 3.0, 4.0),
    start(2.0, 2, "auditory-vocal", 5.0, 5.0),
    end(3.0, 1),
    end(4.0, 2),
    tor(40.0),
]


def audit(records):
    return check_safety_rules(records).violations + check_tor_lead_times(records).violations


def replaced(index, record):
    return CLEAN_TRACE[:index] + [record] + CLEAN_TRACE[index + 1:]


def inserted(index, record):
    return CLEAN_TRACE[:index] + [record] + CLEAN_TRACE[index:]


def test_the_hand_built_trace_audits_clean():
    assert audit(CLEAN_TRACE) == []


@pytest.mark.parametrize(
    ("records", "violations"),
    [
        pytest.param(
            CLEAN_TRACE + [rec(39.0, "trigger", function="f")],
            ["time went backwards at 39.0"],
            id="time-backwards",
        ),
        pytest.param(
            replaced(2, start(2.0, 2, "visual", 5.0, 5.0)),
            ["t=2.0: channel visual double-occupied by t1 and t2"],
            id="double-occupied",
        ),
        pytest.param(
            replaced(2, start(2.0, 2, "auditory-vocal", 8.0, 5.0)),
            ["t=2.0: active cognitive sum 11.0 exceeds 10.0"],
            id="cognitive-over",
        ),
        pytest.param(
            replaced(2, start(2.0, 2, "auditory-vocal", 5.0, 7.0)),
            ["t=2.0: active perceptual sum 11.0 exceeds 10.0"],
            id="perceptual-over",
        ),
        pytest.param(
            inserted(3, rec(2.5, "task-queued", task="m", instance=3, initiator="machine", coalesced=False)),
            ["t=2.5: machine task m was queued"],
            id="machine-queued",
        ),
        pytest.param(
            inserted(3, rec(2.5, "task-abort", task="d", instance=3, initiator="driver")),
            ["t=2.5: driver task d was aborted"],
            id="driver-aborted",
        ),
        pytest.param(
            inserted(5, end(4.5, 9)),
            ["t=4.5: end of instance 9 that never started", "unbalanced start/end records: 2 starts, 3 ends"],
            id="end-never-started",
        ),
        pytest.param(
            replaced(3, dataclasses.replace(end(3.0, 1), level=3, road_max=2)),
            ["t=3.0: automation level 3 above road cap 2"],
            id="level-above-cap",
        ),
        pytest.param(
            CLEAN_TRACE[:4] + CLEAN_TRACE[5:],
            ["unbalanced start/end records: 2 starts, 1 ends", "1 instances never released"],
            id="unbalanced",
        ),
        pytest.param(
            replaced(4, end(4.0, 9)),
            ["t=4.0: end of instance 9 that never started", "1 instances never released"],
            id="never-released",
        ),
        pytest.param(
            replaced(5, tor(41.0)),
            ["TOR60 at t=41.0: expected 40.0 (boundary 100.0, segment start 0.0)"],
            id="tor-off-its-instant",
        ),
    ],
)
def test_each_audit_reports_its_fault(records, violations):
    assert audit(records) == violations
