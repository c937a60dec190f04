from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from hmisim.attention import (
    CAPACITY,
    Aborted,
    AbortReason,
    AttentionState,
    Granted,
    InconsistentStateError,
    Queued,
    TaskInstance,
)
from hmisim.tasks import Initiator, Task
from hmisim.workload import AttentionalChannel

_uid = itertools.count(1)


def make_task(
    name="t",
    channel=AttentionalChannel.VISUAL,
    cognitive=3.0,
    perceptual=3.0,
    priority=5,
    initiator=Initiator.DRIVER,
    duration=1.0,
):
    return Task(
        name=name,
        location="somewhere",
        perception_type=channel,
        duration=duration,
        priority=priority,
        initiator=initiator,
        cognitive_workload=cognitive,
        perceptual_workload=perceptual,
    )


def instance(task, at=0.0):
    return TaskInstance(task=task, uid=next(_uid), requested_at=at)


def test_grant_on_free_channel_and_capacity():
    state = AttentionState()
    outcome = state.request(instance(make_task()), now=1.0)
    assert outcome == Granted()
    assert state.cognitive_sum == 3.0
    assert state.perceptual_sum == 3.0


def test_started_at_is_set_on_grant():
    state = AttentionState()
    inst = instance(make_task())
    state.request(inst, now=2.5)
    assert inst.started_at == 2.5


def test_channel_exclusivity_queues_driver_task():
    state = AttentionState()
    state.request(instance(make_task("a")), now=0.0)
    outcome = state.request(instance(make_task("b")), now=0.1)
    assert isinstance(outcome, Queued)
    assert outcome.reason is AbortReason.CHANNEL
    assert outcome.position == 0


def test_channel_exclusivity_aborts_machine_task():
    state = AttentionState()
    state.request(instance(make_task("a")), now=0.0)
    outcome = state.request(
        instance(make_task("b", initiator=Initiator.MACHINE)), now=0.1
    )
    assert outcome == Aborted(reason=AbortReason.CHANNEL)
    assert len(state.queued_instances()) == 0


def test_distinct_channels_run_concurrently():
    state = AttentionState()
    for i, channel in enumerate(AttentionalChannel):
        outcome = state.request(
            instance(make_task(f"t{i}", channel=channel, cognitive=1.0, perceptual=1.0)),
            now=0.0,
        )
        assert isinstance(outcome, Granted)
    assert len(state.active_instances()) == len(AttentionalChannel)


def test_cognitive_cap_blocks_before_perceptual():
    state = AttentionState()
    state.request(instance(make_task("a", cognitive=6.0, perceptual=6.0)), now=0.0)
    # both caps would overflow; cognitive is reported first
    tight = make_task(
        "b", channel=AttentionalChannel.AUDITORY_VOCAL, cognitive=5.0, perceptual=5.0
    )
    outcome = state.request(instance(tight), now=0.0)
    assert isinstance(outcome, Queued)
    assert outcome.reason is AbortReason.COGNITIVE


def test_perceptual_cap_reported_when_cognitive_fits():
    state = AttentionState()
    state.request(instance(make_task("a", cognitive=1.0, perceptual=6.0)), now=0.0)
    tight = make_task(
        "b", channel=AttentionalChannel.AUDITORY_VOCAL, cognitive=1.0, perceptual=5.0
    )
    outcome = state.request(instance(tight), now=0.0)
    assert isinstance(outcome, Queued)
    assert outcome.reason is AbortReason.PERCEPTUAL


def test_channel_conflict_reported_before_caps():
    state = AttentionState()
    state.request(instance(make_task("a", cognitive=9.0, perceptual=9.0)), now=0.0)
    outcome = state.request(instance(make_task("b", cognitive=9.0, perceptual=9.0)), now=0.0)
    assert isinstance(outcome, Queued)
    assert outcome.reason is AbortReason.CHANNEL


def test_exact_capacity_fits_without_tolerance_tricks():
    state = AttentionState()
    state.request(instance(make_task("a", cognitive=4.6, perceptual=4.0)), now=0.0)
    exact = make_task(
        "b", channel=AttentionalChannel.AUDITORY_VOCAL, cognitive=5.4, perceptual=6.0
    )
    outcome = state.request(instance(exact), now=0.0)
    assert isinstance(outcome, Granted)
    assert state.cognitive_sum == pytest.approx(CAPACITY)
    assert state.perceptual_sum == pytest.approx(CAPACITY)


def test_just_over_capacity_is_rejected():
    state = AttentionState()
    state.request(instance(make_task("a", cognitive=5.0, perceptual=1.0)), now=0.0)
    over = make_task(
        "b", channel=AttentionalChannel.AUDITORY_VOCAL, cognitive=5.001, perceptual=1.0
    )
    outcome = state.request(instance(over), now=0.0)
    assert isinstance(outcome, Queued)
    assert outcome.reason is AbortReason.COGNITIVE


def test_rerequest_of_queued_task_coalesces():
    state = AttentionState()
    state.request(instance(make_task("a")), now=0.0)
    first = state.request(instance(make_task("b")), now=0.1)
    second = state.request(instance(make_task("b")), now=0.2)
    assert isinstance(first, Queued) and not first.coalesced
    assert isinstance(second, Queued) and second.coalesced
    assert len(state.queued_instances()) == 1


def test_queue_orders_by_priority_then_fifo():
    state = AttentionState()
    state.request(instance(make_task("hog")), now=0.0)
    low = instance(make_task("low", priority=2), at=1.0)
    hi = instance(make_task("hi", priority=8), at=2.0)
    mid_a = instance(make_task("mid_a", priority=5), at=3.0)
    mid_b = instance(make_task("mid_b", priority=5), at=4.0)
    for inst in (low, hi, mid_a, mid_b):
        state.request(inst, now=inst.requested_at)
    assert [q.task.name for q in state.queued_instances()] == ["hi", "mid_a", "mid_b", "low"]


def test_release_admits_all_that_fit_in_priority_order():
    state = AttentionState()
    hog = instance(make_task("hog", cognitive=9.0, perceptual=9.0))
    state.request(hog, now=0.0)
    big = instance(
        make_task("big", channel=AttentionalChannel.AUDITORY_VOCAL, cognitive=6.0,
                  perceptual=6.0, priority=9),
        at=0.1,
    )
    small_a = instance(
        make_task("small_a", channel=AttentionalChannel.HAPTIC_HANDS, cognitive=2.0,
                  perceptual=2.0, priority=5),
        at=0.2,
    )
    small_b = instance(
        make_task("small_b", channel=AttentionalChannel.PSYCHOMOTOR, cognitive=2.0,
                  perceptual=2.0, priority=3),
        at=0.3,
    )
    for inst in (big, small_a, small_b):
        state.request(inst, now=inst.requested_at)
    admitted = state.release(hog, now=5.0)
    assert [i.task.name for i in admitted] == ["big", "small_a", "small_b"]
    assert all(i.started_at == 5.0 for i in admitted)
    assert len(state.queued_instances()) == 0


def test_release_does_not_let_blocked_head_stall_the_queue():
    # Head-of-queue "big" still does not fit after the release, but the
    # smaller lower-priority instance does and must be admitted past it.
    state = AttentionState()
    hog = instance(make_task("hog", cognitive=5.0, perceptual=5.0))
    stay = instance(
        make_task("stay", channel=AttentionalChannel.HAPTIC_SEAT, cognitive=4.0, perceptual=4.0)
    )
    state.request(hog, now=0.0)
    state.request(stay, now=0.0)
    big = instance(
        make_task("big", channel=AttentionalChannel.AUDITORY_VOCAL, cognitive=7.0,
                  perceptual=7.0, priority=9),
        at=0.1,
    )
    small = instance(
        make_task("small", channel=AttentionalChannel.PSYCHOMOTOR, cognitive=2.0,
                  perceptual=2.0, priority=1),
        at=0.2,
    )
    state.request(big, now=0.1)
    state.request(small, now=0.2)
    admitted = state.release(hog, now=3.0)
    assert [i.task.name for i in admitted] == ["small"]
    assert [q.task.name for q in state.queued_instances()] == ["big"]


def test_release_with_admit_false_skips_queue():
    state = AttentionState()
    hog = instance(make_task("hog"))
    state.request(hog, now=0.0)
    state.request(instance(make_task("waiter")), now=0.1)
    assert state.release(hog, now=1.0, admit=False) == []
    assert len(state.queued_instances()) == 1


def test_release_of_inactive_instance_raises():
    state = AttentionState()
    ghost = instance(make_task("ghost"))
    with pytest.raises(InconsistentStateError):
        state.release(ghost, now=0.0)


def test_refused_release_leaves_the_state_unchanged():
    state = AttentionState()
    task = make_task("reader")
    holder = instance(task)
    state.request(holder, now=0.0)
    impostor = TaskInstance(task=task, uid=holder.uid, requested_at=0.0)  # same uid, not the holder
    with pytest.raises(InconsistentStateError):
        state.release(impostor, now=1.0)
    assert state.active_instances() == [holder]
    assert state.cognitive_sum == 3.0
    assert state.first_failing(task) is AbortReason.CHANNEL
    assert state.release(holder, now=1.0) == []
    assert state.active_instances() == []


def test_no_preemption_on_higher_priority_arrival():
    state = AttentionState()
    running = instance(make_task("running", priority=1))
    state.request(running, now=0.0)
    urgent = state.request(instance(make_task("urgent", priority=9)), now=0.5)
    assert isinstance(urgent, Queued)
    assert running.uid in {i.uid for i in state.active_instances()}


def test_snapshot_reports_loads_and_demands():
    state = AttentionState()
    state.request(instance(make_task("a", cognitive=2.0, perceptual=3.0)), now=0.0)
    state.request(instance(make_task("queued", cognitive=1.5, perceptual=2.5)), now=0.1)
    snap = state.snapshot()
    assert snap.cognitive == 2.0
    assert snap.perceptual == 3.0
    assert snap.cognitive_demand == pytest.approx(3.5)
    assert snap.perceptual_demand == pytest.approx(5.5)


def test_queued_channel_conflict_flag():
    state = AttentionState()
    state.request(instance(make_task("a")), now=0.0)
    assert not state.queued_channel_conflict()
    state.request(instance(make_task("b")), now=0.1)
    assert state.queued_channel_conflict()


def test_randomized_invariants_hold_under_churn():
    rng = np.random.default_rng(20240814)
    channels = list(AttentionalChannel)
    state = AttentionState()
    live: list[TaskInstance] = []
    clock = 0.0
    for step in range(2000):
        clock += 0.01
        if live and rng.random() < 0.4:
            victim = live.pop(rng.integers(len(live)))
            admitted = state.release(victim, now=clock)
            live.extend(admitted)
        else:
            task = make_task(
                name=f"t{step}",
                channel=channels[rng.integers(len(channels))],
                cognitive=float(rng.uniform(0.5, 6.0)),
                perceptual=float(rng.uniform(0.5, 6.0)),
                priority=int(rng.integers(1, 10)),
                initiator=Initiator.DRIVER if rng.random() < 0.7 else Initiator.MACHINE,
            )
            outcome = state.request(TaskInstance(task, next(_uid), clock), now=clock)
            if isinstance(outcome, Granted):
                live.extend(
                    i for i in state.active_instances() if i.started_at == clock
                    and i not in live
                )
        active = state.active_instances()
        # one task per channel
        busy = [i.task.perception_type for i in active]
        assert len(busy) == len(set(busy))
        # caps honored
        assert state.cognitive_sum <= CAPACITY + 1e-9
        assert state.perceptual_sum <= CAPACITY + 1e-9
        # kept loads equal a from-scratch recomputation, bit for bit
        queued = state.queued_instances()
        cognitive = math.fsum(i.task.cognitive_workload for i in active)
        perceptual = math.fsum(i.task.perceptual_workload for i in active)
        assert state.cognitive_sum == cognitive
        assert state.perceptual_sum == perceptual
        assert state.cognitive_demand == cognitive + math.fsum(i.task.cognitive_workload for i in queued)
        assert state.perceptual_demand == perceptual + math.fsum(i.task.perceptual_workload for i in queued)
        assert state.channel_conflict == any(q.task.perception_type in busy for q in queued)
        live = [i for i in live if i.uid in {a.uid for a in active}]
