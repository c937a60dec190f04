"""Admission control over the driver's attentional resources.

Three rules decide whether a task may run:

1. each of the seven attentional channels holds at most one active task;
2. the sum of active cognitive workloads stays at or below 10;
3. the sum of active perceptual workloads stays at or below 10.

A request that fails any rule is queued when driver-initiated (one queued
instance per task name; re-requests coalesce) and aborted immediately when
machine-initiated, with the first failing rule as the abort reason, checked
in the order channel -> cognitive cap -> perceptual cap.  Active tasks are
never preempted.  When a task releases, the wait queue is scanned in
priority order (priority desc, enqueue time asc) and every instance that
now fits is admitted: a blocked high-priority instance never holds back a
lower-priority one that fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .tasks import Initiator, Task
from .workload import AttentionalChannel

CAPACITY = 10.0
#: Slack on the cap comparisons so decimal workload sums (e.g. 4.6 + 5.4)
#: are not rejected or flagged over a last-bit float difference.
CAP_TOLERANCE = 1e-9


class AbortReason(str, Enum):
    CHANNEL = "channel-conflict"
    COGNITIVE = "cognitive-cap"
    PERCEPTUAL = "perceptual-cap"


@dataclass(eq=False)
class TaskInstance:
    """One concrete run (or attempted run) of a task."""

    task: Task
    uid: int
    requested_at: float
    source: str = ""
    started_at: float | None = None


@dataclass(frozen=True)
class Granted:
    """The instance is active from the request time on."""


@dataclass(frozen=True)
class Queued:
    position: int
    reason: AbortReason
    coalesced: bool = False


@dataclass(frozen=True)
class Aborted:
    reason: AbortReason


AdmissionOutcome = Granted | Queued | Aborted


@dataclass(frozen=True)
class LoadSnapshot:
    cognitive: float
    perceptual: float
    cognitive_demand: float
    perceptual_demand: float


class InconsistentStateError(RuntimeError):
    """An operation contradicts the manager's book-keeping."""


class AttentionState:
    """Active instances, the wait queue, and the loads they add up to.

    ``cognitive_sum``/``perceptual_sum`` (active workload),
    ``cognitive_demand``/``perceptual_demand`` (active plus queued) and
    ``channel_conflict`` (a queued instance is blocked by its channel) are
    attributes, recomputed from scratch whenever an instance is activated,
    released or queued.  ``math.fsum`` is correctly rounded, so they never
    depend on the order in which instances were admitted.  While nothing
    is queued the demands are the active sums, as ``fsum(())`` is ``0.0``.
    """

    def __init__(self) -> None:
        self._by_channel: dict[AttentionalChannel, TaskInstance] = {}  # the active instance on each channel
        self._queue: list[TaskInstance] = []
        self._recompute()

    # -- load arithmetic ----------------------------------------------------

    def _recompute(self) -> None:
        active = self._by_channel.values()
        self.cognitive_sum = math.fsum(i.task.cognitive_workload for i in active)
        self.perceptual_sum = math.fsum(i.task.perceptual_workload for i in active)
        if not self._queue:
            self.cognitive_demand = self.cognitive_sum
            self.perceptual_demand = self.perceptual_sum
            self.channel_conflict = False
            return
        self.cognitive_demand = self.cognitive_sum + math.fsum(
            i.task.cognitive_workload for i in self._queue
        )
        self.perceptual_demand = self.perceptual_sum + math.fsum(
            i.task.perceptual_workload for i in self._queue
        )
        self.channel_conflict = self.queued_channel_conflict()

    def active_instances(self) -> list[TaskInstance]:
        return sorted(self._by_channel.values(), key=lambda i: i.uid)

    def queued_instances(self) -> list[TaskInstance]:
        return sorted(self._queue, key=self._queue_key)

    @staticmethod
    def _queue_key(instance: TaskInstance) -> tuple[int, float, int]:
        return (-instance.task.priority, instance.requested_at, instance.uid)

    def first_failing(self, task: Task) -> AbortReason | None:
        """First admission rule the task would violate right now, if any."""
        if task.perception_type in self._by_channel:
            return AbortReason.CHANNEL
        if self.cognitive_sum + task.cognitive_workload > CAPACITY + CAP_TOLERANCE:
            return AbortReason.COGNITIVE
        if self.perceptual_sum + task.perceptual_workload > CAPACITY + CAP_TOLERANCE:
            return AbortReason.PERCEPTUAL
        return None

    # -- admission ----------------------------------------------------------

    def request(self, instance: TaskInstance, now: float) -> AdmissionOutcome:
        reason = self.first_failing(instance.task)
        if reason is None:
            self._activate(instance, now)
            return Granted()
        if instance.task.initiator is Initiator.MACHINE:
            return Aborted(reason=reason)
        existing = next(
            (q for q in self._queue if q.task.name == instance.task.name), None
        )
        if existing is not None:
            return Queued(
                position=self.queued_instances().index(existing),
                reason=reason,
                coalesced=True,
            )
        self._queue.append(instance)
        self._recompute()
        return Queued(position=self.queued_instances().index(instance), reason=reason)

    def release(self, instance: TaskInstance, now: float, admit: bool = True) -> list[TaskInstance]:
        """Free an active instance; admit every queued instance that now fits.

        Returns the admitted instances in admission (priority) order.
        ``admit=False`` skips the queue scan (used when a trial is torn down).
        """
        if self._by_channel.get(instance.task.perception_type) is not instance:
            raise InconsistentStateError(
                f"release of instance {instance.uid} ({instance.task.name}) which is not active"
            )
        del self._by_channel[instance.task.perception_type]
        self._recompute()
        if not admit:
            return []
        admitted: list[TaskInstance] = []
        for candidate in self.queued_instances():
            if self.first_failing(candidate.task) is None:
                self._queue.remove(candidate)
                self._activate(candidate, now)
                admitted.append(candidate)
        return admitted

    def _activate(self, instance: TaskInstance, now: float) -> None:
        if instance.task.perception_type in self._by_channel:
            raise InconsistentStateError(
                f"channel {instance.task.perception_type.value} already occupied"
            )
        instance.started_at = now
        self._by_channel[instance.task.perception_type] = instance
        self._recompute()

    # -- observation ---------------------------------------------------------

    def snapshot(self) -> LoadSnapshot:
        return LoadSnapshot(
            cognitive=self.cognitive_sum,
            perceptual=self.perceptual_sum,
            cognitive_demand=self.cognitive_demand,
            perceptual_demand=self.perceptual_demand,
        )

    def queued_channel_conflict(self) -> bool:
        """True if any queued instance is currently blocked by its channel."""
        return any(
            self.first_failing(q.task) is AbortReason.CHANNEL for q in self._queue
        )
