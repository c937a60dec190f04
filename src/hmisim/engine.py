"""Discrete-event simulation kernel.

A single-trial simulation runs on one :class:`EventCalendar`: a priority
queue of timestamped events ordered by ``(time, sequence)``, where the
sequence number is assigned at scheduling time.  Two events with the same
timestamp therefore fire in the order they were scheduled (FIFO), which
makes every trial fully deterministic.

Randomness is isolated in :class:`RandomStreams`: every stochastic source
(road process, each periodic driver impulse, ...) pulls from its own named
substream derived from a single 64-bit master seed.  Streams are
independent of each other and of draw interleaving, so two simulations
that share a master seed see identical draws per stream even when their
event orders differ.  This is what makes paired (common-random-numbers)
comparisons between cockpit designs work.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from enum import Enum
from typing import Any, Callable

import numpy as np

_SEED_MASK = 0xFFFFFFFFFFFFFFFF  # master seeds are treated as 64-bit values


class SimulationError(Exception):
    """The kernel cannot continue the current trial."""


class EventKind(str, Enum):
    """What can be put on the calendar (values must differ, or members alias)."""

    TRIGGER = "trigger"
    TASK_END = "task-end"
    ROAD_CHANGE = "road-change"
    TOR = "tor"
    SPEED_CHANGE = "speed-change"


class EventCalendar:
    """Future event list with deterministic same-time ordering.

    Every scheduled event is a heap entry ``(time, sequence, kind, payload)``
    and fires exactly once, when :meth:`run_until` reaches its time.
    ``max_pending`` is the largest number of events ever waiting at once.
    """

    def __init__(self) -> None:
        self.clock: float = 0.0
        self._heap: list[tuple[float, int, EventKind, Any]] = []
        self._next_sequence = 0
        self.max_pending = 0

    def schedule(self, time: float, kind: EventKind, payload: Any = None) -> None:
        """Add an event at ``time`` (>= clock, finite)."""
        if not math.isfinite(time):
            raise SimulationError(f"cannot schedule event at non-finite time {time!r}")
        if time < self.clock:
            raise SimulationError(
                f"cannot schedule {kind.value} at t={time} before current clock t={self.clock}"
            )
        heapq.heappush(self._heap, (float(time), self._next_sequence, kind, payload))
        self._next_sequence += 1
        if len(self._heap) > self.max_pending:
            self.max_pending = len(self._heap)

    def run_until(self, t_end: float, dispatcher: Callable[[float, EventKind, Any], None]) -> None:
        """Fire every pending event with time <= ``t_end`` (inclusive), in order.

        Each event is passed as ``dispatcher(time, kind, payload)``, which
        may schedule further events.  On return the clock sits at ``t_end``.
        A dispatcher exception aborts the trial with a diagnostic naming the
        offending event.
        """
        if t_end < self.clock:
            raise SimulationError(f"run_until({t_end}) is before current clock t={self.clock}")
        while self._heap and self._heap[0][0] <= t_end:
            time, _, kind, payload = heapq.heappop(self._heap)
            self.clock = time
            try:
                dispatcher(time, kind, payload)
            except SimulationError:
                raise
            except Exception as exc:
                raise SimulationError(
                    f"dispatcher failed on {kind.value} event at t={time}: {exc}"
                ) from exc
        self.clock = t_end


class RandomStreams:
    """Named, independently seeded random substreams.

    Each name maps to its own :class:`numpy.random.Generator`, seeded from
    ``(master_seed, sha256(name))``.  Identical master seeds reproduce
    identical per-stream draw sequences no matter how draws from different
    streams interleave.
    """

    def __init__(self, master_seed: int) -> None:
        self.master_seed = int(master_seed) & _SEED_MASK
        self._generators: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        generator = self._generators.get(name)
        if generator is None:
            tag = int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "big")
            seed_seq = np.random.SeedSequence([self.master_seed, tag])
            generator = np.random.default_rng(seed_seq)
            self._generators[name] = generator
        return generator
