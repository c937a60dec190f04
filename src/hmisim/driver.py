"""Driver-side behaviour: periodic impulses, beliefs, and awareness.

Cognitive functions model the driver's recurring urges (check the speed,
glance at the mirrors, ...): each one fires at normally distributed
intervals drawn from its own random substream and requests its target
task.  Ground truth and the driver's beliefs are plain dicts from a
tracked vehicle/road parameter to its value: the belief is the last
perceived (discretized) value, and completing a task that carries an
awareness parameter refreshes it from ground truth.

Situation awareness at an instant is the fraction of tracked parameters
whose belief matches ground truth, with numeric parameters compared on a
discretized grid (e.g. speed bucketed at the instrument's display
resolution).  With nothing tracked, awareness is defined as 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .vehicle import MAX_LEVEL

#: Shortest possible interval between two firings of one cognitive function.
MIN_TRIGGER_INTERVAL = 0.001

ALL_LEVELS = frozenset(range(MAX_LEVEL + 1))


@dataclass(frozen=True)
class CognitiveFunction:
    name: str
    mean_interval: float
    sigma: float
    target_task: str
    enabled_levels: frozenset[int] = ALL_LEVELS


def default_sigma(mean_interval: float) -> float:
    """Spread used when a scenario gives only the mean: a quarter of it."""
    return mean_interval / 4.0


def next_trigger(function: CognitiveFunction, stream: np.random.Generator, now: float) -> float:
    """Next firing time: now plus a normal draw, floored at a tiny positive step."""
    draw = float(stream.normal(function.mean_interval, function.sigma))
    return now + max(MIN_TRIGGER_INTERVAL, draw)


@dataclass
class AwarenessParameter:
    """A tracked ground-truth parameter and how beliefs are compared to it."""

    name: str
    resolution: float | None = None
    initial: Any | None = None


def discretize(value: Any, resolution: float | None) -> Any:
    """Snap numeric values to the comparison grid; pass others through.

    A grid finer than the float spacing at ``value`` (``value / resolution``
    overflows) leaves the value as it is.
    """
    if resolution is None or isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    try:
        return round(value / resolution) * resolution
    except OverflowError:
        return value


def awareness(
    beliefs: dict[str, Any],
    truth: dict[str, Any],
    parameters: dict[str, AwarenessParameter],
) -> float:
    """Fraction of tracked parameters whose belief matches ground truth."""
    if not parameters:
        return 1.0
    matching = 0
    for name, param in parameters.items():
        if name in beliefs and beliefs[name] == discretize(truth[name], param.resolution):
            matching += 1
    return matching / len(parameters)
