"""Attentional channels and the workload component scale.

The driver model distinguishes seven mutually exclusive attentional
channels (one task at a time per channel) plus a task-level cognitive
demand.  Workload magnitudes come from a component scale: a lookup from
``(category, descriptor)`` to a value on a 0-10 scale.  The bundled
default scale covers one cognitive category and four perceptual ones
(visual, auditory, haptic, psychomotor); user files may override or
extend individual entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class AttentionalChannel(str, Enum):
    VISUAL = "visual"
    VISUAL_PERIPHERAL = "visual-peripheral"
    AUDITORY_VOCAL = "auditory-vocal"
    AUDITORY_NON_VOCAL = "auditory-non-vocal"
    HAPTIC_HANDS = "haptic-hands"
    HAPTIC_SEAT = "haptic-seat"
    PSYCHOMOTOR = "psychomotor"


class ScaleCategory(str, Enum):
    COGNITIVE = "cognitive"
    VISUAL = "visual"
    AUDITORY = "auditory"
    HAPTIC = "haptic"
    PSYCHOMOTOR = "psychomotor"


#: Which scale category supplies the perceptual workload for each channel.
PERCEPTUAL_CATEGORY: dict[AttentionalChannel, ScaleCategory] = {
    AttentionalChannel.VISUAL: ScaleCategory.VISUAL,
    AttentionalChannel.VISUAL_PERIPHERAL: ScaleCategory.VISUAL,
    AttentionalChannel.AUDITORY_VOCAL: ScaleCategory.AUDITORY,
    AttentionalChannel.AUDITORY_NON_VOCAL: ScaleCategory.AUDITORY,
    AttentionalChannel.HAPTIC_HANDS: ScaleCategory.HAPTIC,
    AttentionalChannel.HAPTIC_SEAT: ScaleCategory.HAPTIC,
    AttentionalChannel.PSYCHOMOTOR: ScaleCategory.PSYCHOMOTOR,
}

#: Bundled workload component scale: (category, descriptor) -> demand value.
DEFAULT_SCALE_ENTRIES: dict[tuple[ScaleCategory, str], float] = {
    (ScaleCategory.COGNITIVE, "Simple association"): 1.0,
    (ScaleCategory.COGNITIVE, "Select alternative"): 1.2,
    (ScaleCategory.COGNITIVE, "Sign/signal recognition"): 3.7,
    (ScaleCategory.COGNITIVE, "Evaluate single aspect"): 4.6,
    (ScaleCategory.COGNITIVE, "Encoding/Decoding/Recall"): 5.3,
    (ScaleCategory.COGNITIVE, "Evaluate several aspects"): 6.8,
    (ScaleCategory.AUDITORY, "Non-vocal signal recognition"): 6.6,
    (ScaleCategory.AUDITORY, "Vocal signal recognition"): 4.9,
    (ScaleCategory.HAPTIC, "Detect simple signal"): 1.0,
    (ScaleCategory.VISUAL, "Detect simple signal"): 1.0,
    (ScaleCategory.VISUAL, "Discriminate (Sign)"): 3.7,
    (ScaleCategory.VISUAL, "Inspect/Check (numerical)"): 4.0,
    (ScaleCategory.VISUAL, "Read (text)"): 5.9,
    (ScaleCategory.VISUAL, "Scan/Search/Monitor"): 7.0,
    (ScaleCategory.PSYCHOMOTOR, "Push the button"): 2.2,
    (ScaleCategory.PSYCHOMOTOR, "Switch toggle"): 2.2,
    (ScaleCategory.PSYCHOMOTOR, "Continuous adjustive controller"): 2.6,
    (ScaleCategory.PSYCHOMOTOR, "Discrete adjustive controller"): 5.8,
}


class UnknownDescriptorError(LookupError):
    """Raised when a (category, descriptor) pair is not on the scale."""

    def __init__(self, category: ScaleCategory, descriptor: str) -> None:
        super().__init__(f"no workload entry for ({category.value}, {descriptor!r})")
        self.category = category
        self.descriptor = descriptor


@dataclass(frozen=True)
class WorkloadScale:
    """Immutable (category, descriptor) -> workload value lookup table."""

    entries: dict[tuple[ScaleCategory, str], float] = field(
        default_factory=lambda: dict(DEFAULT_SCALE_ENTRIES)
    )

    def lookup(self, category: ScaleCategory, descriptor: str) -> float:
        key = (category, descriptor.strip())
        try:
            return self.entries[key]
        except KeyError:
            raise UnknownDescriptorError(category, descriptor.strip()) from None

    def descriptors(self, category: ScaleCategory) -> dict[str, float]:
        """All descriptors of one category, in scale order."""
        return {d: v for (c, d), v in self.entries.items() if c is category}

    def with_overrides(self, overrides: dict[tuple[ScaleCategory, str], float]) -> "WorkloadScale":
        merged = dict(self.entries)
        merged.update(overrides)
        return WorkloadScale(entries=merged)


def perceptual_category(channel: AttentionalChannel) -> ScaleCategory:
    return PERCEPTUAL_CATEGORY[channel]
