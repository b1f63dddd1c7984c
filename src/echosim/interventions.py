"""Nudge policies that counter polarization in the language engine.

Active nudge: show a polarized agent the stated opinion of the agent most
opposed to it. Passive nudge: share fixed open-mindedness content without
advocating any position. Both target agents whose belief magnitude reaches
the extremity threshold, and apply to the language engine only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import ParameterError, check_fields, check_index
from .graphs import NetworkGraph, hop_layers

NUDGE_KINDS = ("none", "active", "passive")

DEFAULT_PASSIVE_TEXTS = (
    "Issues are rarely black and white.",
    "Many societal and political issues are complex and multifaceted.",
    "Hearing out a different view can sharpen your own thinking.",
)

ACTIVE_NUDGE_PREFIX = "An opposing perspective: "


@dataclass(frozen=True)
class NudgePolicy:
    kind: str = field(default="none", metadata={"choices": NUDGE_KINDS})
    extremity_threshold: int = field(default=2, metadata={"choices": (1, 2)})
    passive_texts: tuple[str, ...] = DEFAULT_PASSIVE_TEXTS

    def validate(self) -> None:
        check_fields(self)
        if self.kind == "passive" and not self.passive_texts:
            raise ParameterError("passive_texts must be non-empty for passive nudges")


def select_targets(beliefs, threshold: int) -> set:
    """Indices of agents with ``|belief| >= threshold``."""
    return {i for i, v in enumerate(beliefs) if abs(v) >= threshold}


def active_nudge_content(
    target: int, beliefs, opinion_texts: Sequence[str], g: NetworkGraph
) -> Optional[str]:
    """Opinion of the most opposed agent, framed as an opposing perspective.

    On the integer grid, the agents most opposed to a positive target hold the
    population's lowest belief, and those most opposed to a negative one its
    highest, if that belief has the opposite sign. Ties break toward the
    candidate nearest to the target in the graph, found by a breadth-first
    search that stops at the first hop layer holding one, then toward the
    lowest index. Returns None when no agent holds an opposite-sign belief.
    A ``target`` that is not an agent's index is a ParameterError.
    """
    beliefs = np.asarray(beliefs, dtype=float)
    check_index("target", target, len(beliefs))
    own = beliefs[target]
    far = beliefs.min() if own > 0 else beliefs.max()
    if not far * own < 0:  # also a neutral target
        return None
    tied = beliefs == far
    winner = np.argmax(tied)  # the lowest index, kept when no tied candidate is reachable
    if np.count_nonzero(tied) > 1:
        for layer in hop_layers(g, target):
            nearest = layer[tied[layer]]
            if nearest.size:
                winner = nearest.min()
                break
    return f'{ACTIVE_NUDGE_PREFIX}"{opinion_texts[winner]}"'


def passive_nudge_feed(rng: np.random.Generator, texts: Sequence[str] = DEFAULT_PASSIVE_TEXTS) -> Iterator[str]:
    """Endless rotation through ``texts`` starting at a seeded offset."""
    if not texts:
        raise ParameterError("passive nudge text list is empty")
    start = int(rng.integers(0, len(texts)))
    return itertools.islice(itertools.cycle(texts), start, None)
