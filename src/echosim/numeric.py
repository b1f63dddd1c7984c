"""Number-based opinion dynamics baselines: bounded confidence and anchored averaging.

Both engines are synchronous: every agent's update for day t reads only the
day t-1 belief vector, so agent processing order never affects the result.
Updates are convex combinations of values already inside [-2, 2], so no
clipping is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ParameterError
from .graphs import NetworkGraph, belief_vector
from .recommendation import DEFAULT_SIMILARITY_THRESHOLD
# unused: kept because perfbench/spans.py:install patches it, and speed-ups may not edit the benchmark
from .recommendation import exposure_set  # noqa: F401

NUMERIC_ENGINES = ("bcm", "fj")


@dataclass(frozen=True)
class BcmParams:
    """Bounded confidence: an agent moves toward the mean of neighbors whose
    belief lies within ``epsilon`` of its own, at rate ``mu``."""

    epsilon: float = 2.0
    mu: float = 0.3
    use_recommendation: bool = True
    similarity_threshold: float = DEFAULT_SIMILARITY_THRESHOLD

    def validate(self) -> None:
        if self.epsilon < 0:
            raise ParameterError(f"epsilon must be >= 0, got {self.epsilon}")
        if not 0 < self.mu <= 0.5:
            raise ParameterError(f"mu must be in (0, 0.5], got {self.mu}")
        if self.similarity_threshold < 0:
            raise ParameterError(f"similarity threshold must be >= 0, got {self.similarity_threshold}")


@dataclass(frozen=True)
class FjParams:
    """Anchored averaging: each agent blends an immutable anchor belief
    (weight ``alpha``) with the mean of its exposure set (weight 1 - alpha).
    ``alpha = 1`` reproduces the anchors exactly. ``anchors`` defaults to the
    run's initial beliefs when left unset."""

    alpha: float = 0.3
    use_recommendation: bool = True
    similarity_threshold: float = DEFAULT_SIMILARITY_THRESHOLD
    anchors: Optional[tuple] = field(default=None)

    def validate(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ParameterError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.similarity_threshold < 0:
            raise ParameterError(f"similarity threshold must be >= 0, got {self.similarity_threshold}")

    def with_anchors(self, anchors) -> "FjParams":
        return FjParams(
            alpha=self.alpha,
            use_recommendation=self.use_recommendation,
            similarity_threshold=self.similarity_threshold,
            anchors=tuple(float(a) for a in anchors),
        )


def bcm_day(g: NetworkGraph, beliefs, p: BcmParams) -> np.ndarray:
    """One synchronous day of the bounded-confidence update.

    For each agent the exposure set (recommendation-filtered if enabled) is
    further gated by ``|v_i - v_j| <= epsilon``; if any neighbor qualifies,
    ``v_i`` moves by ``mu`` times the mean pairwise difference.
    """
    p.validate()
    old = belief_vector(g, beliefs)
    diff = old[g.indices] - old[g.rows]
    distance = np.abs(diff)
    keep = distance <= p.epsilon
    if p.use_recommendation:
        keep &= distance <= p.similarity_threshold
    heard, mean_diff = g.row_means(diff, keep)
    new = old.copy()
    new[heard] += p.mu * mean_diff
    return new


def fj_day(g: NetworkGraph, beliefs, p: FjParams) -> np.ndarray:
    """One synchronous day of anchored averaging. Agents with an empty
    exposure set keep their previous belief."""
    p.validate()
    old = belief_vector(g, beliefs)
    if p.anchors is None or len(p.anchors) != old.size:
        raise ParameterError("fj_day requires anchors aligned with the belief vector")
    anchors = np.asarray(p.anchors, dtype=float)
    heard_values = old[g.indices]
    keep = None
    if p.use_recommendation:
        keep = np.abs(heard_values - old[g.rows]) <= p.similarity_threshold
    heard, mean_heard = g.row_means(heard_values, keep)
    new = old.copy()
    new[heard] = p.alpha * anchors[heard] + (1.0 - p.alpha) * mean_heard
    return new


def run_numeric(engine: str, g: NetworkGraph, initial_beliefs, params, days: int) -> np.ndarray:
    """Belief trajectory of shape (days + 1, n); row 0 is the initial vector.

    ``engine`` is "bcm" or "fj". For "fj", anchors default to the initial
    beliefs if the params carry none.
    """
    if engine not in NUMERIC_ENGINES:
        raise ParameterError(f"unknown numeric engine {engine!r}")
    if days < 1:
        raise ParameterError(f"days must be >= 1, got {days}")
    initial = np.asarray(initial_beliefs, dtype=float)
    if engine == "fj" and params.anchors is None:
        params = params.with_anchors(initial)
    step = bcm_day if engine == "bcm" else fj_day

    trajectory = np.empty((days + 1, g.n), dtype=float)
    trajectory[0] = initial
    for t in range(1, days + 1):
        trajectory[t] = step(g, trajectory[t - 1], params)
    return trajectory
