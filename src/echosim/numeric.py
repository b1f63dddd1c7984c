"""Number-based opinion dynamics baselines: bounded confidence and anchored averaging.

Both engines are synchronous: every agent's update for day t reads only the
day t-1 belief vector, so agent processing order never affects the result.
Updates are convex combinations of values already inside [-2, 2], so no
clipping is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import INF, ParameterError
from .graphs import NetworkGraph, belief_vector
from .recommendation import ExposureRule, exposure_mask
from .recommendation import exposure_set  # noqa: F401  unused; perfbench/spans.py patches this name

NUMERIC_ENGINES = ("bcm", "fj")


@dataclass(frozen=True)
class BcmParams(ExposureRule):
    """Bounded confidence: an agent moves toward the mean of neighbors whose
    belief lies within ``epsilon`` of its own, at rate ``mu``."""

    epsilon: float = field(default=2.0, metadata={"range": ("[", 0, INF, ")")})
    mu: float = field(default=0.3, metadata={"range": ("(", 0, 0.5, "]")})


@dataclass(frozen=True)
class FjParams(ExposureRule):
    """Anchored averaging: each agent blends its immutable anchor belief
    (weight ``alpha``) with the mean of its exposure set (weight 1 - alpha).
    ``alpha = 1`` reproduces the anchors exactly. The anchors are run state,
    not a parameter: ``fj_day`` takes them, and ``run_numeric`` passes the
    initial beliefs."""

    alpha: float = field(default=0.3, metadata={"range": ("[", 0, 1, "]")})


def bcm_day(g: NetworkGraph, beliefs, p: BcmParams) -> np.ndarray:
    """One synchronous day of the bounded-confidence update.

    For each agent the exposure set (all neighbors, or the recommended ones)
    is further gated by ``|v_i - v_j| <= epsilon``; if any neighbor qualifies,
    ``v_i`` moves by ``mu`` times the mean pairwise difference.
    """
    p.validate()
    old = belief_vector(g, beliefs)
    diff = old[g.indices] - old[g.rows]
    distance = np.abs(diff)
    keep = (distance <= p.epsilon) & exposure_mask(p.exposure_mode, p.similarity_threshold, distance)
    heard, mean_diff = g.row_means(diff, keep)
    new = old.copy()
    new[heard] += p.mu * mean_diff
    return new


def fj_day(g: NetworkGraph, beliefs, p: FjParams, anchors) -> np.ndarray:
    """One synchronous day of anchored averaging toward ``anchors``, one per
    agent. Agents with an empty exposure set keep their previous belief."""
    p.validate()
    old = belief_vector(g, beliefs)
    anchors = belief_vector(g, anchors)
    heard_values = old[g.indices]
    keep = exposure_mask(p.exposure_mode, p.similarity_threshold, np.abs(heard_values - old[g.rows]))
    heard, mean_heard = g.row_means(heard_values, keep)
    new = old.copy()
    new[heard] = p.alpha * anchors[heard] + (1.0 - p.alpha) * mean_heard
    return new


def run_numeric(engine: str, g: NetworkGraph, initial_beliefs, params, days: int) -> np.ndarray:
    """Belief trajectory of shape (days + 1, n); row 0 is the initial vector.

    ``engine`` is "bcm" or "fj"; the "fj" anchors are the initial beliefs.
    """
    if engine not in NUMERIC_ENGINES:
        raise ParameterError(f"unknown numeric engine {engine!r}")
    if days < 1:
        raise ParameterError(f"days must be >= 1, got {days}")
    trajectory = np.empty((days + 1, g.n), dtype=float)
    trajectory[0] = belief_vector(g, initial_beliefs)
    for t in range(1, days + 1):
        if engine == "bcm":
            trajectory[t] = bcm_day(g, trajectory[t - 1], params)
        else:
            trajectory[t] = fj_day(g, trajectory[t - 1], params, trajectory[0])
    return trajectory
