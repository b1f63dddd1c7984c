"""Number-based opinion dynamics baselines: bounded confidence and anchored averaging.

Both engines are synchronous: every agent's update for day t reads only the
day t-1 belief vector, so agent processing order never affects the result.
Updates are convex combinations of values already inside [-2, 2], so no
clipping is needed; ``run_numeric`` rejects initial beliefs outside it by
``population.check_beliefs``, the check every engine's beliefs pass.

A day is a pure function of the previous day's beliefs, the parameters and
the fixed anchors. So a day that repeats, bit for bit, the day before it (a
fixed point) or the day two before it (rounding can leave a few last bits
alternating) starts a cycle every later day follows, and ``run_numeric``
maps those days to the cycle's rows instead of computing or storing them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import INF, ParameterError, check_days
from .graphs import NetworkGraph, belief_vector
from .population import check_beliefs
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
    agent, over the exposure set that ``exposure_mask`` keeps, as in ``bcm_day``.
    Agents with an empty exposure set keep their previous belief."""
    p.validate()
    old = belief_vector(g, beliefs)
    anchors = belief_vector(g, anchors)
    heard_values = old[g.indices]
    keep = exposure_mask(p.exposure_mode, p.similarity_threshold, np.abs(heard_values - old[g.rows]))
    heard, mean_heard = g.row_means(heard_values, keep)
    new = old.copy()
    new[heard] = p.alpha * anchors[heard] + (1.0 - p.alpha) * mean_heard
    return new


def run_numeric(g: NetworkGraph, initial_beliefs, params, days: int) -> tuple:
    """The belief trajectory as ``(rows, index)``: day d's beliefs are
    ``rows[index[d]]``, so ``rows[index]`` is the (days + 1, n) trajectory.

    The class of ``params`` names the engine: a BcmParams runs ``bcm_day``, an
    FjParams ``fj_day`` with day 0 as the anchors. The days run until one repeats,
    bit for bit, the day before it or the day two before it: ``rows`` ends before
    it, in a (days + 1, n) buffer whose later rows are never written, so never
    resident, and ``index`` follows that one- or two-day cycle to the end."""
    if not isinstance(params, (BcmParams, FjParams)):
        raise ParameterError(f"numeric engine params must be BcmParams or FjParams, got {type(params).__name__}")
    check_days(days)
    rows = np.empty((days + 1, g.n), dtype=float)
    rows[0] = belief_vector(g, initial_beliefs)
    check_beliefs(rows[0])
    bits = rows.view(np.int64)  # bits, not ==: a day that turns 0.0 into -0.0 is no repeat
    index = np.arange(days + 1)
    for t in range(1, days + 1):
        if isinstance(params, BcmParams):
            rows[t] = bcm_day(g, rows[t - 1], params)
        else:
            rows[t] = fj_day(g, rows[t - 1], params, rows[0])
        period = next((p for p in (1, 2) if p <= t and (bits[t] == bits[t - p]).all()), 0)
        if period:  # day t is row t - period, and the later days follow the cycle
            index[t:] = t - period + np.arange(days + 1 - t) % period
            return rows[:t], index
    return rows, index
