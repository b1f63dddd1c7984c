"""Similarity-based selection of which neighbors an agent hears from.

The recommended set keeps only neighbors whose belief differs from the
agent's by at most a threshold, modeling engagement-driven content curation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import ParameterError
from .graphs import NetworkGraph

EXPOSURE_MODES = ("all_neighbors", "recommended")

DEFAULT_SIMILARITY_THRESHOLD = 2.0
DEFAULT_EXPOSURE_CAP = 8  # language engine only; numeric engines are uncapped


def recommend(g: NetworkGraph, beliefs, i: int, threshold: float) -> set:
    """Neighbors j of i with ``|beliefs[i] - beliefs[j]| <= threshold``."""
    if not 0 <= i < g.n:
        raise ParameterError(f"agent index {i} out of range for n={g.n}")
    if len(beliefs) != g.n:
        raise ParameterError(f"belief vector length {len(beliefs)} != node count {g.n}")
    if threshold < 0:
        raise ParameterError(f"threshold must be >= 0, got {threshold}")
    own = beliefs[i]
    neighbors = g.indices[g.indptr[i]:g.indptr[i + 1]].tolist()
    return {j for j in neighbors if abs(own - beliefs[j]) <= threshold}


def exposure_set(
    g: NetworkGraph,
    beliefs,
    i: int,
    mode: str,
    cap: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
) -> list:
    """Agents whose opinions reach agent ``i`` today, in ascending index order.

    ``mode="all_neighbors"`` returns the full neighborhood;
    ``mode="recommended"`` applies the similarity filter. When the result
    exceeds ``cap`` a uniform random subset of size ``cap`` is drawn from the
    supplied ``rng`` (ascending order is restored afterwards).
    """
    if mode not in EXPOSURE_MODES:
        raise ParameterError(f"unknown exposure mode {mode!r}")
    if mode == "all_neighbors":
        if not 0 <= i < g.n:
            raise ParameterError(f"agent index {i} out of range for n={g.n}")
        selected = g.indices[g.indptr[i]:g.indptr[i + 1]].tolist()
    else:
        selected = sorted(recommend(g, beliefs, i, threshold))
    if cap is not None:
        if cap < 1:
            raise ParameterError(f"cap must be >= 1, got {cap}")
        if len(selected) > cap:
            if rng is None:
                raise ParameterError("capping an exposure set requires an rng")
            picked = rng.choice(len(selected), size=cap, replace=False)
            selected = sorted(selected[k] for k in picked)
    return selected
