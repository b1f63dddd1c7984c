"""Similarity-based selection of which neighbors an agent hears from.

The recommended set keeps only neighbors whose belief differs from the
agent's by at most a threshold, modeling engagement-driven content curation.
All three engines apply this one rule: ``exposure_mask`` over the belief
distances along the graph's CSR rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import INF, ParameterError, check_fields, check_index
from .graphs import NetworkGraph, belief_vector

EXPOSURE_MODES = ("all_neighbors", "recommended")

DEFAULT_SIMILARITY_THRESHOLD = 2.0
DEFAULT_EXPOSURE_CAP = 8  # language engine only; numeric engines are uncapped


@dataclass(frozen=True)
class ExposureRule:
    """The two settings of the rule every engine's parameters inherit."""

    exposure_mode: str = field(default="recommended", metadata={"choices": EXPOSURE_MODES})
    similarity_threshold: float = field(default=DEFAULT_SIMILARITY_THRESHOLD,
                                        metadata={"range": ("[", 0, INF, ")")})

    def validate(self) -> None:
        check_fields(self)


def exposure_mask(mode: str, threshold: float, distance: np.ndarray) -> np.ndarray:
    """Which neighbors at belief distances ``distance`` an agent hears: every
    one under "all_neighbors", those within ``threshold`` under "recommended"."""
    if mode == "all_neighbors":
        return np.ones(distance.shape, dtype=bool)
    return distance <= threshold


def _check_query(mode: str, threshold: float, cap: Optional[int]) -> None:
    """ExposureRule's checks of ``mode`` and ``threshold``, then the cap's."""
    ExposureRule(exposure_mode=mode, similarity_threshold=threshold).validate()
    if cap is not None and cap < 1:
        raise ParameterError(f"cap must be >= 1, got {cap}")


def _capped(selected: list, cap: Optional[int], rng: Optional[np.random.Generator]) -> list:
    """``selected`` as it is, or when it holds more than ``cap`` agents a uniform
    subset of ``cap`` of them drawn from ``rng``, in ascending order again."""
    if cap is None or len(selected) <= cap:
        return selected
    if rng is None:
        raise ParameterError("capping an exposure set requires an rng")
    picked = rng.choice(len(selected), size=cap, replace=False)
    return sorted(selected[k] for k in picked)


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
    ``mode="recommended"`` keeps the neighbors ``j`` with
    ``|beliefs[i] - beliefs[j]| <= threshold``. When the result exceeds
    ``cap`` a uniform random subset of size ``cap`` is drawn from the
    supplied ``rng`` (ascending order is restored afterwards). A ``mode`` or
    ``threshold`` that ``ExposureRule`` rejects raises its ParameterError.
    """
    _check_query(mode, threshold, cap)
    check_index("agent index", i, g.n)
    values = belief_vector(g, beliefs)
    neighbors = g.indices[g.indptr[i]:g.indptr[i + 1]]
    selected = neighbors[exposure_mask(mode, threshold, np.abs(values[neighbors] - values[i]))].tolist()
    return _capped(selected, cap, rng)


def all_exposure_sets(
    g: NetworkGraph,
    beliefs,
    mode: str,
    cap: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
) -> list:
    """Every agent's exposure set, as ``[exposure_set(g, beliefs, i, mode, cap,
    rng, threshold) for i in range(g.n)]`` returns them, with the same draws
    from ``rng`` and the same errors: one ``exposure_mask`` over the belief
    distance of every CSR entry, the rows cut from one list, and a capped draw,
    in agent order, only for the rows longer than ``cap``."""
    _check_query(mode, threshold, cap)
    values = belief_vector(g, beliefs)
    keep = exposure_mask(mode, threshold, np.abs(values[g.indices] - values[g.rows]))
    kept = g.indices[keep].tolist()
    # bounds[i] is the number of kept entries before row i
    bounds = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum(keep, out=bounds[1:])
    bounds = bounds[g.indptr]
    cuts = bounds.tolist()
    sets = [kept[start:end] for start, end in zip(cuts, cuts[1:])]
    if cap is not None:
        for i in np.flatnonzero(np.diff(bounds) > cap).tolist():
            sets[i] = _capped(sets[i], cap, rng)
    return sets
