"""Daily echo-chamber indicators.

Three metrics are tracked per day:

* polarization -- population variance of belief values (divide by N),
  high when opinions split sharply.
* global disagreement -- ``(1/2N) * sum_i DG_i`` where ``DG_i`` is the mean
  squared belief difference between node i and its neighbors; isolated
  nodes contribute 0. Zero iff every connected pair agrees exactly.
* neighbor correlation -- a single Pearson correlation, across all
  non-isolated nodes, between each node's own belief and the mean belief
  of its neighbors. Values near 1 indicate homophilous embedding (echo
  chambers), near 0 diverse exposure. Undefined (``None``) when either
  vector is constant, e.g. under full consensus.

Run-level deltas are final-day minus day-0 values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ParameterError
from .graphs import NetworkGraph, belief_vector

METRIC_NAMES = ("polarization", "global_disagreement", "nci")


def polarization(beliefs) -> float:
    """Population variance of the belief vector (divide by N, not N-1)."""
    values = np.asarray(beliefs, dtype=float)
    if values.size < 1:
        raise ParameterError("polarization needs at least one belief")
    return float(np.mean((values - values.mean()) ** 2))


def global_disagreement(g: NetworkGraph, beliefs) -> float:
    values = belief_vector(g, beliefs)
    _, mean_sq = g.row_means((values[g.rows] - values[g.indices]) ** 2)
    return float(mean_sq.sum()) / (2 * g.n)


def nci(g: NetworkGraph, beliefs) -> Optional[float]:
    """Neighbor correlation index; ``None`` when undefined (constant vectors
    or fewer than two non-isolated nodes)."""
    values = belief_vector(g, beliefs)
    connected, nm_arr = g.row_means(values[g.indices])
    own_arr = values[connected]
    if own_arr.size < 2:
        return None
    if np.ptp(own_arr) == 0 or np.ptp(nm_arr) == 0:
        return None
    r = float(np.corrcoef(own_arr, nm_arr)[0, 1])
    # guard against tiny excursions outside [-1, 1] from floating point
    return max(-1.0, min(1.0, r))


@dataclass(frozen=True)
class MetricsSnapshot:
    day: int
    polarization: float
    global_disagreement: float
    nci: Optional[float]
    beliefs: tuple

    def csv_row(self) -> str:
        nci_cell = "" if self.nci is None else repr(self.nci)
        return f"{self.day},{self.polarization!r},{self.global_disagreement!r},{nci_cell}"


METRICS_CSV_HEADER = "day,polarization,global_disagreement,nci"


def snapshot(day: int, g: NetworkGraph, beliefs) -> MetricsSnapshot:
    values = np.asarray(beliefs, dtype=float)
    return MetricsSnapshot(
        day=day,
        polarization=polarization(values),
        global_disagreement=global_disagreement(g, values),
        nci=nci(g, values),
        beliefs=tuple(values.tolist()),
    )


def deltas(snapshots: Sequence[MetricsSnapshot]) -> tuple:
    """(final - initial) for each metric; the NCI delta is ``None`` if either
    endpoint is undefined."""
    if len(snapshots) < 2:
        raise ParameterError("need at least two snapshots to take a delta")
    first, last = snapshots[0], snapshots[-1]
    d_pol = last.polarization - first.polarization
    d_dg = last.global_disagreement - first.global_disagreement
    if first.nci is None or last.nci is None:
        d_nci = None
    else:
        d_nci = last.nci - first.nci
    return (d_pol, d_dg, d_nci)
