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

``snapshot`` computes a run's days together, with elementwise array
operations and ``reduceat`` sums only. Nothing goes through BLAS
(``np.corrcoef``, ``dot``, ``matmul``), whose rounding differs between CPUs,
so ``metrics.csv`` has the same bytes on any x86-64 host for one numpy version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ParameterError
from .graphs import NetworkGraph

# CSR entries (or nodes, if more) per chunk of days in ``snapshot``: each
# (days, entries) work array stays near 128 KiB, so a long run's metrics add
# no measurable peak memory.
_CHUNK_ENTRIES = 1 << 14


@dataclass(frozen=True)
class MetricsSnapshot:
    day: int
    polarization: float
    global_disagreement: float
    nci: Optional[float]

    def csv_row(self) -> str:
        nci_cell = "" if self.nci is None else repr(self.nci)
        return f"{self.day},{self.polarization!r},{self.global_disagreement!r},{nci_cell}"


METRICS_CSV_HEADER = "day,polarization,global_disagreement,nci"


def snapshot(day, g: NetworkGraph, beliefs):
    """The metrics of one day's beliefs; or, given a sequence of k day numbers and
    a (k, n) array of their beliefs, the list of the k days' snapshots.

    Each distinct row of beliefs, bit for bit, is computed once and any day that
    repeats it reuses its metrics: a fixed point, a two-day cycle, or a state seen
    again later. The distinct rows are computed a chunk at a time, and a one-day
    call is a chunk of one: each row's sums are reduced on their own, so its bits
    do not depend on the other rows in its chunk.
    """
    if np.ndim(day) == 0:
        return snapshot([day], g, np.reshape(beliefs, (1, -1)))[0]
    values = np.ascontiguousarray(beliefs, dtype=float)
    if values.shape != (len(day), g.n):
        raise ParameterError(f"beliefs of shape {values.shape} are not {len(day)} days of {g.n} nodes")
    # one opaque item per row, compared by its bytes: -0.0 and 0.0 stay apart
    distinct, source = np.unique(values.view(np.dtype((np.void, 8 * g.n))).ravel(), return_inverse=True)
    distinct = distinct.view(float).reshape(-1, g.n)
    step = max(1, _CHUNK_ENTRIES // max(g.indices.size, g.n))
    chunks = [_day_metrics(g, distinct[i:i + step]) for i in range(0, len(distinct), step)]
    pol, dis, r = (np.concatenate(parts)[source].tolist() for parts in zip(*chunks))
    return [MetricsSnapshot(d, p, q, None if math.isnan(v) else v) for d, p, q, v in zip(day, pol, dis, r)]


def _day_metrics(g: NetworkGraph, x: np.ndarray) -> tuple:
    """(polarization, global disagreement, NCI or NaN where undefined) of each row of ``x``."""
    k, n = x.shape
    degree = np.diff(g.indptr)
    connected = degree > 0
    # a connected row's entries on one day are one run of x[:, g.indices]: one segment each
    starts = (np.arange(k)[:, None] * g.indices.size + g.indptr[:-1][connected]).ravel()

    def row_means(entries):  # mean over the entries of each (day, connected row)
        return np.add.reduceat(entries.ravel(), starts).reshape(k, -1) / degree[connected]

    neighbor = np.take(x, g.indices, axis=1)
    diff = np.repeat(x, degree, axis=1) - neighbor  # each entry's own belief minus its neighbor's
    disagreement = _row_sums(row_means(np.square(diff, out=diff))) / (2 * n)  # isolated nodes add 0
    own, around = x[:, connected], row_means(neighbor)
    c = own.shape[1]
    r = np.full(k, np.nan)
    if c >= 2:
        defined = (np.ptp(own, axis=1) > 0) & (np.ptp(around, axis=1) > 0)  # constant vectors: undefined
        a = own - (_row_sums(own) / c)[:, None]
        b = around - (_row_sums(around) / c)[:, None]
        # Pearson's r from elementwise products and sums, never BLAS, whose rounding depends on the CPU
        np.divide(_row_sums(a * b), np.sqrt(_row_sums(a * a) * _row_sums(b * b)), out=r, where=defined)
    # clip guards against tiny excursions outside [-1, 1] from floating point
    return _variances(x), disagreement, np.clip(r, -1.0, 1.0)


def _variances(x: np.ndarray) -> np.ndarray:
    """Population variance of each row of ``x``."""
    n = x.shape[1]
    centred = x - (_row_sums(x) / n)[:, None]
    return _row_sums(centred * centred) / n


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Each row's sum. ``reduceat`` reduces every row on its own, so a row's bits
    do not depend on the other rows, as those of a 2-D ``sum(axis=1)`` can."""
    k, m = x.shape
    return np.add.reduceat(x.ravel(), np.arange(k) * m) if m else np.zeros(k)


def polarization(beliefs) -> float:
    """Population variance of the belief vector (divide by N, not N-1)."""
    values = np.asarray(beliefs, dtype=float)
    if values.size < 1:
        raise ParameterError("polarization needs at least one belief")
    return float(_variances(values.reshape(1, -1))[0])


def global_disagreement(g: NetworkGraph, beliefs) -> float:
    return snapshot(0, g, beliefs).global_disagreement


def nci(g: NetworkGraph, beliefs) -> Optional[float]:
    """Neighbor correlation index; ``None`` when undefined (constant vectors
    or fewer than two non-isolated nodes)."""
    return snapshot(0, g, beliefs).nci


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
