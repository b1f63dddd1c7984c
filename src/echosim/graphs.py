"""Social network structures the simulation runs on.

Three generators are provided: a ring-lattice-with-rewiring small world,
a preferential-attachment scale-free network, and a uniform random graph.
All generators are deterministic given their parameters and a seeded
``numpy.random.Generator``. Graphs are undirected, simple (no self-loops,
no duplicate edges), and immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .errors import ParameterError

GRAPH_KINDS = ("small_world", "scale_free", "random")

# Defaults chosen so all three structures have expected degree ~4 at n=50,
# keeping cross-structure comparisons at matched density.
DEFAULT_SMALL_WORLD_K = 4
DEFAULT_SMALL_WORLD_P_REWIRE = 0.1
DEFAULT_SCALE_FREE_M = 2
DEFAULT_RANDOM_P_EDGE = 0.08


@dataclass(frozen=True, eq=False)
class NetworkGraph:
    """Undirected simple graph over nodes ``0..n-1`` in compressed sparse-row
    form: the neighbors of ``i`` are ``indices[indptr[i]:indptr[i + 1]]``,
    ascending; both arrays are read-only. ``edges`` (pairs ``(i, j)`` with
    ``i < j``) and ``adjacency`` (sorted neighbor tuples) are derived views.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple]) -> "NetworkGraph":
        if n < 1:
            raise ParameterError(f"node count must be >= 1, got {n}")
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        bad = (pairs[:, 0] == pairs[:, 1]) | (pairs.min(axis=1) < 0) | (pairs.max(axis=1) >= n)
        if bad.any():
            a, b = pairs[np.argmax(bad)].tolist()
            if a == b:
                raise ParameterError(f"self-loop on node {a}")
            raise ParameterError(f"edge ({a}, {b}) out of range for n={n}")
        a, b = pairs.T
        # each edge in both directions as row * n + col; sorting gives CSR order
        key = np.sort(np.concatenate([a * n + b, b * n + a]))
        rows, indices = np.divmod(key[np.diff(key, prepend=-1) != 0], n)  # duplicates dropped
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        indptr.flags.writeable = indices.flags.writeable = False
        return NetworkGraph(n=n, indptr=indptr, indices=indices)

    @cached_property
    def rows(self) -> np.ndarray:
        """Row of each entry of ``indices``: the node whose neighbor it is."""
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        rows.flags.writeable = False
        return rows

    def upper(self) -> tuple:
        """``(i, j)`` arrays of every edge once, with ``i < j``, in ascending order."""
        keep = self.rows < self.indices
        return self.rows[keep], self.indices[keep]

    def row_means(self, values: np.ndarray, keep: Optional[np.ndarray] = None) -> tuple:
        """(mask of rows with a kept entry, mean of ``values`` over each such row's
        kept entries, summed in order). ``values`` and ``keep`` run along ``indices``."""
        rows = self.rows
        if keep is not None:
            rows, values = rows[keep], values[keep]
        count = np.bincount(rows, minlength=self.n)
        total = np.bincount(rows, weights=values, minlength=self.n)
        nonempty = count > 0
        return nonempty, total[nonempty] / count[nonempty]

    @cached_property
    def edges(self) -> frozenset:
        i, j = self.upper()
        return frozenset(zip(i.tolist(), j.tolist()))

    @cached_property
    def adjacency(self) -> tuple:
        return tuple(tuple(ns.tolist()) for ns in np.split(self.indices, self.indptr[1:-1]))

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2


@dataclass(frozen=True)
class GraphSpec:
    """Parameters for one of the three generators.

    Exactly the parameters required by ``kind`` must be present:
    ``k``/``p_rewire`` for small_world, ``m`` for scale_free,
    ``p_edge`` for random.
    """

    kind: str
    n: int
    k: Optional[int] = None
    p_rewire: Optional[float] = None
    m: Optional[int] = None
    p_edge: Optional[float] = None

    def validate(self) -> None:
        if self.kind not in GRAPH_KINDS:
            raise ParameterError(f"unknown graph kind {self.kind!r}")
        if self.n < 1:
            raise ParameterError(f"node count must be >= 1, got {self.n}")
        required = {
            "small_world": ("k", "p_rewire"),
            "scale_free": ("m",),
            "random": ("p_edge",),
        }[self.kind]
        for name in ("k", "p_rewire", "m", "p_edge"):
            value = getattr(self, name)
            if name in required and value is None:
                raise ParameterError(f"{self.kind} graph requires parameter {name!r}")
            if name not in required and value is not None:
                raise ParameterError(f"parameter {name!r} does not apply to kind {self.kind!r}")
        if self.kind == "small_world":
            if self.k % 2 != 0 or self.k < 2:
                raise ParameterError(f"k must be even and >= 2, got {self.k}")
            if self.k >= self.n:
                raise ParameterError(f"k must be < n ({self.k} >= {self.n})")
            if not 0.0 <= self.p_rewire <= 1.0:
                raise ParameterError(f"p_rewire must be in [0, 1], got {self.p_rewire}")
        elif self.kind == "scale_free":
            if not 1 <= self.m < self.n:
                raise ParameterError(f"m must satisfy 1 <= m < n, got m={self.m}, n={self.n}")
        elif self.kind == "random":
            if not 0.0 <= self.p_edge <= 1.0:
                raise ParameterError(f"p_edge must be in [0, 1], got {self.p_edge}")


def default_graph_spec(kind: str, n: int) -> GraphSpec:
    """Spec for ``kind`` with the package's density-matched default parameters."""
    if kind == "small_world":
        return GraphSpec(kind=kind, n=n, k=DEFAULT_SMALL_WORLD_K, p_rewire=DEFAULT_SMALL_WORLD_P_REWIRE)
    if kind == "scale_free":
        return GraphSpec(kind=kind, n=n, m=DEFAULT_SCALE_FREE_M)
    if kind == "random":
        return GraphSpec(kind=kind, n=n, p_edge=DEFAULT_RANDOM_P_EDGE)
    raise ParameterError(f"unknown graph kind {kind!r}")


def generate_graph(spec: GraphSpec, rng: np.random.Generator) -> NetworkGraph:
    spec.validate()
    if spec.kind == "small_world":
        return generate_small_world(spec.n, spec.k, spec.p_rewire, rng)
    if spec.kind == "scale_free":
        return generate_scale_free(spec.n, spec.m, rng)
    return generate_random(spec.n, spec.p_edge, rng)


def generate_small_world(n: int, k: int, p_rewire: float, rng: np.random.Generator) -> NetworkGraph:
    """Ring lattice of even degree ``k`` with each edge rewired with probability ``p_rewire``.

    Every ring edge is considered once; a rewired edge moves to a uniformly
    chosen target that is neither the source nor already adjacent to it.
    If no valid target is found within ``n`` attempts the original edge is
    kept, so the edge count is always ``n * k / 2``.
    """
    GraphSpec(kind="small_world", n=n, k=k, p_rewire=p_rewire).validate()

    half = k // 2
    adjacency = [set() for _ in range(n)]
    for i in range(n):
        for step in range(1, half + 1):
            j = (i + step) % n
            adjacency[i].add(j)
            adjacency[j].add(i)

    for i in range(n):
        for step in range(1, half + 1):
            j = (i + step) % n
            if rng.random() >= p_rewire:
                continue
            target = None
            for _ in range(n):
                candidate = int(rng.integers(0, n))
                if candidate != i and candidate not in adjacency[i]:
                    target = candidate
                    break
            if target is None:
                continue  # dense neighborhood: keep the ring edge
            adjacency[i].remove(j)
            adjacency[j].remove(i)
            adjacency[i].add(target)
            adjacency[target].add(i)

    edges = {(i, j) for i in range(n) for j in adjacency[i] if i < j}
    return NetworkGraph.from_edges(n, edges)


def generate_scale_free(n: int, m: int, rng: np.random.Generator) -> NetworkGraph:
    """Preferential attachment: complete core of ``m + 1`` nodes, then each new
    node attaches to ``m`` distinct existing nodes with probability
    proportional to their current degree."""
    GraphSpec(kind="scale_free", n=n, m=m).validate()

    core = m + 1
    edges = {(i, j) for i in range(core) for j in range(i + 1, core)}
    degree = np.zeros(n, dtype=float)
    degree[:core] = m  # complete core

    for v in range(core, n):
        weights = degree[:v] / degree[:v].sum()
        chosen: set = set()
        while len(chosen) < m:
            candidate = int(rng.choice(v, p=weights))
            chosen.add(candidate)
        for c in chosen:
            edges.add((min(c, v), max(c, v)))
            degree[c] += 1
            degree[v] += 1

    return NetworkGraph.from_edges(n, edges)


def generate_random(n: int, p_edge: float, rng: np.random.Generator) -> NetworkGraph:
    """G(n, p): each of the n(n-1)/2 pairs is included independently with probability ``p_edge``."""
    GraphSpec(kind="random", n=n, p_edge=p_edge).validate()

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = rng.random(len(pairs)) < p_edge
    edges = [pair for pair, hit in zip(pairs, mask) if hit]
    return NetworkGraph.from_edges(n, edges)


def clustering_coefficient(g: NetworkGraph) -> float:
    """Average local clustering: mean over nodes of triangles / possible pairs,
    counting 0 for nodes of degree < 2."""
    if g.n == 0:
        return 0.0
    total = 0.0
    for i in range(g.n):
        ns = g.adjacency[i]
        d = len(ns)
        if d < 2:
            continue
        triangles = 0
        for a_idx in range(d):
            for b_idx in range(a_idx + 1, d):
                if g.has_edge(ns[a_idx], ns[b_idx]):
                    triangles += 1
        total += triangles / (d * (d - 1) / 2)
    return total / g.n


def belief_vector(g: NetworkGraph, beliefs) -> np.ndarray:
    """``beliefs`` as a float array, checked to hold one value per node."""
    values = np.asarray(beliefs, dtype=float)
    if values.size != g.n:
        raise ParameterError(f"belief vector length {values.size} != node count {g.n}")
    return values


def degree_sequence(g: NetworkGraph) -> list:
    """Node degrees in index order; sums to twice the edge count."""
    return np.diff(g.indptr).tolist()


def hop_distances(g: NetworkGraph, source: int) -> list:
    """BFS hop count from ``source`` to every node; unreachable nodes get ``None``."""
    if not 0 <= source < g.n:
        raise ParameterError(f"source {source} out of range for n={g.n}")
    dist: list = [None] * g.n
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.adjacency[u]:
                if dist[v] is None:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def is_connected(g: NetworkGraph) -> bool:
    if g.n <= 1:
        return True
    return all(d is not None for d in hop_distances(g, 0))


def to_edge_list_text(g: NetworkGraph) -> str:
    """Canonical edge-list form: first line ``n``, then one ``i j`` pair per
    line with ``i < j``, in ascending order."""
    lines = [str(g.n)]
    i, j = g.upper()
    lines.extend(f"{a} {b}" for a, b in zip(i.tolist(), j.tolist()))
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str) -> NetworkGraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParameterError("empty edge-list text")
    n = int(lines[0])
    edges = []
    for ln in lines[1:]:
        a, b = ln.split()
        edges.append((int(a), int(b)))
    return NetworkGraph.from_edges(n, edges)
