"""Social network structures the simulation runs on.

Three generators are provided: a ring-lattice-with-rewiring small world,
a preferential-attachment scale-free network, and a uniform random graph.
All generators are deterministic given their parameters and a seeded
``numpy.random.Generator``. Graphs are undirected, simple (no self-loops,
no duplicate edges), and immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .errors import INF, ParameterError, check_fields

# Each kind's parameters, with defaults chosen so all three structures have
# expected degree ~4 at n=50, keeping cross-structure comparisons at matched density.
_KIND_DEFAULTS = {"small_world": {"k": 4, "p_rewire": 0.1}, "scale_free": {"m": 2}, "random": {"p_edge": 0.08}}
GRAPH_KINDS = tuple(_KIND_DEFAULTS)


@dataclass(frozen=True, eq=False)
class NetworkGraph:
    """Undirected simple graph over nodes ``0..n-1`` in compressed sparse-row
    form: the neighbors of ``i`` are ``indices[indptr[i]:indptr[i + 1]]``,
    ascending; both arrays are read-only. Every graph read in the package goes
    through them.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple]) -> "NetworkGraph":
        """Graph on ``n`` nodes from ``(i, j)`` pairs, or an int array of shape (m, 2)."""
        if n < 1:
            raise ParameterError(f"node count must be >= 1, got {n}")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
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
    def adjacency(self) -> tuple:  # sorted neighbor tuples; read only by perfbench/spans.py
        return tuple(tuple(ns.tolist()) for ns in np.split(self.indices, self.indptr[1:-1]))

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

    kind: str = field(metadata={"choices": GRAPH_KINDS})
    n: int = field(metadata={"range": ("[", 1, INF, ")")})
    k: Optional[int] = field(default=None, metadata={"range": ("[", 2, INF, ")")})
    p_rewire: Optional[float] = field(default=None, metadata={"range": ("[", 0, 1, "]")})
    m: Optional[int] = field(default=None, metadata={"range": ("[", 1, INF, ")")})
    p_edge: Optional[float] = field(default=None, metadata={"range": ("[", 0, 1, "]")})

    def validate(self) -> None:
        check_fields(self)
        required = _KIND_DEFAULTS[self.kind]
        for name in ("k", "p_rewire", "m", "p_edge"):
            value = getattr(self, name)
            if name in required and value is None:
                raise ParameterError(f"{name} is required for kind {self.kind!r}")
            if name not in required and value is not None:
                raise ParameterError(f"{name} does not apply to kind {self.kind!r}")
        if self.kind == "small_world" and (self.k % 2 or self.k >= self.n):
            raise ParameterError(f"k must be < n and even, got k={self.k}, n={self.n}")
        if self.kind == "scale_free" and self.m >= self.n:
            raise ParameterError(f"m must be < n, got m={self.m}, n={self.n}")


def default_graph_spec(kind: str, n: int) -> GraphSpec:
    """Spec for ``kind`` with the package's density-matched default parameters;
    an unknown kind gets none, and ``validate()`` rejects it."""
    return GraphSpec(kind=kind, n=n, **_KIND_DEFAULTS.get(kind, {}))


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
    proportional to their current degree.

    ``ends`` lists every edge end so far, so each node appears in it as often
    as its degree, and a draw is one uniform pick from it (Batagelj and
    Brandes, Phys. Rev. E 71, 036113, 2005): O(1) per draw. A repeat within
    one new node's ``m`` draws is drawn again.
    """
    GraphSpec(kind="scale_free", n=n, m=m).validate()

    core = m + 1
    edges = [(i, j) for i in range(core) for j in range(i + 1, core)]
    ends = list(range(core)) * m
    for v in range(core, n):
        chosen: set = set()
        while len(chosen) < m:
            chosen.add(ends[int(rng.random() * len(ends))])
        targets = sorted(chosen)  # not set order, so ``ends`` depends on the draws alone
        edges.extend((c, v) for c in targets)
        ends.extend(targets)
        ends.extend([v] * m)
    return NetworkGraph.from_edges(n, edges)


def generate_random(n: int, p_edge: float, rng: np.random.Generator) -> NetworkGraph:
    """G(n, p): each of the n(n-1)/2 pairs is included independently with probability ``p_edge``.

    The edge count is drawn from Binomial(n(n-1)/2, p_edge) and the edges as a
    uniform subset of the pairs of that size, which is the same distribution:
    O(n + m) time and memory while the subset stays a small share of the pairs.
    """
    GraphSpec(kind="random", n=n, p_edge=p_edge).validate()

    pairs = n * (n - 1) // 2  # numbered in (i, j) order
    chosen = rng.choice(pairs, size=rng.binomial(pairs, p_edge), replace=False, shuffle=False)
    i = np.arange(n)
    first = i * (2 * n - 1 - i) // 2  # number of each row's pair (i, i + 1)
    row = np.searchsorted(first, chosen, side="right") - 1
    return NetworkGraph.from_edges(n, np.column_stack([row, row + 1 + chosen - first[row]]))


def clustering_coefficient(g: NetworkGraph) -> float:
    """Average local clustering: mean over nodes of triangles / possible pairs,
    counting 0 for nodes of degree < 2.

    Each pair ``(a, b)``, ``a < b``, of a node's neighbors is looked up in the
    sorted edge keys ``row * n + column``; memory is O(m + max degree²).
    """
    keys = g.rows * g.n + g.indices
    total = 0.0
    for i in range(g.n):
        ns = g.indices[g.indptr[i]:g.indptr[i + 1]]
        d = ns.size
        if d < 2:
            continue
        a, b = np.triu_indices(d, 1)
        # b has a neighbor, so a < b is below the last nonempty row and every
        # pair sorts before the last key: the search never runs off the end
        pairs = ns[a] * g.n + ns[b]
        linked = keys[np.searchsorted(keys, pairs)] == pairs
        total += int(np.count_nonzero(linked)) / (d * (d - 1) / 2)
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
    dist = np.full(g.n, -1)
    dist[source] = 0
    frontier = dist == 0
    hops = 0
    while frontier.any():
        hops += 1
        # the frontier's neighbors: the CSR entries of the frontier's rows
        reached = np.zeros(g.n, dtype=bool)
        reached[g.indices[np.flatnonzero(frontier[g.rows])]] = True
        frontier = reached & (dist < 0)
        dist[frontier] = hops
    return [None if d < 0 else d for d in dist.tolist()]


def is_connected(g: NetworkGraph) -> bool:
    return None not in hop_distances(g, 0)


def to_edge_list_text(g: NetworkGraph) -> str:
    """Canonical edge-list form: first line ``n``, then one ``i j`` pair per
    line with ``i < j``, in ascending order."""
    lines = [str(g.n)]
    i, j = g.upper()
    lines.extend(f"{a} {b}" for a, b in zip(i.tolist(), j.tolist()))
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str) -> NetworkGraph:
    """Graph from ``to_edge_list_text``'s form; blank lines are skipped. A line
    that is not the node count (the first) or an ``i j`` pair (the rest) is a
    ``ParameterError`` naming its line number."""
    lines = [(number, ln) for number, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ParameterError("empty edge-list text")
    rows = []
    for number, ln in lines:
        try:
            row = [int(field) for field in ln.split()]
        except ValueError:
            row = []
        if len(row) != (2 if rows else 1):
            raise ParameterError(f"edge-list line {number} is not {'an i j pair' if rows else 'a node count'}: {ln!r}")
        rows.append(row)
    (n,), edges = rows[0], rows[1:]
    return NetworkGraph.from_edges(n, edges)
