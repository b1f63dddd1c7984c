"""Independent brute-force oracles and small shared test utilities.

The oracles deliberately avoid the library's own code paths: plain Python
loops, manual Pearson, full O(n^2) scans via has_edge. The numeric-engine
oracles update one agent at a time and average with ``np.mean``.
"""

import math

import numpy as np

from echosim.graphs import NetworkGraph


def naive_polarization(beliefs):
    n = len(beliefs)
    mean = sum(beliefs) / n
    return sum((b - mean) ** 2 for b in beliefs) / n


def naive_global_disagreement(g: NetworkGraph, beliefs):
    total = 0.0
    for i in range(g.n):
        neighbors = [j for j in range(g.n) if j != i and g.has_edge(i, j)]
        if not neighbors:
            continue
        total += sum((beliefs[i] - beliefs[j]) ** 2 for j in neighbors) / len(neighbors)
    return total / (2 * g.n)


def naive_nci(g: NetworkGraph, beliefs):
    xs, ys = [], []
    for i in range(g.n):
        neighbors = [j for j in range(g.n) if j != i and g.has_edge(i, j)]
        if not neighbors:
            continue
        xs.append(beliefs[i])
        ys.append(sum(beliefs[j] for j in neighbors) / len(neighbors))
    if len(xs) < 2:
        return None
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sx = math.sqrt(sum((x - mx) ** 2 for x in xs))
    sy = math.sqrt(sum((y - my) ** 2 for y in ys))
    if sx == 0 or sy == 0:
        return None
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return cov / (sx * sy)


def _naive_sources(g: NetworkGraph, beliefs, i, use_recommendation, threshold):
    neighbors = [j for j in range(g.n) if j != i and g.has_edge(i, j)]
    if use_recommendation:
        neighbors = [j for j in neighbors if abs(beliefs[i] - beliefs[j]) <= threshold]
    return neighbors


def naive_bcm_day(g: NetworkGraph, beliefs, p):
    """Bounded-confidence day, one agent at a time (``p`` is a BcmParams)."""
    old = np.asarray(beliefs, dtype=float)
    new = old.copy()
    for i in range(g.n):
        sources = _naive_sources(g, old, i, p.use_recommendation, p.similarity_threshold)
        qualified = [j for j in sources if abs(old[i] - old[j]) <= p.epsilon]
        if qualified:
            new[i] = old[i] + p.mu * float(np.mean(old[qualified] - old[i]))
    return new


def naive_fj_day(g: NetworkGraph, beliefs, p):
    """Anchored-averaging day, one agent at a time (``p`` is an FjParams with anchors)."""
    old = np.asarray(beliefs, dtype=float)
    anchors = np.asarray(p.anchors, dtype=float)
    new = old.copy()
    for i in range(g.n):
        sources = _naive_sources(g, old, i, p.use_recommendation, p.similarity_threshold)
        if sources:
            new[i] = p.alpha * anchors[i] + (1.0 - p.alpha) * float(np.mean(old[sources]))
    return new


def naive_clustering(g: NetworkGraph):
    total = 0.0
    for i in range(g.n):
        neighbors = [j for j in range(g.n) if j != i and g.has_edge(i, j)]
        d = len(neighbors)
        if d < 2:
            continue
        triangles = sum(
            1
            for a in range(d)
            for b in range(a + 1, d)
            if g.has_edge(neighbors[a], neighbors[b])
        )
        total += 2 * triangles / (d * (d - 1))
    return total / g.n


def cycle_graph(n: int) -> NetworkGraph:
    return NetworkGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> NetworkGraph:
    return NetworkGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n_leaves: int) -> NetworkGraph:
    return NetworkGraph.from_edges(n_leaves + 1, [(0, i) for i in range(1, n_leaves + 1)])


def complete_graph(n: int) -> NetworkGraph:
    return NetworkGraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_instance(rng, max_n=12):
    """(graph, beliefs) with a fresh random edge set; independent of the
    package's generators."""
    n = int(rng.integers(2, max_n + 1))
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < rng.uniform(0.2, 0.8)
    ]
    beliefs = rng.uniform(-2, 2, size=n)
    return NetworkGraph.from_edges(n, edges), beliefs
