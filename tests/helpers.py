"""Independent brute-force oracles and small shared test utilities.

The oracles deliberately avoid the library's own code paths: plain Python
loops, manual Pearson, full O(n^2) scans of an edge set that ``edge_set``
reads row by row from the CSR arrays. The numeric-engine
oracles update one agent at a time and average with ``np.mean``; the layout
oracle sums forces one pair at a time, and ``exact_repulsion`` is the dense
all-pairs field the particle mesh approximates; ``float64_mesh_repulsion`` is
that mesh in double precision throughout. ``naive_active_nudge_content`` and
``naive_deep_merge`` keep earlier, more general bodies of the package's nudge
search and config merge; ``full_loop_run_numeric`` and ``masked_fj_day`` keep
those of ``run_numeric``, which computed every day, and of ``fj_day``, which
masked under every mode. ``naive_generate_scale_free`` draws each target by
``rng.choice`` over the normalised degrees, the distribution that
``generate_scale_free`` samples from its list of edge ends.
"""

import json
import math

import numpy as np
from hypothesis import strategies as st

from echosim.graphs import NetworkGraph
from echosim.interventions import ACTIVE_NUDGE_PREFIX
from echosim.numeric import bcm_day, fj_day
from echosim.recommendation import exposure_mask

# every code point, lone surrogates included, plus the characters JSON must escape
AWKWARD_TEXT = st.text(st.one_of(st.characters(exclude_categories=()),
                                 st.sampled_from('"\\\n\r\t\x00\x1f\x7f/é€😀\ud800\udfff')))


def json_dumps_transcript(events) -> str:
    """``transcript.jsonl`` through ``json.dumps``: the events in the order
    given, one record per line with sorted keys."""
    records = ({"day": e.day, "agent": e.agent, "kind": e.kind, "payload": e.payload,
                "belief_before": e.belief_before, "belief_after": e.belief_after} for e in events)
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def edge_set(g: NetworkGraph) -> set:
    """Every edge as both ``(i, j)`` and ``(j, i)``, read with Python loops
    from the CSR rows."""
    edges = set()
    for i in range(g.n):
        for k in range(int(g.indptr[i]), int(g.indptr[i + 1])):
            edges.add((i, int(g.indices[k])))
    return edges


def naive_polarization(beliefs):
    n = len(beliefs)
    mean = sum(beliefs) / n
    return sum((b - mean) ** 2 for b in beliefs) / n


def naive_global_disagreement(g: NetworkGraph, beliefs):
    edges = edge_set(g)
    total = 0.0
    for i in range(g.n):
        neighbors = [j for j in range(g.n) if j != i and (i, j) in edges]
        if not neighbors:
            continue
        total += sum((beliefs[i] - beliefs[j]) ** 2 for j in neighbors) / len(neighbors)
    return total / (2 * g.n)


def naive_nci(g: NetworkGraph, beliefs):
    edges = edge_set(g)
    xs, ys = [], []
    for i in range(g.n):
        neighbors = [j for j in range(g.n) if j != i and (i, j) in edges]
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


def _naive_sources(g: NetworkGraph, edges, beliefs, i, exposure_mode, threshold):
    neighbors = [j for j in range(g.n) if j != i and (i, j) in edges]
    if exposure_mode == "recommended":
        neighbors = [j for j in neighbors if abs(beliefs[i] - beliefs[j]) <= threshold]
    return neighbors


def naive_bcm_day(g: NetworkGraph, beliefs, p):
    """Bounded-confidence day, one agent at a time (``p`` is a BcmParams)."""
    edges = edge_set(g)
    old = np.asarray(beliefs, dtype=float)
    new = old.copy()
    for i in range(g.n):
        sources = _naive_sources(g, edges, old, i, p.exposure_mode, p.similarity_threshold)
        qualified = [j for j in sources if abs(old[i] - old[j]) <= p.epsilon]
        if qualified:
            new[i] = old[i] + p.mu * float(np.mean(old[qualified] - old[i]))
    return new


def naive_fj_day(g: NetworkGraph, beliefs, p, anchors):
    """Anchored-averaging day, one agent at a time (``p`` is an FjParams)."""
    edges = edge_set(g)
    old = np.asarray(beliefs, dtype=float)
    anchors = np.asarray(anchors, dtype=float)
    new = old.copy()
    for i in range(g.n):
        sources = _naive_sources(g, edges, old, i, p.exposure_mode, p.similarity_threshold)
        if sources:
            new[i] = p.alpha * anchors[i] + (1.0 - p.alpha) * float(np.mean(old[sources]))
    return new


def full_loop_run_numeric(engine: str, g: NetworkGraph, initial_beliefs, params, days: int) -> np.ndarray:
    """The earlier body of ``run_numeric``: every one of the ``days`` days computed
    by the module's day function, settled or not."""
    trajectory = np.empty((days + 1, g.n), dtype=float)
    trajectory[0] = initial_beliefs
    for t in range(1, days + 1):
        if engine == "bcm":
            trajectory[t] = bcm_day(g, trajectory[t - 1], params)
        else:
            trajectory[t] = fj_day(g, trajectory[t - 1], params, trajectory[0])
    return trajectory


def masked_fj_day(g: NetworkGraph, beliefs, p, anchors) -> np.ndarray:
    """The earlier body of ``fj_day``: the exposure mask is built from the belief
    distances under every mode, all true under "all_neighbors"."""
    old = np.asarray(beliefs, dtype=float)
    anchors = np.asarray(anchors, dtype=float)
    heard_values = old[g.indices]
    keep = exposure_mask(p.exposure_mode, p.similarity_threshold, np.abs(heard_values - old[g.rows]))
    heard, mean_heard = g.row_means(heard_values, keep)
    new = old.copy()
    new[heard] = p.alpha * anchors[heard] + (1.0 - p.alpha) * mean_heard
    return new


def naive_force_layout(g: NetworkGraph, rng, iterations):
    """Fruchterman-Reingold layout, one pair at a time: every pair repels with
    k^2/d, every edge pulls with d^2/k, and each step is capped by a linearly
    cooling temperature."""
    n = g.n
    edges = edge_set(g)
    pos = rng.random((n, 2))
    if n == 1 or g.edge_count == 0:
        return pos
    k = math.sqrt(1.0 / n)
    temperature = 0.1
    cooling = temperature / (iterations + 1)
    for _ in range(iterations):
        disp = np.zeros((n, 2))
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                dx, dy = pos[i] - pos[j]
                dist = max(math.sqrt(dx * dx + dy * dy), 1e-9)
                disp[i] += k * k / dist**2 * np.array([dx, dy])
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) not in edges:
                    continue
                d = pos[i] - pos[j]
                d_len = max(math.sqrt(d[0] * d[0] + d[1] * d[1]), 1e-9)
                pull = d / d_len * (d_len**2 / k)
                disp[i] -= pull
                disp[j] += pull
        new = pos.copy()
        for i in range(n):
            length = max(math.sqrt(disp[i, 0] ** 2 + disp[i, 1] ** 2), 1e-9)
            new[i] = pos[i] + disp[i] / length * min(length, temperature)
        pos = new
        temperature -= cooling
    return pos


def exact_repulsion(x, y, k):
    """The exact all-pairs repulsion ``(disp_x, disp_y)`` at points ``(x, y)``:
    each point is pushed by k^2/d along its offset from every other point,
    over dense n x n arrays of offsets."""
    dx, dy = x[:, None] - x, y[:, None] - y
    w = dx * dx
    w += dy * dy
    np.divide(k * k, np.maximum(w, 1e-18, out=w), out=w)  # the squared form of a 1e-9 distance floor
    np.fill_diagonal(w, 0.0)  # no self-repulsion
    return np.einsum("ij,ij->i", w, dx), np.einsum("ij,ij->i", w, dy)


def float64_mesh_repulsion(n: int, k: float):
    """The particle-mesh repulsion of versions 0.3.0 and 0.4.0, all in double
    precision: four ``np.bincount`` calls spread the points, and four weighted
    gathers per component read the field back. ``layout._mesh_repulsion`` keeps
    the grid, kernel and weights, and takes its inverse transforms in single
    precision."""
    size = 16
    while size * size < 4 * n:
        size *= 2
    offsets = np.fft.fftfreq(2 * size, 1.0 / (2 * size))
    ax, ay = offsets[:, None], offsets[None, :]
    r2 = ax * ax + ay * ay
    r2[0, 0] = 1.0
    kernel_x, kernel_y = ax / r2, ay / r2
    kernel_x[size], kernel_y[:, size] = 0.0, 0.0
    kernel_x, kernel_y = (1j * np.fft.rfft2(kernel).imag for kernel in (kernel_x, kernel_y))

    def repulsion(x, y):
        lo_x, lo_y = x.min(), y.min()
        h = max(x.max() - lo_x, y.max() - lo_y, 1e-9) / (size - 1)
        gx, gy = (x - lo_x) / h, (y - lo_y) / h
        ix = np.minimum(gx.astype(np.int64), size - 2)
        iy = np.minimum(gy.astype(np.int64), size - 2)
        tx, ty = gx - ix, gy - iy
        cell = ix * size + iy
        corners = ((cell, (1 - tx) * (1 - ty)), (cell + size, tx * (1 - ty)),
                   (cell + 1, (1 - tx) * ty), (cell + size + 1, tx * ty))
        grid = sum(np.bincount(index, weights=weight, minlength=size * size) for index, weight in corners)
        density_hat = np.fft.rfft2(grid.reshape(size, size), s=(2 * size, 2 * size))
        scale = k * k / h
        disp = []
        for kernel in (kernel_x, kernel_y):
            field = np.fft.irfft(np.fft.ifft(density_hat * kernel, axis=0)[:size], n=2 * size, axis=1)
            field = field[:, :size].ravel()
            disp.append(scale * sum(weight * field[index] for index, weight in corners))
        return disp

    return repulsion


def naive_generate_scale_free(n: int, m: int, rng) -> NetworkGraph:
    """Preferential attachment with one ``rng.choice`` over the normalised
    degrees per draw: complete core of ``m + 1`` nodes, then ``m`` distinct
    targets for each new node."""
    core = m + 1
    edges = {(i, j) for i in range(core) for j in range(i + 1, core)}
    degree = np.zeros(n, dtype=float)
    degree[:core] = m
    for v in range(core, n):
        weights = degree[:v] / degree[:v].sum()
        chosen: set = set()
        while len(chosen) < m:
            chosen.add(int(rng.choice(v, p=weights)))
        for c in chosen:
            edges.add((min(c, v), max(c, v)))
            degree[c] += 1
            degree[v] += 1
    return NetworkGraph.from_edges(n, edges)


def naive_clustering(g: NetworkGraph):
    edges = edge_set(g)
    total = 0.0
    for i in range(g.n):
        neighbors = [j for j in range(g.n) if j != i and (i, j) in edges]
        d = len(neighbors)
        if d < 2:
            continue
        triangles = sum(
            1
            for a in range(d)
            for b in range(a + 1, d)
            if (neighbors[a], neighbors[b]) in edges
        )
        total += 2 * triangles / (d * (d - 1))
    return total / g.n


def naive_hop_distances(g: NetworkGraph, source: int):
    """Breadth-first search over a queue, one node at a time, scanning all
    ``n`` candidates for each; unreachable nodes get ``None``."""
    edges = edge_set(g)
    dist = [None] * g.n
    dist[source] = 0
    queue = [source]
    for u in queue:  # the list grows while it is walked
        for v in range(g.n):
            if (u, v) in edges and dist[v] is None:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


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


def naive_active_nudge_content(target, beliefs, opinion_texts, g: NetworkGraph):
    """The opinion of the opposite-sign agent with the largest absolute belief
    difference from the target, found by three scans: list the opposed agents,
    find the best gap, keep the agents at it. Ties go to the nearest in hops,
    then the lowest index; unreachable agents come last."""
    own = beliefs[target]
    if own == 0:
        return None
    opposed = [j for j in range(len(beliefs)) if beliefs[j] * own < 0]
    if not opposed:
        return None
    best_gap = max(abs(own - beliefs[j]) for j in opposed)
    tied = [j for j in opposed if abs(own - beliefs[j]) == best_gap]
    if len(tied) > 1:
        dist = naive_hop_distances(g, target)
        tied.sort(key=lambda j: (dist[j] if dist[j] is not None else float("inf"), j))
    return f'{ACTIVE_NUDGE_PREFIX}"{opinion_texts[tied[0]]}"'


def naive_deep_merge(base: dict, override: dict) -> dict:
    """``override`` merged into ``base`` at every depth, except that a graph
    section with a new ``kind`` replaces the old one whole."""
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            if key == "graph" and value.get("kind") not in (None, merged[key].get("kind")):
                merged[key] = dict(value)
            else:
                merged[key] = naive_deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged
