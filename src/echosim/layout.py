"""Deterministic force-directed layout for projection exports.

Produces 2-D coordinates so external tools can render the colored-cluster
projection of final beliefs. Same graph and rng seed give bit-identical
coordinates; no rendering happens here.
"""

from __future__ import annotations

import numpy as np

from .graphs import NetworkGraph

LAYOUT_ITERATIONS = 60


def force_layout(g: NetworkGraph, rng: np.random.Generator, iterations: int = LAYOUT_ITERATIONS) -> np.ndarray:
    """Spring-embedder coordinates in roughly the unit square, shape (n, 2)."""
    n = g.n
    pos = rng.random((n, 2))
    if n == 1 or g.edge_count == 0:
        return pos
    k = float(np.sqrt(1.0 / n))
    src, dst = g.upper()
    temperature = 0.1
    cooling = temperature / (iterations + 1)

    for _ in range(iterations):
        delta = pos[:, None, :] - pos[None, :, :]
        dist = np.linalg.norm(delta, axis=-1)
        np.fill_diagonal(dist, 1.0)
        dist = np.maximum(dist, 1e-9)
        repulsion = (k * k / dist**2)[..., None] * delta
        disp = repulsion.sum(axis=1)

        d = pos[src] - pos[dst]
        d_len = np.maximum(np.linalg.norm(d, axis=1), 1e-9)
        pull = d / d_len[:, None] * (d_len**2 / k)[:, None]
        np.add.at(disp, src, -pull)
        np.add.at(disp, dst, pull)

        lengths = np.maximum(np.linalg.norm(disp, axis=1), 1e-9)
        pos = pos + disp / lengths[:, None] * np.minimum(lengths, temperature)[:, None]
        temperature -= cooling
    return pos
