"""Deterministic force-directed layout for projection exports.

Produces 2-D coordinates so external tools can render the colored-cluster
projection of final beliefs. Same graph and rng seed give bit-identical
coordinates, on any x86-64 host for one numpy version: no step goes through
BLAS, and every product of the mesh path rounds once, with or without the
fused multiply-adds numpy's CPU dispatch may pick. No rendering happens here.
"""

from __future__ import annotations

import numpy as np

from .graphs import NetworkGraph

LAYOUT_ITERATIONS = 60

# Pair elements per row block of the all-pairs repulsion: memory grows as
# O(n * block) rather than O(n^2), and the four float64 block buffers
# (256 KiB each) stay in a 2 MiB L2 cache. At n=300 that ran the repulsion
# about 20% faster than blocks of 2**16 elements, which ran the layout about
# 25% faster than blocks of 2**20. Each row's sum is the same in any block.
_BLOCK_ELEMENTS = 1 << 15

# Largest n whose repulsion is summed exactly over all pairs; above it the
# particle-mesh field is used. On a 2-vCPU VM the mesh was as fast from about
# n=200 and faster above; 300 keeps runs up to that size on exact coordinates.
_MESH_CROSSOVER = 300


def force_layout(g: NetworkGraph, rng: np.random.Generator, iterations: int = LAYOUT_ITERATIONS) -> np.ndarray:
    """Spring-embedder coordinates in roughly the unit square, shape (n, 2).

    Fruchterman-Reingold: every pair repels with force k^2/d, every edge pulls
    with d^2/k, and each step is capped by a linearly cooling temperature.
    Up to ``_MESH_CROSSOVER`` nodes the repulsion is exact; above it, it is
    the particle-mesh approximation of the same field.
    """
    n = g.n
    pos = rng.random((n, 2))
    if n == 1 or g.edge_count == 0:
        return pos
    k = float(np.sqrt(1.0 / n))
    src, dst = g.upper()
    ends = np.concatenate([src, dst])
    x, y = pos.T.copy()
    repulsion = _exact_repulsion(n, k) if n <= _MESH_CROSSOVER else _mesh_repulsion(n, k)
    temperature = 0.1
    cooling = temperature / (iterations + 1)

    for _ in range(iterations):
        disp_x, disp_y = repulsion(x, y)

        ex, ey = x[src] - x[dst], y[src] - y[dst]
        e_len = np.maximum(np.sqrt(ex * ex + ey * ey), 1e-9)
        pull = e_len * e_len / k
        ex, ey = ex / e_len * pull, ey / e_len * pull
        disp_x += np.bincount(ends, weights=np.concatenate([-ex, ex]), minlength=n)
        disp_y += np.bincount(ends, weights=np.concatenate([-ey, ey]), minlength=n)

        lengths = np.maximum(np.sqrt(disp_x * disp_x + disp_y * disp_y), 1e-9)
        step = np.minimum(lengths, temperature)
        x = x + disp_x / lengths * step
        y = y + disp_y / lengths * step
        temperature -= cooling
    return np.column_stack([x, y])


def _exact_repulsion(n: int, k: float):
    """Repulsion ``(x, y) -> (disp_x, disp_y)`` summed exactly over all pairs,
    over blocks of rows and one plane at a time, in buffers allocated once."""
    block = min(n, max(1, _BLOCK_ELEMENTS // n))
    # four arrays, not one: a freed 1 MiB array raised malloc's mmap threshold, and so later runs' peak RSS
    buffers = [np.empty((block, n)) for _ in range(4)]

    def repulsion(x, y):
        disp_x, disp_y = np.empty(n), np.empty(n)
        for start in range(0, n, block):
            stop = min(start + block, n)
            dx, dy, w, tile = (buffer[: stop - start] for buffer in buffers)
            # numpy subtracts contiguous tiles about four times as fast as a broadcast operand
            for d, v in ((dx, x), (dy, y)):
                d[...] = v[start:stop, None]
                tile[...] = v
                np.subtract(d, tile, out=d)
            np.multiply(dx, dx, out=w)
            w += np.multiply(dy, dy, out=tile)
            np.maximum(w, 1e-18, out=w)  # squared form of the 1e-9 distance floor
            np.divide(k * k, w, out=w)
            w[np.arange(stop - start), np.arange(start, stop)] = 0.0  # no self-repulsion
            disp_x[start:stop] = np.einsum("ij,ij->i", w, dx)
            disp_y[start:stop] = np.einsum("ij,ij->i", w, dy)
        return disp_x, disp_y

    return repulsion


def _mesh_repulsion(n: int, k: float):
    """Particle-mesh repulsion ``(x, y) -> (disp_x, disp_y)`` (Hockney & Eastwood).

    Each call spreads the points over a G x G grid spanning their bounding
    square with cloud-in-cell weights, convolves that density with the kernel
    r/|r|^2 through a zero-padded 2G x 2G FFT (so there are no periodic
    images), and reads the field back at each point with the same weights,
    which also cancels each point's force on itself. The kernel's transform is
    taken once, in grid units; a grid spacing h scales it by k^2/h.
    """
    size = 16  # the grid side G: the smallest power of two >= 2 sqrt(n), and at least 16
    while size * size < 4 * n:
        size *= 2
    offsets = np.fft.fftfreq(2 * size, 1.0 / (2 * size))  # 0..G-1, then -G..-1
    ax, ay = offsets[:, None], offsets[None, :]
    r2 = ax * ax + ay * ay
    r2[0, 0] = 1.0  # the zero offset exerts no force: ax = ay = 0 there
    kernel_x, kernel_y = ax / r2, ay / r2
    # offset -G never reaches the G rows read back; zeroed, it leaves each kernel exactly odd, so its
    # transform is i times a real array and each product below rounds once, with or without FMA
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
        density_hat = np.fft.rfft2(grid.reshape(size, size), s=(2 * size, 2 * size))  # zero-padded
        scale = k * k / h
        disp = []
        for kernel in (kernel_x, kernel_y):
            # irfft2 with its last axis inverted only for the first G rows, the ones read back:
            # the same values, with a third less work
            field = np.fft.irfft(np.fft.ifft(density_hat * kernel, axis=0)[:size], n=2 * size, axis=1)
            field = field[:, :size].ravel()
            disp.append(scale * sum(weight * field[index] for index, weight in corners))
        return disp

    return repulsion
