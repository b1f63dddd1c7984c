"""Deterministic force-directed layout for projection exports.

Produces 2-D coordinates so external tools can render the colored-cluster
projection of final beliefs. Same graph and rng seed give bit-identical
coordinates, on any x86-64 host for one numpy version: no step goes through
BLAS, and every product of the particle-mesh repulsion rounds once, with or
without the fused multiply-adds numpy's CPU dispatch may pick, in double
precision or, for the spectra of its inverse transforms, in single. No
rendering happens here.
"""

from __future__ import annotations

import numpy as np

from .graphs import NetworkGraph

LAYOUT_ITERATIONS = 60


def force_layout(g: NetworkGraph, rng: np.random.Generator) -> np.ndarray:
    """Spring-embedder coordinates in roughly the unit square, shape (n, 2).

    Fruchterman-Reingold over ``LAYOUT_ITERATIONS`` steps: every pair repels
    with force k^2/d, every edge pulls with d^2/k, and each step is capped by
    a linearly cooling temperature. The repulsion is the particle-mesh
    approximation of the all-pairs field, at every n.
    """
    n = g.n
    pos = rng.random((n, 2))
    if n == 1 or g.edge_count == 0:
        return pos
    k = float(np.sqrt(1.0 / n))
    src, dst = g.upper()
    ends = np.concatenate([src, dst])
    x, y = pos.T.copy()
    repulsion = _mesh_repulsion(n, k)
    temperature = 0.1
    cooling = temperature / (LAYOUT_ITERATIONS + 1)

    for _ in range(LAYOUT_ITERATIONS):
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


def _mesh_repulsion(n: int, k: float):
    """Particle-mesh repulsion ``(x, y) -> (disp_x, disp_y)`` (Hockney & Eastwood).

    Each call spreads the points over a G x G grid spanning their bounding
    square with cloud-in-cell weights, in one ``np.bincount`` over the (4, n)
    corner indices; convolves that density with the kernel r/|r|^2 through a
    zero-padded 2G x 2G FFT (so there are no periodic images); and reads the
    field back at each point with the same weights, in one weighted gather per
    component, which also cancels each point's force on itself. The forward
    transform runs in double precision and the two inverse ones in single:
    their spectra are complex64. The kernel's transform is taken once, in grid
    units; a grid spacing h scales it by k^2/h.
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
    kernel_x, kernel_y = ((1j * np.fft.rfft2(kernel).imag).astype(np.complex64) for kernel in (kernel_x, kernel_y))
    corner_offsets = np.array([[0], [size], [1], [size + 1]])
    # the zero padding, kept from call to call: np.fft pads with a fresh copy on each transform
    spread, padded = np.zeros((size, 2 * size)), np.zeros((2 * size, size + 1), complex)

    def repulsion(x, y):
        lo_x, lo_y = x.min(), y.min()
        h = max(x.max() - lo_x, y.max() - lo_y, 1e-9) / (size - 1)
        gx, gy = (x - lo_x) / h, (y - lo_y) / h
        ix = np.minimum(gx.astype(np.int64), size - 2)
        iy = np.minimum(gy.astype(np.int64), size - 2)
        tx, ty = gx - ix, gy - iy
        sx, sy = 1 - tx, 1 - ty
        index = ix * size + iy + corner_offsets  # (4, n): each point's cell, then its +x, +y and +xy corners
        weight = np.stack([sx * sy, tx * sy, sx * ty, tx * ty])
        grid = np.bincount(index.ravel(), weights=weight.ravel(), minlength=size * size)
        # rfft2 of the zero-padded grid, in double precision (a single-precision one is slower);
        # the inverse transforms run in single precision
        spread[:, :size] = grid.reshape(size, size)
        padded[:size] = np.fft.rfft(spread, axis=1)
        density_hat = np.fft.fft(padded, axis=0).astype(np.complex64)
        scale = k * k / h
        disp = []
        for kernel in (kernel_x, kernel_y):
            # irfft2 with its last axis inverted only for the first G rows, the ones read back:
            # the same values, with a third less work
            field = np.fft.irfft(np.fft.ifft(density_hat * kernel, axis=0)[:size], n=2 * size, axis=1)
            field = field[:, :size].ravel()
            disp.append(scale * (weight * field[index]).sum(axis=0))
        return disp

    return repulsion
