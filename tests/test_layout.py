import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from echosim import layout
from echosim.graphs import NetworkGraph, generate_random
from echosim.layout import force_layout
from helpers import naive_force_layout, path_graph, star_graph


@st.composite
def layout_graphs(draw):
    """Graphs of 1-24 nodes: a block of ``live`` nodes, sometimes with a hub
    at node 0 and random extra edges, then isolated nodes."""
    n = draw(st.integers(1, 24))
    live = n - draw(st.integers(0, n - 1))
    edges = set()
    if live >= 2 and draw(st.booleans()):
        edges |= {(0, j) for j in range(1, live)}
    p = draw(st.sampled_from([0.0, 0.15, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    edges |= {(i, j) for i in range(live) for j in range(i + 1, live) if rng.random() < p}
    return NetworkGraph.from_edges(n, edges)


@settings(max_examples=60, deadline=None)
@given(layout_graphs(), st.integers(0, 2**16), st.integers(1, 3), st.one_of(st.none(), st.integers(1, 5)))
@example(NetworkGraph.from_edges(1, []), 0, 1, None)
@example(NetworkGraph.from_edges(2, [(0, 1)]), 0, 3, 1)
@example(NetworkGraph.from_edges(5, []), 0, 2, None)
@example(star_graph(12), 1, 3, 5)
def test_force_layout_matches_pair_loop_oracle(g, seed, iterations, block_rows):
    # block_rows forces that many rows per repulsion block, the last one partial
    budget = layout._BLOCK_ELEMENTS if block_rows is None else block_rows * g.n + g.n // 2
    with mock.patch.object(layout, "_BLOCK_ELEMENTS", budget):
        got = force_layout(g, np.random.default_rng(seed), iterations)
    expected = naive_force_layout(g, np.random.default_rng(seed), iterations)
    assert got.shape == (g.n, 2)
    assert np.max(np.abs(got - expected)) <= 1e-12


def test_force_layout_is_deterministic():
    g = star_graph(30)
    first = force_layout(g, np.random.default_rng(5))
    assert np.array_equal(first, force_layout(g, np.random.default_rng(5)))
    assert not np.array_equal(first, force_layout(g, np.random.default_rng(6)))
    assert np.isfinite(first).all()


def _peak_mb(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_force_layout_memory_is_row_blocked():
    # one step of the all-pairs form at n=4000 needs 256 MB per n x n x 2 temporary
    g = path_graph(4000)
    with mock.patch.object(layout, "_MESH_CROSSOVER", g.n):  # keep n=4000 on the exact path
        peak_mb = _peak_mb(lambda: force_layout(g, np.random.default_rng(1), iterations=1))
    assert peak_mb < 64


def test_mesh_path_starts_above_300_nodes():
    # runs up to n=300 keep the exact coordinates earlier versions wrote
    sizes = []
    mesh = layout._mesh_repulsion
    with mock.patch.object(layout, "_mesh_repulsion", lambda n, k: sizes.append(n) or mesh(n, k)):
        for n in (300, 301):
            force_layout(path_graph(n), np.random.default_rng(1), iterations=1)
    assert sizes == [301]


def _exact_and_mesh_fields(n, seed):
    rng = np.random.default_rng(seed)
    x, y = rng.random(n), rng.random(n)
    k = float(np.sqrt(1.0 / n))
    return layout._exact_repulsion(n, k)(x, y), layout._mesh_repulsion(n, k)(x, y)


def test_mesh_field_matches_exact_field():
    # On uniform random points, seeds 1-15, measured at n = 301, 600, 2000:
    # - relative RMS error, median over seeds: 0.148, 0.128, 0.078; bound 0.25
    #   (margin 1.7x). A single set can err far more (up to 0.99 at n=600): the
    #   mesh smooths the near field within a grid cell, so it mostly misses one
    #   nearly coincident pair, whose exact force dominates the RMS.
    # - per-point relative error, median over points, worst seed: 0.012, 0.029,
    #   0.009; bound 0.05 (margin 1.7x). Swapping two corners' cloud-in-cell
    #   weights raises it to 0.049-0.060.
    for n in (301, 600, 2000):
        rms = []
        for seed in range(1, 16):
            (ex, ey), (mx, my) = _exact_and_mesh_fields(n, seed)
            rms.append(np.sqrt(np.sum((mx - ex) ** 2 + (my - ey) ** 2) / np.sum(ex**2 + ey**2)))
            assert np.median(np.hypot(mx - ex, my - ey) / np.hypot(ex, ey)) < 0.05, (n, seed)
        assert np.median(rms) < 0.25, n


def test_mesh_field_has_no_self_force():
    # a lone pair: each point's field is the other's repulsion, equal and opposite
    (ex, ey), (mx, my) = _exact_and_mesh_fields(2, 3)
    assert np.allclose(mx, -mx[::-1]) and np.allclose(my, -my[::-1])
    assert np.all(np.sign(mx) == np.sign(ex)) and np.all(np.sign(my) == np.sign(ey))


def test_mesh_layout_is_deterministic_and_finite():
    g = generate_random(800, 4 / 799, np.random.default_rng(2))
    first = force_layout(g, np.random.default_rng(5))
    assert np.array_equal(first, force_layout(g, np.random.default_rng(5)))
    assert np.isfinite(first).all()
    with mock.patch.object(layout, "_MESH_CROSSOVER", 0):  # the smallest graphs take the mesh path too
        for small in (path_graph(2), star_graph(12)):
            assert np.isfinite(force_layout(small, np.random.default_rng(1))).all()


def _layout_quality(g, pos):
    """Mean edge length over the mean distance of 5000 random pairs: lower
    means edges are drawn short relative to the layout's spread."""
    src, dst = g.upper()
    a, b = np.random.default_rng(0).integers(0, g.n, (2, 5000))
    return np.hypot(*(pos[src] - pos[dst]).T).mean() / np.hypot(*(pos[a] - pos[b]).T).mean()


def test_mesh_layout_quality_matches_exact():
    # measured mesh / exact quality ratios: 0.985-0.999 at n=600 (seeds 1-5) and
    # 0.992-0.996 at n=2000 (seeds 1-2); the tolerance of 0.03 is twice the worst
    for n in (600, 2000):
        g = generate_random(n, 4 / (n - 1), np.random.default_rng(1))
        mesh = _layout_quality(g, force_layout(g, np.random.default_rng(1)))
        with mock.patch.object(layout, "_MESH_CROSSOVER", n):
            exact = _layout_quality(g, force_layout(g, np.random.default_rng(1)))
        assert abs(mesh / exact - 1) < 0.03, (n, mesh, exact)


def test_mesh_layout_memory_is_bounded_at_large_n():
    # one iteration at n=20000 (measured 48 MiB: the 1024 x 1024 padded grid and
    # its transforms); the dense all-pairs form would need 3.2 GB per n x n array
    g = path_graph(20000)
    assert _peak_mb(lambda: force_layout(g, np.random.default_rng(1), iterations=1)) < 80
