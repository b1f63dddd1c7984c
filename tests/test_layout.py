import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from echosim import layout
from echosim.graphs import NetworkGraph, generate_random, generate_scale_free, generate_small_world
from echosim.layout import force_layout
from helpers import exact_repulsion, float64_mesh_repulsion, naive_force_layout, path_graph, star_graph


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


def _exact_field(n, k):
    return lambda x, y: exact_repulsion(x, y, k)


@settings(max_examples=60, deadline=None)
@given(layout_graphs(), st.integers(0, 2**16), st.integers(1, 3))
@example(NetworkGraph.from_edges(1, []), 0, 1)
@example(NetworkGraph.from_edges(2, [(0, 1)]), 0, 3)
@example(NetworkGraph.from_edges(5, []), 0, 2)
@example(star_graph(12), 1, 3)
def test_force_layout_matches_pair_loop_oracle(g, seed, iterations):
    # with the exact field in place of the mesh, the springs, step cap, cooling
    # and isolated nodes are checked against the pair-at-a-time oracle
    with mock.patch.object(layout, "_mesh_repulsion", _exact_field), \
            mock.patch.object(layout, "LAYOUT_ITERATIONS", iterations):
        got = force_layout(g, np.random.default_rng(seed))
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


def _exact_and_mesh_fields(n, seed):
    rng = np.random.default_rng(seed)
    x, y = rng.random(n), rng.random(n)
    k = float(np.sqrt(1.0 / n))
    return exact_repulsion(x, y, k), layout._mesh_repulsion(n, k)(x, y)


def test_mesh_field_matches_exact_field():
    # On uniform random points, seeds 1-15, measured at n = 301, 600, 2000:
    # - relative RMS error, median over seeds: 0.148, 0.128, 0.078; bound 0.25
    #   (margin 1.7x). A single set can err far more (up to 0.99 at n=600): the
    #   mesh smooths the near field within a grid cell, so it mostly misses one
    #   nearly coincident pair, whose exact force dominates the RMS.
    # - per-point relative error, median over points, worst seed: 0.012, 0.029,
    #   0.009; bound 0.05 (margin 1.7x). Swapping two corners' cloud-in-cell
    #   weights raises it to 0.049-0.060.
    # At n = 50, 200, 300 the grid side is 16, 32, 64, so a cell holds more of the
    # near field. Measured there: RMS 0.336, 0.204, 0.138, bounds 0.6, 0.35, 0.25
    # (margins 1.8x, 1.7x, 1.8x); per-point 0.154, 0.060, 0.010, bounds 0.25,
    # 0.1, 0.018 (margins 1.6x, 1.7x, 1.8x).
    bounds = {50: (0.6, 0.25), 200: (0.35, 0.1), 300: (0.25, 0.018),
              301: (0.25, 0.05), 600: (0.25, 0.05), 2000: (0.25, 0.05)}
    for n, (rms_bound, point_bound) in bounds.items():
        rms = []
        for seed in range(1, 16):
            (ex, ey), (mx, my) = _exact_and_mesh_fields(n, seed)
            rms.append(np.sqrt(np.sum((mx - ex) ** 2 + (my - ey) ** 2) / np.sum(ex**2 + ey**2)))
            assert np.median(np.hypot(mx - ex, my - ey) / np.hypot(ex, ey)) < point_bound, (n, seed)
        assert np.median(rms) < rms_bound, n


def test_single_precision_mesh_matches_the_double_precision_mesh():
    # the inverse transforms run in complex64; against the same mesh in float64
    # throughout, the largest error over the largest field component, on uniform
    # random points, was at most 1.8e-7, 2.1e-7 and 2.7e-7 at n = 50, 300, 2000
    # (seeds 1-30); the bounds are 3x those
    for n, bound in ((50, 5e-7), (300, 6e-7), (2000, 8e-7)):
        k = float(np.sqrt(1.0 / n))
        for seed in range(1, 6):
            rng = np.random.default_rng(seed)
            x, y = rng.random(n), rng.random(n)
            expected = float64_mesh_repulsion(n, k)(x, y)
            got = layout._mesh_repulsion(n, k)(x, y)
            for component, reference in zip(got, expected):
                assert component.dtype == np.float64
                assert np.max(np.abs(component - reference)) < bound * np.max(np.abs(reference)), (n, seed)


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
    # 0.992-0.996 at n=2000 (seeds 1-2) on random graphs; the tolerance of 0.03 is
    # twice the worst. At n = 50, 200, 300, on all three kinds with mean degree 4,
    # seeds 1-5 (1-3 run here): 0.942-1.039, 0.958-1.000, 0.975-1.022; tolerances
    # 0.1, 0.08, 0.05 (margins 1.7x, 1.9x, 2.0x over the worst).
    graphs = {"small_world": lambda n, rng: generate_small_world(n, 4, 0.1, rng),
              "scale_free": lambda n, rng: generate_scale_free(n, 2, rng),
              "random": lambda n, rng: generate_random(n, 4 / (n - 1), rng)}
    cases = [(n, kind, seed, tolerance) for n, tolerance in ((50, 0.1), (200, 0.08), (300, 0.05))
             for kind in graphs for seed in (1, 2, 3)]
    cases += [(n, "random", 1, 0.03) for n in (600, 2000)]
    for n, kind, seed, tolerance in cases:
        g = graphs[kind](n, np.random.default_rng(seed))
        mesh = _layout_quality(g, force_layout(g, np.random.default_rng(seed)))
        with mock.patch.object(layout, "_mesh_repulsion", _exact_field):
            exact = _layout_quality(g, force_layout(g, np.random.default_rng(seed)))
        assert abs(mesh / exact - 1) < tolerance, (n, kind, seed, mesh, exact)


def test_mesh_layout_memory_is_bounded_at_large_n():
    # one iteration at n=20000 (measured 46.5 MiB, 50.5 MiB at version 0.4.0: the
    # 1024 x 1024 padded grid and its transforms); the dense all-pairs form would
    # need 3.2 GB per n x n array
    g = path_graph(20000)
    with mock.patch.object(layout, "LAYOUT_ITERATIONS", 1):
        assert _peak_mb(lambda: force_layout(g, np.random.default_rng(1))) < 80
