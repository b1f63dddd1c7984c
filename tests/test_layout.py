import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from echosim import layout
from echosim.graphs import NetworkGraph
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


def test_force_layout_memory_is_row_blocked():
    # one step of the all-pairs form at n=4000 needs 256 MB per n x n x 2 temporary
    g = path_graph(4000)
    tracemalloc.start()
    try:
        force_layout(g, np.random.default_rng(1), iterations=1)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < 64
