import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echosim import graphs
from echosim.errors import ParameterError
from echosim.graphs import (
    GraphSpec,
    NetworkGraph,
    clustering_coefficient,
    default_graph_spec,
    degree_sequence,
    from_edge_list_text,
    generate_graph,
    generate_random,
    generate_scale_free,
    generate_small_world,
    hop_distances,
    is_connected,
    to_edge_list_text,
)
from helpers import (
    cycle_graph,
    naive_clustering,
    naive_generate_random,
    naive_generate_scale_free,
    naive_hop_distances,
    path_graph,
    random_instance,
    row_at_a_time_random,
    star_graph,
)

RING_CLUSTERING_K4 = 0.5  # closed form 3(k-2)/(4(k-1)) at k=4


def rng(seed=1):
    return np.random.default_rng(seed)


def assert_valid(g: NetworkGraph):
    for i, j in zip(*g.upper()):
        assert i != j
        assert 0 <= i < j < g.n
        assert j in g.adjacency[i] and i in g.adjacency[j]
    for i in range(g.n):
        assert list(g.adjacency[i]) == sorted(set(g.adjacency[i]))
        for j in g.adjacency[i]:
            assert i in g.adjacency[j]


class TestSmallWorld:
    def test_no_rewiring_is_the_ring(self):
        g = generate_small_world(6, 2, 0.0, rng())
        assert to_edge_list_text(g) == to_edge_list_text(cycle_graph(6))
        assert degree_sequence(g) == [2] * 6

    def test_ring_lattice_clustering_matches_closed_form(self):
        g = generate_small_world(50, 4, 0.0, rng())
        assert clustering_coefficient(g) == pytest.approx(RING_CLUSTERING_K4, abs=1e-12)
        assert naive_clustering(g) == pytest.approx(RING_CLUSTERING_K4, abs=1e-12)

    def test_rewiring_preserves_edge_count(self):
        g = generate_small_world(50, 4, 0.1, rng(1))
        assert g.edge_count == 100
        assert_valid(g)

    def test_deterministic_per_seed(self):
        a = generate_small_world(50, 4, 0.3, rng(7))
        b = generate_small_world(50, 4, 0.3, rng(7))
        assert to_edge_list_text(a) == to_edge_list_text(b)

    def test_full_rewiring_still_simple(self):
        g = generate_small_world(30, 4, 1.0, rng(3))
        assert g.edge_count == 60
        assert_valid(g)

    @pytest.mark.parametrize(
        "n,k,p",
        [(6, 3, 0.1), (6, 8, 0.1), (6, 2, -0.1), (6, 2, 1.5), (4, 4, 0.0)],
    )
    def test_rejects_bad_parameters(self, n, k, p):
        with pytest.raises(ParameterError):
            generate_small_world(n, k, p, rng())


class TestScaleFree:
    def test_minimal_case_is_a_tree(self):
        g = generate_scale_free(3, 1, rng(42))
        assert g.edge_count == 2

    def test_edge_count_and_hub_dominance(self):
        g = generate_scale_free(50, 2, rng(1))
        core_edges = 3  # complete graph on m + 1 = 3 nodes
        assert g.edge_count == core_edges + 2 * (50 - 3)
        degrees = sorted(degree_sequence(g))
        median = degrees[len(degrees) // 2]
        assert max(degrees) > 3 * median
        assert_valid(g)

    def test_connected(self):
        for seed in range(5):
            assert is_connected(generate_scale_free(40, 2, rng(seed)))

    def test_seeds_differ_counts_match(self):
        a = generate_scale_free(50, 2, rng(1))
        b = generate_scale_free(50, 2, rng(2))
        assert to_edge_list_text(a) != to_edge_list_text(b)
        assert a.edge_count == b.edge_count

    def test_max_degree_grows_with_n(self):
        small = np.mean([max(degree_sequence(generate_scale_free(50, 2, rng(s)))) for s in range(20)])
        large = np.mean([max(degree_sequence(generate_scale_free(200, 2, rng(s)))) for s in range(20)])
        assert large > small

    @pytest.mark.parametrize("n,m", [(5, 0), (5, 5), (5, 7)])
    def test_rejects_bad_parameters(self, n, m):
        with pytest.raises(ParameterError):
            generate_scale_free(n, m, rng())

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n,seeds", [(50, range(1, 21)), (300, range(1, 21)), (2000, range(1, 6))],
                             ids=["n50", "n300", "n2000"])
    def test_matches_choice_oracle(self, n, seeds, m):
        # the Fenwick search must pick the node rng.choice would, from the same draw
        for seed in seeds:
            fast, slow = rng(seed), rng(seed)
            assert to_edge_list_text(generate_scale_free(n, m, fast)) == to_edge_list_text(
                naive_generate_scale_free(n, m, slow)), seed
            assert fast.random() == slow.random()  # same number of draws


class TestRandom:
    def test_p_zero_empty(self):
        assert generate_random(10, 0.0, rng()).edge_count == 0

    def test_p_one_complete(self):
        assert generate_random(10, 1.0, rng()).edge_count == 45

    def test_mean_edge_count(self):
        counts = [generate_random(50, 0.08, rng(s)).edge_count for s in range(100)]
        expected = 0.08 * 50 * 49 / 2
        assert abs(np.mean(counts) - expected) / expected < 0.05

    def test_deterministic_per_seed(self):
        assert to_edge_list_text(generate_random(30, 0.2, rng(5))) == to_edge_list_text(
            generate_random(30, 0.2, rng(5)))

    def test_rejects_bad_probability(self):
        with pytest.raises(ParameterError):
            generate_random(10, 1.2, rng())

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 600])
    def test_matches_pair_list_oracle(self, n):
        for p_edge in [0.0, 0.08, 1.0] + ([4 / (n - 1)] if n > 4 else []):
            for seed in (1, 2, 3):
                fast, slow = rng(seed), rng(seed)
                assert to_edge_list_text(generate_random(n, p_edge, fast)) == to_edge_list_text(
                    naive_generate_random(n, p_edge, slow))
                assert fast.random() == slow.random()  # same number of draws

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 120), p_edge=st.floats(0, 1), seed=st.integers(0, 2**32 - 1),
           pairs_per_draw=st.integers(1, 400))
    def test_block_draws_match_row_draws(self, n, p_edge, seed, pairs_per_draw):
        fast, slow = rng(seed), rng(seed)
        with mock.patch.object(graphs, "_PAIRS_PER_DRAW", pairs_per_draw):
            g = generate_random(n, p_edge, fast)
        oracle = row_at_a_time_random(n, p_edge, slow)
        assert np.array_equal(g.indptr, oracle.indptr) and np.array_equal(g.indices, oracle.indices)
        assert fast.random() == slow.random()  # the same stream, to the last draw

    def test_memory_is_linear(self):
        # the pair list alone holds n(n-1)/2 = 5e7 tuples at n=10000
        n = 10_000
        tracemalloc.start()
        try:
            g = generate_random(n, 4 / (n - 1), rng())
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert g.edge_count > 0
        assert peak_mb < 16


class TestMeasures:
    def test_triangle_clustering(self):
        g = NetworkGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert clustering_coefficient(g) == 1.0

    def test_path_clustering(self):
        assert clustering_coefficient(path_graph(3)) == 0.0

    def test_cycle_clustering(self):
        g = cycle_graph(6)
        assert clustering_coefficient(g) == 0.0
        assert naive_clustering(g) == 0.0

    def test_degree_sequences(self):
        assert degree_sequence(cycle_graph(6)) == [2] * 6
        star = degree_sequence(star_graph(4))
        assert sorted(star) == [1, 1, 1, 1, 4]

    def test_degree_sum_is_twice_edges(self):
        for spec_kind in ("small_world", "scale_free", "random"):
            g = generate_graph(default_graph_spec(spec_kind, 50), rng(9))
            assert sum(degree_sequence(g)) == 2 * g.edge_count

    def test_hop_distances_and_connectivity(self):
        g = path_graph(4)
        assert hop_distances(g, 0) == [0, 1, 2, 3]
        assert is_connected(g)
        g2 = NetworkGraph.from_edges(4, [(0, 1), (2, 3)])
        assert hop_distances(g2, 0)[2] is None
        assert not is_connected(g2)

    def test_an_empty_graph_and_a_source_outside_the_graph_are_rejected(self):
        with pytest.raises(ParameterError, match="node count must be >= 1, got 0"):
            NetworkGraph.from_edges(0, [])
        for source in (-1, 4):
            with pytest.raises(ParameterError, match=f"source {source} out of range for n=4"):
                hop_distances(path_graph(4), source)


def pieces_instance(seed: int) -> NetworkGraph:
    """One or two ``random_instance`` graphs side by side with up to three
    isolated nodes, each edge kept with one random probability and the node
    labels shuffled, so parts are unreachable from one another."""
    rng = np.random.default_rng(seed)
    edges, n = [], 0
    for _ in range(int(rng.integers(1, 3))):
        part, _ = random_instance(rng)
        edges += [(n + int(i), n + int(j)) for i, j in zip(*part.upper())]
        n += part.n
    n += int(rng.integers(0, 4))
    keep = rng.uniform(0.1, 1.0)
    perm = rng.permutation(n)
    return NetworkGraph.from_edges(n, [(int(perm[i]), int(perm[j])) for i, j in edges if rng.random() < keep])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_clustering_matches_loop_oracle(seed):
    g = pieces_instance(seed)
    assert abs(clustering_coefficient(g) - naive_clustering(g)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_hop_distances_match_bfs_oracle(seed, source):
    g = pieces_instance(seed)
    source %= g.n
    assert hop_distances(g, source) == naive_hop_distances(g, source)
    assert is_connected(g) == (None not in naive_hop_distances(g, 0))


class TestStructureProperties:
    def test_small_world_clusters_more_than_density_matched_random(self):
        sw = np.mean(
            [clustering_coefficient(generate_small_world(50, 4, 0.1, rng(s))) for s in range(20)]
        )
        er = np.mean(
            [clustering_coefficient(generate_random(50, 0.08, rng(s))) for s in range(20)]
        )
        assert sw > er

    def test_generation_determinism_all_kinds(self):
        for kind in ("small_world", "scale_free", "random"):
            spec = default_graph_spec(kind, 50)
            a = generate_graph(spec, rng(11))
            b = generate_graph(spec, rng(11))
            assert to_edge_list_text(a) == to_edge_list_text(b)
            assert_valid(a)


class TestGraphSpec:
    def test_requires_kind_parameters(self):
        with pytest.raises(ParameterError):
            GraphSpec(kind="small_world", n=10).validate()
        with pytest.raises(ParameterError):
            GraphSpec(kind="random", n=10, p_edge=0.1, k=4).validate()
        with pytest.raises(ParameterError):
            GraphSpec(kind="unknown", n=10).validate()

    def test_defaults_are_valid(self):
        for kind in ("small_world", "scale_free", "random"):
            default_graph_spec(kind, 50).validate()


class TestEdgeListFormat:
    def test_canonical_text(self):
        g = cycle_graph(4)
        assert to_edge_list_text(g) == "4\n0 1\n0 3\n1 2\n2 3\n"

    def test_round_trip(self):
        g = generate_small_world(30, 4, 0.2, rng(2))
        back = from_edge_list_text(to_edge_list_text(g))
        assert np.array_equal(back.indptr, g.indptr) and np.array_equal(back.indices, g.indices)

    def test_rejects_malformed(self):
        with pytest.raises(ParameterError):
            from_edge_list_text("")
        with pytest.raises(ParameterError):
            NetworkGraph.from_edges(3, [(0, 0)])
        with pytest.raises(ParameterError):
            NetworkGraph.from_edges(3, [(0, 5)])
