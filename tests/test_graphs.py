import tracemalloc
from functools import cache
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    naive_generate_scale_free,
    naive_hop_distances,
    path_graph,
    random_instance,
    star_graph,
)

RING_CLUSTERING_K4 = 0.5  # closed form 3(k-2)/(4(k-1)) at k=4

# upper 0.999 quantiles of chi-square, by degrees of freedom (scipy.stats.chi2.ppf(0.999, df))
CHI2_999 = {7: 24.32, 45: 80.08}


def rng(seed=1):
    return np.random.default_rng(seed)


@cache
def gnp_sample() -> np.ndarray:
    """(4000, 10, 10) adjacency matrices of ``generate_random(10, 0.3, rng(seed))``,
    seeds 0..3999."""
    adjacency = np.zeros((4000, 10, 10), dtype=np.int64)
    for seed, a in enumerate(adjacency):
        g = generate_random(10, 0.3, rng(seed))
        a[g.rows, g.indices] = 1
    adjacency.flags.writeable = False
    return adjacency


def pair_frequencies(generate, n: int, m: int, seeds) -> np.ndarray:
    """How many of the graphs ``generate(n, m, rng(seed))`` hold each pair (i, j),
    i < j, in ``np.triu_indices`` order."""
    counts = np.zeros((n, n), dtype=np.int64)
    for seed in seeds:
        counts[generate(n, m, rng(seed)).upper()] += 1
    return counts[np.triu_indices(n, 1)]


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

    @pytest.mark.parametrize("n,m", [(7, 1), (8, 2)])
    def test_pair_frequencies_match_choice_oracle(self, n, m):
        # 2000 graphs from each, on disjoint seeds: how often each pair is an edge may differ
        # by at most 4 standard errors of the difference, a bound a uniform attachment or a
        # pick from stale degrees exceeds about twofold
        graphs = 2000
        fast = pair_frequencies(generate_scale_free, n, m, range(graphs))
        slow = pair_frequencies(naive_generate_scale_free, n, m, range(graphs, 2 * graphs))
        q = (fast + slow) / (2 * graphs)
        varies = (q > 0) & (q < 1)  # the core's pairs are always edges
        z = (fast - slow)[varies] / np.sqrt(2 * graphs * q[varies] * (1 - q[varies]))
        assert np.abs(z).max() < 4


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

    # G(10, 0.3) at seeds 0..3999: the edge count is Binomial(45, 0.3) and each
    # pair an independent Bernoulli(0.3) trial
    def test_edge_count_is_binomial(self):
        counts = gnp_sample().sum(axis=(1, 2)) // 2
        mean, variance = 45 * 0.3, 45 * 0.3 * 0.7  # 13.5 and 9.45
        # 4 standard errors: sqrt(9.45 / 4000) = 0.049 for the mean and about
        # 9.45 * sqrt(2 / 4000) = 0.21 for the variance
        assert abs(counts.mean() - mean) < 4 * 0.049
        assert abs(counts.var() - variance) < 4 * 0.21

    def test_degrees_are_binomial(self):
        # one node per graph, node seed % 10, so the degrees are independent draws of Binomial(9, 0.3)
        adjacency = gnp_sample()
        graphs = len(adjacency)
        degrees = adjacency[np.arange(graphs), np.arange(graphs) % 10].sum(axis=1)
        observed = np.bincount(degrees, minlength=10)
        expected = graphs * np.array([comb(9, k) * 0.3**k * 0.7 ** (9 - k) for k in range(10)])
        # degrees 7..9 (expected 17.2 in all) pooled into one cell: 8 cells, 7 degrees of freedom
        observed = np.append(observed[:7], observed[7:].sum())
        expected = np.append(expected[:7], expected[7:].sum())
        assert ((observed - expected) ** 2 / expected).sum() < CHI2_999[7]

    def test_pairs_are_chosen_uniformly(self):
        # each pair's count is Binomial(4000, 0.3), independent of the other pairs' counts
        adjacency = gnp_sample()
        chosen = adjacency.sum(axis=0)[np.triu_indices(10, 1)]
        expected = len(adjacency) * 0.3
        assert ((chosen - expected) ** 2).sum() / (expected * 0.7) < CHI2_999[45]

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


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 80), m=st.integers(1, 79), p_edge=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
def test_generated_graphs_are_simple_with_exact_edge_counts(n, m, p_edge, seed):
    assert_valid(generate_random(n, p_edge, rng(seed)))
    assert generate_random(n, 0.0, rng(seed)).edge_count == 0
    complete = generate_random(n, 1.0, rng(seed))
    assert complete.edge_count == n * (n - 1) // 2
    assert_valid(complete)
    if n > 1:
        m = 1 + (m - 1) % (n - 1)  # 1 <= m < n
        g = generate_scale_free(n, m, rng(seed))
        assert_valid(g)
        assert g.edge_count == m * (m + 1) // 2 + (n - m - 1) * m


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

    @pytest.mark.parametrize("text,message", [
        ("3\n0 1 2\n", "edge-list line 2 is not an i j pair: '0 1 2'"),
        ("x\n0 1\n", "edge-list line 1 is not a node count: 'x'"),
        ("3 1\n", "edge-list line 1 is not a node count: '3 1'"),
        ("3\n0 1\n\n1\n", "edge-list line 4 is not an i j pair: '1'"),
        ("3\n0 y\n", "edge-list line 2 is not an i j pair: '0 y'"),
    ])
    def test_a_malformed_line_is_named(self, text, message):
        with pytest.raises(ParameterError) as raised:
            from_edge_list_text(text)
        assert str(raised.value) == message
