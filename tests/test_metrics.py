from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from echosim import metrics
from echosim.errors import ParameterError
from echosim.graphs import NetworkGraph, generate_small_world
from echosim.metrics import (
    METRICS_CSV_HEADER,
    MetricsSnapshot,
    deltas,
    global_disagreement,
    nci,
    polarization,
    snapshot,
)
from echosim.numeric import BcmParams, run_numeric
from helpers import (
    cycle_graph,
    naive_global_disagreement,
    naive_nci,
    naive_polarization,
    random_instance,
)


class TestPolarization:
    def test_uniform_is_zero(self):
        assert polarization([1.3] * 7) == 0.0

    def test_two_point_split(self):
        assert polarization([-2.0, 2.0]) == 4.0

    def test_five_point_ladder(self):
        assert polarization([-2, -1, 0, 1, 2]) == 2.0

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            polarization([])


class TestGlobalDisagreement:
    def test_uniform_is_zero(self):
        assert global_disagreement(cycle_graph(5), [0.7] * 5) == 0.0

    def test_two_connected_extremes(self):
        g = NetworkGraph.from_edges(2, [(0, 1)])
        assert global_disagreement(g, [-2.0, 2.0]) == 8.0

    def test_triangle_hand_case(self):
        g = NetworkGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert global_disagreement(g, [0.0, 0.0, 2.0]) == pytest.approx(8 / 6)

    def test_isolated_nodes_contribute_zero(self):
        g = NetworkGraph.from_edges(3, [(0, 1)])
        assert global_disagreement(g, [1.0, 1.0, 999.0]) == 0.0

    def test_zero_iff_connected_pairs_agree(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g, beliefs = random_instance(rng)
            dg = global_disagreement(g, beliefs)
            agree = all(beliefs[i] == beliefs[j] for i, j in zip(*g.upper()))
            assert (dg == 0.0) == agree


class TestNeighborCorrelation:
    def test_perfect_homophily_components(self):
        g = NetworkGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        beliefs = [2.0, 2.0, 2.0, -2.0, -2.0, -2.0]
        assert nci(g, beliefs) == pytest.approx(1.0)

    def test_uniform_is_undefined(self):
        assert nci(cycle_graph(4), [1.0] * 4) is None

    def test_alternating_four_cycle_is_anticorrelated(self):
        assert nci(cycle_graph(4), [2.0, -2.0, 2.0, -2.0]) == pytest.approx(-1.0)

    def test_all_isolated_is_undefined(self):
        g = NetworkGraph.from_edges(3, [])
        assert nci(g, [0.0, 1.0, 2.0]) is None


class TestOracleEquivalence:
    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            g, beliefs = random_instance(rng)
            assert polarization(beliefs) == pytest.approx(naive_polarization(list(beliefs)), abs=1e-9)
            assert global_disagreement(g, beliefs) == pytest.approx(
                naive_global_disagreement(g, list(beliefs)), abs=1e-9
            )
            ours, theirs = nci(g, beliefs), naive_nci(g, list(beliefs))
            if theirs is None:
                assert ours is None
            else:
                assert ours == pytest.approx(theirs, abs=1e-9)


class TestInvariances:
    def test_relabeling_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            g, beliefs = random_instance(rng)
            perm = rng.permutation(g.n)
            remapped = NetworkGraph.from_edges(
                g.n, [(int(perm[i]), int(perm[j])) for i, j in zip(*g.upper())]
            )
            permuted = np.empty_like(beliefs)
            permuted[perm] = beliefs
            assert polarization(permuted) == pytest.approx(polarization(beliefs), abs=1e-9)
            assert global_disagreement(remapped, permuted) == pytest.approx(
                global_disagreement(g, beliefs), abs=1e-9
            )
            a, b = nci(remapped, permuted), nci(g, beliefs)
            if b is None:
                assert a is None
            else:
                assert a == pytest.approx(b, abs=1e-9)

    def test_negation_invariance(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            g, beliefs = random_instance(rng)
            assert polarization(-beliefs) == pytest.approx(polarization(beliefs), abs=1e-12)
            assert global_disagreement(g, -beliefs) == pytest.approx(
                global_disagreement(g, beliefs), abs=1e-12
            )
            a, b = nci(g, -beliefs), nci(g, beliefs)
            if b is None:
                assert a is None
            else:
                assert a == pytest.approx(b, abs=1e-12)


class TestSnapshotsAndDeltas:
    def test_constant_trajectory_has_zero_deltas(self):
        g = cycle_graph(5)
        beliefs = [0.5, -1.0, 2.0, 0.0, 1.0]
        snaps = [snapshot(t, g, beliefs) for t in range(4)]
        assert deltas(snaps) == (0.0, 0.0, 0.0)

    def test_delta_is_final_minus_initial(self):
        g = cycle_graph(4)
        first = MetricsSnapshot(0, 1.0, 0.4, 0.1)
        last = MetricsSnapshot(30, 1.936, 0.2, 0.6)
        d_pol, d_dg, d_nci = deltas([first, last])
        assert d_pol == pytest.approx(0.936)
        assert d_dg == pytest.approx(-0.2)
        assert d_nci == pytest.approx(0.5)

    def test_undefined_nci_propagates(self):
        first = MetricsSnapshot(0, 1.0, 0.4, None)
        last = MetricsSnapshot(1, 1.0, 0.4, 0.5)
        assert deltas([first, last])[2] is None

    def test_consensus_run_collapses_variance_and_disagreement(self):
        rng = np.random.default_rng(2)
        g = generate_small_world(50, 4, 0.1, rng)
        beliefs0 = np.random.default_rng(5).uniform(-2, 2, 50)
        rows, index = run_numeric(g, beliefs0, BcmParams(epsilon=4.0, mu=0.5, exposure_mode="all_neighbors"), 200)
        traj = rows[index]
        snaps = [snapshot(0, g, traj[0]), snapshot(200, g, traj[-1])]
        d_pol, d_dg, _ = deltas(snaps)
        assert d_pol < 0 and d_dg < 0

    def test_csv_row_formats_undefined_as_empty_cell(self):
        s = MetricsSnapshot(3, 0.5, 0.25, None)
        assert s.csv_row() == "3,0.5,0.25,"
        assert METRICS_CSV_HEADER.split(",") == ["day", "polarization", "global_disagreement", "nci"]

    def test_delta_needs_two_snapshots(self):
        with pytest.raises(ParameterError):
            deltas([MetricsSnapshot(0, 0.0, 0.0, None)])


class TestBatch:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), days=st.integers(1, 12), chunk_entries=st.integers(1, 300))
    def test_every_row_is_bit_equal_to_the_one_day_call(self, seed, days, chunk_entries):
        rng = np.random.default_rng(seed)
        g, _ = random_instance(rng, max_n=30)
        beliefs = rng.uniform(-2, 2, size=(days, g.n)) * 10.0 ** rng.integers(-6, 6, size=(days, 1))
        for day in range(1, days):
            if rng.random() < 0.3:  # a settled day
                beliefs[day] = beliefs[day - 1]
            elif rng.random() < 0.2:  # a consensus
                beliefs[day] = beliefs[day, 0]
        with mock.patch.object(metrics, "_CHUNK_ENTRIES", chunk_entries):
            batch = snapshot(range(days), g, beliefs)
        # csv_row writes each value by repr, so equal rows are equal bits
        assert [s.csv_row() for s in batch] == [snapshot(day, g, beliefs[day]).csv_row() for day in range(days)]

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), pattern=st.lists(st.integers(0, 3), min_size=1, max_size=12),
           chunk_entries=st.integers(1, 300))
    @example(seed=1, pattern=[0, 1, 1, 1], chunk_entries=300)  # a fixed point
    @example(seed=2, pattern=[0, 1, 2, 1, 2, 1, 2], chunk_entries=300)  # a two-day cycle
    @example(seed=3, pattern=[0, 1, 2, 0, 3, 1], chunk_entries=1)  # states that come back after other days
    @example(seed=4, pattern=[2, 3, 2, 3], chunk_entries=300)  # rows that differ only by -0.0 and 0.0
    def test_each_distinct_row_is_computed_once(self, seed, pattern, chunk_entries):
        rng = np.random.default_rng(seed)
        g, _ = random_instance(rng, max_n=30)
        states = rng.uniform(-2, 2, size=(4, g.n))
        states[2, ::2] = 0.0
        states[3] = states[2]
        states[3, ::2] = -0.0  # equal to row 2 under ==, but not bit for bit
        beliefs = states[pattern]
        with mock.patch.object(metrics, "_CHUNK_ENTRIES", chunk_entries), \
                mock.patch.object(metrics, "_day_metrics", wraps=metrics._day_metrics) as day_metrics:
            batch = snapshot(range(len(pattern)), g, beliefs)
        assert sum(len(call.args[1]) for call in day_metrics.call_args_list) == len(set(pattern))
        assert [s.csv_row() for s in batch] == [snapshot(day, g, row).csv_row() for day, row in enumerate(beliefs)]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("g, beliefs", [
        # a consensus, then a day whose own beliefs vary but every neighbor mean is 0
        (cycle_graph(4), [[0.5] * 4, [1.0, 0.0, -1.0, 0.0]]),
        (NetworkGraph.from_edges(3, []), [[0.0, 1.0, 2.0], [2.0, 1.0, 0.0]]),  # no node has a neighbor
    ], ids=["constant vectors", "all isolated"])
    def test_undefined_days_give_none_without_a_warning(self, g, beliefs):
        assert [s.nci for s in snapshot([3, 4], g, np.array(beliefs))] == [None, None]

    def test_days_and_beliefs_must_agree(self):
        with pytest.raises(ParameterError, match="2 days of 4 nodes"):
            snapshot([0, 1], cycle_graph(4), np.zeros((3, 4)))
        with pytest.raises(ParameterError):
            global_disagreement(cycle_graph(4), [0.0] * 5)
