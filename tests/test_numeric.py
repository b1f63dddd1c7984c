import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echosim.errors import ParameterError
from echosim.graphs import NetworkGraph, generate_small_world
from echosim.metrics import polarization
from echosim.numeric import BcmParams, FjParams, bcm_day, fj_day, run_numeric
from helpers import complete_graph, cycle_graph, naive_bcm_day, naive_fj_day

TWO_NODES = NetworkGraph.from_edges(2, [(0, 1)])


class TestBcmDay:
    def test_two_node_hand_case(self):
        new = bcm_day(TWO_NODES, [0.0, 1.0], BcmParams(epsilon=2.0, mu=0.5))
        assert new.tolist() == [0.5, 0.5]

    def test_zero_epsilon_freezes_distinct_beliefs(self):
        beliefs = [0.0, 1.0, -1.5, 2.0]
        new = bcm_day(complete_graph(4), beliefs, BcmParams(epsilon=0.0, mu=0.5))
        assert new.tolist() == beliefs

    def test_uniform_beliefs_are_a_fixed_point(self):
        for eps, mu in [(0.5, 0.1), (2.0, 0.5), (4.0, 0.3)]:
            new = bcm_day(cycle_graph(5), [0.7] * 5, BcmParams(epsilon=eps, mu=mu))
            assert new.tolist() == [0.7] * 5

    def test_gate_composes_with_recommendation_filter(self):
        # neighbor at distance 1.5 passes a threshold of 2 but not eps = 1
        g = TWO_NODES
        p = BcmParams(epsilon=1.0, mu=0.5, use_recommendation=True, similarity_threshold=2.0)
        assert bcm_day(g, [0.0, 1.5], p).tolist() == [0.0, 1.5]

    def test_reads_start_of_day_values_only(self):
        # on a path, the middle node averages its two ends as they were
        g = NetworkGraph.from_edges(3, [(0, 1), (1, 2)])
        new = bcm_day(g, [0.0, 1.0, 2.0], BcmParams(epsilon=4.0, mu=0.5, use_recommendation=False))
        assert new.tolist() == [0.5, 1.0, 1.5]

    def test_stays_in_convex_hull(self):
        rng = np.random.default_rng(8)
        g = generate_small_world(30, 4, 0.2, rng)
        beliefs = np.random.default_rng(9).uniform(-2, 2, 30)
        traj = run_numeric("bcm", g, beliefs, BcmParams(epsilon=4.0, mu=0.5), 50)
        assert traj.min() >= beliefs.min() - 1e-12
        assert traj.max() <= beliefs.max() + 1e-12

    def test_full_mixing_polarization_never_exceeds_initial(self):
        rng = np.random.default_rng(12)
        g = generate_small_world(30, 4, 0.2, rng)
        beliefs = np.random.default_rng(13).uniform(-2, 2, 30)
        traj = run_numeric("bcm", g, beliefs, BcmParams(epsilon=4.0, mu=0.5, use_recommendation=False), 80)
        initial = polarization(traj[0])
        assert all(polarization(day) <= initial + 1e-12 for day in traj)


class TestFjDay:
    def test_full_anchoring_reproduces_anchors(self):
        anchors = [0.3, -1.7, 2.0]
        p = FjParams(alpha=1.0, use_recommendation=False).with_anchors(anchors)
        new = fj_day(complete_graph(3), [0.0, 0.0, 0.0], p)
        assert new.tolist() == anchors

    def test_pure_averaging_hand_case(self):
        p = FjParams(alpha=0.0, use_recommendation=False).with_anchors([-2.0, 0.0, 2.0])
        new = fj_day(complete_graph(3), [-2.0, 0.0, 2.0], p)
        assert new.tolist() == [1.0, 0.0, -1.0]

    def test_uniform_fixed_point(self):
        # dyadic values make the convex combination exact
        p = FjParams(alpha=0.5, use_recommendation=False).with_anchors([0.75] * 4)
        assert fj_day(cycle_graph(4), [0.75] * 4, p).tolist() == [0.75] * 4
        p2 = FjParams(alpha=0.4, use_recommendation=False).with_anchors([0.9] * 4)
        assert fj_day(cycle_graph(4), [0.9] * 4, p2) == pytest.approx([0.9] * 4, abs=1e-12)

    def test_empty_exposure_keeps_previous_value(self):
        g = NetworkGraph.from_edges(3, [(0, 1)])  # node 2 isolated
        p = FjParams(alpha=0.5, use_recommendation=False).with_anchors([0.0, 0.0, 0.0])
        assert fj_day(g, [1.0, 1.0, -1.5], p)[2] == -1.5

    def test_requires_anchors(self):
        with pytest.raises(ParameterError):
            fj_day(TWO_NODES, [0.0, 1.0], FjParams(alpha=0.3))


class TestRunNumeric:
    def test_single_day_equals_direct_call(self):
        beliefs = np.array([0.0, 1.0])
        p = BcmParams(epsilon=2.0, mu=0.5)
        traj = run_numeric("bcm", TWO_NODES, beliefs, p, 1)
        assert traj.shape == (2, 2)
        assert np.array_equal(traj[1], bcm_day(TWO_NODES, beliefs, p))

    def test_bcm_consensus_under_full_confidence(self):
        g = generate_small_world(50, 4, 0.1, np.random.default_rng(2))
        beliefs = np.random.default_rng(2).uniform(-2, 2, 50)
        traj = run_numeric("bcm", g, beliefs, BcmParams(epsilon=4.0, mu=0.5, use_recommendation=False), 200)
        assert traj[-1].max() - traj[-1].min() < 0.01

    def test_fj_converges_to_fixed_point(self):
        g = generate_small_world(50, 4, 0.1, np.random.default_rng(3))
        beliefs = np.random.default_rng(4).uniform(-2, 2, 50)
        traj = run_numeric("fj", g, beliefs, FjParams(alpha=0.3), 200)
        assert np.abs(traj[-1] - traj[-2]).max() < 1e-6

    def test_fj_contracts_geometrically(self):
        g = generate_small_world(40, 4, 0.1, np.random.default_rng(6))
        beliefs = np.random.default_rng(7).uniform(-2, 2, 40)
        alpha = 0.3
        traj = run_numeric("fj", g, beliefs, FjParams(alpha=alpha, use_recommendation=False), 60)
        changes = np.abs(np.diff(traj, axis=0)).max(axis=1)
        for prev, curr in zip(changes, changes[1:]):
            if prev > 1e-14:
                assert curr <= (1 - alpha) * prev + 1e-12

    def test_trajectory_deterministic(self):
        g = generate_small_world(30, 4, 0.2, np.random.default_rng(5))
        beliefs = np.random.default_rng(5).uniform(-2, 2, 30)
        a = run_numeric("fj", g, beliefs, FjParams(alpha=0.3), 40)
        b = run_numeric("fj", g, beliefs, FjParams(alpha=0.3), 40)
        assert np.array_equal(a, b)

    def test_relabeling_equivariance(self):
        rng = np.random.default_rng(31)
        g = generate_small_world(20, 4, 0.3, rng)
        beliefs = np.random.default_rng(32).uniform(-2, 2, 20)
        perm = np.random.default_rng(33).permutation(20)
        remapped = NetworkGraph.from_edges(20, [(int(perm[i]), int(perm[j])) for i, j in g.edges])
        permuted = np.empty_like(beliefs)
        permuted[perm] = beliefs
        for engine, params in (("bcm", BcmParams()), ("fj", FjParams(alpha=0.3))):
            base = run_numeric(engine, g, beliefs, params, 20)
            other = run_numeric(engine, remapped, permuted, params, 20)
            assert np.allclose(base, other[:, perm], atol=1e-12)

    def test_fj_matches_closed_form_fixed_point(self):
        # z* = alpha (I - (1 - alpha) D^-1 A)^-1 s on connected nodes; isolated nodes keep s
        base = generate_small_world(40, 4, 0.2, np.random.default_rng(41))
        g = NetworkGraph.from_edges(43, base.edges)  # nodes 40..42 are isolated
        anchors = np.random.default_rng(42).uniform(-2, 2, g.n)
        for alpha in (0.1, 0.3, 0.8):
            system = np.eye(g.n)
            rhs = anchors.copy()
            for i in range(g.n):
                neighbors = [j for j in range(g.n) if g.has_edge(i, j)]
                if neighbors:
                    system[i, neighbors] -= (1.0 - alpha) / len(neighbors)
                    rhs[i] = alpha * anchors[i]
            expected = np.linalg.solve(system, rhs)
            params = FjParams(alpha=alpha, use_recommendation=False)
            final = run_numeric("fj", g, anchors, params, 400)[-1]
            assert np.max(np.abs(final - expected)) <= 1e-9
            assert np.array_equal(final[40:], anchors[40:])

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            BcmParams(mu=0.0).validate()
        with pytest.raises(ParameterError):
            BcmParams(mu=0.7).validate()
        with pytest.raises(ParameterError):
            BcmParams(epsilon=-1.0).validate()
        with pytest.raises(ParameterError):
            FjParams(alpha=1.2).validate()
        with pytest.raises(ParameterError):
            run_numeric("degroot", TWO_NODES, [0.0, 1.0], BcmParams(), 5)
        with pytest.raises(ParameterError):
            run_numeric("bcm", TWO_NODES, [0.0, 1.0], BcmParams(), 0)


def oracle_instance(seed: int):
    """Random graph with a hub of degree >= 8, a few isolated nodes and a sparse
    remainder, plus beliefs that are sometimes on a dyadic grid so ties with
    the gates are exact."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 40))
    isolated = int(rng.integers(1, 4))
    live = n - isolated
    hub_degree = int(rng.integers(8, live))
    edges = [(0, int(j)) for j in rng.choice(np.arange(1, live), size=hub_degree, replace=False)]
    edges += [(i, j) for i in range(1, live) for j in range(i + 1, live) if rng.random() < 0.15]
    if rng.random() < 0.5:
        beliefs = rng.integers(-8, 9, size=n) / 4.0
    else:
        beliefs = rng.uniform(-2, 2, size=n)
    return NetworkGraph.from_edges(n, edges), beliefs


GATES = st.sampled_from([0.0, 0.25, 0.3, 0.5, 1.0, 4.0])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), GATES, GATES, st.sampled_from([0.1, 0.3, 0.5]))
def test_bcm_day_matches_loop_oracle(seed, use_recommendation, epsilon, threshold, mu):
    g, beliefs = oracle_instance(seed)
    p = BcmParams(epsilon=epsilon, mu=mu, use_recommendation=use_recommendation,
                  similarity_threshold=threshold)
    for _ in range(4):
        expected = naive_bcm_day(g, beliefs, p)
        got = bcm_day(g, beliefs, p)
        assert np.max(np.abs(got - expected)) <= 1e-12
        beliefs = got


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), GATES, st.sampled_from([0.0, 0.3, 1.0]))
def test_fj_day_matches_loop_oracle(seed, use_recommendation, threshold, alpha):
    g, beliefs = oracle_instance(seed)
    p = FjParams(alpha=alpha, use_recommendation=use_recommendation,
                 similarity_threshold=threshold).with_anchors(beliefs)
    beliefs = np.roll(beliefs, 1)
    for _ in range(4):
        expected = naive_fj_day(g, beliefs, p)
        got = fj_day(g, beliefs, p)
        assert np.max(np.abs(got - expected)) <= 1e-12
        beliefs = got
