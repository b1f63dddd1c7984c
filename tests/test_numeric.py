import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import echosim
import echosim.numeric as numeric_mod
from echosim.config import config_from_dict
from echosim.errors import ParameterError
from echosim.graphs import GRAPH_KINDS, GraphSpec, NetworkGraph, generate_graph, generate_small_world
from echosim.language import LlmParams
from echosim.metrics import polarization
from echosim.numeric import NUMERIC_ENGINES, BcmParams, FjParams, bcm_day, fj_day, run_numeric
from echosim.population import init_population
from echosim.recommendation import EXPOSURE_MODES
from echosim.runner import component_rng
from helpers import complete_graph, cycle_graph, edge_set, full_loop_run_numeric, naive_bcm_day, naive_fj_day

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
        p = BcmParams(epsilon=1.0, mu=0.5, exposure_mode="recommended", similarity_threshold=2.0)
        assert bcm_day(g, [0.0, 1.5], p).tolist() == [0.0, 1.5]

    def test_reads_start_of_day_values_only(self):
        # on a path, the middle node averages its two ends as they were
        g = NetworkGraph.from_edges(3, [(0, 1), (1, 2)])
        new = bcm_day(g, [0.0, 1.0, 2.0], BcmParams(epsilon=4.0, mu=0.5, exposure_mode="all_neighbors"))
        assert new.tolist() == [0.5, 1.0, 1.5]

    def test_stays_in_convex_hull(self):
        rng = np.random.default_rng(8)
        g = generate_small_world(30, 4, 0.2, rng)
        beliefs = np.random.default_rng(9).uniform(-2, 2, 30)
        rows, index = run_numeric(g, beliefs, BcmParams(epsilon=4.0, mu=0.5), 50)
        traj = rows[index]
        assert traj.min() >= beliefs.min() - 1e-12
        assert traj.max() <= beliefs.max() + 1e-12

    def test_full_mixing_polarization_never_exceeds_initial(self):
        rng = np.random.default_rng(12)
        g = generate_small_world(30, 4, 0.2, rng)
        beliefs = np.random.default_rng(13).uniform(-2, 2, 30)
        rows, index = run_numeric(g, beliefs, BcmParams(epsilon=4.0, mu=0.5, exposure_mode="all_neighbors"), 80)
        traj = rows[index]
        initial = polarization(traj[0])
        assert all(polarization(day) <= initial + 1e-12 for day in traj)


class TestFjDay:
    def test_full_anchoring_reproduces_anchors(self):
        anchors = [0.3, -1.7, 2.0]
        p = FjParams(alpha=1.0, exposure_mode="all_neighbors")
        new = fj_day(complete_graph(3), [0.0, 0.0, 0.0], p, anchors)
        assert new.tolist() == anchors

    def test_pure_averaging_hand_case(self):
        p = FjParams(alpha=0.0, exposure_mode="all_neighbors")
        new = fj_day(complete_graph(3), [-2.0, 0.0, 2.0], p, [-2.0, 0.0, 2.0])
        assert new.tolist() == [1.0, 0.0, -1.0]

    def test_uniform_fixed_point(self):
        # dyadic values make the convex combination exact
        p = FjParams(alpha=0.5, exposure_mode="all_neighbors")
        assert fj_day(cycle_graph(4), [0.75] * 4, p, [0.75] * 4).tolist() == [0.75] * 4
        p2 = FjParams(alpha=0.4, exposure_mode="all_neighbors")
        assert fj_day(cycle_graph(4), [0.9] * 4, p2, [0.9] * 4) == pytest.approx([0.9] * 4, abs=1e-12)

    def test_empty_exposure_keeps_previous_value(self):
        g = NetworkGraph.from_edges(3, [(0, 1)])  # node 2 isolated
        p = FjParams(alpha=0.5, exposure_mode="all_neighbors")
        assert fj_day(g, [1.0, 1.0, -1.5], p, [0.0, 0.0, 0.0])[2] == -1.5

    def test_anchors_of_wrong_length_rejected(self):
        for anchors in ([], [0.0], [0.0, 1.0, 2.0]):
            with pytest.raises(ParameterError):
                fj_day(TWO_NODES, [0.0, 1.0], FjParams(alpha=0.3), anchors)


class TestRunNumeric:
    def test_single_day_equals_direct_call(self):
        beliefs = np.array([0.0, 1.0])
        p = BcmParams(epsilon=2.0, mu=0.5)
        rows, index = run_numeric(TWO_NODES, beliefs, p, 1)
        traj = rows[index]
        assert traj.shape == (2, 2)
        assert np.array_equal(traj[1], bcm_day(TWO_NODES, beliefs, p))

    def test_bcm_consensus_under_full_confidence(self):
        g = generate_small_world(50, 4, 0.1, np.random.default_rng(2))
        beliefs = np.random.default_rng(2).uniform(-2, 2, 50)
        rows, index = run_numeric(g, beliefs, BcmParams(epsilon=4.0, mu=0.5, exposure_mode="all_neighbors"), 200)
        traj = rows[index]
        assert traj[-1].max() - traj[-1].min() < 0.01

    def test_fj_converges_to_fixed_point(self):
        g = generate_small_world(50, 4, 0.1, np.random.default_rng(3))
        beliefs = np.random.default_rng(4).uniform(-2, 2, 50)
        rows, index = run_numeric(g, beliefs, FjParams(alpha=0.3), 200)
        traj = rows[index]
        assert np.abs(traj[-1] - traj[-2]).max() < 1e-6

    def test_fj_contracts_geometrically(self):
        g = generate_small_world(40, 4, 0.1, np.random.default_rng(6))
        beliefs = np.random.default_rng(7).uniform(-2, 2, 40)
        alpha = 0.3
        rows, index = run_numeric(g, beliefs, FjParams(alpha=alpha, exposure_mode="all_neighbors"), 60)
        traj = rows[index]
        changes = np.abs(np.diff(traj, axis=0)).max(axis=1)
        for prev, curr in zip(changes, changes[1:]):
            if prev > 1e-14:
                assert curr <= (1 - alpha) * prev + 1e-12

    def test_trajectory_deterministic(self):
        g = generate_small_world(30, 4, 0.2, np.random.default_rng(5))
        beliefs = np.random.default_rng(5).uniform(-2, 2, 30)
        rows, index = run_numeric(g, beliefs, FjParams(alpha=0.3), 40)
        a = rows[index]
        rows, index = run_numeric(g, beliefs, FjParams(alpha=0.3), 40)
        b = rows[index]
        assert np.array_equal(a, b)

    def test_relabeling_equivariance(self):
        rng = np.random.default_rng(31)
        g = generate_small_world(20, 4, 0.3, rng)
        beliefs = np.random.default_rng(32).uniform(-2, 2, 20)
        perm = np.random.default_rng(33).permutation(20)
        remapped = NetworkGraph.from_edges(20, [(int(perm[i]), int(perm[j])) for i, j in zip(*g.upper())])
        permuted = np.empty_like(beliefs)
        permuted[perm] = beliefs
        for params in (BcmParams(), FjParams(alpha=0.3)):
            rows, index = run_numeric(g, beliefs, params, 20)
            base = rows[index]
            rows, index = run_numeric(remapped, permuted, params, 20)
            other = rows[index]
            assert np.allclose(base, other[:, perm], atol=1e-12)

    def test_fj_matches_closed_form_fixed_point(self):
        # z* = alpha (I - (1 - alpha) D^-1 A)^-1 s on connected nodes; isolated nodes keep s
        base = generate_small_world(40, 4, 0.2, np.random.default_rng(41))
        g = NetworkGraph.from_edges(43, np.column_stack(base.upper()))  # nodes 40..42 are isolated
        anchors = np.random.default_rng(42).uniform(-2, 2, g.n)
        edges = edge_set(g)
        for alpha in (0.1, 0.3, 0.8):
            system = np.eye(g.n)
            rhs = anchors.copy()
            for i in range(g.n):
                neighbors = [j for j in range(g.n) if (i, j) in edges]
                if neighbors:
                    system[i, neighbors] -= (1.0 - alpha) / len(neighbors)
                    rhs[i] = alpha * anchors[i]
            expected = np.linalg.solve(system, rhs)
            params = FjParams(alpha=alpha, exposure_mode="all_neighbors")
            rows, index = run_numeric(g, anchors, params, 400)
            final = rows[index][-1]
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
            run_numeric(TWO_NODES, [0.0, 1.0], BcmParams(), 0)

    @pytest.mark.parametrize("days", [0, -3, 2.5, 1.0, True, False, "3", None])
    def test_days_must_be_an_integer_of_at_least_one(self, days):
        with pytest.raises(ParameterError, match="days must be an integer >= 1"):
            run_numeric(TWO_NODES, [0.0, 1.0], BcmParams(), days)

    def test_numpy_integer_days_accepted(self):
        rows, index = run_numeric(TWO_NODES, [0.0, 1.0], FjParams(), np.int64(3))
        assert rows[index].shape == (4, 2)

    @pytest.mark.parametrize("params", [None, LlmParams(), {"epsilon": 2.0, "mu": 0.3}], ids=["None", "LlmParams", "dict"])
    def test_params_of_no_numeric_engine_rejected(self, params):
        with pytest.raises(ParameterError, match=f"must be BcmParams or FjParams, got {type(params).__name__}$"):
            run_numeric(TWO_NODES, [0.0, 1.0], params, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 5.0, -2.0000000000000004])
    def test_initial_beliefs_outside_the_belief_range_rejected(self, bad):
        for params in (BcmParams(), FjParams()):
            with pytest.raises(ParameterError, match="initial beliefs must be finite and in"):
                run_numeric(TWO_NODES, [0.0, bad], params, 2)

    def test_beliefs_at_the_ends_of_the_range_accepted(self):
        p = BcmParams(epsilon=4.0, mu=0.5, exposure_mode="all_neighbors")
        rows, index = run_numeric(TWO_NODES, [-2.0, 2.0], p, 1)
        traj = rows[index]
        assert traj.tolist() == [[-2.0, 2.0], [0.0, 0.0]]


@pytest.fixture
def day_calls(monkeypatch):
    """Counts of the calls ``run_numeric`` makes to the module's day functions, by name."""
    calls = {"bcm_day": 0, "fj_day": 0}
    for name in calls:
        def counted(*args, _name=name, _day=getattr(numeric_mod, name)):
            calls[_name] += 1
            return _day(*args)
        monkeypatch.setattr(numeric_mod, name, counted)
    return calls


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# fj on a 2,000-node small world, which settles within 100 days, run for argv[1] days in a
# fresh process; prints the number of rows computed and the process's peak RSS in KiB
LONG_FJ_RUN = """
import resource, sys
from echosim.config import component_rng
from echosim.graphs import default_graph_spec, generate_graph
from echosim.numeric import FjParams, run_numeric
from echosim.population import init_population
n, days = 2000, int(sys.argv[1])
g = generate_graph(default_graph_spec("small_world", n), component_rng(1, "graph"))
beliefs = init_population(n, "topic", False, component_rng(1, "population")).beliefs
rows, index = run_numeric(g, beliefs, FjParams(alpha=0.3, exposure_mode="all_neighbors"), days)
print(len(rows), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


class TestFixedPointExit:
    # seed 1 reaches its fixed point; at seed 5 a few beliefs end alternating between two values
    @pytest.mark.parametrize("seed, period", [(1, 1), (5, 2)])
    def test_fj_long_settles_within_a_hundred_days(self, day_calls, seed, period):
        # the benchmark's fj-long run: FJ at alpha 0.3 on a 300-node small world for 200 days
        cfg = config_from_dict({"engine": "fj", "exposure_mode": "all_neighbors", "graph": {"kind": "small_world"},
                                "n": 300, "days": 200, "seed": seed})
        g = generate_graph(cfg.graph, component_rng(cfg.seed, "graph"))
        beliefs = init_population(cfg.n, cfg.topic, False, component_rng(cfg.seed, "population")).beliefs
        rows, index = run_numeric(g, beliefs, cfg.fj, cfg.days)
        trajectory = rows[index]
        assert 1 < day_calls["fj_day"] <= 100
        assert day_calls["bcm_day"] == 0
        expected = full_loop_run_numeric(g, beliefs, cfg.fj, cfg.days)
        assert same_bits(trajectory, expected)
        assert same_bits(expected[-1], expected[-2]) == (period == 1)
        assert same_bits(expected[-1], expected[-3])

    @pytest.mark.parametrize("engine, params, graph, days, expected_calls", [
        # anchors reproduced on day 1
        ("fj", FjParams(alpha=1.0, exposure_mode="all_neighbors"), GraphSpec("small_world", 20, k=4, p_rewire=0.2),
         50, 1),
        # distinct beliefs on a ring: nobody is within a zero confidence bound
        ("bcm", BcmParams(epsilon=0.0), GraphSpec("small_world", 20, k=2, p_rewire=0.0), 50, 1),
        # nobody hears anybody
        ("bcm", BcmParams(epsilon=4.0, mu=0.5), GraphSpec("random", 20, p_edge=0.0), 50, 1),
        ("fj", FjParams(alpha=0.3), GraphSpec("random", 20, p_edge=0.0), 50, 1),
        # settles mid-run
        ("fj", FjParams(alpha=0.3, exposure_mode="all_neighbors"), GraphSpec("small_world", 20, k=4, p_rewire=0.2),
         300, "mid-run"),
        # never settles: every day is computed
        ("fj", FjParams(alpha=0.3, exposure_mode="all_neighbors"), GraphSpec("small_world", 20, k=4, p_rewire=0.2),
         20, 20),
        ("bcm", BcmParams(epsilon=1.0, mu=0.3), GraphSpec("scale_free", 20, m=2), 15, 15),
    ])
    def test_day_functions_run_until_a_day_repeats(self, day_calls, engine, params, graph, days, expected_calls):
        g = generate_graph(graph, np.random.default_rng(5))
        beliefs = np.random.default_rng(6).uniform(-2, 2, g.n)
        rows, index = run_numeric(g, beliefs, params, days)
        trajectory = rows[index]
        calls = day_calls[f"{engine}_day"]
        if expected_calls == "mid-run":
            assert 1 < calls < days
        else:
            assert calls == expected_calls
        assert sum(day_calls.values()) == calls
        assert same_bits(trajectory, full_loop_run_numeric(g, beliefs, params, days))


    def test_resident_memory_past_the_fixed_point_does_not_grow_with_days(self):
        # 3,800 more days of 2,000 beliefs would fill 58 MiB if they were stored
        env = {**os.environ, "PYTHONPATH": str(Path(echosim.__file__).resolve().parents[1])}
        peak_kib = {}
        for days in (200, 4000):
            out = subprocess.run([sys.executable, "-c", LONG_FJ_RUN, str(days)], env=env, capture_output=True,
                                 text=True, check=True, timeout=120).stdout
            computed, peak_kib[days] = map(int, out.split())
            assert computed <= 100
        assert peak_kib[4000] - peak_kib[200] < 8 * 1024


@st.composite
def numeric_runs(draw):
    """(graph, initial beliefs, params, days) over both engines, both
    exposure modes and all three graph kinds, edgeless random graphs included."""
    engine, mode = draw(st.sampled_from(NUMERIC_ENGINES)), draw(st.sampled_from(EXPOSURE_MODES))
    kind, n = draw(st.sampled_from(GRAPH_KINDS)), draw(st.integers(5, 30))
    spec = {"small_world": GraphSpec(kind, n, k=draw(st.sampled_from([2, 4])), p_rewire=0.2),
            "scale_free": GraphSpec(kind, n, m=draw(st.sampled_from([1, 2]))),
            "random": GraphSpec(kind, n, p_edge=draw(st.sampled_from([0.0, 0.15, 0.5])))}[kind]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = generate_graph(spec, rng)
    beliefs = rng.integers(-8, 9, size=n) / 4.0 if draw(st.booleans()) else rng.uniform(-2, 2, size=n)
    threshold = draw(GATES)
    if engine == "bcm":
        params = BcmParams(epsilon=draw(GATES), mu=draw(st.sampled_from([0.1, 0.3, 0.5])),
                           exposure_mode=mode, similarity_threshold=threshold)
    else:
        params = FjParams(alpha=draw(st.sampled_from([0.0, 0.3, 0.9, 1.0])), exposure_mode=mode,
                          similarity_threshold=threshold)
    return g, beliefs, params, draw(st.integers(1, 300))


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
@given(st.integers(0, 10_000), st.sampled_from(EXPOSURE_MODES), GATES, GATES, st.sampled_from([0.1, 0.3, 0.5]))
def test_bcm_day_matches_loop_oracle(seed, exposure_mode, epsilon, threshold, mu):
    g, beliefs = oracle_instance(seed)
    p = BcmParams(epsilon=epsilon, mu=mu, exposure_mode=exposure_mode,
                  similarity_threshold=threshold)
    for _ in range(4):
        expected = naive_bcm_day(g, beliefs, p)
        got = bcm_day(g, beliefs, p)
        assert np.max(np.abs(got - expected)) <= 1e-12
        beliefs = got


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(EXPOSURE_MODES), GATES, st.sampled_from([0.0, 0.3, 1.0]))
def test_fj_day_matches_loop_oracle(seed, exposure_mode, threshold, alpha):
    g, beliefs = oracle_instance(seed)
    p = FjParams(alpha=alpha, exposure_mode=exposure_mode, similarity_threshold=threshold)
    anchors, beliefs = beliefs, np.roll(beliefs, 1)
    for _ in range(4):
        expected = naive_fj_day(g, beliefs, p, anchors)
        got = fj_day(g, beliefs, p, anchors)
        assert np.max(np.abs(got - expected)) <= 1e-12
        beliefs = got


@settings(max_examples=150, deadline=None)
@given(numeric_runs())
@example((complete_graph(6), np.linspace(-2, 2, 6), FjParams(alpha=1.0), 300))
@example((cycle_graph(6), np.linspace(-2, 2, 6), BcmParams(epsilon=0.0), 300))
@example((NetworkGraph.from_edges(6, []), np.linspace(-2, 2, 6), BcmParams(epsilon=4.0, mu=0.5), 300))
@example((cycle_graph(6), np.linspace(-2, 2, 6), FjParams(alpha=0.3, exposure_mode="all_neighbors"), 1))
def test_run_numeric_equals_the_full_loop_bit_for_bit(run_args):
    g, beliefs, params, days = run_args
    rows, index = run_numeric(g, beliefs, params, days)
    expected = full_loop_run_numeric(g, beliefs, params, days)
    assert same_bits(rows[index], expected)
    # the rows stop at the first day that repeats the day before it or the day two before it
    bits = expected.view(np.int64)
    repeats = [t for t in range(1, days + 1) if any(np.array_equal(bits[t], bits[t - p]) for p in (1, 2) if p <= t)]
    assert len(rows) == (repeats[0] if repeats else days + 1)
