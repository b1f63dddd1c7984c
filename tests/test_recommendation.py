import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echosim.errors import ParameterError
from echosim.graphs import GRAPH_KINDS, NetworkGraph, default_graph_spec, generate_graph
from echosim.language import LlmParams
from echosim.numeric import BcmParams, FjParams
from echosim.recommendation import EXPOSURE_MODES, ExposureRule, all_exposure_sets, exposure_set
from helpers import cycle_graph, neighbors, random_instance, star_graph


def recommended(g, beliefs, i, threshold):
    """The similarity-filtered neighbors of ``i`` as a set."""
    return set(exposure_set(g, beliefs, i, "recommended", threshold=threshold))


def test_filter_excludes_pairs_beyond_threshold():
    g = NetworkGraph.from_edges(2, [(0, 1)])
    beliefs = [2.0, -1.0]  # |2 - (-1)| = 3 > 2
    assert recommended(g, beliefs, 0, 2.0) == set()


def test_threshold_wider_than_range_keeps_all_neighbors():
    g = cycle_graph(6)
    beliefs = [-2.0, -1.0, 0.0, 1.0, 2.0, 0.5]
    for i in range(6):
        assert recommended(g, beliefs, i, 4.0) == set(neighbors(g, i))


def test_star_graph_worked_example():
    g = star_graph(4)
    beliefs = [0.0, -2.0, -1.0, 1.0, 2.0]
    assert recommended(g, beliefs, 0, 1.0) == {2, 3}


def test_zero_threshold_keeps_exact_matches_only():
    g = star_graph(3)
    beliefs = [1.0, 1.0, 0.5, 1.0]
    assert recommended(g, beliefs, 0, 0.0) == {1, 3}


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.floats(0, 4), st.floats(0, 4))
def test_monotone_in_threshold(seed, t_a, t_b):
    lo, hi = min(t_a, t_b), max(t_a, t_b)
    g, beliefs = random_instance(np.random.default_rng(seed))
    for i in range(g.n):
        assert recommended(g, beliefs, i, lo) <= recommended(g, beliefs, i, hi)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.floats(0, 4))
def test_symmetry(seed, threshold):
    g, beliefs = random_instance(np.random.default_rng(seed))
    for i in range(g.n):
        for j in range(g.n):
            if i != j:
                assert (j in recommended(g, beliefs, i, threshold)) == (
                    i in recommended(g, beliefs, j, threshold)
                )


def test_exposure_all_neighbors_on_cycle():
    g = cycle_graph(6)
    assert exposure_set(g, [0.0] * 6, 2, "all_neighbors") == [1, 3]


def test_exposure_recommended_with_equal_beliefs_is_full_neighborhood():
    g = star_graph(5)
    assert exposure_set(g, [1.0] * 6, 0, "recommended") == [1, 2, 3, 4, 5]


def test_cap_draws_reproducible_subset():
    g = star_graph(7)
    beliefs = [0.0] * 8
    a = exposure_set(g, beliefs, 0, "recommended", cap=3, rng=np.random.default_rng(4))
    b = exposure_set(g, beliefs, 0, "recommended", cap=3, rng=np.random.default_rng(4))
    assert a == b
    assert len(a) == 3
    assert a == sorted(a)
    assert set(a) <= set(neighbors(g, 0))


def test_cap_requires_rng_only_when_it_bites():
    g = star_graph(2)
    assert exposure_set(g, [0.0] * 3, 0, "all_neighbors", cap=5) == [1, 2]
    with pytest.raises(ParameterError):
        exposure_set(star_graph(7), [0.0] * 8, 0, "all_neighbors", cap=3)


def test_parameter_errors():
    g = cycle_graph(4)
    with pytest.raises(ParameterError):
        exposure_set(g, [0.0] * 4, 9, "recommended", threshold=1.0)
    with pytest.raises(ParameterError):
        exposure_set(g, [0.0] * 3, 0, "recommended", threshold=1.0)
    with pytest.raises(ParameterError):
        exposure_set(g, [0.0] * 4, 0, "recommended", threshold=-1.0)
    with pytest.raises(ParameterError):
        exposure_set(g, [0.0] * 4, 0, "everything")
    with pytest.raises(ParameterError):
        exposure_set(g, [0.0] * 4, 0, "all_neighbors", cap=0)


@pytest.mark.parametrize("i", [1.0, 2.5, True, "1"])
def test_an_agent_index_that_is_not_an_integer_is_a_parameter_error(i):
    with pytest.raises(ParameterError, match=f"agent index must be an integer, got {re.escape(repr(i))}"):
        exposure_set(cycle_graph(4), [0.0] * 4, i, "all_neighbors")


def test_a_numpy_integer_agent_index_is_an_index():
    assert exposure_set(cycle_graph(4), [0.0] * 4, np.int64(1), "all_neighbors") == [0, 2]


def test_every_engine_checks_mode_and_threshold():
    for cls in (BcmParams, FjParams, LlmParams):
        with pytest.raises(ParameterError, match="exposure_mode must be one of 'all_neighbors', 'recommended'"):
            cls(exposure_mode="typo").validate()
        with pytest.raises(ParameterError, match="similarity_threshold must be >= 0, got -1.0"):
            cls(similarity_threshold=-1.0).validate()
        cls(exposure_mode="all_neighbors", similarity_threshold=0.0).validate()


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, -1.0])
def test_exposure_set_rejects_a_threshold_the_rule_rejects(threshold):
    g = cycle_graph(4)
    with pytest.raises(ParameterError) as exposure_error:
        exposure_set(g, [0.0] * 4, 0, "recommended", threshold=threshold)
    with pytest.raises(ParameterError) as rule_error:
        ExposureRule(similarity_threshold=threshold).validate()
    assert str(exposure_error.value) == str(rule_error.value) == f"similarity_threshold must be >= 0, got {threshold!r}"


def test_a_threshold_that_is_not_a_number_is_a_parameter_error():
    with pytest.raises(ParameterError, match="similarity_threshold must be a number, got str"):
        exposure_set(cycle_graph(4), [0.0] * 4, 0, "recommended", threshold="2")
    with pytest.raises(ParameterError, match="similarity_threshold must be a number, got NoneType"):
        all_exposure_sets(cycle_graph(4), [0.0] * 4, "recommended", threshold=None)


@pytest.mark.parametrize("threshold", [0, 0.0, 2.0])
def test_exposure_set_accepts_a_threshold_the_rule_accepts(threshold):
    ExposureRule(similarity_threshold=threshold).validate()
    assert exposure_set(cycle_graph(4), [0.0, 0.0, 2.0, 1.0], 0, "recommended", threshold=threshold) == (
        [1] if threshold < 1 else [1, 3])


def test_exposure_set_rejects_a_mode_in_the_rule_s_words():
    with pytest.raises(ParameterError) as exposure_error:
        exposure_set(cycle_graph(4), [0.0] * 4, 0, "everything")
    with pytest.raises(ParameterError) as rule_error:
        ExposureRule(exposure_mode="everything").validate()
    assert str(exposure_error.value) == str(rule_error.value)


def exposure_graph(kind: str, n: int, seed: int) -> NetworkGraph:
    """A generated graph of ``kind``, or for "isolated" a scale-free one with three
    nodes of no edge added, one before every other node."""
    g = generate_graph(default_graph_spec(kind if kind in GRAPH_KINDS else "scale_free", n),
                       np.random.default_rng(seed))
    if kind == "isolated":
        i, j = g.upper()
        g = NetworkGraph.from_edges(n + 3, np.stack([i + 1, j + 1], axis=1))
    return g


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(GRAPH_KINDS + ("isolated",)), n=st.integers(5, 40), seed=st.integers(0, 10_000),
       mode=st.sampled_from(EXPOSURE_MODES), threshold=st.sampled_from([0.0, 2.0, 10.0]),
       cap=st.sampled_from([None, 1, 8]), tied=st.booleans())
def test_all_exposure_sets_equal_one_query_per_agent(kind, n, seed, mode, threshold, cap, tied):
    g = exposure_graph(kind, n, seed)
    draw = np.random.default_rng(seed + 1)
    # grid beliefs tie often, and many of their distances equal a threshold of 0 or 2
    beliefs = draw.integers(-2, 3, g.n).astype(float) if tied else draw.uniform(-2, 2, g.n)
    per_agent, whole_day = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = [exposure_set(g, beliefs, i, mode, cap, per_agent, threshold) for i in range(g.n)]
    assert all_exposure_sets(g, beliefs, mode, cap, whole_day, threshold) == expected
    assert whole_day.bit_generator.state == per_agent.bit_generator.state


@pytest.mark.parametrize("mode, threshold, cap", [
    ("everything", 2.0, None),
    ("recommended", -1.0, None),
    ("recommended", math.nan, 8),
    ("all_neighbors", 2.0, 0),
    ("all_neighbors", 2.0, 3),  # bites at the hub, the last agent, and no rng is given
], ids=["bad mode", "negative threshold", "NaN threshold", "cap below 1", "cap without rng"])
def test_all_exposure_sets_raise_what_one_query_per_agent_raises(mode, threshold, cap):
    g = NetworkGraph.from_edges(8, [(7, i) for i in range(7)])
    beliefs = [0.0] * 8
    with pytest.raises(ParameterError) as per_agent:
        [exposure_set(g, beliefs, i, mode, cap, None, threshold) for i in range(g.n)]
    with pytest.raises(ParameterError) as whole_day:
        all_exposure_sets(g, beliefs, mode, cap, None, threshold)
    assert str(whole_day.value) == str(per_agent.value)
