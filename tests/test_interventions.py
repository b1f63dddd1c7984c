import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echosim.errors import ParameterError
from echosim.graphs import NetworkGraph
from echosim.interventions import (
    ACTIVE_NUDGE_PREFIX,
    DEFAULT_PASSIVE_TEXTS,
    NudgePolicy,
    active_nudge_content,
    passive_nudge_feed,
    select_targets,
)
from helpers import naive_active_nudge_content, path_graph

# belief value sets for the nudge oracle test: all neutral, one sign only, two
# values (many ties) and the whole grid
GRID_VALUE_SETS = [(0,), (0, 1, 2), (-2, -1, 0), (-2, 2), (-2, -1, 0, 1, 2)]


@st.composite
def grid_instances(draw):
    """(graph, grid beliefs); at most n edges, so the graph is often disconnected."""
    n = draw(st.integers(2, 12))
    values = draw(st.sampled_from(GRID_VALUE_SETS))
    beliefs = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=n, unique=True))
    return NetworkGraph.from_edges(n, edges), np.array(beliefs, dtype=float)


class TestSelectTargets:
    def test_threshold_two_selects_extremes(self):
        assert select_targets([-2.0, 0.0, 2.0], 2) == {0, 2}

    def test_all_moderate_selects_nobody(self):
        assert select_targets([0.0, 0.0, 0.0], 2) == set()

    def test_threshold_one_selects_everything_nonneutral(self):
        assert select_targets([-2.0, -1.0, 1.0, 2.0], 1) == {0, 1, 2, 3}


class TestActiveNudge:
    def test_picks_maximally_opposed_opinion(self):
        g = path_graph(3)
        texts = ["a", "b", "the other side"]
        content = active_nudge_content(0, [2.0, 1.0, -2.0], texts, g)
        assert content is not None
        assert "the other side" in content
        assert content.startswith(ACTIVE_NUDGE_PREFIX)

    def test_no_opposite_sign_no_nudge(self):
        g = path_graph(3)
        assert active_nudge_content(0, [2.0, 1.0, 0.5], ["a", "b", "c"], g) is None

    def test_neutral_target_gets_nothing(self):
        g = path_graph(2)
        assert active_nudge_content(0, [0.0, 2.0], ["a", "b"], g) is None

    def test_tie_breaks_by_graph_distance_then_index(self):
        # target 0 at +2; two candidates at -2: node 3 (three hops) and node 4,
        # which is adjacent. The nearer node 4 wins despite its higher index.
        g = NetworkGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 4)])
        beliefs = [2.0, 0.5, 0.5, -2.0, -2.0]
        content = active_nudge_content(0, beliefs, ["t0", "t1", "t2", "t3", "t4"], g)
        assert '"t4"' in content
        # equal distances: lower index wins
        g2 = NetworkGraph.from_edges(3, [(0, 1), (0, 2)])
        content2 = active_nudge_content(0, [2.0, -2.0, -2.0], ["x", "near1", "near2"], g2)
        assert '"near1"' in content2

    def test_unreachable_candidate_loses_to_reachable(self):
        g = NetworkGraph.from_edges(4, [(0, 1), (0, 2)])  # node 3 disconnected
        content = active_nudge_content(0, [2.0, 0.5, -2.0, -2.0], ["a", "b", "reach", "island"], g)
        assert '"reach"' in content

    # target 0 at +2 on six nodes; the expected winner, also checked against the oracle
    @pytest.mark.parametrize("edges, beliefs, winner", [
        # the nearest layer, two hops out, is reached as 5 then 4; node 1 is tied but three hops out
        ([(0, 2), (0, 3), (2, 5), (3, 4), (5, 1)], [2, -2, 0.5, 0.5, -2, -2], 4),
        # a reachable candidate wins over lower indices in another component
        ([(0, 1), (0, 5), (2, 3)], [2, 0.5, -2, -2, -2, -2], 5),
        # every candidate in another component: the lowest index
        ([(0, 1), (2, 3), (4, 5)], [2, 0.5, -2, -2, 0.5, -2], 2),
        # an isolated target: the lowest index
        ([(1, 2), (2, 3), (3, 4)], [2, 0.5, 0.5, -2, 0.5, -2], 3),
    ], ids=["nearest-layer-out-of-order", "other-component-loses", "only-other-component", "isolated-target"])
    def test_the_search_stops_at_the_nearest_layer_with_a_candidate(self, edges, beliefs, winner):
        g = NetworkGraph.from_edges(6, edges)
        texts = [f"t{i}" for i in range(6)]
        content = active_nudge_content(0, np.array(beliefs, dtype=float), texts, g)
        assert content == f'{ACTIVE_NUDGE_PREFIX}"t{winner}"'
        assert content == naive_active_nudge_content(0, beliefs, texts, g)

    @pytest.mark.parametrize("target, message", [
        (-1, "target -1 out of range for n=3"),  # not agent 2's belief
        (3, "target 3 out of range for n=3"),
        (1.0, "target must be an integer, got 1.0"),
        (True, "target must be an integer, got True"),
    ])
    def test_a_target_that_is_no_agent_is_a_parameter_error(self, target, message):
        with pytest.raises(ParameterError, match=message):
            active_nudge_content(target, [-2.0, 0.0, 2.0], ["a", "b", "c"], path_graph(3))

    def test_a_numpy_integer_target_is_an_agent(self):
        content = active_nudge_content(np.int64(2), [-2.0, 0.0, 2.0], ["a", "b", "c"], path_graph(3))
        assert content == f'{ACTIVE_NUDGE_PREFIX}"a"'

    @settings(max_examples=200, deadline=None)
    @given(grid_instances())
    def test_matches_the_three_scan_oracle_on_grid_beliefs(self, instance):
        g, beliefs = instance
        texts = [f"t{i}" for i in range(g.n)]
        for target in range(g.n):
            expected = naive_active_nudge_content(target, beliefs.tolist(), texts, g)
            assert active_nudge_content(target, beliefs, texts, g) == expected


class TestPassiveNudge:
    def test_first_draw_is_a_default_text(self):
        feed = passive_nudge_feed(np.random.default_rng(1))
        assert next(feed) in DEFAULT_PASSIVE_TEXTS

    def test_rotation_is_deterministic_per_seed_and_cyclic(self):
        a = passive_nudge_feed(np.random.default_rng(9))
        b = passive_nudge_feed(np.random.default_rng(9))
        seq_a = [next(a) for _ in range(10)]
        seq_b = [next(b) for _ in range(10)]
        assert seq_a == seq_b
        size = len(DEFAULT_PASSIVE_TEXTS)
        for k in range(10 - size):
            assert seq_a[k] == seq_a[k + size]  # round-robin rotation

    def test_singleton_list_always_returns_it(self):
        feed = passive_nudge_feed(np.random.default_rng(2), ("only one",))
        assert [next(feed) for _ in range(5)] == ["only one"] * 5

    def test_both_fixed_statements_are_in_defaults(self):
        assert "Issues are rarely black and white." in DEFAULT_PASSIVE_TEXTS
        assert "Many societal and political issues are complex and multifaceted." in DEFAULT_PASSIVE_TEXTS

    def test_empty_list_rejected(self):
        with pytest.raises(ParameterError):
            passive_nudge_feed(np.random.default_rng(1), ())


class TestNudgePolicy:
    def test_valid_policies(self):
        NudgePolicy().validate()
        NudgePolicy(kind="active", extremity_threshold=1).validate()
        NudgePolicy(kind="passive").validate()

    def test_invalid_policies(self):
        with pytest.raises(ParameterError):
            NudgePolicy(kind="forceful").validate()
        with pytest.raises(ParameterError):
            NudgePolicy(extremity_threshold=3).validate()
        with pytest.raises(ParameterError):
            NudgePolicy(kind="passive", passive_texts=()).validate()
