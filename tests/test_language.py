import re
import threading
import time
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from echosim.backends import MockBackend
from echosim.errors import BackendError, ParameterError
from echosim.graphs import NetworkGraph
from echosim.interventions import NUDGE_KINDS, NudgePolicy
from echosim.language import (
    LlmParams,
    Transcript,
    TranscriptEvent,
    llm_day,
    run_llm,
)
from echosim.population import BELIEF_GRID, Persona, Population
from echosim.prompts import SECTION_HEARD, SUMMARY_HEADER, stance_statement
from helpers import AWKWARD_TEXT, cycle_graph, json_dumps_transcript

TOPIC = "Euthanasia should be legal."


def make_population(beliefs):
    personas = tuple(
        Persona(index=i, gender="female", age=30, education="bachelor", traits=(True,) * 5)
        for i in range(len(beliefs))
    )
    return Population(personas=personas, beliefs=np.array(beliefs, dtype=float),
                      topic=TOPIC, grid=True)


def rng(seed=1):
    return np.random.default_rng(seed)


def one_day(g, beliefs, nudge=NudgePolicy(), params=LlmParams(), backend=None, seed=1):
    """(end-of-day beliefs, long-term summaries, transcript) of day 1 from ``beliefs``."""
    population = make_population(beliefs)
    transcript = Transcript()
    from echosim.interventions import passive_nudge_feed
    feed = passive_nudge_feed(rng(seed), nudge.passive_texts) if nudge.kind == "passive" else None
    beliefs, _, long_term = llm_day(g, population, list(beliefs), [stance_statement(b) for b in beliefs],
                                    [""] * g.n, backend or MockBackend(), params, nudge, feed,
                                    rng(seed), day=1, transcript=transcript)
    return beliefs, long_term, transcript


def heard_lines(prompt):
    """The lines of a reflection prompt's "Today you heard" section."""
    if SECTION_HEARD not in prompt:
        return []
    return prompt.split(SECTION_HEARD + "\n", 1)[1].split("\n\n", 1)[0].splitlines()


class TestSingleDay:
    def test_isolated_node_unchanged_with_one_reflection_event(self):
        g = NetworkGraph.from_edges(3, [(0, 1)])
        beliefs, _, transcript = one_day(g, [0, 1, 2])
        assert beliefs[2] == 2
        events_for_2 = [e for e in transcript if e.agent == 2]
        assert [e.kind for e in events_for_2] == ["reflection"]

    def test_antipodal_pair_filtered_out_stays_put(self):
        g = NetworkGraph.from_edges(2, [(0, 1)])
        beliefs, _, transcript = one_day(g, [-2, 2])
        assert beliefs == [-2, 2]
        assert not [e for e in transcript if e.kind == "exposure"]

    def test_mean_attraction_moves_both_to_one(self):
        # agent 0: round(0.7*0 + 0.3*2) = 1; agent 1: round(0.7*2 + 0.3*0) = 1
        g = NetworkGraph.from_edges(2, [(0, 1)])
        beliefs, _, _ = one_day(g, [0, 2])
        assert beliefs == [1, 1]

    def test_small_gap_rounds_to_no_movement(self):
        # 0.3 and 0.7 both round back onto the starting grid points
        g = NetworkGraph.from_edges(2, [(0, 1)])
        beliefs, _, _ = one_day(g, [0, 1])
        assert beliefs == [0, 1]

    def test_summary_fits_budget(self):
        g = cycle_graph(5)
        params = LlmParams(long_term_budget=80)
        _, long_term, _ = one_day(g, [0, 1, 2, 1, 0], params=params)
        for summary in long_term:
            assert len(summary) <= 80

    def test_inputs_are_not_mutated(self):
        g = cycle_graph(4)
        start = [2, 0, -2, 1]
        population = make_population(start)
        beliefs, texts, long_term = list(start), [stance_statement(b) for b in start], ["a", "b", "", "c"]
        inputs = (list(beliefs), list(texts), list(long_term))
        out = llm_day(g, population, beliefs, texts, long_term, MockBackend(), LlmParams(),
                      NudgePolicy(kind="active"), None, rng(), day=1, transcript=Transcript())
        assert (beliefs, texts, long_term) == inputs
        assert all(new is not old for new, old in zip(out, (beliefs, texts, long_term)))

    def test_every_belief_change_has_an_update_event(self):
        g = cycle_graph(6)
        beliefs, _, transcript = one_day(g, [0, 2, 0, 2, 0, 2])
        changed = {i for i, b in enumerate(beliefs) if b != [0, 2, 0, 2, 0, 2][i]}
        update_agents = {e.agent for e in transcript if e.kind == "update"}
        assert update_agents == changed
        for e in transcript:
            if e.kind == "update":
                assert e.belief_before != e.belief_after


class TestNudgeIntegration:
    def test_no_policy_means_no_nudge_events(self):
        g = cycle_graph(4)
        _, _, transcript = one_day(g, [2, 2, -2, -2])
        assert not [e for e in transcript if e.kind == "nudge"]

    def test_nudges_target_only_extremes(self):
        g = cycle_graph(4)
        _, _, transcript = one_day(g, [2, 0, -2, 1], nudge=NudgePolicy(kind="passive"))
        nudged = {e.agent for e in transcript if e.kind == "nudge"}
        assert nudged == {0, 2}

    def test_active_nudge_pulls_extreme_inward(self):
        g = NetworkGraph.from_edges(2, [(0, 1)])
        # exposure is filtered (gap 4), but the nudge still reaches both extremes
        beliefs, _, transcript = one_day(g, [2, -2], nudge=NudgePolicy(kind="active"))
        assert beliefs == [1, -1]
        nudge_events = [e for e in transcript if e.kind == "nudge"]
        assert len(nudge_events) == 2
        # active nudges carry the opposing agent's opinion text
        assert all("An opposing perspective" in e.payload for e in nudge_events)

    def test_passive_nudge_carries_no_agent_opinion(self):
        g = cycle_graph(4)
        opinion_texts = {stance_statement(b) for b in [2, 2, -2, -2]}
        _, _, transcript = one_day(g, [2, 2, -2, -2], nudge=NudgePolicy(kind="passive"))
        for e in transcript:
            if e.kind == "nudge":
                assert e.payload in NudgePolicy().passive_texts
                assert all(text not in e.payload for text in opinion_texts)


class CountingBackend:
    """Thread-safe call counter around the mock."""

    name = "counting-mock"

    def __init__(self):
        self.inner = MockBackend()
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, prompt, max_length, temperature):
        with self._lock:
            self.calls += 1
        return self.inner.complete(prompt, max_length, temperature)


class FlakyBackend:
    """Fails (unparseable or transport) a fixed number of times, then works."""

    name = "flaky"

    def __init__(self, failures, transport=False):
        self.remaining = failures
        self.transport = transport
        self.inner = MockBackend()

    def complete(self, prompt, max_length, temperature):
        if self.remaining > 0:
            self.remaining -= 1
            if self.transport:
                raise BackendError("flaky wire")
            return "static noise, nothing usable"
        return self.inner.complete(prompt, max_length, temperature)


class GarbageBackend:
    name = "garbage"

    def complete(self, prompt, max_length, temperature):
        return "no structure at all"


class TestBackendDiscipline:
    def test_daily_call_budget_is_at_most_2n(self):
        g = cycle_graph(8)
        backend = CountingBackend()
        one_day(g, [0, 1, 2, 1, 0, -1, -2, -1], backend=backend)
        assert backend.calls <= 2 * 8

    def test_parse_retry_then_success(self):
        g = NetworkGraph.from_edges(2, [(0, 1)])
        backend = FlakyBackend(failures=1)
        params = LlmParams(retries=2, max_in_flight=1)
        beliefs, _, transcript = one_day(g, [0, 2], backend=backend, params=params)
        assert beliefs[0] == 1  # recovered on retry
        flagged = [e for e in transcript if e.kind == "reflection" and "parse_failed" in e.payload]
        assert flagged

    def test_transport_retry_then_success(self):
        g = NetworkGraph.from_edges(2, [(0, 1)])
        backend = FlakyBackend(failures=1, transport=True)
        params = LlmParams(retries=2, max_in_flight=1)
        beliefs, _, transcript = one_day(g, [0, 2], backend=backend, params=params)
        assert beliefs[0] == 1
        assert any("transport_error" in e.payload for e in transcript)

    def test_exhausted_retries_keep_previous_belief(self):
        g = NetworkGraph.from_edges(2, [(0, 1)])
        beliefs, _, transcript = one_day(g, [0, 2], backend=GarbageBackend(),
                                         params=LlmParams(retries=2, max_in_flight=1))
        assert beliefs == [0, 2]
        kept = [e for e in transcript if "kept_previous_belief" in e.payload]
        assert len(kept) == 2

    def test_clamped_reply_is_flagged(self):
        class OvershootBackend:
            name = "overshoot"

            def complete(self, prompt, max_length, temperature):
                return "BELIEF: 7\nOPINION: way out"

        g = NetworkGraph.from_edges(2, [(0, 1)])
        beliefs, _, transcript = one_day(g, [0, 1], backend=OvershootBackend(),
                                         params=LlmParams(max_in_flight=1))
        assert all(b == 2 for b in beliefs)
        assert any("clamped" in e.payload for e in transcript if e.kind == "reflection")


class TestFullRuns:
    def test_run_is_bit_reproducible(self):
        g = cycle_graph(12)
        population = make_population([(-2 + i) % 5 - 2 for i in range(12)])
        results = [
            run_llm(g, population, MockBackend(), LlmParams(), NudgePolicy(kind="passive"),
                    days=8, rng=rng(7))
            for _ in range(2)
        ]
        assert np.array_equal(results[0].belief_trajectory, results[1].belief_trajectory)
        assert results[0].opinion_trajectory == results[1].opinion_trajectory
        assert results[0].transcript.to_jsonl() == results[1].transcript.to_jsonl()

    def test_beliefs_never_leave_grid(self):
        g = cycle_graph(10)
        population = make_population([-2, -1, 0, 1, 2, 2, 1, 0, -1, -2])
        result = run_llm(g, population, MockBackend(), LlmParams(), NudgePolicy(),
                         days=10, rng=rng(3))
        assert set(np.unique(result.belief_trajectory)) <= set(BELIEF_GRID)

    def test_memory_budget_never_violated(self):
        g = cycle_graph(10)
        population = make_population([2, -2, 1, -1, 0, 2, -2, 1, -1, 0])
        params = LlmParams(long_term_budget=120)
        result = run_llm(g, population, MockBackend(), params, NudgePolicy(),
                         days=6, rng=rng(4))
        for summary in result.long_term:
            assert len(summary) <= 120

    def test_day_two_prompts_hold_only_day_two_exposures(self):
        n = 6
        g = cycle_graph(n)
        backend = RecordingBackend()
        result = run_llm(g, make_population([0, 2] * 3), backend,
                         LlmParams(exposure_mode="all_neighbors", cap=None, max_in_flight=1),
                         NudgePolicy(), days=2, rng=rng())
        beliefs, texts = result.belief_trajectory[1].tolist(), result.opinion_trajectory[1]
        assert beliefs != [0, 2] * 3  # day 1 changed what the speakers broadcast
        # serial calls: each day's n reflections, then its n compressions
        day_two = backend.prompts[2 * n:3 * n]
        for i, prompt in enumerate(day_two):
            heard = sorted({(i - 1) % n, (i + 1) % n})
            assert heard_lines(prompt) == [f"- Agent {j}: (stance {beliefs[j]:+d}) {texts[j]}" for j in heard]

    def test_trajectory_shape_and_day_zero(self):
        g = cycle_graph(5)
        population = make_population([0, 1, 2, -1, -2])
        result = run_llm(g, population, MockBackend(), LlmParams(), NudgePolicy(),
                         days=4, rng=rng(2))
        assert result.belief_trajectory.shape == (5, 5)
        assert result.belief_trajectory[0].tolist() == [0, 1, 2, -1, -2]
        assert len(result.opinion_trajectory) == 5

    def test_transcript_sorted_by_day_then_agent(self):
        g = cycle_graph(6)
        population = make_population([0, 2, 0, 2, 0, 2])
        result = run_llm(g, population, MockBackend(), LlmParams(), NudgePolicy(kind="active"),
                         days=3, rng=rng(5))
        keys = [(e.day, e.agent) for e in result.transcript]
        assert keys == sorted(keys)  # appended by (day, agent), the order the file stores

    def test_on_day_hook_gets_what_a_collecting_run_returns(self):
        g = cycle_graph(8)
        population = make_population([(-2 + i) % 5 - 2 for i in range(8)])
        seen = []
        hooked = run_llm(g, population, MockBackend(), LlmParams(), NudgePolicy(kind="active"), days=4, rng=rng(9),
                         on_day=lambda *day: seen.append(day))
        collected = run_llm(g, population, MockBackend(), LlmParams(), NudgePolicy(kind="active"), days=4, rng=rng(9))
        assert [day for day, _, _, _ in seen] == [0, 1, 2, 3, 4]
        assert [beliefs for _, beliefs, _, _ in seen] == collected.belief_trajectory.tolist()
        assert [texts for _, _, texts, _ in seen] == collected.opinion_trajectory
        assert [e for _, _, _, events in seen for e in events] == collected.transcript
        assert np.array_equal(hooked.belief_trajectory, collected.belief_trajectory)
        assert hooked.long_term == collected.long_term
        assert (hooked.opinion_trajectory, hooked.transcript) == (None, None)

    def test_parallel_and_serial_reflection_agree(self):
        g = cycle_graph(9)
        population = make_population([(-1) ** i * (i % 3) for i in range(9)])
        serial = run_llm(g, population, MockBackend(), LlmParams(max_in_flight=1),
                         NudgePolicy(), days=5, rng=rng(6))
        parallel = run_llm(g, population, MockBackend(), LlmParams(max_in_flight=4),
                           NudgePolicy(), days=5, rng=rng(6))
        assert np.array_equal(serial.belief_trajectory, parallel.belief_trajectory)
        assert serial.transcript.to_jsonl() == parallel.transcript.to_jsonl()


class BarrierBackend:
    """Every call waits until another call is in flight with it."""

    name = "barrier"

    def __init__(self, parties):
        self.barrier = threading.Barrier(parties, timeout=5)
        self.inner = MockBackend()

    def complete(self, prompt, max_length, temperature):
        self.barrier.wait()
        return self.inner.complete(prompt, max_length, temperature)


class InFlightBackend:
    """Records the largest number of calls in flight at once."""

    name = "in-flight"

    def __init__(self):
        self.inner = MockBackend()
        self.in_flight = 0
        self.peak = 0
        self._lock = threading.Lock()

    def complete(self, prompt, max_length, temperature):
        with self._lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(0.001)
            return self.inner.complete(prompt, max_length, temperature)
        finally:
            with self._lock:
                self.in_flight -= 1


class RecordingBackend:
    name = "recording"

    def __init__(self):
        self.inner = MockBackend()
        self.prompts = []

    def complete(self, prompt, max_length, temperature):
        self.prompts.append(prompt)
        return self.inner.complete(prompt, max_length, temperature)


class SummaryFailingBackend:
    """Answers reflections; every compression call fails in transport."""

    name = "summary-failing"

    def __init__(self):
        self.inner = MockBackend()

    def complete(self, prompt, max_length, temperature):
        if SUMMARY_HEADER in prompt:
            raise BackendError("summaries down")
        return self.inner.complete(prompt, max_length, temperature)


class TestDayPool:
    """Reflections and compressions share one pool of max_in_flight workers."""

    def test_compressions_run_concurrently(self):
        # the day ends only if each compression call meets the other in flight
        g = NetworkGraph.from_edges(2, [(0, 1)])
        _, long_term, transcript = one_day(g, [0, 1], backend=BarrierBackend(2),
                                           params=LlmParams(max_in_flight=2))
        assert all(long_term)
        assert not [e for e in transcript if "summary_transport_error" in e.payload]

    @pytest.mark.parametrize("max_in_flight", [1, 2, 3])
    def test_calls_in_flight_never_exceed_the_bound(self, max_in_flight):
        g = cycle_graph(8)
        backend = InFlightBackend()
        one_day(g, [0, 1, 2, 1, 0, -1, -2, -1], backend=backend,
                params=LlmParams(max_in_flight=max_in_flight))
        assert 1 <= backend.peak <= max_in_flight

    def test_serial_order_is_reflections_then_compressions(self):
        n = 6
        g = cycle_graph(n)
        backend = RecordingBackend()
        one_day(g, [0] * n, backend=backend,
                params=LlmParams(exposure_mode="all_neighbors", cap=None, max_in_flight=1))
        kinds = ["summary" if SUMMARY_HEADER in p else "reflect" for p in backend.prompts]
        assert kinds == ["reflect"] * n + ["summary"] * n
        heard = [sorted(int(j) for j in re.findall(r"^- Agent (\d+):", p, re.MULTILINE))
                 for p in backend.prompts]
        in_agent_order = [sorted({(i - 1) % n, (i + 1) % n}) for i in range(n)]
        assert heard == in_agent_order * 2

    def test_failed_compressions_match_serial_transcript(self):
        g = cycle_graph(9)
        beliefs = [(-1) ** i * (i % 3) for i in range(9)]
        _, serial_long_term, serial = one_day(g, beliefs, backend=SummaryFailingBackend(),
                                              params=LlmParams(max_in_flight=1))
        _, pooled_long_term, pooled = one_day(g, beliefs, backend=SummaryFailingBackend(),
                                              params=LlmParams(max_in_flight=3))
        assert pooled.to_jsonl() == serial.to_jsonl()
        failed = [e for e in serial if "summary_transport_error" in e.payload]
        assert failed  # the fallback ran
        assert pooled_long_term == serial_long_term


class MixedFailureBackend:
    """The same fate for the same prompt: a quarter of all calls fail in
    transport, a quarter of the reflections get an unparseable reply, and the
    rest get the mock's reply."""

    name = "mixed-failure"

    def __init__(self):
        self.inner = MockBackend()

    def complete(self, prompt, max_length, temperature):
        fate = zlib.crc32(prompt.encode("utf-8")) % 4
        if fate == 0:
            raise BackendError("wire down")
        if fate == 1 and SUMMARY_HEADER not in prompt:
            return "static noise, nothing usable"
        return self.inner.complete(prompt, max_length, temperature)


class ExplodingBackend:
    """The mock, except that the fifth call raises an error that is not a
    BackendError; every other call first waits ``delay`` seconds."""

    name = "exploding"

    def __init__(self, delay=0.0):
        self.inner = MockBackend()
        self.delay = delay
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, prompt, max_length, temperature):
        with self._lock:
            self.calls += 1
            if self.calls == 5:
                raise RuntimeError("backend bug")
        time.sleep(self.delay)
        return self.inner.complete(prompt, max_length, temperature)


class TestTranscriptOrder:
    """Each day's events are appended at the day barrier, in the order the file stores them."""

    @pytest.mark.parametrize("kind", NUDGE_KINDS)
    def test_events_are_appended_in_file_order(self, kind):
        population = make_population([(0, 2, 0, -2)[i % 4] for i in range(12)])
        transcript = run_llm(cycle_graph(12), population, MixedFailureBackend(), LlmParams(max_in_flight=3),
                             NudgePolicy(kind=kind), days=4, rng=rng(5)).transcript
        keys = [(e.day, e.agent) for e in transcript]
        assert keys == sorted(keys)
        kinds = {e.kind for e in transcript}
        assert kinds == {"exposure", "reflection", "update"} | ({"nudge"} if kind != "none" else set())
        payloads = ";".join(e.payload for e in transcript)
        for flag in ("parse_failed", "transport_error", "summary_transport_error"):
            assert flag in payloads

    def test_a_day_that_raises_appends_no_events(self):
        g = cycle_graph(12)
        beliefs = [i % 5 - 2 for i in range(12)]
        population = make_population(beliefs)
        texts, long_term = [stance_statement(b) for b in beliefs], [""] * g.n
        transcript = Transcript()
        day_rng = rng(3)
        state = llm_day(g, population, beliefs, texts, long_term, MockBackend(), LlmParams(),
                        NudgePolicy(kind="active"), None, day_rng, day=1, transcript=transcript)
        before = list(transcript)
        assert {e.kind for e in before} >= {"exposure", "nudge"}
        with pytest.raises(RuntimeError, match="backend bug"):
            llm_day(g, population, *state, ExplodingBackend(), LlmParams(max_in_flight=2),
                    NudgePolicy(kind="active"), None, day_rng, day=2, transcript=transcript)
        assert transcript == before

    def test_a_day_that_raises_stops_queuing_backend_calls(self):
        # the pool's map cancels the calls that have not started once one raises;
        # a backend that answers instantly may still finish all 2n before that
        g = cycle_graph(12)
        beliefs = [i % 5 - 2 for i in range(12)]
        backend = ExplodingBackend(delay=0.01)
        with pytest.raises(RuntimeError, match="backend bug"):
            llm_day(g, make_population(beliefs), beliefs, [stance_statement(b) for b in beliefs], [""] * g.n,
                    backend, LlmParams(max_in_flight=2), NudgePolicy(), None, rng(3), day=1,
                    transcript=Transcript())
        assert 5 <= backend.calls < 2 * g.n


class TestValidation:
    def test_grid_population_required(self):
        personas = tuple(Persona(index=i, gender="male", age=25, education="master",
                                 traits=(True,) * 5) for i in range(3))
        continuous = Population(personas=personas, beliefs=np.array([0.5, 1.1, -0.3]),
                                topic=TOPIC, grid=False)
        with pytest.raises(ParameterError, match="grid"):
            run_llm(cycle_graph(3), continuous, MockBackend(), LlmParams(), NudgePolicy(), days=1, rng=rng())

    def test_a_passive_policy_needs_a_feed(self):
        beliefs = [2, -2, 0, 1]
        with pytest.raises(ParameterError, match="passive feed"):
            llm_day(cycle_graph(4), make_population(beliefs), beliefs, [stance_statement(b) for b in beliefs],
                    [""] * 4, MockBackend(), LlmParams(), NudgePolicy(kind="passive"), None, rng(),
                    day=1, transcript=Transcript())

    def test_param_validation(self):
        with pytest.raises(ParameterError):
            LlmParams(cap=0).validate()
        with pytest.raises(ParameterError):
            LlmParams(retries=-1).validate()
        with pytest.raises(ParameterError):
            LlmParams(exposure_mode="telepathy").validate()
        with pytest.raises(ParameterError):
            run_llm(cycle_graph(3), make_population([0, 1, 2]), MockBackend(),
                    LlmParams(), NudgePolicy(), days=0, rng=rng())

    @pytest.mark.parametrize("days", [0, -1, 2.5, 1.0, True, "3"])
    def test_days_must_be_an_integer_of_at_least_one(self, days):
        with pytest.raises(ParameterError, match="days must be an integer >= 1"):
            run_llm(cycle_graph(3), make_population([0, 1, 2]), MockBackend(),
                    LlmParams(), NudgePolicy(), days=days, rng=rng())


def test_transcript_event_jsonl_one_line_per_event():
    t = Transcript()
    t.append(TranscriptEvent(day=1, agent=3, kind="reflection", payload="ok"))
    t.append(TranscriptEvent(day=1, agent=1, kind="exposure", payload="2,3"))
    lines = t.to_jsonl().strip().splitlines()
    assert len(lines) == 2
    assert '"agent": 3' in lines[0]  # in the order appended


BELIEF = st.one_of(st.none(), st.integers(-(2**70), 2**70))
EVENTS = st.lists(st.builds(TranscriptEvent, day=st.integers(0, 3), agent=st.integers(0, 4),
                            kind=AWKWARD_TEXT, payload=AWKWARD_TEXT,
                            belief_before=BELIEF, belief_after=BELIEF))


@settings(max_examples=200, deadline=None)
@given(EVENTS)
@example([TranscriptEvent(1, 0, "nudge", 'say "hi"\\ \ud83d\n\u00e9 😀', belief_before=-2),
          TranscriptEvent(0, 0, "exposure", "1,2")])
def test_to_jsonl_matches_json_dumps(events):
    t = Transcript()
    for e in events:
        t.append(e)
    assert t.to_jsonl() == json_dumps_transcript(events)


def test_empty_transcript_writes_nothing():
    assert Transcript().to_jsonl() == ""


def test_events_are_immutable_records():
    e = TranscriptEvent(day=1, agent=2, kind="exposure", payload="3")
    assert (e.belief_before, e.belief_after) == (None, None)
    with pytest.raises(AttributeError):
        e.payload = "4"
