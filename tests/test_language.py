import copy
import itertools
import logging
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
from echosim.graphs import NetworkGraph, generate_scale_free
from echosim.interventions import NUDGE_KINDS, NudgePolicy
from echosim.language import (
    LlmParams,
    Transcript,
    TranscriptEvent,
    events_jsonl,
    llm_day,
    run_llm,
)
from echosim.population import BELIEF_GRID, Population, init_population
from echosim.prompts import SECTION_HEARD, SUMMARY_HEADER, stance_statement
from helpers import AWKWARD_TEXT, RecordingBackend, cycle_graph, json_dumps_transcript

TOPIC = "Euthanasia should be legal."


def make_population(beliefs, grid=True):
    """Female bachelor's graduates of 30 with every trait positive, at ``beliefs``."""
    n = len(beliefs)
    return Population(genders=np.zeros(n, dtype=int), ages=np.full(n, 30), educations=np.ones(n, dtype=int),
                      traits=np.ones((n, 5), dtype=bool), beliefs=np.array(beliefs, dtype=float),
                      topic=TOPIC, grid=grid)


def rng(seed=1):
    return np.random.default_rng(seed)


def one_day(g, beliefs, nudge=NudgePolicy(), params=LlmParams(), backend=None, seed=1):
    """(end-of-day beliefs, long-term summaries, events) of day 1 from ``beliefs``."""
    population = make_population(beliefs)
    from echosim.interventions import passive_nudge_feed
    feed = passive_nudge_feed(rng(seed), nudge.passive_texts) if nudge.kind == "passive" else None
    beliefs, _, long_term, _, events = llm_day(g, population, list(beliefs), [stance_statement(b) for b in beliefs],
                                               [""] * g.n, [None] * g.n, backend or MockBackend(), params, nudge,
                                               feed, rng(seed), day=1)
    return beliefs, long_term, events


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
        settled = [("a", "- Agent 1: (stance +0) x", 600), None, None, None]
        inputs = (list(beliefs), list(texts), list(long_term), list(settled))
        out = llm_day(g, population, beliefs, texts, long_term, settled, MockBackend(), LlmParams(),
                      NudgePolicy(kind="active"), None, rng(), day=1)
        assert (beliefs, texts, long_term, settled) == inputs
        assert all(new is not old for new, old in zip(out, (beliefs, texts, long_term, settled)))

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


class SwappedLinesBackend(RecordingBackend):
    """The recording mock, with the OPINION line of each reflection reply first."""

    def complete(self, prompt, max_length, temperature):
        reply = super().complete(prompt, max_length, temperature)
        return "\n".join(reversed(reply.split("\n"))) if reply.startswith("BELIEF:") else reply


class TestFullRuns:
    def test_replies_with_their_lines_swapped_run_as_the_mock_s(self):
        g = generate_scale_free(30, 2, rng(5))
        population = init_population(30, TOPIC, True, rng(6))
        runs = []
        for backend in (RecordingBackend(), SwappedLinesBackend()):
            result = run_llm(g, population, backend, LlmParams(max_in_flight=1), NudgePolicy(kind="active"),
                             days=5, rng=rng(7))
            runs.append((result.belief_trajectory.tolist(), result.opinion_trajectory, backend.prompts))
        assert runs[1] == runs[0]

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

    def test_a_result_is_compared_and_hashed_by_identity(self):
        # generated field-wise methods would compare the belief arrays (ValueError) and leave it unhashable
        g = cycle_graph(6)
        population = make_population([-2, -1, 0, 1, 2, 0])
        result, twin = (run_llm(g, population, MockBackend(), LlmParams(), NudgePolicy(), days=2, rng=rng(3))
                        for _ in range(2))
        assert result == result and result != twin and not result == twin
        assert hash(result) == hash(result) != hash(twin)
        assert len({result, twin, result}) == 2

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
        assert events_jsonl(pooled) == events_jsonl(serial)
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
    """The mock, except that call ``fail_at`` (the fifth by default) raises an
    error that is not a BackendError; every other call first waits ``delay`` seconds."""

    name = "exploding"

    def __init__(self, delay=0.0, fail_at=5):
        self.inner = MockBackend()
        self.delay = delay
        self.fail_at = fail_at
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, prompt, max_length, temperature):
        with self._lock:
            self.calls += 1
            if self.calls == self.fail_at:
                raise RuntimeError("backend bug")
        time.sleep(self.delay)
        return self.inner.complete(prompt, max_length, temperature)


class TestTranscriptOrder:
    """Each day's events are built at the day barrier, in the order the file stores them."""

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
        # the backend raises on day 2's fifth call, so the hook sees days 0 and 1 alone
        g = cycle_graph(12)
        population = make_population([i % 5 - 2 for i in range(12)])
        seen = []
        with pytest.raises(RuntimeError, match="backend bug"):
            run_llm(g, population, ExplodingBackend(fail_at=2 * g.n + 5), LlmParams(max_in_flight=2),
                    NudgePolicy(kind="active"), days=3, rng=rng(3),
                    on_day=lambda day, beliefs, texts, events: seen.append((day, events)))
        assert [day for day, _ in seen] == [0, 1]
        assert {e.kind for e in seen[1][1]} >= {"exposure", "nudge"}

    def test_a_day_that_raises_stops_queuing_backend_calls(self):
        # the pool's map cancels the calls that have not started once one raises;
        # a backend that answers instantly may still finish all 2n before that
        g = cycle_graph(12)
        beliefs = [i % 5 - 2 for i in range(12)]
        backend = ExplodingBackend(delay=0.01)
        with pytest.raises(RuntimeError, match="backend bug"):
            llm_day(g, make_population(beliefs), beliefs, [stance_statement(b) for b in beliefs], [""] * g.n,
                    [None] * g.n, backend, LlmParams(max_in_flight=2), NudgePolicy(), None, rng(3), day=1)
        assert 5 <= backend.calls < 2 * g.n


def summary_prompts(prompts) -> list:
    return [p for p in prompts if SUMMARY_HEADER in p]


def consensus_day(long_term, settled, backend, params=LlmParams(max_in_flight=1), day=1):
    """``llm_day`` on a 4-cycle at stance 0, where every agent hears both
    neighbours say the mock's stance-0 text every day."""
    beliefs = [0] * 4
    return llm_day(cycle_graph(4), make_population(beliefs), beliefs, [stance_statement(0)] * 4, long_term,
                   settled, backend, params, NudgePolicy(), None, rng(), day)


class SummaryFailingRecorder(RecordingBackend):
    """Records every prompt; every compression call then fails in transport."""

    def complete(self, prompt, max_length, temperature):
        reply = super().complete(prompt, max_length, temperature)
        if SUMMARY_HEADER in prompt:
            raise BackendError("summaries down")
        return reply


class NumberedSummaryBackend(RecordingBackend):
    """The mock, with each compression reply led by the number of the call, so no
    two replies are the same."""

    def __init__(self):
        super().__init__()
        self.summaries = 0

    def complete(self, prompt, max_length, temperature):
        reply = super().complete(prompt, max_length, temperature)
        if SUMMARY_HEADER not in prompt:
            return reply
        self.summaries += 1
        return f"#{self.summaries} {reply}"


class TestSettledCompressions:
    """An agent whose compression request equals the last one whose reply was
    exactly its notes keeps its notes without a call."""

    def test_a_kept_compression_is_a_repeat_that_would_return_the_notes(self):
        n = 40
        g = generate_scale_free(n, 2, rng(3))
        population = init_population(n, TOPIC, True, rng(4))
        beliefs = [int(b) for b in population.beliefs]
        state = (beliefs, [stance_statement(b) for b in beliefs], [""] * n, [None] * n)
        params, nudge, day_rng = LlmParams(max_in_flight=1), NudgePolicy(kind="active"), rng(8)
        sent_for = [set() for _ in range(n)]  # each agent's compression prompts sent so far
        kept_per_day = []
        for day in range(1, 9):
            fresh_rng = copy.deepcopy(day_rng)
            threaded, fresh = RecordingBackend(), RecordingBackend()
            out = llm_day(g, population, *state, threaded, params, nudge, None, day_rng, day)
            again = llm_day(g, population, *state[:3], [None] * n, fresh, params, nudge, None, fresh_rng, day)
            assert out[:3] == again[:3] and out[4] == again[4]
            assert threaded.prompts[:n] == fresh.prompts[:n]  # the reflections
            # with no stored requests, every agent that heard something is sent one, in agent order
            heard = [e.agent for e in out[4] if e.kind == "exposure"]
            assert len(fresh.prompts) == n + len(heard)
            pending = iter(threaded.prompts[n:])
            upcoming, kept = next(pending, None), 0
            for agent, prompt in zip(heard, fresh.prompts[n:]):
                if prompt == upcoming:
                    sent_for[agent].add(prompt)
                    upcoming = next(pending, None)
                else:  # kept without a call: the same agent sent these very bytes before
                    assert prompt in sent_for[agent]
                    kept += 1
            assert upcoming is None
            assert len(fresh.prompts) - len(threaded.prompts) == kept
            kept_per_day.append(kept)
            state = out[:4]
        assert kept_per_day[0] == 0 and sum(k > 0 for k in kept_per_day) >= 4

    def test_replies_that_never_repeat_are_all_sent(self):
        n = 30
        g = generate_scale_free(n, 2, rng(5))
        population = init_population(n, TOPIC, True, rng(6))
        backend = NumberedSummaryBackend()
        transcript = run_llm(g, population, backend, LlmParams(max_in_flight=1), NudgePolicy(kind="active"),
                             days=6, rng=rng(7)).transcript
        # serial calls: each day's n reflections, then its compressions
        runs = [(summary, len(list(group))) for summary, group in
                itertools.groupby(SUMMARY_HEADER in p for p in backend.prompts)]
        assert [count for summary, count in runs if not summary] == [n] * 6
        heard_per_day = [sum(e.kind == "exposure" and e.day == day for e in transcript) for day in range(1, 7)]
        assert [count for summary, count in runs if summary] == heard_per_day
        assert all(heard_per_day)

    def test_a_compression_that_fell_back_to_truncation_is_sent_again(self):
        # notes at the budget, so the truncation fallback leaves them as they were
        budget = 40
        params = LlmParams(long_term_budget=budget, max_in_flight=1)
        notes = ["x" * budget] * 4
        failing = SummaryFailingRecorder()
        _, _, long_term, settled, events = consensus_day(notes, [None] * 4, failing, params)
        assert long_term == notes and settled == [None] * 4
        assert sum("used_truncation_fallback" in e.payload for e in events) == 4
        backend = RecordingBackend()
        consensus_day(long_term, settled, backend, params, day=2)
        assert summary_prompts(backend.prompts) == summary_prompts(failing.prompts)

    def test_other_notes_or_budget_send_the_request_again(self):
        long_term, settled = [""] * 4, [None] * 4
        for day in (1, 2):  # day 2 repeats day 1's digest, which settles every request
            backend = RecordingBackend()
            _, _, long_term, settled, _ = consensus_day(long_term, settled, backend, day=day)
            assert len(summary_prompts(backend.prompts)) == 4
        assert all(request is not None for request in settled)
        backend = RecordingBackend()
        _, _, kept, still, _ = consensus_day(long_term, settled, backend, day=3)
        assert summary_prompts(backend.prompts) == [] and (kept, still) == (long_term, settled)
        for changed, params in (
            ([notes + " and more" for notes in long_term], LlmParams(max_in_flight=1)),
            (long_term, LlmParams(max_in_flight=1, long_term_budget=599)),
        ):
            backend = RecordingBackend()
            consensus_day(changed, settled, backend, params, day=3)
            assert len(summary_prompts(backend.prompts)) == 4

    def test_a_pool_sends_the_calls_a_serial_run_sends(self):
        g = generate_scale_free(30, 2, rng(5))
        population = init_population(30, TOPIC, True, rng(6))
        runs = {}
        for max_in_flight in (1, 3):
            backend = RecordingBackend()
            result = run_llm(g, population, backend, LlmParams(max_in_flight=max_in_flight),
                             NudgePolicy(kind="active"), days=6, rng=rng(7))
            runs[max_in_flight] = (sorted(backend.prompts), result.transcript.to_jsonl())
        assert runs[3] == runs[1]
        assert len(runs[1][0]) < 2 * 30 * 6

    def test_each_day_logs_its_calls_at_debug(self, caplog):
        n = 12
        population = make_population([(0, 2, 0, -2)[i % 4] for i in range(n)])
        kinds, per_day = [], []

        class Counted(MixedFailureBackend):
            def complete(self, prompt, max_length, temperature):
                kinds.append(SUMMARY_HEADER in prompt)
                return super().complete(prompt, max_length, temperature)

        def on_day(day, beliefs, texts, events):
            per_day.append((len(kinds) - sum(kinds), sum(kinds), sum(e.kind == "exposure" for e in events)))

        caplog.set_level(logging.DEBUG, logger="echosim.language")
        run_llm(cycle_graph(n), population, Counted(), LlmParams(max_in_flight=1), NudgePolicy(kind="active"),
                days=4, rng=rng(5), on_day=on_day)
        counts = [(b[0] - a[0], b[1] - a[1], b[2]) for a, b in zip(per_day, per_day[1:])]
        expected = [f"day {day}: {reflections} reflection calls, {summaries} compression calls sent, "
                    f"{n - summaries} compressions kept without a call ({n - heard} of them heard nothing)"
                    for day, (reflections, summaries, heard) in enumerate(counts, 1)]
        assert [r.getMessage() for r in caplog.records if r.name == "echosim.language"] == expected
        assert any(reflections > n for reflections, _, _ in counts)  # retries are calls too
        assert any(summaries < heard for _, summaries, heard in counts)


class TestValidation:
    def test_grid_population_required(self):
        continuous = make_population([0.5, 1.1, -0.3], grid=False)
        with pytest.raises(ParameterError, match="grid"):
            run_llm(cycle_graph(3), continuous, MockBackend(), LlmParams(), NudgePolicy(), days=1, rng=rng())

    @pytest.mark.parametrize("beliefs, message", [
        # day 0 once read [1, 5, -7, 0, 1, 2]: 1.5 truncated, 5 and -7 recorded
        ([1.5, 5, -7, 0, 1, 2], "must be integers in [-2, 2], got 1.5 for agent 0"),
        ([0, 5, -7, 0, 1, 2], "must be integers in [-2, 2], got 5.0 for agent 1"),
        ([0, 1, np.nan, 0, 1, 2], "must be integers in [-2, 2], got nan for agent 2"),
    ], ids=["off-grid", "out-of-range", "nan"])
    def test_beliefs_off_the_grid_never_reach_a_run(self, beliefs, message):
        with pytest.raises(ParameterError, match=re.escape(message)):
            run_llm(cycle_graph(6), make_population(beliefs), MockBackend(), LlmParams(), NudgePolicy(),
                    days=1, rng=rng())

    def test_beliefs_changed_off_the_grid_after_the_population_was_made_are_rejected(self):
        population = make_population([0, 1, 2, 0, -1, -2])
        with pytest.raises(ValueError, match="read-only"):
            population.beliefs[1] = 1.5
        result = run_llm(cycle_graph(6), population, MockBackend(), LlmParams(), NudgePolicy(), days=1, rng=rng())
        assert result.belief_trajectory[0].tolist() == [0, 1, 2, 0, -1, -2]

    @pytest.mark.parametrize("n", [10, 14])
    def test_a_population_of_another_size_than_the_graph_is_rejected(self, n):
        with pytest.raises(ParameterError, match=f"belief vector length {n} != node count 12"):
            run_llm(cycle_graph(12), make_population([0] * n), MockBackend(), LlmParams(), NudgePolicy(),
                    days=1, rng=rng())

    def test_a_passive_policy_needs_a_feed(self):
        beliefs = [2, -2, 0, 1]
        with pytest.raises(ParameterError, match="passive feed"):
            llm_day(cycle_graph(4), make_population(beliefs), beliefs, [stance_statement(b) for b in beliefs],
                    [""] * 4, [None] * 4, MockBackend(), LlmParams(), NudgePolicy(kind="passive"), None, rng(),
                    day=1)

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
