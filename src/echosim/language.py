"""The language-agent engine: text-exchanging agents with dual memory.

Each simulated day has four phases:

1. exposure -- every agent receives the start-of-day opinion texts of its
   exposure set (all neighbors, or the similarity-filtered set, capped for
   context-size control) into short-term memory;
2. nudge -- the active policy may inject one note per flagged agent;
3. reflection -- one backend call per agent produces an updated opinion
   text and grid belief (with retries on unparseable replies, falling back
   to the previous belief);
4. compression -- short-term memory is folded into the budget-bounded
   long-term summary and cleared.

All exposures read start-of-day state, so the day is synchronous. A
compression call reads only the memory that phase 1 left, so phase 4's
calls share the day's pool of ``max_in_flight`` workers with phase 3's:
the n reflections, then the n compressions, all applied at the day barrier
in agent order. With the mock backend, entire runs are bit-reproducible per
seed.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .backends import TextBackend
from .errors import BackendError, OpinionParseError, ParameterError
from .graphs import NetworkGraph
from .interventions import NudgePolicy, active_nudge_content, passive_nudge_feed, select_targets
from .population import Population
from .prompts import (
    OpinionOutput,
    build_reflection_prompt,
    build_summary_prompt,
    parse_opinion_output,
    stance_statement,
)
from .recommendation import DEFAULT_EXPOSURE_CAP, DEFAULT_SIMILARITY_THRESHOLD, check_exposure, exposure_set


@dataclass
class MemoryStore:
    """Dual memory: the day's (source, text) items plus one running summary
    that never exceeds its character budget after compression."""

    short_term: list = field(default_factory=list)
    long_term: str = ""
    budget: int = 600


@dataclass
class AgentState:
    """Mutable per-agent state for the language engine."""

    belief: int
    opinion_text: str
    memory: MemoryStore


@dataclass(frozen=True)
class TranscriptEvent:
    day: int
    agent: int
    kind: str
    payload: str
    belief_before: Optional[int] = None
    belief_after: Optional[int] = None


class Transcript:
    """Append-only event log, serialized by (day, agent) for persistence."""

    def __init__(self):
        self._events: list = []

    def append(self, event: TranscriptEvent) -> None:
        self._events.append(event)

    @property
    def events(self) -> tuple:
        return tuple(self._events)

    def sorted_events(self) -> list:
        return sorted(self._events, key=lambda e: (e.day, e.agent))

    def to_jsonl(self) -> str:
        lines = []
        for e in self.sorted_events():
            lines.append(
                json.dumps(
                    {
                        "day": e.day,
                        "agent": e.agent,
                        "kind": e.kind,
                        "payload": e.payload,
                        "belief_before": e.belief_before,
                        "belief_after": e.belief_after,
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class LlmParams:
    """Knobs for the language engine."""

    exposure_mode: str = "recommended"
    similarity_threshold: float = DEFAULT_SIMILARITY_THRESHOLD
    cap: Optional[int] = DEFAULT_EXPOSURE_CAP
    retries: int = 2
    long_term_budget: int = 600
    temperature: float = 0.7
    max_length: int = 200
    max_in_flight: int = 4

    def validate(self) -> None:
        check_exposure(self.exposure_mode, self.similarity_threshold)
        if self.cap is not None and self.cap < 1:
            raise ParameterError(f"cap must be >= 1, got {self.cap}")
        if self.retries < 0:
            raise ParameterError(f"retries must be >= 0, got {self.retries}")
        if self.long_term_budget < 1:
            raise ParameterError(f"long-term budget must be >= 1, got {self.long_term_budget}")
        if self.max_in_flight < 1:
            raise ParameterError(f"max_in_flight must be >= 1, got {self.max_in_flight}")


def init_agent_states(population: Population, long_term_budget: int = 600) -> list:
    """Day-0 states: grid beliefs with their canonical stance statements."""
    if not population.grid:
        raise ParameterError("the language engine needs grid (integer) beliefs")
    states = []
    for belief in population.beliefs:
        b = int(belief)
        states.append(
            AgentState(
                belief=b,
                opinion_text=stance_statement(b),
                memory=MemoryStore(budget=long_term_budget),
            )
        )
    return states


def compress_long_term(backend: TextBackend, old_summary: str, day_items, budget: int) -> tuple:
    """Fold the day's items into the running summary, never exceeding
    ``budget`` characters; returns (summary, transport_failed). Transport
    failures fall back to truncating (old summary + newest items)."""
    if not day_items:
        return old_summary[:budget], False
    prompt = build_summary_prompt(old_summary, day_items, budget)
    try:
        out = backend.complete(prompt, max_length=max(64, budget // 2), temperature=0.0)
        return out.strip()[:budget], False
    except BackendError:
        joined = " ".join(text for _, text in day_items)
        return f"{old_summary} {joined}".strip()[:budget], True


def _reflect_once(backend: TextBackend, prompt: str, retries: int, max_length: int, temperature: float):
    """(parsed output or None, flags) after up to 1 + retries attempts."""
    flags = []
    for _ in range(retries + 1):
        try:
            raw = backend.complete(prompt, max_length=max_length, temperature=temperature)
        except BackendError as exc:
            flags.append(f"transport_error:{exc}")
            continue
        try:
            parsed = parse_opinion_output(raw)
        except OpinionParseError:
            flags.append("parse_failed")
            continue
        if parsed.clamped:
            flags.append("clamped")
        return parsed, flags
    flags.append("kept_previous_belief")
    return None, flags


def llm_day(
    g: NetworkGraph,
    population: Population,
    states: list,
    backend: TextBackend,
    params: LlmParams,
    nudge_policy: NudgePolicy,
    passive_feed: Optional[Iterator],
    rng: np.random.Generator,
    day: int,
    transcript: Transcript,
) -> list:
    """Run one synchronous day, mutating ``states`` in place."""
    params.validate()
    nudge_policy.validate()
    n = g.n
    start_beliefs = np.array([s.belief for s in states], dtype=float)
    start_texts = [s.opinion_text for s in states]

    # phase 1: exposure against start-of-day beliefs and texts
    for i in range(n):
        heard = exposure_set(
            g, start_beliefs, i, params.exposure_mode,
            cap=params.cap, rng=rng, threshold=params.similarity_threshold,
        )
        if not heard:
            continue
        for j in heard:
            broadcast = f"(stance {int(start_beliefs[j]):+d}) {start_texts[j]}"
            states[i].memory.short_term.append((j, broadcast))
        transcript.append(
            TranscriptEvent(day=day, agent=i, kind="exposure",
                            payload=",".join(str(j) for j in heard))
        )

    # phase 2: nudges, one per flagged agent at most
    nudges: dict = {}
    if nudge_policy.kind != "none":
        for target in sorted(select_targets(start_beliefs, nudge_policy.extremity_threshold)):
            if nudge_policy.kind == "active":
                content = active_nudge_content(target, start_beliefs, start_texts, g)
            else:
                content = next(passive_feed)
            if content is None:
                continue
            nudges[target] = content
            transcript.append(
                TranscriptEvent(day=day, agent=target, kind="nudge", payload=content,
                                belief_before=states[target].belief)
            )

    # phase 3: reflection; one backend call per agent, retried on bad parses
    prompts = [
        build_reflection_prompt(
            population.personas[i],
            population.topic,
            states[i].memory,
            OpinionOutput(opinion_text=states[i].opinion_text, belief=states[i].belief),
            nudges.get(i),
        )
        for i in range(n)
    ]

    # phase 4 reads only the memory phase 1 left, so its compression calls
    # join the same bounded pool: reflections first, then compressions
    def call(k: int):
        if k < n:
            return _reflect_once(backend, prompts[k], params.retries, params.max_length, params.temperature)
        memory = states[k - n].memory
        return compress_long_term(backend, memory.long_term, memory.short_term, memory.budget)

    if params.max_in_flight > 1:
        with ThreadPoolExecutor(max_workers=params.max_in_flight) as pool:
            results = list(pool.map(call, range(2 * n)))
    else:
        results = [call(k) for k in range(2 * n)]

    # apply results at the day barrier, in agent order
    for i, (parsed, flags) in enumerate(results[:n]):
        before = states[i].belief
        transcript.append(
            TranscriptEvent(day=day, agent=i, kind="reflection",
                            payload=";".join(flags) if flags else "ok",
                            belief_before=before,
                            belief_after=parsed.belief if parsed else before)
        )
        if parsed is None:
            continue
        states[i].opinion_text = parsed.opinion_text
        if parsed.belief != before:
            states[i].belief = parsed.belief
            transcript.append(
                TranscriptEvent(day=day, agent=i, kind="update", payload=parsed.opinion_text,
                                belief_before=before, belief_after=parsed.belief)
            )

    # phase 4: the summaries replace long-term memory; short-term is cleared
    for i, (summary, failed) in enumerate(results[n:]):
        if failed:
            transcript.append(
                TranscriptEvent(day=day, agent=i, kind="reflection",
                                payload="summary_transport_error;used_truncation_fallback")
            )
        memory = states[i].memory
        memory.long_term = summary
        memory.short_term.clear()
    return states


@dataclass
class LlmRunResult:
    belief_trajectory: np.ndarray  # (days + 1, n) integer grid values
    opinion_trajectory: list       # per day, per agent opinion text
    transcript: Transcript
    states: list


def run_llm(
    g: NetworkGraph,
    population: Population,
    backend: TextBackend,
    params: LlmParams,
    nudge_policy: NudgePolicy,
    days: int,
    rng: np.random.Generator,
) -> LlmRunResult:
    """Full language-engine run over ``days`` synchronous days."""
    if days < 1:
        raise ParameterError(f"days must be >= 1, got {days}")
    params.validate()
    nudge_policy.validate()
    states = init_agent_states(population, long_term_budget=params.long_term_budget)
    transcript = Transcript()
    feed = passive_nudge_feed(rng, nudge_policy.passive_texts) if nudge_policy.kind == "passive" else None

    trajectory = np.empty((days + 1, g.n), dtype=int)
    trajectory[0] = [s.belief for s in states]
    texts = [[s.opinion_text for s in states]]
    for day in range(1, days + 1):
        llm_day(g, population, states, backend, params, nudge_policy, feed, rng, day, transcript)
        trajectory[day] = [s.belief for s in states]
        texts.append([s.opinion_text for s in states])
    return LlmRunResult(
        belief_trajectory=trajectory,
        opinion_trajectory=texts,
        transcript=transcript,
        states=states,
    )
