"""The language-agent engine: text-exchanging agents with dual memory.

An agent is a grid belief, an opinion text and a long-term summary. Each
simulated day maps the start-of-day lists of the three to new lists:

1. exposure -- every agent hears the start-of-day opinion texts of its
   exposure set (all neighbors, or the similarity-filtered set, capped for
   context-size control), which are its short-term memory for the day;
2. nudge -- the active policy may inject one note per flagged agent;
3. reflection -- one backend call per agent produces an updated opinion
   text and grid belief (with retries on unparseable replies, falling back
   to the previous belief);
4. compression -- the heard items are folded into the budget-bounded
   long-term summary.

All exposures read start-of-day state, so the day is synchronous. A
compression call reads only what phase 1 heard, so phase 4's calls share
the day's pool of ``max_in_flight`` workers with phase 3's: the n
reflections, then the n compressions, all applied at the day barrier in
agent order. The day's transcript events are appended at that barrier too,
agent by agent, each agent's in the order they happened (exposure, nudge,
reflection, update, summary failure), so a day that raises appends none,
and handed with the day's texts to ``run_llm``'s ``on_day`` hook, if any.
With the mock backend, entire runs are bit-reproducible per seed.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .backends import TextBackend
from .errors import INF, BackendError, OpinionParseError, ParameterError, check_days
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
from .recommendation import DEFAULT_EXPOSURE_CAP, ExposureRule, exposure_set


class TranscriptEvent(NamedTuple):
    day: int
    agent: int
    kind: str
    payload: str
    belief_before: Optional[int] = None
    belief_after: Optional[int] = None


def events_jsonl(events) -> str:
    """The ``transcript.jsonl`` lines of ``events`` in the order given, each as
    ``json.dumps(record, sort_keys=True)`` writes it: one f-string with ``None``
    as ``null`` and strings through ``json.encoder.encode_basestring_ascii``."""
    enc = encode_basestring_ascii
    return "".join([
        f'{{"agent": {agent}, "belief_after": {"null" if after is None else after}, '
        f'"belief_before": {"null" if before is None else before}, '
        f'"day": {day}, "kind": {enc(kind)}, "payload": {enc(payload)}}}\n'
        for day, agent, kind, payload, before, after in events
    ])


class Transcript(list):
    """A run's events in file order, a plain list: ``run_llm`` extends it with
    each day's events at its barrier, so they run by (day, agent), and
    ``to_jsonl`` writes them as they stand."""

    to_jsonl = events_jsonl


@dataclass(frozen=True)
class LlmParams(ExposureRule):
    """Knobs for the language engine."""

    cap: Optional[int] = field(default=DEFAULT_EXPOSURE_CAP, metadata={"range": ("[", 1, INF, ")")})
    retries: int = field(default=2, metadata={"range": ("[", 0, INF, ")")})
    long_term_budget: int = field(default=600, metadata={"range": ("[", 1, INF, ")")})
    temperature: float = field(default=0.7, metadata={"range": ("[", 0, 2, "]")})
    max_length: int = field(default=200, metadata={"range": ("[", 1, INF, ")")})
    max_in_flight: int = field(default=4, metadata={"range": ("[", 1, 64, "]")})


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
    beliefs: list,
    texts: list,
    long_term: list,
    backend: TextBackend,
    params: LlmParams,
    nudge_policy: NudgePolicy,
    passive_feed: Optional[Iterator],
    rng: np.random.Generator,
    day: int,
    transcript,
) -> tuple:
    """One synchronous day: new end-of-day (beliefs, texts, long_term) lists from
    the start-of-day ones, which are left as they are; the day's events go to
    ``transcript.append`` in (day, agent) order, once every backend call has returned."""
    params.validate()
    nudge_policy.validate()
    if nudge_policy.kind == "passive" and passive_feed is None:
        raise ParameterError("a passive nudge policy needs a passive feed")
    n = g.n
    start_beliefs = np.array(beliefs, dtype=float)
    broadcasts = [f"(stance {b:+d}) {text}" for b, text in zip(beliefs, texts)]

    # phase 1: exposure against start-of-day beliefs; the heard items are short-term memory
    heard = [
        exposure_set(g, start_beliefs, i, params.exposure_mode,
                     cap=params.cap, rng=rng, threshold=params.similarity_threshold)
        for i in range(n)
    ]
    heard_items = [[(j, broadcasts[j]) for j in agents] for agents in heard]

    # phase 2: nudges, one per flagged agent at most
    nudges: dict = {}
    if nudge_policy.kind != "none":
        for target in sorted(select_targets(start_beliefs, nudge_policy.extremity_threshold)):
            content = (active_nudge_content(target, start_beliefs, texts, g)
                       if nudge_policy.kind == "active" else next(passive_feed))
            if content is not None:
                nudges[target] = content

    # phase 3: reflection; one backend call per agent, retried on bad parses
    prompts = [
        build_reflection_prompt(population.personas[i], population.topic, long_term[i], heard_items[i],
                                OpinionOutput(opinion_text=texts[i], belief=beliefs[i]), nudges.get(i))
        for i in range(n)
    ]

    # phase 4 reads only what phase 1 heard, so its compression calls
    # join the same bounded pool: reflections first, then compressions
    def call(k: int):
        if k < n:
            return _reflect_once(backend, prompts[k], params.retries, params.max_length, params.temperature)
        return compress_long_term(backend, long_term[k - n], heard_items[k - n], params.long_term_budget)

    if params.max_in_flight > 1:
        with ThreadPoolExecutor(max_workers=params.max_in_flight) as pool:
            results = list(pool.map(call, range(2 * n)))
    else:
        results = [call(k) for k in range(2 * n)]

    # the day barrier: apply results and log each agent's events in the order they happened
    new_beliefs, new_texts = list(beliefs), list(texts)
    for i, ((parsed, flags), (_, summary_failed)) in enumerate(zip(results[:n], results[n:])):
        before = beliefs[i]
        after = parsed.belief if parsed else before
        if heard[i]:
            transcript.append(TranscriptEvent(day, i, "exposure", ",".join(map(str, heard[i]))))
        if i in nudges:
            transcript.append(TranscriptEvent(day, i, "nudge", nudges[i], belief_before=before))
        transcript.append(TranscriptEvent(day, i, "reflection", ";".join(flags) if flags else "ok",
                                          belief_before=before, belief_after=after))
        if parsed:
            new_texts[i] = parsed.opinion_text
            if after != before:
                new_beliefs[i] = after
                transcript.append(TranscriptEvent(day, i, "update", parsed.opinion_text,
                                                  belief_before=before, belief_after=after))
        if summary_failed:
            transcript.append(TranscriptEvent(day, i, "reflection",
                                              "summary_transport_error;used_truncation_fallback"))
    # phase 4: the summaries replace long-term memory
    return new_beliefs, new_texts, [summary for summary, _ in results[n:]]


@dataclass
class LlmRunResult:
    belief_trajectory: np.ndarray         # (days + 1, n) integer grid values
    opinion_trajectory: Optional[list]    # per day, per agent opinion text; None with an on_day hook
    transcript: Optional[Transcript]      # None with an on_day hook
    long_term: list                       # per agent long-term summary after the last day


def run_llm(
    g: NetworkGraph,
    population: Population,
    backend: TextBackend,
    params: LlmParams,
    nudge_policy: NudgePolicy,
    days: int,
    rng: np.random.Generator,
    on_day: Optional[Callable] = None,
) -> LlmRunResult:
    """Full language-engine run over ``days`` synchronous days, from the
    population's grid beliefs with their stance statements and no memory. As each
    day ends, from day 0 on, ``on_day(day, beliefs, texts, events)`` gets its lists,
    and the run keeps only the belief trajectory; without a hook they are collected."""
    check_days(days)
    params.validate()
    nudge_policy.validate()
    if not population.grid:
        raise ParameterError("the language engine needs grid (integer) beliefs")
    beliefs = [int(b) for b in population.beliefs]
    texts = [stance_statement(b) for b in beliefs]
    long_term = [""] * g.n
    feed = passive_nudge_feed(rng, nudge_policy.passive_texts) if nudge_policy.kind == "passive" else None
    opinion_trajectory, transcript = None, None
    if on_day is None:
        opinion_trajectory, transcript = [], Transcript()

        def on_day(day, beliefs, texts, events):
            opinion_trajectory.append(texts)
            transcript.extend(events)

    trajectory = np.empty((days + 1, g.n), dtype=int)
    trajectory[0] = beliefs
    on_day(0, beliefs, texts, [])
    for day in range(1, days + 1):
        events: list = []
        beliefs, texts, long_term = llm_day(g, population, beliefs, texts, long_term, backend, params,
                                            nudge_policy, feed, rng, day, events)
        trajectory[day] = beliefs
        on_day(day, beliefs, texts, events)
    return LlmRunResult(
        belief_trajectory=trajectory,
        opinion_trajectory=opinion_trajectory,
        transcript=transcript,
        long_term=long_term,
    )
