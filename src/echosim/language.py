"""The language-agent engine: text-exchanging agents with dual memory.

An agent is a grid belief, an opinion text and a long-term summary, shown
to the model by its card (``Population.cards``, rendered once a run). Each
simulated day maps the start-of-day lists of the three, and of the requests
that settled each agent's summary (phase 4), to new lists:

1. exposure -- every agent hears the start-of-day opinion texts of its
   exposure set (all neighbors, or the similarity-filtered set, capped for
   context-size control), which are its short-term memory for the day. One
   ``all_exposure_sets`` query gives every agent's set, each speaker's heard
   line is rendered once, and each agent's lines are joined once into the
   block that both of its prompts list;
2. nudge -- the active policy may inject one note per flagged agent;
3. reflection -- one backend call per agent produces an updated opinion
   text and grid belief (with retries on unparseable replies, falling back
   to the previous belief);
4. compression -- a temperature-0 call folds the heard block into the
   budget-bounded long-term summary. An agent that heard nothing keeps its
   notes without a call. So does an agent whose request (notes, heard block,
   budget) equals its settled one, the last request whose reply was exactly
   its notes: an agent in an echo chamber hears the same lines day after
   day, and a backend whose reply depends only on the prompt would answer
   with those notes again.

All exposures read start-of-day state, so the day is synchronous. A
compression call reads only what phase 1 heard, so phase 4's calls share
the day's pool of ``max_in_flight`` workers with phase 3's: the n
reflections, then the compressions sent, all applied at the day barrier in
agent order. ``llm_day`` returns the day's transcript events with the new
lists, built at that barrier agent by agent, each agent's in the order they
happened (exposure, nudge, reflection, update, summary failure), so a day
that raises returns none; ``run_llm`` hands them to its ``on_day`` hook.
Each day logs its reflection calls, the compression calls sent and the
compressions kept without a call at DEBUG on the ``echosim.language`` logger.
With the mock backend, entire runs are bit-reproducible per seed.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .backends import TextBackend
from .errors import INF, BackendError, OpinionParseError, ParameterError, check_days
from .graphs import NetworkGraph, belief_vector
from .interventions import NudgePolicy, active_nudge_content, passive_nudge_feed, select_targets
from .population import Population
from .prompts import build_reflection_prompt, build_summary_prompt, heard_lines, parse_opinion_output, stance_statement
from .recommendation import DEFAULT_EXPOSURE_CAP, ExposureRule, all_exposure_sets
from .recommendation import exposure_set  # noqa: F401  unused; perfbench/spans.py patches this name

logger = logging.getLogger(__name__)


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


def compress_long_term(backend: TextBackend, old_summary: str, heard: str, budget: int,
                       heard_texts: Iterable[str]) -> tuple:
    """Fold the day's block of heard lines into the running summary, never
    exceeding ``budget`` characters; returns (summary, transport_failed).
    Transport failures fall back to truncating the old summary followed by
    ``heard_texts``, the heard agents' bare texts, which only that reads."""
    if not heard:
        return old_summary[:budget], False
    prompt = build_summary_prompt(old_summary, heard, budget)
    try:
        out = backend.complete(prompt, max_length=max(64, budget // 2), temperature=0.0)
        return out.strip()[:budget], False
    except BackendError:
        joined = " ".join(heard_texts)
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
    settled: list,
    backend: TextBackend,
    params: LlmParams,
    nudge_policy: NudgePolicy,
    passive_feed: Optional[Iterator],
    rng: np.random.Generator,
    day: int,
) -> tuple:
    """One synchronous day: new end-of-day (beliefs, texts, long_term, settled)
    lists from the start-of-day ones, which are left as they are, and the day's
    events, a new list in agent order built once every backend call has returned.
    ``settled[i]`` is the compression request ``(notes, heard block, budget)``
    whose reply was exactly agent i's notes, or None; an agent whose request
    today equals it keeps its notes without a call. A compression call that
    fails, or returns other notes, clears it."""
    params.validate()
    nudge_policy.validate()
    if nudge_policy.kind == "passive" and passive_feed is None:
        raise ParameterError("a passive nudge policy needs a passive feed")
    n = g.n
    start_beliefs = np.array(beliefs, dtype=float)
    said = [f"(stance {b:+d}) {text}" for b, text in zip(beliefs, texts)]

    # phase 1: exposure against start-of-day beliefs; the heard lines are short-term memory
    heard = all_exposure_sets(g, start_beliefs, params.exposure_mode,
                              cap=params.cap, rng=rng, threshold=params.similarity_threshold)
    lines = heard_lines(said)
    blocks = ["\n".join([lines[j] for j in agents]) for agents in heard]

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
        build_reflection_prompt(population.cards[i], population.topic, long_term[i], blocks[i],
                                beliefs[i], texts[i], nudges.get(i))
        for i in range(n)
    ]

    # phase 4 reads only what phase 1 heard, so its compression calls join the same
    # bounded pool, reflections first; an agent that heard nothing, or whose settled
    # request is today's, keeps its notes (within the budget) without a call
    budget = params.long_term_budget
    requests = [(notes, block, budget) for notes, block in zip(long_term, blocks)]
    sent = [i for i in range(n) if blocks[i] and requests[i] != settled[i]]

    def call(k: int):
        if k < n:
            return _reflect_once(backend, prompts[k], params.retries, params.max_length, params.temperature)
        i = sent[k - n]
        return compress_long_term(backend, long_term[i], blocks[i], budget, (said[j] for j in heard[i]))

    if params.max_in_flight > 1:
        with ThreadPoolExecutor(max_workers=params.max_in_flight) as pool:
            results = list(pool.map(call, range(n + len(sent))))
    else:
        results = [call(k) for k in range(n + len(sent))]

    # phase 4: the summaries replace long-term memory; a reply that leaves the notes
    # as they were settles its request
    new_long_term, new_settled, summary_failed = [notes[:budget] for notes in long_term], list(settled), set()
    for i, (summary, failed) in zip(sent, results[n:]):
        new_long_term[i] = summary
        new_settled[i] = requests[i] if summary == long_term[i] and not failed else None
        if failed:
            summary_failed.add(i)
    if logger.isEnabledFor(logging.DEBUG):
        # one call per failed attempt, each flagged, and one per parsed reply
        attempts = sum((parsed is not None) + sum(flag == "parse_failed" or flag.startswith("transport_error:")
                                                  for flag in flags) for parsed, flags in results[:n])
        logger.debug("day %d: %d reflection calls, %d compression calls sent, %d compressions kept without a call "
                     "(%d of them heard nothing)", day, attempts, len(sent), n - len(sent), blocks.count(""))

    # the day barrier: apply results and log each agent's events in the order they happened
    new_beliefs, new_texts, events = list(beliefs), list(texts), []
    names = [str(j) for j in range(n)]  # each agent's index as the exposure payloads list it
    for i, (parsed, flags) in enumerate(results[:n]):
        before = beliefs[i]
        after = parsed.belief if parsed else before
        if heard[i]:
            events.append(TranscriptEvent(day, i, "exposure", ",".join([names[j] for j in heard[i]])))
        if i in nudges:
            events.append(TranscriptEvent(day, i, "nudge", nudges[i], belief_before=before))
        events.append(TranscriptEvent(day, i, "reflection", ";".join(flags) if flags else "ok",
                                      belief_before=before, belief_after=after))
        if parsed:
            new_texts[i] = parsed.opinion_text
            if after != before:
                new_beliefs[i] = after
                events.append(TranscriptEvent(day, i, "update", parsed.opinion_text,
                                              belief_before=before, belief_after=after))
        if i in summary_failed:
            events.append(TranscriptEvent(day, i, "reflection", "summary_transport_error;used_truncation_fallback"))
    return new_beliefs, new_texts, new_long_term, new_settled, events


@dataclass(eq=False)  # compared by identity, since its belief trajectory is an array
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
    population's grid beliefs, one per node of ``g``, with their stance statements
    and no memory. As each day ends, from day 0 on, ``on_day(day, beliefs, texts,
    events)`` gets its lists, and the run keeps only the belief trajectory; without
    a hook they are collected."""
    check_days(days)
    params.validate()
    nudge_policy.validate()
    if not population.grid:
        raise ParameterError("the language engine needs grid (integer) beliefs")
    beliefs = belief_vector(g, population.beliefs).astype(int).tolist()
    texts = [stance_statement(b) for b in beliefs]
    long_term, settled = [""] * g.n, [None] * g.n
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
        beliefs, texts, long_term, settled, events = llm_day(g, population, beliefs, texts, long_term, settled,
                                                             backend, params, nudge_policy, feed, rng, day)
        trajectory[day] = beliefs
        on_day(day, beliefs, texts, events)
    return LlmRunResult(
        belief_trajectory=trajectory,
        opinion_trajectory=opinion_trajectory,
        transcript=transcript,
        long_term=long_term,
    )
