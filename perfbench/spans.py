"""Per-layer tracing of echosim from outside the package.

``install`` replaces the module-level names through which one echosim layer
calls another (``echosim.runner.force_layout``, ``echosim.language.exposure_set``,
the backend object handed to ``run_llm``, ...) with wrappers that record a
span per call: (id, name, start, end, parent id, run id). ``Tracer.restore``
puts every original back. Spans opened on pool threads take as parent the
innermost span open on the thread that began the run, which is the
``language.day`` span waiting on the pool.

Self time is attributed by a sweep over span boundaries: at each instant the
wall time goes to the active spans that have no active child, shared equally
when pool threads make several of them active at once. Over a run the self
times add up to the run span's duration by construction. Without threads the
sweep must agree with a span's duration minus its children's, and every span
must lie inside its parent; ``check_spans`` tests both on every traced run.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from statistics import median

import echosim.language
import echosim.numeric
import echosim.runner
from echosim.prompts import SUMMARY_HEADER

# Modules whose names ``install`` replaces; the smoke test checks they are restored.
PATCHED_MODULES = (echosim.runner, echosim.numeric, echosim.language)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, run_id)
        self.counts = {}  # run_id -> counter name -> value
        self.run_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root_stack = []
        self._saved = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_run(self) -> int:
        """Start a new run id; spans with no open parent on their own thread
        hang under the caller's innermost open span."""
        self.run_id += 1
        self.counts[self.run_id] = defaultdict(float)
        self._root_stack = self._stack()
        return self.run_id

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[self.run_id][key] += amount

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._root_stack[-1] if self._root_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.count(name + ".failed")
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.run_id))

    def wrap(self, name: str, observe=None):
        """Wrapper factory: span every call; ``observe(args, result)`` may count."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = self.call(name, fn, *args, **kwargs)
                if observe is not None:
                    observe(args, result)
                return result

            return wrapper

        return make

    def patch(self, module, attr: str, make) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class TracedBackend:
    """Spans and counts each ``complete`` call, then delegates."""

    def __init__(self, tracer: Tracer, backend):
        self._tracer = tracer
        self._backend = backend
        self.name = backend.name

    def complete(self, prompt: str, max_length: int, temperature: float) -> str:
        kind = "summary" if SUMMARY_HEADER in prompt else "reflect"
        self._tracer.count(f"backends.{kind}_calls")
        self._tracer.count("backends.chars", len(prompt))
        return self._tracer.call("backends.complete", self._backend.complete, prompt, max_length, temperature)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; undo with ``tracer.restore()``."""
    runner, numeric, language = PATCHED_MODULES

    def edges(args, g):
        tracer.count("graphs.edges", g.edge_count)

    def exposure(args, selected):
        g, _, i = args[:3]
        tracer.count("recommendation.considered", len(g.adjacency[i]))
        tracer.count("recommendation.kept", len(selected))

    def prompt_chars(args, prompt):
        tracer.count("prompts.chars", len(prompt))

    def nudge(args, content):
        if content is not None:
            tracer.count("interventions.nudges")

    def run_llm(fn):
        @functools.wraps(fn)
        def wrapper(g, population, backend, *args, **kwargs):
            return tracer.call("language.run", fn, g, population, TracedBackend(tracer, backend), *args, **kwargs)

        return wrapper

    def passive_feed(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            feed = fn(*args, **kwargs)

            def traced():
                while True:
                    text = tracer.call("interventions.nudge", next, feed)
                    tracer.count("interventions.nudges")
                    yield text

            return traced()

        return wrapper

    tracer.patch(runner, "run", tracer.wrap("runner.run"))
    tracer.patch(runner, "generate_graph", tracer.wrap("graphs.generate", edges))
    tracer.patch(runner, "init_population", tracer.wrap("population.init"))
    tracer.patch(runner, "run_numeric", tracer.wrap("numeric.run"))
    tracer.patch(runner, "snapshot", tracer.wrap("metrics.snapshot"))
    tracer.patch(runner, "force_layout", tracer.wrap("layout.force"))
    tracer.patch(runner, "run_llm", run_llm)
    tracer.patch(language, "run_llm", run_llm)
    tracer.patch(numeric, "bcm_day", tracer.wrap("numeric.day"))
    tracer.patch(numeric, "fj_day", tracer.wrap("numeric.day"))
    tracer.patch(numeric, "exposure_set", tracer.wrap("recommendation.exposure", exposure))
    tracer.patch(language, "exposure_set", tracer.wrap("recommendation.exposure", exposure))
    tracer.patch(language, "llm_day", tracer.wrap("language.day"))
    tracer.patch(language, "build_reflection_prompt", tracer.wrap("prompts.build", prompt_chars))
    tracer.patch(language, "build_summary_prompt", tracer.wrap("prompts.build", prompt_chars))
    tracer.patch(language, "parse_opinion_output", tracer.wrap("prompts.parse"))
    tracer.patch(language, "select_targets", tracer.wrap("interventions.nudge"))
    tracer.patch(language, "active_nudge_content", tracer.wrap("interventions.nudge", nudge))
    tracer.patch(language, "passive_nudge_feed", passive_feed)


def self_times(spans: list) -> dict:
    """Span name -> wall seconds during which its spans were innermost."""
    name_of = {s[0]: s[1] for s in spans}
    parent_of = {s[0]: s[4] for s in spans}
    events = []
    for span_id, _, start, end, _, _ in spans:
        events.append((start, 1, span_id))
        events.append((end, 0, -span_id))  # at equal times children close before parents
    events.sort()
    active_children = defaultdict(int)
    active, leaves = set(), set()
    totals = defaultdict(float)
    last = events[0][0] if events else 0.0
    for t, opening, key in events:
        if leaves:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                totals[name_of[leaf]] += share
        last = t
        span_id = abs(key)
        parent = parent_of[span_id]
        if opening:
            active.add(span_id)
            leaves.add(span_id)
            if parent in active:
                active_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(span_id)
            leaves.discard(span_id)
            if parent in active:
                active_children[parent] -= 1
                if active_children[parent] == 0:
                    leaves.add(parent)
    return dict(totals)


def check_spans(spans: list, single_thread: bool) -> list:
    """Problems with one run's span tree. Every span must lie inside its parent.
    If no pool threads ran, the sweep's self time of each span name must equal
    its spans' durations minus their direct children's."""
    by_id = {s[0]: s for s in spans}
    problems = []
    for span_id, name, start, end, parent, _ in spans:
        outer = by_id.get(parent)
        if outer is not None and not outer[2] <= start <= end <= outer[3]:
            problems.append(f"{name} span {span_id} lies outside its parent {outer[1]} span {parent}")
    if single_thread:
        subtracted = defaultdict(float)
        for span_id, name, start, end, parent, _ in spans:
            subtracted[name] += end - start
            if parent in by_id:
                subtracted[by_id[parent][1]] -= end - start
        swept = self_times(spans)
        for name in subtracted.keys() | swept.keys():
            if abs(subtracted[name] - swept.get(name, 0.0)) > 1e-6:
                problems.append(f"self time of {name}: sweep {swept.get(name, 0.0)!r} s, "
                                f"span minus children {subtracted[name]!r} s")
    return problems


def layer_metrics(tracer: Tracer, run_id: int, agent_days: int) -> dict:
    """Per-layer values for one traced run (peak allocations are measured apart)."""
    spans = [s for s in tracer.spans if s[5] == run_id]
    counts = tracer.counts[run_id]
    durations = defaultdict(list)
    for _, name, start, end, _, _ in spans:
        durations[name].append(end - start)
    busy = {name: sum(values) for name, values in durations.items()}
    own = self_times(spans)

    def per_call_median(name):
        return median(durations[name]) if durations[name] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    calls = counts["backends.reflect_calls"] + counts["backends.summary_calls"]
    return {
        "runner.self_s": own.get("runner.run", 0.0),
        "population.init_s": busy.get("population.init", 0.0),
        "graphs.generate_s": busy.get("graphs.generate", 0.0),
        "graphs.edges": counts["graphs.edges"],
        "numeric.day_s": per_call_median("numeric.day"),
        "numeric.self_s": own.get("numeric.run", 0.0) + own.get("numeric.day", 0.0),
        "recommendation.calls": len(durations["recommendation.exposure"]),
        "recommendation.busy_s": busy.get("recommendation.exposure", 0.0),
        "recommendation.kept_ratio": ratio(counts["recommendation.kept"], counts["recommendation.considered"]),
        "metrics.snapshot_s": busy.get("metrics.snapshot", 0.0),
        "layout.force_s": busy.get("layout.force", 0.0),
        "language.day_s": per_call_median("language.day"),
        "language.self_s": own.get("language.run", 0.0) + own.get("language.day", 0.0),
        "prompts.build_s": busy.get("prompts.build", 0.0),
        "prompts.parse_s": busy.get("prompts.parse", 0.0),
        "prompts.chars": counts["prompts.chars"],
        "prompts.parse_failed": counts["prompts.parse.failed"],
        "interventions.nudge_s": busy.get("interventions.nudge", 0.0),
        "interventions.nudges": counts["interventions.nudges"],
        "backends.reflect_calls": counts["backends.reflect_calls"],
        "backends.summary_calls": counts["backends.summary_calls"],
        "backends.busy_s": busy.get("backends.complete", 0.0),
        "backends.failed": counts["backends.complete.failed"],
        "backends.overlap": ratio(busy.get("backends.complete", 0.0), busy.get("language.run", 0.0)),
        "backend_calls_per_agent_day": calls / agent_days,
        "prompt_chars_per_agent_day": counts["backends.chars"] / agent_days,
    }
