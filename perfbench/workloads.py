"""The benchmark's workloads, the latency backend, and how one repetition runs.

Each workload is a set of config overrides resolved with
``echosim.resolve_config``; the benchmark's ``--seed`` becomes the config
``seed``. Entry points are looked up on their modules at call time
(``echosim.runner.run``, ``echosim.language.run_llm``), so a traced
repetition goes through the wrappers that ``spans.install`` puts there.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

import echosim.language
import echosim.runner
from echosim import MockBackend, generate_graph, init_population
from echosim.runner import component_rng

# llm-wait's backend: the mock reply rule plus this fixed sleep per call.
LATENCY_DELAY_S = 0.005
MAX_IN_FLIGHT = 2
# --tiny shrinks every workload to this many agents (and each workload's tiny_days)
TINY_N = 12


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "run" for echosim.runner.run, "run_llm" for a direct engine call
    overrides: dict  # everything but n, days and seed
    n: int
    days: int
    tiny_days: int = 3

    def config_dict(self, seed: int, tiny: bool = False) -> dict:
        n, days = (TINY_N, self.tiny_days) if tiny else (self.n, self.days)
        data = {**self.overrides, "n": n, "days": days, "seed": seed}
        if data["graph"]["kind"] == "random":
            # about four neighbours per agent at every n, like the paper's sparse graphs
            data["graph"] = {**data["graph"], "p_edge": 4.0 / (n - 1)}
        return data


WORKLOADS = {
    w.name: w
    for w in (
        # O(n^2) force layout dominates; the O(n^2) pair list of generate_random is on the path.
        Workload("bcm-large", "run", {"engine": "bcm", "exposure_mode": "recommended",
                                      "graph": {"kind": "random"}}, n=600, days=30),
        # Long per-day loop: metrics, engine steps and trajectory writing; exact FJ fixed point.
        Workload("fj-long", "run", {"engine": "fj", "exposure_mode": "all_neighbors",
                                    "graph": {"kind": "small_world"}}, n=300, days=200,
                 tiny_days=80),
        # CPU-bound language path with the mock backend behind a GIL-bound pool.
        Workload("llm-mock", "run", {"engine": "llm", "graph": {"kind": "scale_free"},
                                     "nudge": {"kind": "active"},
                                     "llm": {"max_in_flight": MAX_IN_FLIGHT}}, n=200, days=60),
        # Waiting on the backend dominates, as with a real model.
        Workload("llm-wait", "run_llm", {"engine": "llm", "graph": {"kind": "small_world"},
                                         "nudge": {"kind": "passive"},
                                         "llm": {"max_in_flight": MAX_IN_FLIGHT}},
                 n=50, days=10, tiny_days=2),
    )
}


class LatencyBackend:
    """The mock reply rule followed by a fixed sleep, standing in for a model
    that answers in ``LATENCY_DELAY_S``. Counters are safe to update from pool threads."""

    name = "latency"

    def __init__(self):
        self._mock = MockBackend()
        self._lock = threading.Lock()
        self.calls = 0
        self.busy_s = 0.0
        self.chars = 0

    def complete(self, prompt: str, max_length: int, temperature: float) -> str:
        start = time.perf_counter()
        reply = self._mock.complete(prompt, max_length, temperature)
        time.sleep(LATENCY_DELAY_S)
        busy = time.perf_counter() - start
        with self._lock:
            self.calls += 1
            self.busy_s += busy
            self.chars += len(prompt)
        return reply


@dataclass
class Outcome:
    """What one repetition produced, for the checks and the size metric."""

    digest: dict  # artifact name -> sha256 hex
    artifact_bytes: int
    run_dir: Optional[Path] = None
    beliefs: Optional[np.ndarray] = None  # llm-wait's belief trajectory
    backend: Optional[LatencyBackend] = None


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def llm_inputs(cfg):
    """Graph, population, engine params and rng exactly as ``run()`` builds them."""
    population = init_population(cfg.n, cfg.topic, True, component_rng(cfg.seed, "population"))
    g = generate_graph(cfg.graph, component_rng(cfg.seed, "graph"))
    params = replace(cfg.llm, exposure_mode=cfg.exposure_mode)
    return g, population, params, component_rng(cfg.seed, "engine")


def execute(workload: Workload, cfg, out_dir: Path) -> tuple:
    """Run one repetition; returns (wall seconds of the timed call, Outcome)."""
    if workload.entry == "run":
        start = time.perf_counter()
        echosim.runner.run(cfg, out_dir)
        wall = time.perf_counter() - start
        files = sorted(p for p in out_dir.iterdir() if p.is_file())
        digest = {p.name: _sha(p.read_bytes()) for p in files}
        return wall, Outcome(digest, sum(p.stat().st_size for p in files), run_dir=out_dir)

    g, population, params, rng = llm_inputs(cfg)
    backend = LatencyBackend()
    start = time.perf_counter()
    result = echosim.language.run_llm(g, population, backend, params, cfg.nudge, cfg.days, rng)
    wall = time.perf_counter() - start
    # run_llm writes no files; its transcript is the artifact run() would persist
    transcript = result.transcript.to_jsonl().encode("utf-8")
    beliefs = result.belief_trajectory
    digest = {"transcript.jsonl": _sha(transcript), "beliefs": _sha(beliefs.tobytes())}
    return wall, Outcome(digest, len(transcript), beliefs=beliefs, backend=backend)


def mock_reference(cfg) -> np.ndarray:
    """llm-wait's belief trajectory with the plain mock backend, run serially."""
    g, population, params, rng = llm_inputs(cfg)
    params = replace(params, max_in_flight=1)
    return echosim.language.run_llm(g, population, MockBackend(), params, cfg.nudge, cfg.days, rng).belief_trajectory
