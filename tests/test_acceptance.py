"""Acceptance suite: one test per release criterion.

Each test prints a single ``[criterion NN] PASS/FAIL`` line (run with
``pytest -s`` to see them live) and enforces the criterion's tolerances and
runtime budget. Seeds are pinned so results are reproducible.
"""

import json
import time

import numpy as np

from echosim.backends import MockBackend
from echosim.config import config_from_dict, load_config_file
from echosim.graphs import (
    clustering_coefficient,
    degree_sequence,
    default_graph_spec,
    generate_graph,
    generate_random,
    generate_small_world,
    is_connected,
)
from echosim.interventions import NudgePolicy
from echosim.language import LlmParams, run_llm
from echosim.metrics import deltas, global_disagreement, nci, polarization, snapshot
from echosim.numeric import BcmParams, FjParams, bcm_day, run_numeric
from echosim.population import BELIEF_GRID, init_population
from echosim.recommendation import exposure_set
from echosim.runner import component_rng, run, sweep
from helpers import (
    naive_global_disagreement,
    naive_nci,
    naive_polarization,
    random_instance,
    star_graph,
)

TOPIC = "Euthanasia should be legal."
CONSENSUS_SEED = 2  # pinned: connected small-world under the component streams


def report(number: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {number:02d}] {status} {name} {detail}".rstrip())
    return ok


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def test_criterion_01_metric_oracle_equivalence():
    rng = np.random.default_rng(101)
    with Stopwatch() as sw:
        worst = 0.0
        for _ in range(200):
            g, beliefs = random_instance(rng, max_n=12)
            values = list(beliefs)
            worst = max(worst, abs(polarization(beliefs) - naive_polarization(values)))
            worst = max(
                worst,
                abs(global_disagreement(g, beliefs) - naive_global_disagreement(g, values)),
            )
            ours, oracle = nci(g, beliefs), naive_nci(g, values)
            if oracle is None:
                assert ours is None
            else:
                worst = max(worst, abs(ours - oracle))
    ok = worst < 1e-9 and sw.elapsed < 5.0
    assert report(1, "metric oracle equivalence",
                  ok, f"(max |diff| {worst:.2e}, {sw.elapsed:.2f}s < 5s)")


def test_criterion_02_bcm_hand_cases():
    from echosim.graphs import NetworkGraph

    pair = NetworkGraph.from_edges(2, [(0, 1)])
    moved = bcm_day(pair, [0.0, 1.0], BcmParams(epsilon=2.0, mu=0.5))
    exact_pair = moved.tolist() == [0.5, 0.5]

    frozen = bcm_day(pair, [0.0, 1.0], BcmParams(epsilon=0.0, mu=0.5))
    exact_freeze = frozen.tolist() == [0.0, 1.0]

    uniform = bcm_day(pair, [0.4, 0.4], BcmParams(epsilon=2.0, mu=0.5))
    exact_uniform = uniform.tolist() == [0.4, 0.4]

    ok = exact_pair and exact_freeze and exact_uniform
    assert report(2, "bounded-confidence hand cases", ok,
                  f"(pair={moved.tolist()}, freeze={exact_freeze}, uniform={exact_uniform})")


def test_criterion_03_bcm_consensus():
    with Stopwatch() as sw:
        g = generate_graph(default_graph_spec("small_world", 50),
                           component_rng(CONSENSUS_SEED, "graph"))
        assert is_connected(g), "pinned seed must give a connected graph"
        beliefs = init_population(50, TOPIC, False,
                                  component_rng(CONSENSUS_SEED, "population")).beliefs
        rows, index = run_numeric(g, beliefs,
                                  BcmParams(epsilon=4.0, mu=0.5, exposure_mode="all_neighbors"), 200)
        traj = rows[index]
        spread = float(traj[-1].max() - traj[-1].min())
        d_pol, d_dg, _ = deltas([snapshot(0, g, traj[0]), snapshot(200, g, traj[-1])])
    ok = spread < 0.01 and d_pol < 0 and d_dg < 0 and sw.elapsed < 2.0
    assert report(3, "bounded-confidence consensus", ok,
                  f"(spread {spread:.1e} < 0.01, dP {d_pol:+.3f}, dDG {d_dg:+.3f}, {sw.elapsed:.2f}s < 2s)")


def test_criterion_04_fj_contraction():
    worst_change = 0.0
    anchors_exact = True
    for kind in ("small_world", "scale_free", "random"):
        g = generate_graph(default_graph_spec(kind, 50), component_rng(1, "graph"))
        beliefs = init_population(50, TOPIC, False, component_rng(1, "population")).beliefs
        rows, index = run_numeric(g, beliefs, FjParams(alpha=0.3), 200)
        traj = rows[index]
        worst_change = max(worst_change, float(np.abs(traj[-1] - traj[-2]).max()))
        rows, index = run_numeric(g, beliefs, FjParams(alpha=1.0), 200)
        anchored = rows[index]
        anchors_exact = anchors_exact and np.array_equal(anchored[-1], beliefs)
    ok = worst_change < 1e-6 and anchors_exact
    assert report(4, "anchored-averaging contraction", ok,
                  f"(terminal change {worst_change:.1e} < 1e-6, alpha=1 exact={anchors_exact})")


def test_criterion_05_numeric_sign_and_ordering(tmp_path):
    seeds = list(range(1, 11))

    def mean_deltas(engine, kind):
        cfg = config_from_dict({
            "n": 50, "days": 30, "engine": engine, "exposure_mode": "recommended",
            "topic": TOPIC, "graph": {"kind": kind},
        })
        result = sweep(cfg, seeds, tmp_path / f"{engine}-{kind}")
        assert not result.failures
        stacked = list(result.per_seed_deltas.values())
        return (
            float(np.mean([d[0] for d in stacked])),
            float(np.mean([d[1] for d in stacked])),
            float(np.mean([d[2] for d in stacked if d[2] is not None])),
        )

    with Stopwatch() as sw:
        bcm_sw = mean_deltas("bcm", "small_world")
        bcm_rnd = mean_deltas("bcm", "random")
        fj_sw = mean_deltas("fj", "small_world")
        fj_sf = mean_deltas("fj", "scale_free")
        fj_rnd = mean_deltas("fj", "random")

    part_a = bcm_sw[2] > 0 and bcm_sw[2] > bcm_rnd[2]
    part_b = fj_sw[0] < 0 and fj_sf[0] < 0 and fj_rnd[0] < 0
    part_c = fj_sw[2] > 0 and fj_sf[2] > 0
    ok = part_a and part_b and part_c and sw.elapsed < 30.0
    assert report(5, "numeric sign/ordering reproduction", ok,
                  f"(bcm dNCI sw {bcm_sw[2]:+.3f} > rnd {bcm_rnd[2]:+.3f}; "
                  f"fj dP {fj_sw[0]:+.3f}/{fj_sf[0]:+.3f}/{fj_rnd[0]:+.3f} all < 0; "
                  f"fj dNCI sw {fj_sw[2]:+.3f}, sf {fj_sf[2]:+.3f} > 0; {sw.elapsed:.1f}s < 30s)")


LLM_CONFIG = {
    "n": 50, "days": 30, "seed": 1, "engine": "llm", "topic": TOPIC,
    "graph": {"kind": "small_world"}, "backend": {"kind": "mock"},
}


def test_criterion_06_language_engine_structural_run(tmp_path):
    with Stopwatch() as sw:
        first = run(config_from_dict(LLM_CONFIG), tmp_path / "a")
        second = run(config_from_dict(LLM_CONFIG), tmp_path / "b")

        identical = all(
            (first.run_dir / name).read_bytes() == (second.run_dir / name).read_bytes()
            for name in ("metrics.csv", "trajectory.jsonl", "transcript.jsonl",
                         "projection.csv", "population.txt", "graph.txt",
                         "config.yaml", "manifest.txt")
        )
        snapshot_rows = len((first.run_dir / "metrics.csv").read_text().strip().splitlines()) - 1
        # every belief of every snapshot day, as the run persisted it
        trajectory_lines = (first.run_dir / "trajectory.jsonl").read_text().splitlines()
        beliefs = [json.loads(line)["belief"] for line in trajectory_lines]
        grid_ok = (len(beliefs) == len(first.snapshots) * LLM_CONFIG["n"]
                   and all(belief in BELIEF_GRID for belief in beliefs))

        # memory-budget invariant, checked on a direct engine run with the same wiring
        cfg = config_from_dict(LLM_CONFIG)
        g = generate_graph(cfg.graph, component_rng(cfg.seed, "graph"))
        population = init_population(cfg.n, cfg.topic, True, component_rng(cfg.seed, "population"))
        result = run_llm(g, population, MockBackend(), cfg.llm,
                         cfg.nudge, days=cfg.days, rng=component_rng(cfg.seed, "engine"))
        budget_ok = all(len(summary) <= cfg.llm.long_term_budget for summary in result.long_term)

    ok = identical and snapshot_rows == 31 and grid_ok and budget_ok and sw.elapsed < 10.0
    assert report(6, "language engine structural run (mock)", ok,
                  f"(byte-identical={identical}, snapshots={snapshot_rows}, grid={grid_ok}, "
                  f"memory-budget={budget_ok}, {sw.elapsed:.1f}s < 10s)")


def test_criterion_07_nudges_reduce_polarization():
    seeds = list(range(1, 11))
    params = LlmParams(max_in_flight=1)  # parallelism is result-neutral; serial is faster

    def mean_final_polarization(nudge_kind):
        finals = []
        for seed in seeds:
            g = generate_graph(default_graph_spec("scale_free", 50), component_rng(seed, "graph"))
            population = init_population(50, TOPIC, True, component_rng(seed, "population"))
            result = run_llm(g, population, MockBackend(), params, NudgePolicy(kind=nudge_kind),
                             days=30, rng=component_rng(seed, "engine"))
            finals.append(polarization(result.belief_trajectory[-1]))
        return float(np.mean(finals))

    with Stopwatch() as sw:
        baseline = mean_final_polarization("none")
        active = mean_final_polarization("active")
        passive = mean_final_polarization("passive")
    ok = active < baseline and passive < baseline and sw.elapsed < 30.0
    assert report(7, "nudges reduce final polarization (mock)", ok,
                  f"(none {baseline:.3f}, active {active:.3f}, passive {passive:.3f}, "
                  f"{sw.elapsed:.1f}s < 30s)")


def test_criterion_08_graph_structure_properties():
    with Stopwatch() as sw:
        sw_clustering = [
            clustering_coefficient(generate_small_world(50, 4, 0.1, np.random.default_rng(s)))
            for s in range(20)
        ]
        er_clustering = [
            clustering_coefficient(generate_random(50, 0.08, np.random.default_rng(s)))
            for s in range(20)
        ]
        clustering_ok = float(np.mean(sw_clustering)) > float(np.mean(er_clustering))

        hub_ok = True
        for s in range(20):
            from echosim.graphs import generate_scale_free

            degrees = sorted(degree_sequence(generate_scale_free(50, 2, np.random.default_rng(s))))
            hub_ok = hub_ok and degrees[-1] > 3 * degrees[len(degrees) // 2]
    ok = clustering_ok and hub_ok and sw.elapsed < 5.0
    assert report(8, "graph structure properties", ok,
                  f"(clustering {np.mean(sw_clustering):.3f} > {np.mean(er_clustering):.3f}, "
                  f"hub dominance all 20 seeds={hub_ok}, {sw.elapsed:.1f}s < 5s)")


def test_criterion_09_recommendation_properties():
    rng = np.random.default_rng(909)
    monotone = True
    symmetric = True
    for _ in range(100):
        g, beliefs = random_instance(rng)
        lo, hi = sorted(rng.uniform(0, 4, size=2))
        for i in range(g.n):
            monotone = monotone and set(exposure_set(g, beliefs, i, "recommended", threshold=lo)) <= set(
                exposure_set(g, beliefs, i, "recommended", threshold=hi))
        threshold = float(rng.uniform(0, 4))
        sets = [set(exposure_set(g, beliefs, i, "recommended", threshold=threshold)) for i in range(g.n)]
        for i in range(g.n):
            for j in sets[i]:
                symmetric = symmetric and i in sets[j]

    star = star_graph(4)
    star_ok = exposure_set(star, [0.0, -2.0, -1.0, 1.0, 2.0], 0, "recommended", threshold=1.0) == [2, 3]

    ok = monotone and symmetric and star_ok
    assert report(9, "recommendation filter properties", ok,
                  f"(monotone={monotone}, symmetric={symmetric}, star example={star_ok})")


def test_criterion_10_provenance(tmp_path, monkeypatch):
    # numeric and mock runs replay byte-for-byte from their persisted configs
    outcomes = []
    for name, overrides in (("bcm", {"engine": "bcm"}),
                            ("llm-mock", {"engine": "llm", "nudge": {"kind": "passive"}})):
        cfg = config_from_dict({**LLM_CONFIG, "days": 5, **overrides})
        first = run(cfg, tmp_path / name / "original")
        replayed_cfg = config_from_dict(load_config_file(first.run_dir / "config.yaml"))
        second = run(replayed_cfg, tmp_path / name / "replayed")
        files = [p.name for p in first.run_dir.iterdir()]
        outcomes.append(all(
            (first.run_dir / f).read_bytes() == (second.run_dir / f).read_bytes() for f in files
        ))

    # remote-backend runs are excluded from the guarantee and marked as such
    monkeypatch.setenv("ECHOSIM_ACCEPT_KEY", "key")
    monkeypatch.setattr(
        "echosim.backends.RemoteChatBackend.complete",
        lambda self, prompt, max_length, temperature: "BELIEF: 0\nOPINION: steady.",
    )
    remote_cfg = config_from_dict({**LLM_CONFIG, "days": 1, "n": 10,
                                   "backend": {"kind": "remote", "api_key_env": "ECHOSIM_ACCEPT_KEY"}})
    remote_run = run(remote_cfg, tmp_path / "remote")
    marked = "reproducible: false" in (remote_run.run_dir / "manifest.txt").read_text()

    ok = all(outcomes) and marked
    assert report(10, "provenance and replay", ok,
                  f"(byte-identical replays={outcomes}, remote marked excluded={marked})")
