import json
import platform
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import echosim
import echosim.runner as runner_mod
from echosim.backends import MockBackend
from echosim.config import config_from_dict, config_hash, load_config_file
from echosim.errors import BackendError, ConfigError, ParameterError
from echosim.metrics import deltas
from echosim.graphs import generate_graph
from echosim.language import run_llm
from echosim.numeric import run_numeric
from echosim.population import init_population
from echosim.runner import compare, component_rng, export_projection, run, sweep, trajectory_text
from helpers import AWKWARD_TEXT, json_dumps_transcript


def cfg_dict(**over):
    base = {"n": 10, "days": 5, "seed": 1, "graph": {"kind": "small_world"}}
    base.update(over)
    return base


def read_all(run_dir):
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir()) if p.is_file()}


class TestRun:
    def test_numeric_run_writes_all_artifacts(self, tmp_path):
        artifacts = run(config_from_dict(cfg_dict()), tmp_path / "r")
        names = {p.name for p in artifacts.run_dir.iterdir()}
        assert names == {"metrics.csv", "trajectory.jsonl", "projection.csv",
                         "population.txt", "graph.txt", "config.yaml", "manifest.txt"}
        rows = (artifacts.run_dir / "metrics.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 6  # header + days 0..5
        assert not (artifacts.run_dir / "transcript.jsonl").exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        a = run(config_from_dict(cfg_dict()), tmp_path / "a")
        b = run(config_from_dict(cfg_dict()), tmp_path / "b")
        assert read_all(a.run_dir) == read_all(b.run_dir)

    def test_llm_mock_run_has_transcript_and_grid_trajectory(self, tmp_path):
        artifacts = run(config_from_dict(cfg_dict(engine="llm")), tmp_path / "r")
        assert (artifacts.run_dir / "transcript.jsonl").exists()
        for line in (artifacts.run_dir / "trajectory.jsonl").read_text().splitlines():
            record = json.loads(line)
            assert record["belief"] in (-2, -1, 0, 1, 2)
            assert isinstance(record["opinion"], str) and record["opinion"]

    def test_run_from_persisted_config_reproduces_bytes(self, tmp_path):
        first = run(config_from_dict(cfg_dict(engine="llm", nudge={"kind": "active"})), tmp_path / "one")
        persisted = config_from_dict(load_config_file(first.run_dir / "config.yaml"))
        second = run(persisted, tmp_path / "two")
        assert read_all(first.run_dir) == read_all(second.run_dir)

    def test_manifest_contents(self, tmp_path):
        cfg = config_from_dict(cfg_dict())
        artifacts = run(cfg, tmp_path / "r")
        manifest_lines = (artifacts.run_dir / "manifest.txt").read_text().strip().splitlines()
        manifest = dict(line.split(": ", 1) for line in manifest_lines)
        assert manifest["config_hash"] == config_hash(cfg)
        assert manifest["engine"] == "bcm"
        assert manifest["backend"] == "none"
        assert manifest["reproducible"] == "true"
        assert manifest["graph_connected"] in ("true", "false")
        assert manifest["python_version"] == platform.python_version()
        assert manifest["numpy_version"] == np.__version__

    def test_code_version_matches_pyproject(self):
        # manifest.txt's code_version tells layout revisions apart, so the package states one version
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
        assert pyproject["project"]["version"] == echosim.__version__

    def test_remote_without_key_fails_fast(self, tmp_path, monkeypatch):
        monkeypatch.delenv("ECHOSIM_MISSING_KEY", raising=False)
        cfg = config_from_dict(cfg_dict(engine="llm",
                                        backend={"kind": "remote",
                                                 "api_key_env": "ECHOSIM_MISSING_KEY"}))
        with pytest.raises(BackendError):
            run(cfg, tmp_path / "r")
        assert not (tmp_path / "r" / "metrics.csv").exists()

    def test_remote_run_marked_not_reproducible(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ECHOSIM_FAKE_KEY", "k")
        monkeypatch.setattr(
            "echosim.backends.RemoteChatBackend.complete",
            lambda self, prompt, max_length, temperature: "BELIEF: 0\nOPINION: steady.",
        )
        cfg = config_from_dict(cfg_dict(engine="llm", days=1,
                                        backend={"kind": "remote",
                                                 "api_key_env": "ECHOSIM_FAKE_KEY"}))
        artifacts = run(cfg, tmp_path / "r")
        manifest = (artifacts.run_dir / "manifest.txt").read_text()
        assert "reproducible: false" in manifest
        assert "backend: remote" in manifest

    def test_rerun_leaves_only_its_own_artifacts(self, tmp_path):
        run(config_from_dict(cfg_dict(engine="llm")), tmp_path / "r")
        assert (tmp_path / "r" / "transcript.jsonl").exists()
        numeric = run(config_from_dict(cfg_dict(engine="bcm")), tmp_path / "r")
        fresh = run(config_from_dict(cfg_dict(engine="bcm")), tmp_path / "fresh")
        assert not (numeric.run_dir / "transcript.jsonl").exists()
        assert read_all(numeric.run_dir) == read_all(fresh.run_dir)

    def test_mock_runs_never_start_a_pool(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("the mock backend must run serially")

        monkeypatch.setattr("echosim.language.ThreadPoolExecutor", no_pool)
        cfg = config_from_dict(cfg_dict(engine="llm", llm={"max_in_flight": 4}))
        artifacts = run(cfg, tmp_path / "r")
        assert "max_in_flight: 4" in (artifacts.run_dir / "config.yaml").read_text()

    def test_deltas_match_snapshots(self, tmp_path):
        artifacts = run(config_from_dict(cfg_dict()), tmp_path / "r")
        assert artifacts.deltas == deltas(artifacts.snapshots)

    def test_populations_match_across_structures(self, tmp_path):
        a = run(config_from_dict(cfg_dict(graph={"kind": "small_world"})), tmp_path / "a")
        b = run(config_from_dict(cfg_dict(graph={"kind": "random"})), tmp_path / "b")
        assert (a.run_dir / "population.txt").read_bytes() == (b.run_dir / "population.txt").read_bytes()


class TestCompare:
    def test_single_config_table_equals_its_deltas(self, tmp_path):
        cfg = config_from_dict(cfg_dict())
        result = compare([cfg], tmp_path)
        run_deltas = run(cfg, tmp_path / "again").deltas
        assert result.labels == ["bcm-small_world"]
        assert result.table["delta_polarization"][0] == pytest.approx(run_deltas[0])
        assert result.table["delta_nci"][0] == pytest.approx(run_deltas[2])
        assert result.csv_path.exists() and result.text_path.exists()

    def test_engines_differ_on_shared_population(self, tmp_path):
        configs = [config_from_dict(cfg_dict(engine=e)) for e in ("bcm", "fj")]
        result = compare(configs, tmp_path)
        assert result.table["delta_polarization"][0] != result.table["delta_polarization"][1]

    def test_mismatched_seed_rejected(self, tmp_path):
        configs = [config_from_dict(cfg_dict(seed=1)), config_from_dict(cfg_dict(seed=2))]
        with pytest.raises(ParameterError, match="share"):
            compare(configs, tmp_path)

    def test_duplicate_labels_are_disambiguated(self, tmp_path):
        configs = [config_from_dict(cfg_dict()), config_from_dict(cfg_dict(bcm={"mu": 0.2}))]
        result = compare(configs, tmp_path)
        assert len(set(result.labels)) == 2

    def test_structure_ordering_at_pinned_seed(self, tmp_path):
        # seed-matched columns: neighbor correlation rises more on the
        # small-world structure than on the random graph (seed 1 pinned;
        # the 10-seed mean version lives in the acceptance suite)
        configs = [
            config_from_dict({"n": 50, "days": 30, "seed": 1, "engine": "bcm",
                              "graph": {"kind": kind}})
            for kind in ("small_world", "scale_free", "random")
        ]
        result = compare(configs, tmp_path)
        nci_row = result.table["delta_nci"]
        assert result.labels == ["bcm-small_world", "bcm-scale_free", "bcm-random"]
        assert nci_row[0] > 0
        assert nci_row[0] > nci_row[2]


class TestSweep:
    def test_repeated_seed_rejected(self, tmp_path):
        cfg = config_from_dict(cfg_dict())
        for seeds in ([3, 3], [1, 3, 2, 3]):
            with pytest.raises(ParameterError, match="repeated: 3"):
                sweep(cfg, seeds, tmp_path)
        assert not list(tmp_path.iterdir())  # rejected before any run

    def test_seed_list_too_short_rejected(self, tmp_path):
        cfg = config_from_dict(cfg_dict())
        with pytest.raises(ParameterError):
            sweep(cfg, [], tmp_path)
        with pytest.raises(ParameterError):
            sweep(cfg, [1], tmp_path)

    @staticmethod
    def sabotage_seed_5(monkeypatch):
        real_run = runner_mod.run

        def sabotage(config, out_dir):
            if config.seed == 5:
                raise RuntimeError("seed 5 exploded")
            return real_run(config, out_dir)

        monkeypatch.setattr(runner_mod, "run", sabotage)

    def test_failures_are_isolated_and_reported(self, tmp_path, monkeypatch):
        self.sabotage_seed_5(monkeypatch)
        result = sweep(config_from_dict(cfg_dict()), [4, 5, 6], tmp_path)
        assert set(result.per_seed_deltas) == {4, 6}
        assert 5 in result.failures
        assert "seed 5" in (tmp_path / "failures.txt").read_text()

    def test_clean_sweep_removes_an_earlier_failure_report(self, tmp_path, monkeypatch):
        self.sabotage_seed_5(monkeypatch)
        sweep(config_from_dict(cfg_dict()), [4, 5], tmp_path)
        assert (tmp_path / "failures.txt").exists()
        monkeypatch.undo()
        result = sweep(config_from_dict(cfg_dict()), [4, 6], tmp_path)
        assert not result.failures
        assert not (tmp_path / "failures.txt").exists()

    def test_bad_seed_rejected_before_any_run(self, tmp_path):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            sweep(config_from_dict(cfg_dict()), [1, -1], tmp_path)
        assert not list(tmp_path.iterdir())

    def test_aggregate_means(self, tmp_path):
        cfg = config_from_dict(cfg_dict())
        result = sweep(cfg, [1, 2, 3], tmp_path)
        pols = [d[0] for d in result.per_seed_deltas.values()]
        line = result.aggregate_csv.read_text().strip().splitlines()[1]
        assert line.startswith("delta_polarization,")
        assert float(line.split(",")[1]) == pytest.approx(np.mean(pols))


def json_dumps_trajectory(trajectory) -> str:
    records = (
        {"day": day, "agent": agent, "belief": float(trajectory[day][agent])}
        for day in range(len(trajectory))
        for agent in range(len(trajectory[day]))
    )
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


class TestTrajectoryWriter:
    def test_numeric_rows_match_json_dumps(self):
        awkward = [[0.1 + 0.2, -0.0, 1e16, 5e-324, -1.5e-7, 2.0], [-2.0, 1 / 3, 0.0, 1e-5, -1e22, 123.456]]
        random_rows = np.random.default_rng(3).uniform(-2, 2, size=(4, 6))
        for trajectory in (np.array(awkward), random_rows):
            assert trajectory_text(trajectory) == json_dumps_trajectory(trajectory)

    def test_written_file_matches_json_dumps_of_the_run(self, tmp_path):
        cfg = config_from_dict(cfg_dict(engine="fj", n=12, days=8, exposure_mode="all_neighbors"))
        artifacts = run(cfg, tmp_path / "r")
        population = init_population(cfg.n, cfg.topic, False, component_rng(cfg.seed, "population"))
        g = generate_graph(cfg.graph, component_rng(cfg.seed, "graph"))
        trajectory = run_numeric("fj", g, population.beliefs, cfg.fj, cfg.days)
        written = (artifacts.run_dir / "trajectory.jsonl").read_text(encoding="utf-8")
        assert written == json_dumps_trajectory(trajectory)


def json_dumps_grid_trajectory(trajectory, texts) -> str:
    records = (
        {"day": day, "agent": agent, "belief": int(trajectory[day][agent]), "opinion": texts[day][agent]}
        for day in range(len(trajectory))
        for agent in range(len(trajectory[day]))
    )
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


@st.composite
def grid_runs(draw):
    """(belief trajectory, opinion texts) of 1-4 agents over 1-3 days."""
    days, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    beliefs = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=days, max_size=days))
    texts = draw(st.lists(st.lists(AWKWARD_TEXT, min_size=n, max_size=n), min_size=days, max_size=days))
    return beliefs, texts


class TestGridTrajectoryWriter:
    @settings(max_examples=150, deadline=None)
    @given(grid_runs(), st.sampled_from([int, float]))
    def test_grid_rows_match_json_dumps(self, run_data, dtype):
        beliefs, texts = run_data
        trajectory = np.array(beliefs, dtype=dtype)  # run() passes the grid trajectory as floats
        assert trajectory_text(trajectory, texts) == json_dumps_grid_trajectory(trajectory, texts)

    def test_llm_run_files_match_json_dumps(self, tmp_path):
        awkward_nudges = ['Say "both sides"\tplease', "back\\slash and a\nbreak",
                          "naïve café, 100 € 😀", "\x01 control \u2028 line separator"]
        cfg = config_from_dict(cfg_dict(engine="llm", n=12, days=4, graph={"kind": "scale_free"},
                                        nudge={"kind": "passive", "extremity_threshold": 1,
                                               "passive_texts": awkward_nudges}))
        artifacts = run(cfg, tmp_path / "r")

        population = init_population(cfg.n, cfg.topic, True, component_rng(cfg.seed, "population"))
        g = generate_graph(cfg.graph, component_rng(cfg.seed, "graph"))
        result = run_llm(g, population, MockBackend(), cfg.llm, cfg.nudge, cfg.days, component_rng(cfg.seed, "engine"))
        events = result.transcript.events
        assert {e.payload for e in events if e.kind == "nudge"} == set(awkward_nudges)
        run_dir = artifacts.run_dir
        assert (run_dir / "transcript.jsonl").read_text(encoding="utf-8") == json_dumps_transcript(events)
        assert (run_dir / "trajectory.jsonl").read_text(encoding="utf-8") == json_dumps_grid_trajectory(
            result.belief_trajectory, result.opinion_trajectory)


class TestExportProjection:
    def test_matches_run_projection(self, tmp_path):
        artifacts = run(config_from_dict(cfg_dict()), tmp_path / "r")
        text = export_projection(artifacts.run_dir)
        assert text == (artifacts.run_dir / "projection.csv").read_text()

    def test_writes_to_file(self, tmp_path):
        artifacts = run(config_from_dict(cfg_dict(engine="llm")), tmp_path / "r")
        out = tmp_path / "proj.csv"
        export_projection(artifacts.run_dir, out)
        assert out.read_text() == (artifacts.run_dir / "projection.csv").read_text()


def test_component_rngs_are_independent_streams():
    a = component_rng(1, "graph").random(4)
    b = component_rng(1, "population").random(4)
    assert not np.allclose(a, b)
    assert np.array_equal(component_rng(1, "graph").random(4), a)
