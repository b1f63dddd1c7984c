import json
import os
import platform
import tempfile
import threading
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import echosim
import echosim.metrics as metrics_mod
import echosim.runner as runner_mod
from echosim.backends import MockBackend
from echosim.cli import main
from echosim.config import ENGINES, config_from_dict, config_hash, load_config_file
from echosim.errors import BackendError, ConfigError, ParameterError
from echosim.metrics import deltas, snapshot
from echosim.graphs import GRAPH_KINDS, generate_graph
from echosim.interventions import NUDGE_KINDS
from echosim.language import run_llm
from echosim.numeric import run_numeric
from echosim.population import init_population, population_from_text
from echosim.recommendation import EXPOSURE_MODES
from echosim.runner import compare, component_rng, export_projection, grid_day_lines, run, sweep, trajectory_chunks
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


LLM_ARTIFACTS = {"metrics.csv", "trajectory.jsonl", "transcript.jsonl", "projection.csv",
                 "population.txt", "graph.txt", "config.yaml", "manifest.txt"}


class TestWrites:
    """Each file is written under a temporary name and renamed into place; the manifest comes last."""

    def test_a_write_that_fails_midway_leaves_no_manifest(self, tmp_path):
        d = tmp_path / "d"
        run(config_from_dict(cfg_dict(n=20, days=2, seed=1)), d)
        (d / "projection.csv").unlink()
        (d / "projection.csv").mkdir()  # so the rerun's projection.csv cannot be written
        with pytest.raises(OSError):
            run(config_from_dict(cfg_dict(n=20, days=3, seed=2)), d)
        assert len((d / "metrics.csv").read_text().splitlines()) == 1 + 4  # the rerun's earlier files
        assert not (d / "manifest.txt").exists()
        assert not list(d.glob(".*.tmp"))

    def test_a_failing_stream_leaves_no_partial_file(self, tmp_path, monkeypatch):
        d = tmp_path / "d"
        run(config_from_dict(cfg_dict(engine="llm", seed=1)), d)
        earlier = read_all(d)

        def failing_lines(day, beliefs, texts):
            if day == 2:  # days 0 and 1 went to the temporary files already
                assert (d / ".trajectory.jsonl.tmp").is_file() and (d / ".transcript.jsonl.tmp").is_file()
                raise RuntimeError("disk gone")
            return grid_day_lines(day, beliefs, texts)

        monkeypatch.setattr(runner_mod, "grid_day_lines", failing_lines)
        with pytest.raises(RuntimeError, match="disk gone"):
            run(config_from_dict(cfg_dict(engine="llm", seed=2)), d)
        assert not list(d.glob(".*.tmp"))
        # the stream broke during the days, so the earlier run stands whole, manifest included
        assert read_all(d) == earlier

        monkeypatch.undo()
        run(config_from_dict(cfg_dict(engine="llm", seed=2)), d)
        assert {p.name for p in d.iterdir()} == LLM_ARTIFACTS

    @pytest.mark.parametrize("failing_day", [1, 3])
    def test_a_backend_that_raises_on_a_day_leaves_the_earlier_run_whole(self, tmp_path, monkeypatch, failing_day):
        d = tmp_path / "d"
        run(config_from_dict(cfg_dict(engine="llm", seed=1)), d)
        earlier = read_all(d)
        cfg = config_from_dict(cfg_dict(engine="llm", seed=2))

        class FailingBackend(MockBackend):
            """The mock, until the first call of ``failing_day``: run() makes a
            mock's 2n calls a day serially."""

            calls = 0

            def complete(self, prompt, max_length, temperature):
                self.calls += 1
                if self.calls > 2 * cfg.n * (failing_day - 1):
                    raise RuntimeError("model gone")
                return super().complete(prompt, max_length, temperature)

        monkeypatch.setattr(runner_mod, "_build_backend", lambda config: FailingBackend())
        with pytest.raises(RuntimeError, match="model gone"):
            run(cfg, d)
        assert not list(d.glob(".*.tmp"))
        assert read_all(d) == earlier

    @pytest.mark.parametrize("engine", ["bcm", "fj", "llm"])
    def test_a_run_that_fails_after_the_days_leaves_the_earlier_run_whole(self, tmp_path, monkeypatch, engine):
        d = tmp_path / "d"
        run(config_from_dict(cfg_dict(engine="llm", seed=1)), d)  # so a numeric rerun has a transcript to remove
        earlier = read_all(d)

        def failing_projection(final_beliefs, positions):
            # the days, the writer process, the metrics and the layout have all run by now
            raise RuntimeError("projection gone")

        monkeypatch.setattr(runner_mod, "projection_text", failing_projection)
        with pytest.raises(RuntimeError, match="projection gone"):
            run(config_from_dict(cfg_dict(engine=engine, seed=2)), d)
        assert_no_child_process()
        assert not list(d.glob(".*.tmp"))
        assert read_all(d) == earlier

    def test_peak_memory_does_not_grow_with_days(self, tmp_path):
        """At fixed n only the run's own arrays grow with ``days``: 180 more
        days of 300 beliefs are 0.41 MiB. Building the whole trajectory text
        before writing it added about 11 MiB to the 200-day peak."""
        def peak(days):
            cfg = config_from_dict(cfg_dict(engine="fj", n=300, days=days, exposure_mode="all_neighbors"))
            tracemalloc.start()
            try:
                run(cfg, tmp_path / f"days_{days}")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # one-time allocations (imports, caches) stay out of the comparison
        assert peak(200) <= peak(20) + 2**20

    def test_peak_memory_of_an_llm_run_does_not_grow_with_days(self, tmp_path):
        """An llm run writes each day's trajectory and transcript lines as the
        day ends, so at fixed n only the belief trajectories grow with ``days``:
        50 more days of 30 agents are 24 KiB. Holding every day's texts and
        events until the end added about 700 KiB here, 0.47 KiB per agent-day."""
        def peak(days):
            cfg = config_from_dict(cfg_dict(engine="llm", n=30, days=days))
            tracemalloc.start()
            try:
                run(cfg, tmp_path / f"days_{days}")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # one-time allocations (imports, caches) stay out of the comparison
        assert peak(60) <= peak(10) + 2**17


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

    def test_no_config_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="compare needs at least one config"):
            compare([], tmp_path)
        assert not list(tmp_path.iterdir())

    def test_mismatched_seed_rejected(self, tmp_path):
        configs = [config_from_dict(cfg_dict(seed=1)), config_from_dict(cfg_dict(seed=2))]
        with pytest.raises(ParameterError, match="share"):
            compare(configs, tmp_path)

    def test_duplicate_labels_are_disambiguated(self, tmp_path):
        configs = [config_from_dict(cfg_dict()), config_from_dict(cfg_dict(bcm={"mu": 0.2}))]
        result = compare(configs, tmp_path)
        assert len(set(result.labels)) == 2

    def test_rerun_removes_the_runs_of_dropped_labels(self, tmp_path):
        configs = [config_from_dict(cfg_dict(graph={"kind": kind})) for kind in ("small_world", "random")]
        compare(configs, tmp_path)
        assert (tmp_path / "bcm-random" / "manifest.txt").exists()
        result = compare(configs[:1], tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bcm-small_world", "comparison.csv",
                                                              "comparison.txt"]
        assert result.labels == ["bcm-small_world"]

    def test_a_failed_compare_leaves_no_table(self, tmp_path, monkeypatch):
        bcm, fj, llm = (config_from_dict(cfg_dict(engine=e)) for e in ("bcm", "fj", "llm"))
        compare([bcm, fj], tmp_path)
        real_run = runner_mod.run

        def sabotage(config, out_dir):
            if config.engine == "llm":
                raise RuntimeError("llm exploded")
            return real_run(config, out_dir)

        monkeypatch.setattr(runner_mod, "run", sabotage)
        with pytest.raises(RuntimeError, match="llm exploded"):
            compare([fj, llm], tmp_path)
        assert not (tmp_path / "comparison.csv").exists()
        assert not (tmp_path / "comparison.txt").exists()

    def test_a_failed_compare_leaves_only_its_own_runs(self, tmp_path, monkeypatch):
        bcm, fj, llm = (config_from_dict(cfg_dict(engine=e)) for e in ("bcm", "fj", "llm"))
        compare([bcm, fj, llm], tmp_path)
        real_run = runner_mod.run

        def sabotage(config, out_dir):
            if config.engine == "llm":
                raise RuntimeError("llm exploded")
            return real_run(config, out_dir)

        monkeypatch.setattr(runner_mod, "run", sabotage)
        with pytest.raises(RuntimeError, match="llm exploded"):
            compare([fj, llm, bcm], tmp_path)
        # bcm's column never ran and llm's failed: their directories held the first call's runs
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fj-small_world"]
        assert (tmp_path / "fj-small_world" / "manifest.txt").exists()

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

    def test_an_nci_delta_undefined_for_every_seed_has_an_empty_row(self, tmp_path):
        # no edges, so no node has a neighbor and nci is undefined on every day
        result = sweep(config_from_dict(cfg_dict(graph={"kind": "random", "p_edge": 0.0})), [1, 2], tmp_path)
        assert [d[2] for d in result.per_seed_deltas.values()] == [None, None]
        assert result.aggregate_csv.read_text().splitlines()[-1] == "delta_nci,,,0"

    def test_clean_sweep_removes_an_earlier_failure_report(self, tmp_path, monkeypatch):
        self.sabotage_seed_5(monkeypatch)
        sweep(config_from_dict(cfg_dict()), [4, 5], tmp_path)
        assert (tmp_path / "failures.txt").exists()
        monkeypatch.undo()
        result = sweep(config_from_dict(cfg_dict()), [4, 6], tmp_path)
        assert not result.failures
        assert not (tmp_path / "failures.txt").exists()

    def test_rerun_removes_the_runs_of_dropped_seeds(self, tmp_path):
        sweep(config_from_dict(cfg_dict()), [1, 2, 3], tmp_path)
        assert (tmp_path / "seed_3" / "manifest.txt").exists()
        result = sweep(config_from_dict(cfg_dict()), [1, 2], tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["aggregate.csv", "seed_1", "seed_2"]
        assert result.aggregate_csv.read_text().splitlines()[1].endswith(",2")

    def test_rerun_keeps_directories_no_run_wrote(self, tmp_path):
        # a directory is a run's only when it has a seed's or a label's name and holds a manifest.txt
        mine = (("seed_9", "notes.txt"), ("bcm-random", "notes.txt"), ("results", "manifest.txt"))
        for name, file in mine:
            (tmp_path / name).mkdir()
            (tmp_path / name / file).write_text("mine")
        sweep(config_from_dict(cfg_dict()), [1, 2], tmp_path)
        compare([config_from_dict(cfg_dict())], tmp_path)
        for name, file in mine:
            assert (tmp_path / name / file).read_text() == "mine"

    def test_rerun_removes_the_old_run_of_a_seed_that_fails(self, tmp_path, monkeypatch):
        sweep(config_from_dict(cfg_dict()), [4, 5], tmp_path)
        assert (tmp_path / "seed_5" / "manifest.txt").exists()
        (tmp_path / "seed_6").mkdir()  # a failed run's own leftovers hold no manifest.txt
        (tmp_path / "seed_6" / "partial.txt").write_text("partial")
        real_run = runner_mod.run

        def sabotage(config, out_dir):
            if config.seed in (5, 6):
                raise RuntimeError(f"seed {config.seed} exploded")
            return real_run(config, out_dir)

        monkeypatch.setattr(runner_mod, "run", sabotage)
        result = sweep(config_from_dict(cfg_dict()), [4, 5, 6], tmp_path)
        assert sorted(result.failures) == [5, 6]
        assert not (tmp_path / "seed_5").exists()
        assert (tmp_path / "seed_6" / "partial.txt").read_text() == "partial"
        assert (tmp_path / "seed_4" / "manifest.txt").exists()

    def test_an_interrupted_sweep_leaves_only_its_own_runs(self, tmp_path, monkeypatch):
        sweep(config_from_dict(cfg_dict()), [1, 2, 5], tmp_path)
        real_run = runner_mod.run

        def interrupt_seed_4(config, out_dir):
            if config.seed == 4:
                raise KeyboardInterrupt
            return real_run(config, out_dir)

        monkeypatch.setattr(runner_mod, "run", interrupt_seed_4)
        with pytest.raises(KeyboardInterrupt):
            sweep(config_from_dict(cfg_dict()), [3, 4, 5], tmp_path)
        # seeds 1 and 2 are not in the call, and it never reached seed 5: all three hold the first call's runs
        assert sorted(p.name for p in tmp_path.iterdir()) == ["seed_3"]
        assert (tmp_path / "seed_3" / "manifest.txt").exists()

    @pytest.mark.parametrize("seeds, named", [([1.7, 2.2], "1.7, 2.2"), ([True, 2], "True"), ([1, 2.0], "2.0"),
                                              ([1, "2"], "'2'")])
    def test_non_integer_seeds_rejected_before_any_run(self, tmp_path, seeds, named):
        with pytest.raises(ParameterError, match=f"sweep seeds must be integers, got {named}$"):
            sweep(config_from_dict(cfg_dict()), seeds, tmp_path)
        assert not list(tmp_path.iterdir())

    def test_numpy_integer_seeds_accepted(self, tmp_path):
        result = sweep(config_from_dict(cfg_dict()), np.array([1, 2]), tmp_path)
        assert result.seeds == [1, 2] and all(type(s) is int for s in result.seeds)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["aggregate.csv", "seed_1", "seed_2"]

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


@contextmanager
def another_thread():
    """Keep one more thread alive, so ``run()`` may not fork its writer process."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWriterProcess:
    """The files that need neither the metrics nor the layout (a numeric run's
    trajectory.jsonl, population.txt, graph.txt and config.yaml) are written by a
    forked child while those run, or inline where forking is not safe."""

    @staticmethod
    def count_forks(monkeypatch) -> list:
        forks = []
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        return forks

    @pytest.mark.parametrize("over", [
        *(dict(engine=engine, n=40, days=6, graph={"kind": kind}) for engine in ("bcm", "fj") for kind in GRAPH_KINDS),
        # past its fixed point from day 55, so most days repeat the day before
        dict(engine="fj", n=12, days=80, exposure_mode="all_neighbors"),
        # the child writes population.txt, graph.txt and config.yaml, the parent the day-by-day streams
        dict(engine="llm", n=20, days=3, nudge={"kind": "active"}),
    ])
    def test_forked_and_inline_writers_give_the_same_bytes(self, tmp_path, monkeypatch, over):
        forks = self.count_forks(monkeypatch)
        cfg = config_from_dict(cfg_dict(**over))
        forked = run(cfg, tmp_path / "forked")
        assert len(forks) == 1
        assert_no_child_process()
        with another_thread():
            inline = run(cfg, tmp_path / "inline")
        assert len(forks) == 1
        assert read_all(forked.run_dir) == read_all(inline.run_dir)
        assert forked.snapshots == inline.snapshots

    def test_a_failing_writer_process_is_an_io_error(self, tmp_path, monkeypatch):
        d = tmp_path / "d"
        run(config_from_dict(cfg_dict(engine="fj", seed=1)), d)
        earlier = read_all(d)

        def failing_chunks(trajectory):
            raise RuntimeError("renderer gone")

        # the forked child inherits the patched name
        monkeypatch.setattr(runner_mod, "trajectory_chunks", failing_chunks)
        with pytest.raises(OSError, match="writer process failed: RuntimeError: renderer gone"):
            run(config_from_dict(cfg_dict(engine="fj", seed=2)), d)
        assert_no_child_process()
        assert not list(d.glob(".*.tmp"))
        assert read_all(d) == earlier
        assert main(["run", "--engine", "fj", "--n", "10", "--days", "5", "--seed", "2", "--out", str(d)]) == 4
        assert_no_child_process()
        assert read_all(d) == earlier

    @pytest.mark.parametrize("engine", ["bcm", "llm"])
    def test_a_failing_render_in_the_writer_process_is_an_io_error(self, tmp_path, monkeypatch, engine):
        d = tmp_path / "d"
        run(config_from_dict(cfg_dict(engine=engine, seed=1)), d)
        earlier = read_all(d)
        forks = self.count_forks(monkeypatch)

        def failing_yaml(config):
            raise RuntimeError("yaml gone")

        # config.yaml needs neither the metrics nor the layout, so the forked child renders it
        monkeypatch.setattr(runner_mod, "config_to_yaml", failing_yaml)
        with pytest.raises(OSError, match="writer process failed: RuntimeError: yaml gone"):
            run(config_from_dict(cfg_dict(engine=engine, seed=2)), d)
        assert len(forks) == 1
        assert_no_child_process()
        assert not list(d.glob(".*.tmp"))
        assert read_all(d) == earlier
        assert main(["run", "--engine", engine, "--n", "10", "--days", "3", "--seed", "2", "--out", str(d)]) == 4
        assert len(forks) == 2
        assert_no_child_process()
        assert read_all(d) == earlier

    def test_a_parent_that_fails_after_the_fork_kills_and_reaps_the_writer(self, tmp_path, monkeypatch):
        d = tmp_path / "d"
        run(config_from_dict(cfg_dict(engine="bcm", seed=1)), d)
        earlier = read_all(d)
        forks = self.count_forks(monkeypatch)

        def failing_layout(g, rng):
            raise RuntimeError("layout gone")

        monkeypatch.setattr(runner_mod, "force_layout", failing_layout)
        with pytest.raises(RuntimeError, match="layout gone"):
            run(config_from_dict(cfg_dict(engine="bcm", seed=2)), d)
        assert len(forks) == 1
        assert_no_child_process()
        assert not list(d.glob(".*.tmp"))
        assert read_all(d) == earlier


def json_dumps_trajectory(trajectory) -> str:
    records = (
        {"day": day, "agent": agent, "belief": float(trajectory[day][agent])}
        for day in range(len(trajectory))
        for agent in range(len(trajectory[day]))
    )
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


BELIEF_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-5, 1e16, -1e16, 0.1 + 0.2]) | st.floats(
    allow_nan=False, allow_infinity=False)


@st.composite
def settling_trajectories(draw, values):
    """Rows of 1-5 beliefs over 1-7 days. After day 0 each day repeats the day
    before, or copies, negates (so 0.0 turns into -0.0) or redraws each of its cells."""
    n = draw(st.integers(1, 5))
    rows = [draw(st.lists(values, min_size=n, max_size=n))]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            rows.append(rows[-1])
            continue
        steps = draw(st.lists(st.sampled_from(["copy", "negate", "redraw"]), min_size=n, max_size=n))
        rows.append([b if step == "copy" else -b if step == "negate" else draw(values)
                     for b, step in zip(rows[-1], steps)])
    return rows


class TestTrajectoryWriter:
    def test_numeric_rows_match_json_dumps(self):
        awkward = [[0.1 + 0.2, -0.0, 1e16, 5e-324, -1.5e-7, 2.0], [-2.0, 1 / 3, 0.0, 1e-5, -1e22, 123.456]]
        random_rows = np.random.default_rng(3).uniform(-2, 2, size=(4, 6))
        for trajectory in (np.array(awkward), random_rows):
            assert "".join(trajectory_chunks(trajectory)) == json_dumps_trajectory(trajectory)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(settling_trajectories(BELIEF_FLOATS).map(lambda rows: np.array(rows, dtype=float)),
                     settling_trajectories(st.integers(-2, 2)).map(lambda rows: np.array(rows, dtype=np.int64))))
    def test_rows_rendered_from_the_previous_day_match_json_dumps(self, trajectory):
        assert "".join(trajectory_chunks(trajectory)) == json_dumps_trajectory(trajectory)

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
        written = "".join(grid_day_lines(day, row, texts[day]) for day, row in enumerate(trajectory))
        assert written == json_dumps_grid_trajectory(trajectory, texts)

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
        events = result.transcript
        assert {e.payload for e in events if e.kind == "nudge"} == set(awkward_nudges)
        run_dir = artifacts.run_dir
        assert (run_dir / "transcript.jsonl").read_text(encoding="utf-8") == json_dumps_transcript(events)
        assert (run_dir / "trajectory.jsonl").read_text(encoding="utf-8") == json_dumps_grid_trajectory(
            result.belief_trajectory, result.opinion_trajectory)


class TestSettledDays:
    @pytest.mark.parametrize("over", [
        # FJ reaches its fixed point bit for bit from day 55
        dict(engine="fj", n=12, days=80, exposure_mode="all_neighbors"),
        # bounded confidence on a complete graph reaches consensus, where nci is None
        dict(engine="bcm", n=10, days=80, exposure_mode="all_neighbors", bcm={"epsilon": 4.0, "mu": 0.5},
             graph={"kind": "random", "p_edge": 1.0}),
    ])
    def test_metrics_rows_equal_a_fresh_snapshot_of_every_day(self, tmp_path, over):
        cfg = config_from_dict(cfg_dict(**over))
        artifacts = run(cfg, tmp_path / "r")
        population = init_population(cfg.n, cfg.topic, False, component_rng(cfg.seed, "population"))
        g = generate_graph(cfg.graph, component_rng(cfg.seed, "graph"))
        trajectory = run_numeric(cfg.engine, g, population.beliefs, getattr(cfg, cfg.engine), cfg.days)
        bits = trajectory.view(np.int64)
        repeated = [day for day in range(1, cfg.days + 1) if np.array_equal(bits[day], bits[day - 1])]
        assert len(repeated) >= 20
        fresh = [snapshot(day, g, trajectory[day]) for day in range(cfg.days + 1)]
        if cfg.engine == "bcm":
            assert {fresh[day].nci for day in repeated} == {None}
        assert artifacts.snapshots == fresh
        written = (artifacts.run_dir / "metrics.csv").read_text().splitlines()[1:]
        assert written == [s.csv_row() for s in fresh]

    @pytest.mark.parametrize("seed, distinct", [(5, 96), (41, 94)])
    def test_a_run_computes_each_distinct_day_once(self, tmp_path, monkeypatch, seed, distinct):
        # a 200-day fj run on a small world: a fixed point, or a two-day cycle in the last bits
        cfg = config_from_dict(dict(n=300, days=200, seed=seed, engine="fj", exposure_mode="all_neighbors",
                                    graph={"kind": "small_world"}))
        rows = []
        day_metrics = metrics_mod._day_metrics

        def counted(g, x):
            rows.append(len(x))
            return day_metrics(g, x)

        monkeypatch.setattr(metrics_mod, "_day_metrics", counted)
        artifacts = run(cfg, tmp_path / "r")
        assert len(artifacts.snapshots) == 201
        assert sum(rows) == distinct


class TestExportProjection:
    def test_matches_run_projection(self, tmp_path):
        artifacts = run(config_from_dict(cfg_dict()), tmp_path / "r")
        text = export_projection(artifacts.run_dir)
        assert text == (artifacts.run_dir / "projection.csv").read_text()

    @pytest.mark.parametrize("last_line, message", [
        (None, "one record per agent"),  # the final day's last agent is gone, so days mix
        ('{"agent": 8, "belief": 0.5, "day": 5}\n', "one record per agent"),
        ('{"agent": 9, "belief": 0.5}\n', "malformed record"),
    ], ids=["last line dropped", "agent 8 named twice", "no day"])
    def test_a_final_day_that_lacks_an_agent_is_rejected(self, tmp_path, last_line, message):
        artifacts = run(config_from_dict(cfg_dict()), tmp_path / "r")
        path = artifacts.run_dir / "trajectory.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[-1].startswith('{"agent": 9, ') and lines[-1].endswith(' "day": 5}\n')
        lines[-1:] = [] if last_line is None else [last_line]
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ParameterError, match=message):
            export_projection(artifacts.run_dir)

    def test_a_run_of_another_code_version_is_rejected(self, tmp_path):
        artifacts = run(config_from_dict(cfg_dict()), tmp_path / "r")
        manifest = artifacts.run_dir / "manifest.txt"
        text = manifest.read_text(encoding="utf-8")
        assert f"code_version: {echosim.__version__}\n" in text
        manifest.write_text(text.replace(f"code_version: {echosim.__version__}", "code_version: 0.4.0"),
                            encoding="utf-8")
        with pytest.raises(ParameterError, match="code_version '0.4.0' is not"):
            export_projection(artifacts.run_dir)

    def test_a_run_without_a_manifest_is_rejected(self, tmp_path):
        artifacts = run(config_from_dict(cfg_dict()), tmp_path / "r")
        (artifacts.run_dir / "manifest.txt").unlink()
        with pytest.raises(ParameterError, match="manifest.txt: missing"):
            export_projection(artifacts.run_dir)

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


def section(required=None, **optional):
    """Mappings that always hold the ``required`` keys and hold each optional key or not."""
    return st.fixed_dictionaries(required or {}, optional=optional)


# values inside each field's declared domain; line breaks in the topic and the
# graph's cross-field rules (k even and < n, m < n, each kind's own parameters) still reject some
CONFIGS = section(
    {"n": st.integers(2, 12), "days": st.integers(1, 3), "engine": st.sampled_from(ENGINES),
     "nudge": section({"kind": st.sampled_from(NUDGE_KINDS)}, extremity_threshold=st.sampled_from((1, 2)),
                      passive_texts=st.lists(st.text(max_size=40), max_size=3))},
    seed=st.integers(0, 2**32),
    topic=st.text(max_size=40),
    exposure_mode=st.sampled_from(EXPOSURE_MODES),
    graph=section({"kind": st.sampled_from(GRAPH_KINDS)}, k=st.integers(2, 12), p_rewire=st.floats(0, 1),
                  m=st.integers(1, 12), p_edge=st.floats(0, 1)),
    bcm=section(epsilon=st.floats(0, 4), mu=st.floats(0, 0.5, exclude_min=True),
                similarity_threshold=st.floats(0, 4)),
    fj=section(alpha=st.floats(0, 1), similarity_threshold=st.floats(0, 4)),
    llm=section(similarity_threshold=st.floats(0, 4), cap=st.none() | st.integers(1, 10),
                retries=st.integers(0, 3), long_term_budget=st.integers(1, 700), temperature=st.floats(0, 2),
                max_length=st.integers(1, 300), max_in_flight=st.integers(1, 4)),
    backend=section(timeout=st.floats(0, 60, exclude_min=True), max_retries=st.integers(0, 5)),  # mock kind
)


@settings(max_examples=200, deadline=None)
@given(data=CONFIGS)
def test_every_accepted_config_runs_and_reads_back(data):
    try:
        cfg = config_from_dict(data)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        run(cfg, tmp)
        out = Path(tmp)
        assert config_hash(config_from_dict(load_config_file(out / "config.yaml"))) == config_hash(cfg)
        back = population_from_text((out / "population.txt").read_text(encoding="utf-8"))
    made = init_population(cfg.n, cfg.topic, cfg.engine == "llm", component_rng(cfg.seed, "population"))
    assert (back.personas, back.topic, back.grid) == (made.personas, made.topic, made.grid)
    assert np.array_equal(back.beliefs, made.beliefs)
