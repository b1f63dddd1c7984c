import logging

import pytest

from echosim.cli import main


@pytest.fixture(autouse=True)
def restore_package_logging():
    """``main`` configures the ``echosim`` logger; put its level and handlers back."""
    logger = logging.getLogger("echosim")
    level, handlers = logger.level, list(logger.handlers)
    yield
    logger.setLevel(level)
    logger.handlers[:] = handlers


def write_config(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


BASE = "n: 10\ndays: 3\nseed: 1\n"


class TestRunCommand:
    def test_run_succeeds_and_writes_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "metrics.csv").exists()
        assert "run complete" in capsys.readouterr().out

    def test_flag_overrides_file(self, tmp_path):
        cfg = write_config(tmp_path, BASE + "engine: bcm\n")
        code = main(["run", "--config", cfg, "--engine", "llm", "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "transcript.jsonl").exists()

    def test_run_without_config_uses_defaults(self, tmp_path):
        code = main(["run", "--n", "10", "--days", "2", "--out", str(tmp_path / "out")])
        assert code == 0

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "engine: nonsense\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2

    def test_backend_error_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.delenv("ECHOSIM_NO_KEY", raising=False)
        cfg = write_config(
            tmp_path,
            BASE + "engine: llm\nbackend:\n  kind: remote\n  api_key_env: ECHOSIM_NO_KEY\n",
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3

    def test_io_error_exit_code(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file")
        cfg = write_config(tmp_path, BASE)
        assert main(["run", "--config", cfg, "--out", str(blocker / "sub")]) == 4


class TestValidateConfig:
    def test_valid_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE + "engine: fj\n")
        assert main(["validate-config", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "engine: fj" in out and "config is valid" in out

    def test_invalid_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "days: 0\n")
        assert main(["validate-config", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_section_that_is_not_a_mapping(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bcm: 3\n")
        assert main(["validate-config", "--config", cfg]) == 2
        assert "config error: bcm must be a mapping" in capsys.readouterr().err

    def test_float_where_an_integer_is_meant(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "n: 10\ndays: 2.5\n")
        assert main(["validate-config", "--config", cfg]) == 2
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.count("config error: days must be an integer, got float") == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "mystery: 1\n")
        assert main(["validate-config", "--config", cfg]) == 2

    def test_keys_that_are_not_strings(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bcm: {1: 2, x: 3}\n")
        assert main(["validate-config", "--config", cfg]) == 2
        assert "config error: unknown key(s) in bcm: 1, x" in capsys.readouterr().err


class TestCompareCommand:
    def test_compare_three_structures(self, tmp_path, capsys):
        paths = [
            write_config(tmp_path, BASE + f"graph:\n  kind: {kind}\n", name=f"{kind}.yaml")
            for kind in ("small_world", "scale_free", "random")
        ]
        args = ["compare", "--out", str(tmp_path / "cmp")]
        for p in paths:
            args += ["--config", p]
        assert main(args) == 0
        assert (tmp_path / "cmp" / "comparison.csv").exists()
        out = capsys.readouterr().out
        assert "bcm-small_world" in out and "delta_polarization" in out

    def test_seed_override_aligns_configs(self, tmp_path):
        a = write_config(tmp_path, BASE, name="a.yaml")
        b = write_config(tmp_path, "n: 10\ndays: 3\nseed: 9\nengine: fj\n", name="b.yaml")
        args = ["compare", "--config", a, "--config", b, "--out", str(tmp_path / "cmp"), "--seed", "4"]
        assert main(args) == 0

    def test_mismatched_configs_exit_2(self, tmp_path):
        a = write_config(tmp_path, BASE, name="a.yaml")
        b = write_config(tmp_path, "n: 12\ndays: 3\nseed: 1\n", name="b.yaml")
        assert main(["compare", "--config", a, "--config", b, "--out", str(tmp_path / "cmp")]) == 2


class TestSweepCommand:
    def test_sweep_with_seed_list(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE)
        assert main(["sweep", "--config", cfg, "--seeds", "1,2,3", "--out", str(tmp_path / "sw")]) == 0
        assert (tmp_path / "sw" / "aggregate.csv").exists()
        assert (tmp_path / "sw" / "seed_2" / "metrics.csv").exists()
        assert "delta_polarization" in capsys.readouterr().out

    def test_bad_seed_list_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        assert main(["sweep", "--config", cfg, "--seeds", "1,zwei", "--out", str(tmp_path / "sw")]) == 2

    def test_repeated_seed_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE)
        assert main(["sweep", "--config", cfg, "--seeds", "3,3", "--out", str(tmp_path / "sw")]) == 2
        assert "repeated: 3" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE)
        assert main(["sweep", "--config", cfg, "--seeds=-1,2", "--out", str(tmp_path / "sw")]) == 2
        assert "config error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()


class TestExportProjectionCommand:
    def test_reexport_matches(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE)
        main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        capsys.readouterr()  # drop the run command's output
        assert main(["export-projection", str(tmp_path / "out")]) == 0
        stdout = capsys.readouterr().out
        assert stdout == (tmp_path / "out" / "projection.csv").read_text()

    def test_export_to_file(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        target = tmp_path / "p.csv"
        assert main(["export-projection", str(tmp_path / "out"), "--out", str(target)]) == 0
        assert target.exists()


class TestLogLevel:
    def test_debug_enables_the_backend_logger_on_stderr(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE + "engine: llm\n")
        assert main(["--log-level", "DEBUG", "run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        backends = logging.getLogger("echosim.backends")
        assert backends.isEnabledFor(logging.DEBUG)
        backends.debug("probe record")
        assert "DEBUG echosim.backends: probe record" in capsys.readouterr().err
        # criterion 10: logs never go into the run directory
        assert {p.name for p in (tmp_path / "out").iterdir()} == {
            "metrics.csv", "trajectory.jsonl", "transcript.jsonl", "projection.csv",
            "population.txt", "graph.txt", "config.yaml", "manifest.txt"}

    def test_default_is_warning(self, tmp_path):
        assert main(["validate-config", "--config", write_config(tmp_path, BASE)]) == 0
        backends = logging.getLogger("echosim.backends")
        assert not backends.isEnabledFor(logging.INFO)
        assert backends.isEnabledFor(logging.WARNING)

    def test_repeated_calls_keep_one_handler(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        for level in ("INFO", "ERROR"):
            assert main(["--log-level", level, "validate-config", "--config", cfg]) == 0
        logger = logging.getLogger("echosim")
        assert logger.level == logging.ERROR
        assert [h.get_name() for h in logger.handlers].count("echosim-cli") == 1

    def test_unknown_level_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--log-level", "LOUD", "validate-config"])
        assert exc.value.code == 2
        assert "--log-level" in capsys.readouterr().err
