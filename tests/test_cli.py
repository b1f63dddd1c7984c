import logging

import pytest
import yaml

import echosim.runner as runner_mod
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
# an llm config whose API key variable is unset in every test that uses it
REMOTE_LLM = "engine: llm\nbackend:\n  kind: remote\n  api_key_env: ECHOSIM_NO_KEY\n"


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
            BASE + REMOTE_LLM,
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("key", ["sk-secret\r", "sk-secret\n", "\u201csk-secret\u201d"],
                             ids=["cr", "lf", "curly-quotes"])
    def test_a_key_a_header_cannot_carry_exits_3_without_showing_it(self, tmp_path, monkeypatch, capsys, key):
        monkeypatch.setenv("ECHOSIM_BAD_KEY", key)
        cfg = write_config(tmp_path, BASE + "engine: llm\nbackend:\n  kind: remote\n"
                                            "  base_url: http://127.0.0.1:9/v1\n  api_key_env: ECHOSIM_BAD_KEY\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "backend error: environment variable ECHOSIM_BAD_KEY" in err
        assert "sk-secret" not in err
        assert not (tmp_path / "out").exists()

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

    def test_kind_flags_override_the_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE + "graph:\n  kind: scale_free\n")
        assert main(["validate-config", "--config", cfg, "--graph-kind", "random", "--nudge-kind", "passive",
                     "--backend-kind", "remote"]) == 0
        resolved = yaml.safe_load(capsys.readouterr().out.removesuffix("config is valid\n"))
        kinds = {section: resolved[section]["kind"] for section in ("graph", "nudge", "backend")}
        assert kinds == {"graph": "random", "nudge": "passive", "backend": "remote"}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "mystery: 1\n")
        assert main(["validate-config", "--config", cfg]) == 2

    def test_keys_that_are_not_strings(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bcm: {1: 2, x: 3}\n")
        assert main(["validate-config", "--config", cfg]) == 2
        assert "config error: unknown key(s) in bcm: 1, x" in capsys.readouterr().err


    @pytest.mark.parametrize("text,message", [
        ("bcm: {epsilon: .nan}", "bcm.epsilon must be >= 0, got nan"),
        ("bcm: {epsilon: .inf}", "bcm.epsilon must be >= 0, got inf"),
        ("bcm: {similarity_threshold: .nan}", "bcm.similarity_threshold must be >= 0, got nan"),
        ("llm: {temperature: .nan}", "llm.temperature must be in [0, 2], got nan"),
        ("llm: {temperature: -3.0}", "llm.temperature must be in [0, 2], got -3.0"),
        ("llm: {max_length: -5}", "llm.max_length must be >= 1, got -5"),
        ("backend: {timeout: -1.0}", "backend.timeout must be > 0, got -1.0"),
        ("backend: {max_retries: -2}", "backend.max_retries must be >= 0, got -2"),
        ('topic: "Cats\\u2028rule."', "topic must be non-empty and one line, got 'Cats\\u2028rule.'"),
    ])
    def test_values_outside_their_domain_exit_2(self, tmp_path, capsys, text, message):
        cfg = write_config(tmp_path, text + "\n")
        assert main(["validate-config", "--config", cfg]) == 2
        assert f"config error: {message}\n" in capsys.readouterr().err

    def test_max_in_flight_is_bounded(self, tmp_path, capsys):
        # a remote backend would start one pool thread per call up to this bound
        cfg = write_config(tmp_path, "llm: {max_in_flight: 100000}\n")
        assert main(["validate-config", "--config", cfg]) == 2
        assert "config error: llm.max_in_flight must be in [1, 64], got 100000\n" in capsys.readouterr().err
        assert main(["validate-config", "--config", write_config(tmp_path, "llm: {max_in_flight: 64}\n")]) == 0

    def test_a_remote_base_url_without_a_scheme_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ECHOSIM_SOME_KEY", "k")  # so the URL is all that is wrong
        cfg = write_config(tmp_path, BASE + "engine: llm\nbackend:\n  kind: remote\n"
                                            "  base_url: api.example.test/v1\n  api_key_env: ECHOSIM_SOME_KEY\n")
        out = str(tmp_path / "out")
        for argv in (["validate-config"], ["run", "--out", out], ["sweep", "--seeds", "1,2", "--out", out],
                     ["compare", "--out", out]):
            assert main(argv + ["--config", cfg]) == 2
            message = "config error: backend.base_url must be an absolute http or https URL with a host, got "
            assert f"{message}'api.example.test/v1'\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestFilesThatAreNotUtf8:
    @pytest.mark.parametrize("command", [["validate-config"], ["run", "--out"], ["sweep", "--out"],
                                         ["compare", "--out"]], ids=lambda c: c[0])
    def test_a_config_file_exits_2(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.yaml"
        bad.write_bytes(b"n: 10\n\xff\n")
        out = [str(tmp_path / "out")] if command[1:] else []
        assert main([*command, *out, "--config", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot read config file {bad}: 'utf-8' codec")
        assert not (tmp_path / "out").exists()


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

    def test_backend_error_exit_3_before_any_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("ECHOSIM_NO_KEY", raising=False)
        a = write_config(tmp_path, BASE, name="a.yaml")
        b = write_config(tmp_path, BASE + REMOTE_LLM, name="b.yaml")
        assert main(["compare", "--config", a, "--config", b, "--out", str(tmp_path / "cmp")]) == 3
        assert "ECHOSIM_NO_KEY" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()


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

    def test_backend_error_exit_3_before_any_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("ECHOSIM_NO_KEY", raising=False)
        cfg = write_config(tmp_path, BASE + REMOTE_LLM)
        assert main(["sweep", "--config", cfg, "--seeds", "1,2,3", "--out", str(tmp_path / "sw")]) == 3
        assert "ECHOSIM_NO_KEY" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_default_seeds_and_the_failure_line(self, tmp_path, monkeypatch, capsys):
        real_run = runner_mod.run

        def sabotage(config, out_dir):
            if config.seed == 5:
                raise RuntimeError("seed 5 exploded")
            return real_run(config, out_dir)

        monkeypatch.setattr(runner_mod, "run", sabotage)
        cfg = write_config(tmp_path, BASE)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw")]) == 0  # 10 seeds from seed 1
        assert sorted(p.name for p in (tmp_path / "sw").iterdir() if p.is_dir()) == sorted(
            f"seed_{s}" for s in range(1, 11) if s != 5)
        assert capsys.readouterr().err == "1 seed(s) failed; see failures.txt\n"
        assert (tmp_path / "sw" / "failures.txt").read_text() == "seed 5: RuntimeError: seed 5 exploded\n"


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

    def test_truncated_trajectory_is_a_run_directory_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE)
        main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        capsys.readouterr()
        path = tmp_path / "out" / "trajectory.jsonl"
        path.write_text("".join(path.read_text(encoding="utf-8").splitlines(keepends=True)[:-1]), encoding="utf-8")
        assert main(["export-projection", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == (f"run directory error: {path}: its last 10 lines are not "
                       "one record per agent 0..9 of day 3\n")

    def test_a_run_of_another_code_version_is_a_run_directory_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE)
        main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        capsys.readouterr()
        manifest = tmp_path / "out" / "manifest.txt"
        manifest.write_text(manifest.read_text(encoding="utf-8").replace("code_version: ", "code_version: 0."),
                            encoding="utf-8")
        assert main(["export-projection", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"run directory error: {manifest}: code_version '0.")

    def test_a_run_of_another_numpy_version_is_a_run_directory_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE)
        main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        capsys.readouterr()
        manifest = tmp_path / "out" / "manifest.txt"
        manifest.write_text(manifest.read_text(encoding="utf-8").replace("numpy_version: ", "numpy_version: 0."),
                            encoding="utf-8")
        assert main(["export-projection", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"run directory error: {manifest}: numpy_version '0.")

    @pytest.mark.parametrize("name", ["manifest.txt", "config.yaml", "trajectory.jsonl"])
    def test_a_file_that_is_not_utf8_is_a_run_directory_error(self, tmp_path, capsys, name):
        cfg = write_config(tmp_path, BASE)
        main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        capsys.readouterr()
        path = tmp_path / "out" / name
        path.write_bytes(path.read_bytes() + b"\xff")
        assert main(["export-projection", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("run directory error: ") and f"{path}: " in err and "'utf-8' codec" in err

    @pytest.mark.parametrize("replace", [lambda path: path.unlink(), lambda path: (path.unlink(), path.mkdir())],
                             ids=["missing", "a directory"])
    def test_a_trajectory_it_cannot_open_is_a_run_directory_error(self, tmp_path, capsys, replace):
        cfg = write_config(tmp_path, BASE)
        main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        capsys.readouterr()
        path = tmp_path / "out" / "trajectory.jsonl"
        replace(path)
        assert main(["export-projection", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"run directory error: {path}: cannot read it: ")


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
