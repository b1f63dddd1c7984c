import re
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from echosim.config import (
    RunConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    config_to_yaml,
    default_config,
    load_config_file,
    resolve_config,
)
from echosim.errors import ConfigError


def test_defaults_are_valid():
    cfg = default_config()
    cfg.validate()
    assert cfg.n == 50 and cfg.days == 30
    assert cfg.graph.kind == "small_world" and cfg.graph.n == 50


def test_yaml_round_trip_is_lossless():
    cfg = config_from_dict({"n": 20, "engine": "fj", "graph": {"kind": "scale_free"},
                            "nudge": {"kind": "passive"}})
    restored = config_from_dict(yaml.safe_load(config_to_yaml(cfg)))
    assert restored == cfg
    assert config_hash(restored) == config_hash(cfg)


def test_hash_changes_iff_config_changes():
    base = default_config()
    assert config_hash(base) == config_hash(default_config())
    variants = [
        config_from_dict({"seed": 2}),
        config_from_dict({"days": 29}),
        config_from_dict({"engine": "llm"}),
        config_from_dict({"graph": {"kind": "random"}}),
        config_from_dict({"bcm": {"mu": 0.25}}),
        config_from_dict({"nudge": {"kind": "active"}}),
        config_from_dict({"backend": {"timeout": 10.0}}),
        config_from_dict({"topic": "Cats are better than dogs."}),
    ]
    hashes = {config_hash(v) for v in variants}
    assert config_hash(base) not in hashes
    assert len(hashes) == len(variants)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict({"walrus": 1})
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict({"bcm": {"sigma": 0.1}})
    # section fields that derive from the top level or the run state are not file keys
    for derived in ({"bcm": {"exposure_mode": "all_neighbors"}}, {"fj": {"anchors": [0.0]}},
                    {"llm": {"exposure_mode": "all_neighbors"}}, {"graph": {"n": 50}}):
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_dict(derived)
    with pytest.raises(ConfigError, match="does not apply"):
        config_from_dict({"graph": {"kind": "random", "p_rewire": 0.1}})


def test_graph_parameters_filled_from_defaults():
    cfg = config_from_dict({"n": 30, "graph": {"kind": "scale_free"}})
    assert cfg.graph.m == 2 and cfg.graph.n == 30
    cfg2 = config_from_dict({"graph": {"kind": "small_world", "k": 6}})
    assert cfg2.graph.k == 6 and cfg2.graph.p_rewire == 0.1


def test_invalid_values_raise_config_error():
    # each message names the key at fault
    for bad, message in (
        ({"n": 1}, "n must be >= 2"),
        ({"days": 0}, "days must be >= 1"),
        ({"seed": -3}, "seed must be >= 0"),
        ({"topic": ""}, "topic must be non-empty"),
        ({"engine": "quantum"}, "unknown engine"),
        ({"exposure_mode": "gossip"}, "unknown exposure mode"),
        ({"bcm": {"mu": 0.9}}, "mu must be in"),
        ({"fj": {"alpha": 2.0}}, "alpha must be in"),
        ({"llm": {"cap": 0}}, "cap must be >= 1"),
        ({"nudge": {"kind": "shove"}}, "unknown nudge kind"),
        ({"backend": {"kind": "carrier-pigeon"}}, "unknown backend kind"),
        ({"n": 10, "graph": {"kind": "small_world", "k": 10}}, "k must be < n"),
        ({"bcm": 3}, "bcm must be a mapping, got int"),
        ({"graph": 5}, "graph must be a mapping, got int"),
        ({"bcm": {"mu": "x"}}, "bcm.mu must be a number, got str"),
        ({"n": "fifty"}, "n must be an integer, got str"),
        ({"nudge": {"passive_texts": 3}}, "nudge.passive_texts must be a list, got int"),
        ({"days": 2.5}, "days must be an integer, got float"),
        ({"llm": {"cap": 2.5}}, "llm.cap must be an integer, got float"),
        ({"topic": 3}, "topic must be a string, got int"),
        ({"backend": {"timeout": "x"}}, "backend.timeout must be a number, got str"),
        ({"graph": {"kind": "torus"}}, "unknown graph kind 'torus'"),
        ({"engine": "llm", "llm": {"similarity_threshold": -1.0}}, "similarity threshold must be >= 0"),
        ({1: 2}, "unknown key(s) in config: 1"),  # YAML reads `1: 2` with an int key
        ({"bcm": {1: 2, "x": 3}}, "unknown key(s) in bcm: 1, x"),
    ):
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(bad)


def test_value_types_follow_the_annotations():
    for bad, message in (
        ({"bcm": {"epsilon": True}}, "bcm.epsilon must be a number, got bool"),
        ({"llm": {"retries": False}}, "llm.retries must be an integer, got bool"),
        ({"graph": {"kind": "random", "p_edge": "x"}}, "graph.p_edge must be a number, got str"),
        ({"graph": {"kind": 3}}, "graph.kind must be a string, got int"),
        ({"nudge": {"passive_texts": ["a", 2]}}, "nudge.passive_texts[1] must be a string, got int"),
    ):
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(bad)
    # Optional fields take null, and nothing is converted: an int in a float field stays an int
    cfg = config_from_dict({"llm": {"cap": None}, "bcm": {"epsilon": 2}, "backend": {"timeout": 10},
                            "nudge": {"passive_texts": ["Be kind."]}})
    assert cfg.llm.cap is None and cfg.nudge.passive_texts == ("Be kind.",)
    assert type(cfg.bcm.epsilon) is int and type(cfg.backend.timeout) is int
    assert "epsilon: 2\n" in config_to_yaml(cfg)


def test_precedence_overrides_beat_file_beats_defaults():
    file_data = {"n": 20, "days": 10, "engine": "fj"}
    cfg = resolve_config(file_data, {"days": 7})
    assert cfg.n == 20          # from file
    assert cfg.days == 7        # from override
    assert cfg.seed == 1        # default
    assert cfg.engine == "fj"


def test_boolean_seed_rejected():
    for flag in (True, False):
        with pytest.raises(ConfigError, match="seed"):
            resolve_config(overrides={"seed": flag})


def test_graph_kind_override_discards_stale_parameters():
    file_data = {"graph": {"kind": "small_world", "k": 6, "p_rewire": 0.2}}
    cfg = resolve_config(file_data, {"graph": {"kind": "random"}})
    assert cfg.graph.kind == "random"
    assert cfg.graph.p_edge == 0.08
    assert cfg.graph.k is None


def test_anchor_and_exposure_fields_stay_out_of_the_dict():
    d = config_to_dict(default_config())
    assert "anchors" not in d["fj"]
    assert "exposure_mode" not in d["bcm"]
    assert "exposure_mode" not in d["llm"]
    assert "api_key" not in d["backend"]  # only the env var *name* is stored


def test_every_engine_section_carries_the_top_level_exposure_mode():
    for mode in ("all_neighbors", "recommended"):
        cfg = config_from_dict({"exposure_mode": mode})
        assert (cfg.bcm.exposure_mode, cfg.fj.exposure_mode, cfg.llm.exposure_mode) == (mode, mode, mode)
    cfg = replace(default_config(), exposure_mode="all_neighbors")
    assert (cfg.bcm.exposure_mode, cfg.fj.exposure_mode, cfg.llm.exposure_mode) == ("all_neighbors",) * 3


def test_load_config_file(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("n: 12\nengine: llm\n", encoding="utf-8")
    assert load_config_file(path) == {"n": 12, "engine": "llm"}
    with pytest.raises(ConfigError, match="cannot read"):
        load_config_file(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("][ not yaml", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config_file(bad)
    seq = tmp_path / "seq.yaml"
    seq.write_text("- 1\n- 2\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="mapping"):
        load_config_file(seq)
    empty = tmp_path / "empty.yaml"
    empty.write_text("", encoding="utf-8")
    assert load_config_file(empty) == {}


def test_graph_population_size_mismatch_detected():
    cfg = replace(default_config(), n=10)  # graph still has n=50
    with pytest.raises(ConfigError, match="disagrees"):
        cfg.validate()
    assert isinstance(cfg, RunConfig)


def test_readme_full_config_matches_the_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"A full config file.*?```yaml\n(.*?)```", readme, re.DOTALL).group(1)
    documented = yaml.safe_load(block)
    config_from_dict(documented)
    expected = config_to_dict(default_config())
    assert documented.keys() == expected.keys()
    for key, value in expected.items():
        if isinstance(value, dict):
            assert documented[key].keys() == value.keys(), key
