from dataclasses import replace

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
    with pytest.raises(ConfigError, match="does not apply"):
        config_from_dict({"graph": {"kind": "random", "p_rewire": 0.1}})


def test_graph_parameters_filled_from_defaults():
    cfg = config_from_dict({"n": 30, "graph": {"kind": "scale_free"}})
    assert cfg.graph.m == 2 and cfg.graph.n == 30
    cfg2 = config_from_dict({"graph": {"kind": "small_world", "k": 6}})
    assert cfg2.graph.k == 6 and cfg2.graph.p_rewire == 0.1


def test_invalid_values_raise_config_error():
    for bad in (
        {"n": 1},
        {"days": 0},
        {"seed": -3},
        {"topic": ""},
        {"engine": "quantum"},
        {"exposure_mode": "gossip"},
        {"bcm": {"mu": 0.9}},
        {"fj": {"alpha": 2.0}},
        {"llm": {"cap": 0}},
        {"nudge": {"kind": "shove"}},
        {"backend": {"kind": "carrier-pigeon"}},
        {"n": 10, "graph": {"kind": "small_world", "k": 10}},
    ):
        with pytest.raises(ConfigError):
            config_from_dict(bad)


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
    assert "use_recommendation" not in d["bcm"]
    assert "exposure_mode" not in d["llm"]
    assert "api_key" not in d["backend"]  # only the env var *name* is stored


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
