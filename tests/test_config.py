import copy
import hashlib
import math
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from echosim.config import (
    ENGINES,
    BackendSettings,
    RunConfig,
    component_rng,
    config_from_dict,
    config_hash,
    config_to_dict,
    config_to_yaml,
    load_config_file,
    resolve_config,
)
from echosim.errors import ConfigError, ParameterError
from echosim.graphs import GRAPH_KINDS, default_graph_spec
from echosim.interventions import NUDGE_KINDS, NudgePolicy
from echosim.language import LlmParams
from echosim.numeric import BcmParams, FjParams
from echosim.recommendation import EXPOSURE_MODES
from helpers import naive_deep_merge


def test_defaults_are_valid():
    cfg = RunConfig()
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
    base = RunConfig()
    assert config_hash(base) == config_hash(RunConfig())
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
        ({"engine": "quantum"}, "engine must be one of 'bcm', 'fj', 'llm', got 'quantum'"),
        ({"exposure_mode": "gossip"}, "exposure_mode must be one of 'all_neighbors', 'recommended', got 'gossip'"),
        ({"bcm": {"mu": 0.9}}, "mu must be in"),
        ({"fj": {"alpha": 2.0}}, "alpha must be in"),
        ({"llm": {"cap": 0}}, "cap must be >= 1"),
        ({"nudge": {"kind": "shove"}}, "nudge.kind must be one of 'none', 'active', 'passive', got 'shove'"),
        ({"backend": {"kind": "carrier-pigeon"}}, "backend.kind must be one of 'mock', 'remote', got 'carrier-pigeon'"),
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
        ({"graph": {"kind": "torus"}}, "graph.kind must be one of 'small_world', 'scale_free', 'random', got 'torus'"),
        ({"engine": "llm", "llm": {"similarity_threshold": -1.0}}, "llm.similarity_threshold must be >= 0, got -1.0"),
        # NaN passes every < test, so each of these once got through
        ({"bcm": {"epsilon": math.nan}}, "bcm.epsilon must be >= 0, got nan"),
        ({"bcm": {"epsilon": math.inf}}, "bcm.epsilon must be >= 0, got inf"),
        ({"bcm": {"similarity_threshold": math.nan}}, "bcm.similarity_threshold must be >= 0, got nan"),
        ({"llm": {"temperature": math.nan}}, "llm.temperature must be in [0, 2], got nan"),
        ({"llm": {"temperature": -3.0}}, "llm.temperature must be in [0, 2], got -3.0"),
        ({"llm": {"max_length": -5}}, "llm.max_length must be >= 1, got -5"),
        ({"backend": {"timeout": -1.0}}, "backend.timeout must be > 0, got -1.0"),
        ({"backend": {"timeout": math.nan}}, "backend.timeout must be > 0, got nan"),
        ({"backend": {"max_retries": -2}}, "backend.max_retries must be >= 0, got -2"),
        # population.txt is read back with str.splitlines, so the topic must be one line
        ({"topic": "a\nb"}, "topic must be non-empty and one line"),
        ({"topic": "a\rb"}, "topic must be non-empty and one line"),
        ({"topic": "a\x85b"}, "topic must be non-empty and one line"),
        ({"topic": "a\u2028b"}, "topic must be non-empty and one line"),
        ({"topic": "ends with a newline\n"}, "topic must be non-empty and one line"),
        ([1, 2], "config root must be a mapping, got list"),
        ({1: 2}, "unknown key(s) in config: 1"),  # YAML reads `1: 2` with an int key
        ({"bcm": {1: 2, "x": 3}}, "unknown key(s) in bcm: 1, x"),
    ):
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(bad)


def declared_domains():
    """(default instance, field) for every config field with a declared domain."""
    instances = [RunConfig(), BcmParams(), FjParams(), LlmParams(), NudgePolicy(), BackendSettings()]
    instances += [default_graph_spec(kind, 50) for kind in GRAPH_KINDS]  # each kind sets its own parameters
    for obj in instances:
        for f in fields(obj):
            if f.metadata:
                yield obj, f


def test_validate_rejects_every_value_outside_a_declared_domain():
    checked = set()
    for obj, f in declared_domains():
        bad = [math.nan, math.inf, -math.inf]
        if "range" in f.metadata:
            left, lo, hi, right = f.metadata["range"]
            bad.append(math.nextafter(lo, -math.inf) if left == "[" else lo)
            if hi != math.inf:
                bad.append(math.nextafter(hi, math.inf) if right == "]" else hi)
            # a float in an int field fails its type check, so the ints just outside test the range
            bad += [lo - 1] if left == "[" else []
            bad += [hi + 1] if right == "]" else []
        else:
            bad.append("unheard-of")
        # a RunConfig reports a ConfigError, its sections a ParameterError; each names the field
        error = ConfigError if isinstance(obj, RunConfig) else ParameterError
        for value in bad:
            with pytest.raises(error, match=f"^{f.name} must be "):
                replace(obj, **{f.name: value}).validate()
        checked.add((type(obj).__name__, f.name))
    assert len(checked) == 31  # every numeric and choice field of the seven config dataclasses


def test_validate_checks_the_annotated_types():
    for obj, error, message in (
        (RunConfig(days=2.5, n=10), ConfigError, "days must be an integer, got float"),
        (LlmParams(cap=2.5), ParameterError, "cap must be an integer, got float"),
        (NudgePolicy(extremity_threshold=True), ParameterError, "extremity_threshold must be an integer, got bool"),
        (NudgePolicy(kind="passive", passive_texts=("a", 3)), ParameterError,
         "passive_texts[1] must be a string, got int"),
        (BcmParams(mu="x"), ParameterError, "mu must be a number, got str"),
    ):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            obj.validate()


def test_max_in_flight_has_an_upper_bound():
    # the day's pool starts up to max_in_flight threads; validating starts none
    with pytest.raises(ConfigError, match=re.escape("llm.max_in_flight must be in [1, 64], got 100000")):
        config_from_dict({"llm": {"max_in_flight": 100000}})
    with pytest.raises(ParameterError, match=re.escape("max_in_flight must be in [1, 64], got 65")):
        LlmParams(max_in_flight=65).validate()
    assert config_from_dict({"llm": {"max_in_flight": 64}}).llm.max_in_flight == 64


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


# a few valid values per key, so that random file and override dicts often
# resolve and often switch the graph kind
_TOP_VALUES = {"n": st.sampled_from([10, 20]), "days": st.integers(1, 5), "seed": st.integers(0, 9),
               "engine": st.sampled_from(ENGINES), "exposure_mode": st.sampled_from(EXPOSURE_MODES)}
_SECTION_VALUES = {
    "graph": {"kind": st.sampled_from(GRAPH_KINDS), "k": st.sampled_from([2, 4]),
              "p_rewire": st.sampled_from([0.0, 0.3]), "m": st.sampled_from([1, 2]),
              "p_edge": st.sampled_from([0.1, 0.5])},
    "bcm": {"epsilon": st.sampled_from([0.5, 2.0]), "mu": st.sampled_from([0.1, 0.5])},
    "nudge": {"kind": st.sampled_from(NUDGE_KINDS), "extremity_threshold": st.sampled_from([1, 2])},
    "llm": {"cap": st.sampled_from([None, 3]), "retries": st.integers(0, 2)},
}
CONFIG_DICTS = st.fixed_dictionaries({}, optional={
    **_TOP_VALUES,
    **{name: st.fixed_dictionaries({}, optional=keys) for name, keys in _SECTION_VALUES.items()},
})


def _resolved_or_error(resolve):
    try:
        return resolve()
    except ConfigError as exc:
        return f"ConfigError: {exc}"


@settings(max_examples=300, deadline=None)
@given(CONFIG_DICTS, CONFIG_DICTS)
def test_resolve_config_matches_the_deep_merge_oracle(file_data, overrides):
    merged = naive_deep_merge(naive_deep_merge({}, file_data), overrides)
    expected = _resolved_or_error(lambda: config_from_dict(merged))
    before = copy.deepcopy((file_data, overrides))
    assert _resolved_or_error(lambda: resolve_config(file_data, overrides)) == expected
    assert (file_data, overrides) == before


def test_anchor_and_exposure_fields_stay_out_of_the_dict():
    d = config_to_dict(RunConfig())
    assert "anchors" not in d["fj"]
    assert "exposure_mode" not in d["bcm"]
    assert "exposure_mode" not in d["llm"]
    assert "api_key" not in d["backend"]  # only the env var *name* is stored


def test_every_engine_section_carries_the_top_level_exposure_mode():
    for mode in ("all_neighbors", "recommended"):
        cfg = config_from_dict({"exposure_mode": mode})
        assert (cfg.bcm.exposure_mode, cfg.fj.exposure_mode, cfg.llm.exposure_mode) == (mode, mode, mode)
    cfg = replace(RunConfig(), exposure_mode="all_neighbors")
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
    cfg = replace(RunConfig(), n=10)  # graph still has n=50
    with pytest.raises(ConfigError, match="disagrees"):
        cfg.validate()
    assert isinstance(cfg, RunConfig)


def test_readme_full_config_matches_the_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"A full config file.*?```yaml\n(.*?)```", readme, re.DOTALL).group(1)
    documented = yaml.safe_load(block)
    config_from_dict(documented)
    expected = config_to_dict(RunConfig())
    assert documented.keys() == expected.keys()
    for key, value in expected.items():
        if isinstance(value, dict):
            assert documented[key].keys() == value.keys(), key


# sha256 of config_to_yaml(cfg), then config_hash(cfg), both computed with the
# code as it was before the engines' parameters inherited one ExposureRule and
# BackendSettings moved to backends.py: a refactor of the config dataclasses
# must leave every persisted config.yaml and every config hash as they were
GOLDEN_CONFIGS = {
    "bcm-default": ({}, "dbe851c67137b61902e53df6955d632b3f5007aa20ed59dab539c0d237c34daa",
                    "ca4d16b5447af4ae1d06e352c4b8f9db1b1eb5f8d637182a3f5b1ea59ed57ec5"),
    "fj": ({"engine": "fj", "n": 30, "days": 12, "seed": 7, "exposure_mode": "all_neighbors",
            "graph": {"kind": "random", "p_edge": 0.2}, "fj": {"alpha": 0.45, "similarity_threshold": 1.5}},
           "08fcd91fde764d99e5260323026b9f69c8a2ad26eeaea0aaebf3b774392d0985",
           "d5255c2780a7e8215655690a31ad03a520100fabc2f9c2083bb779b367e1457c"),
    "llm-passive": ({"engine": "llm", "n": 20, "days": 5, "topic": "Cats are better than dogs.",
                     "llm": {"cap": 5, "similarity_threshold": 1.0, "max_in_flight": 2},
                     "nudge": {"kind": "passive", "extremity_threshold": 1, "passive_texts": ["Stay curious."]}},
                    "f95138764e69506e9d1752d85bd52f81768dba927aa1bb57d59fe0d92e2ed611",
                    "3838397204a47b652e956d3dd6349fbac41c5714d9d8d308f2d23de1bb79a646"),
    "llm-remote": ({"engine": "llm", "graph": {"kind": "scale_free"},
                    "backend": {"kind": "remote", "base_url": "https://api.example.test/v1", "model": "m",
                                "api_key_env": "ECHOSIM_TEST_KEY", "timeout": 5.0, "max_retries": 1}},
                   "5d43049b73de3afd3ccfd8625d131c27cfeffa14d103b527dac376067b70c25d",
                   "20da850b95ddc8659ee5bc8d5db2fa7e22cceeb9e42be18b44cf575d042f48b7"),
}


@pytest.mark.parametrize("name", GOLDEN_CONFIGS)
def test_persisted_config_bytes_and_hash_are_pinned(name):
    data, yaml_sha, expected_hash = GOLDEN_CONFIGS[name]
    cfg = config_from_dict(data)
    assert hashlib.sha256(config_to_yaml(cfg).encode("utf-8")).hexdigest() == yaml_sha
    assert config_hash(cfg) == expected_hash


# the stream each component draws from: runs, demos and direct engine callers
# all split a seed this way, so changing a number changes every artifact
STREAM_NUMBERS = {"graph": 0, "population": 1, "engine": 2, "layout": 3}


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("component", STREAM_NUMBERS)
def test_each_component_draws_from_its_pinned_stream(seed, component):
    expected = np.random.default_rng([seed, STREAM_NUMBERS[component]]).random(4)
    assert np.array_equal(component_rng(seed, component).random(4), expected)


def test_an_unknown_component_is_a_parameter_error_naming_the_four_streams():
    with pytest.raises(ParameterError,
                       match="component must be one of 'graph', 'population', 'engine', 'layout', got 'graphs'"):
        component_rng(1, "graphs")
