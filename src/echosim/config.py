"""Experiment configuration: defaults, YAML loading, validation, hashing.

A run is fully described by one RunConfig. Precedence when resolving is
CLI overrides > config file > package defaults. The resolved config is
serialized into every run directory; its hash changes iff any semantic
field changes. The output directory is not part of the config, so a
persisted config reproduces identical artifact bytes anywhere. API keys
are only ever read from the environment, never from config files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import yaml

from .errors import ConfigError, ParameterError
from .graphs import GraphSpec, default_graph_spec
from .interventions import NudgePolicy
from .language import LlmParams
from .numeric import BcmParams, FjParams
from .population import DEFAULT_TOPIC
from .recommendation import EXPOSURE_MODES

ENGINES = ("bcm", "fj", "llm")


@dataclass(frozen=True)
class BackendSettings:
    kind: str = "mock"
    base_url: str = "https://api.openai.com/v1"
    model: str = "gpt-4o-mini"
    api_key_env: str = "OPENAI_API_KEY"
    timeout: float = 30.0
    max_retries: int = 3

    def validate(self) -> None:
        if self.kind not in ("mock", "remote"):
            raise ConfigError(f"unknown backend kind {self.kind!r}")
        if self.kind == "remote" and (not self.base_url or not self.model):
            raise ConfigError("remote backend needs base_url and model")


@dataclass(frozen=True)
class RunConfig:
    n: int = 50
    days: int = 30
    seed: int = 1
    topic: str = DEFAULT_TOPIC
    engine: str = "bcm"
    exposure_mode: str = "recommended"
    graph: Optional[GraphSpec] = None
    bcm: BcmParams = BcmParams()
    fj: FjParams = FjParams()
    llm: LlmParams = LlmParams()
    nudge: NudgePolicy = NudgePolicy()
    backend: BackendSettings = BackendSettings()

    def __post_init__(self):
        if self.graph is None:
            object.__setattr__(self, "graph", default_graph_spec("small_world", self.n))

    def validate(self) -> None:
        try:
            if self.n < 2:
                raise ConfigError(f"n must be >= 2, got {self.n}")
            if self.days < 1:
                raise ConfigError(f"days must be >= 1, got {self.days}")
            # bool is a subclass of int, so `seed: true` must be ruled out explicitly
            if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
                raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
            if not self.topic:
                raise ConfigError("topic must be non-empty")
            if self.engine not in ENGINES:
                raise ConfigError(f"unknown engine {self.engine!r}")
            if self.exposure_mode not in EXPOSURE_MODES:
                raise ConfigError(f"unknown exposure mode {self.exposure_mode!r}")
            self.graph.validate()
            if self.graph.n != self.n:
                raise ConfigError(f"graph n={self.graph.n} disagrees with population n={self.n}")
            self.bcm.validate()
            self.fj.validate()
            self.llm.validate()
            self.nudge.validate()
            self.backend.validate()
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc


def default_config() -> RunConfig:
    return RunConfig()


# --- dict <-> config -------------------------------------------------------

_GRAPH_KEYS = {"kind", "k", "p_rewire", "m", "p_edge"}
_BCM_KEYS = {"epsilon", "mu", "similarity_threshold"}
_FJ_KEYS = {"alpha", "similarity_threshold"}
_LLM_KEYS = {"cap", "retries", "long_term_budget", "temperature", "max_length",
             "max_in_flight", "similarity_threshold"}
_NUDGE_KEYS = {"kind", "extremity_threshold", "passive_texts"}
_BACKEND_KEYS = {"kind", "base_url", "model", "api_key_env", "timeout", "max_retries"}
_TOP_KEYS = {"n", "days", "seed", "topic", "engine", "exposure_mode",
             "graph", "bcm", "fj", "llm", "nudge", "backend"}


def _check_keys(section: str, given: dict, allowed: set) -> None:
    unknown = set(given) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {', '.join(sorted(unknown))}")


def _graph_from_dict(d: dict, n: int) -> GraphSpec:
    _check_keys("graph", d, _GRAPH_KEYS)
    kind = d.get("kind", "small_world")
    base = default_graph_spec(kind, n)
    fields = {name: d[name] for name in ("k", "p_rewire", "m", "p_edge") if name in d}
    return replace(base, **fields)


def config_from_dict(data: dict) -> RunConfig:
    """Build and validate a RunConfig from a plain (YAML-shaped) dict."""
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    _check_keys("config", data, _TOP_KEYS)
    base = RunConfig()
    n = data.get("n", base.n)

    graph = _graph_from_dict(data.get("graph", {}), n) if "graph" in data else default_graph_spec("small_world", n)

    bcm_d = data.get("bcm", {})
    _check_keys("bcm", bcm_d, _BCM_KEYS)
    fj_d = data.get("fj", {})
    _check_keys("fj", fj_d, _FJ_KEYS)
    llm_d = data.get("llm", {})
    _check_keys("llm", llm_d, _LLM_KEYS)
    nudge_d = dict(data.get("nudge", {}))
    _check_keys("nudge", nudge_d, _NUDGE_KEYS)
    if "passive_texts" in nudge_d:
        nudge_d["passive_texts"] = tuple(nudge_d["passive_texts"])
    backend_d = data.get("backend", {})
    _check_keys("backend", backend_d, _BACKEND_KEYS)

    cfg = RunConfig(
        n=n,
        days=data.get("days", base.days),
        seed=data.get("seed", base.seed),
        topic=data.get("topic", base.topic),
        engine=data.get("engine", base.engine),
        exposure_mode=data.get("exposure_mode", base.exposure_mode),
        graph=graph,
        bcm=replace(base.bcm, **bcm_d),
        fj=replace(base.fj, **fj_d),
        llm=replace(base.llm, **llm_d),
        nudge=replace(base.nudge, **nudge_d),
        backend=replace(base.backend, **backend_d),
    )
    cfg.validate()
    return cfg


def config_to_dict(cfg: RunConfig) -> dict:
    """Canonical serializable form; engine-param fields that derive from the
    top-level exposure mode (or from run state, like anchors) are omitted."""
    graph: dict = {"kind": cfg.graph.kind}
    for name in ("k", "p_rewire", "m", "p_edge"):
        value = getattr(cfg.graph, name)
        if value is not None:
            graph[name] = value
    return {
        "n": cfg.n,
        "days": cfg.days,
        "seed": cfg.seed,
        "topic": cfg.topic,
        "engine": cfg.engine,
        "exposure_mode": cfg.exposure_mode,
        "graph": graph,
        "bcm": {
            "epsilon": cfg.bcm.epsilon,
            "mu": cfg.bcm.mu,
            "similarity_threshold": cfg.bcm.similarity_threshold,
        },
        "fj": {
            "alpha": cfg.fj.alpha,
            "similarity_threshold": cfg.fj.similarity_threshold,
        },
        "llm": {
            "cap": cfg.llm.cap,
            "retries": cfg.llm.retries,
            "long_term_budget": cfg.llm.long_term_budget,
            "temperature": cfg.llm.temperature,
            "max_length": cfg.llm.max_length,
            "max_in_flight": cfg.llm.max_in_flight,
            "similarity_threshold": cfg.llm.similarity_threshold,
        },
        "nudge": {
            "kind": cfg.nudge.kind,
            "extremity_threshold": cfg.nudge.extremity_threshold,
            "passive_texts": list(cfg.nudge.passive_texts),
        },
        "backend": {
            "kind": cfg.backend.kind,
            "base_url": cfg.backend.base_url,
            "model": cfg.backend.model,
            "api_key_env": cfg.backend.api_key_env,
            "timeout": cfg.backend.timeout,
            "max_retries": cfg.backend.max_retries,
        },
    }


def config_to_yaml(cfg: RunConfig) -> str:
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=True, default_flow_style=False)


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_config_file(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a mapping")
    return data


def _deep_merge(base: dict, override: dict) -> dict:
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            # switching graph kind discards the old kind's parameters
            if key == "graph" and value.get("kind") not in (None, merged[key].get("kind")):
                merged[key] = dict(value)
            else:
                merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def resolve_config(file_data: Optional[dict] = None, overrides: Optional[dict] = None) -> RunConfig:
    """defaults < config file < overrides, then validate."""
    data: dict = {}
    if file_data:
        data = _deep_merge(data, file_data)
    if overrides:
        data = _deep_merge(data, overrides)
    return config_from_dict(data)
