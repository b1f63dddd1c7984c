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
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

import yaml

from .errors import ConfigError, ParameterError
from .graphs import GraphSpec, default_graph_spec
from .interventions import NudgePolicy
from .language import LlmParams
from .numeric import BcmParams, FjParams
from .population import DEFAULT_TOPIC

ENGINES = ("bcm", "fj", "llm")
BACKEND_KINDS = ("mock", "remote")


@dataclass(frozen=True)
class BackendSettings:
    kind: str = "mock"
    base_url: str = "https://api.openai.com/v1"
    model: str = "gpt-4o-mini"
    api_key_env: str = "OPENAI_API_KEY"
    timeout: float = 30.0
    max_retries: int = 3

    def validate(self) -> None:
        if self.kind not in BACKEND_KINDS:
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
        # every engine section follows the top-level exposure mode
        for name in ENGINES:
            object.__setattr__(self, name, replace(getattr(self, name), exposure_mode=self.exposure_mode))

    def validate(self) -> None:
        try:
            if self.n < 2:
                raise ConfigError(f"n must be >= 2, got {self.n}")
            if self.days < 1:
                raise ConfigError(f"days must be >= 1, got {self.days}")
            if self.seed < 0:
                raise ConfigError(f"seed must be >= 0, got {self.seed}")
            if not self.topic:
                raise ConfigError("topic must be non-empty")
            if self.engine not in ENGINES:
                raise ConfigError(f"unknown engine {self.engine!r}")
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

_SECTIONS = {"graph": GraphSpec, "bcm": BcmParams, "fj": FjParams, "llm": LlmParams,
             "nudge": NudgePolicy, "backend": BackendSettings}
# section fields a file never sets: the graph's n is the population's, and the
# engines' exposure_mode is the top-level one, which __post_init__ writes in
_DERIVED = {"n", "exposure_mode"}


def _file_keys(cls) -> list:
    return [f.name for f in fields(cls) if f.name not in _DERIVED]


def _check_keys(section: str, given, allowed) -> None:
    if not isinstance(given, dict):
        raise ConfigError(f"{section} must be a mapping, got {type(given).__name__}")
    unknown = sorted(str(key) for key in set(given) - set(allowed))  # YAML keys may be ints
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {', '.join(unknown)}")


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _check_value(key: str, value, hint) -> None:
    """Raise a ConfigError naming ``key`` unless ``value`` has the annotated
    type ``hint``. Nothing is converted, so ``2`` stays ``2`` in a float field."""
    if get_origin(hint) is Union:  # Optional[X]
        if value is None:
            return
        (hint,) = [arg for arg in get_args(hint) if arg is not type(None)]
    if get_origin(hint) is tuple:  # tuple[X, ...], a list in YAML
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {type(value).__name__}")
        for i, item in enumerate(value):
            _check_value(f"{key}[{i}]", item, get_args(hint)[0])
        return
    # bool is a subclass of int, so true/false must be ruled out of the numbers by hand
    if isinstance(value, bool) or not isinstance(value, (int, float) if hint is float else hint):
        raise ConfigError(f"{key} must be {_TYPE_NAMES[hint]}, got {type(value).__name__}")


def _check_types(prefix: str, given: dict, cls) -> None:
    hints = get_type_hints(cls)
    for key, value in given.items():
        _check_value(prefix + key, value, hints[key])


def config_from_dict(data: dict) -> RunConfig:
    """Build and validate a RunConfig from a plain (YAML-shaped) dict."""
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    _check_keys("config", data, [f.name for f in fields(RunConfig)])
    top = {key: value for key, value in data.items() if key not in _SECTIONS}
    _check_types("", top, RunConfig)
    base = RunConfig()
    sections = {}
    for name, cls in _SECTIONS.items():
        given = data.get(name, {})
        _check_keys(name, given, _file_keys(cls))
        _check_types(f"{name}.", given, cls)
        try:
            default = (default_graph_spec(given.get("kind", "small_world"), data.get("n", base.n))
                       if cls is GraphSpec else getattr(base, name))
        except ParameterError as exc:  # an unknown graph kind
            raise ConfigError(str(exc)) from exc
        # YAML has no tuples: a list is read into its tuple field as a tuple
        sections[name] = replace(default, **{
            key: tuple(value) if isinstance(value, list) else value for key, value in given.items()
        })
    cfg = RunConfig(**top, **sections)
    cfg.validate()
    return cfg


def config_to_dict(cfg: RunConfig) -> dict:
    """Canonical serializable form: the keys a file may set, with tuples as
    lists; graph parameters of the other kinds (None) are omitted."""
    data = {f.name: getattr(cfg, f.name) for f in fields(RunConfig)}
    for name, cls in _SECTIONS.items():
        section, data[name] = data[name], {}
        for key in _file_keys(cls):
            value = getattr(section, key)
            if value is None and cls is GraphSpec:
                continue
            data[name][key] = list(value) if isinstance(value, tuple) else value
    return data


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
