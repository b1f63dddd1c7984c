"""Experiment configuration: defaults, YAML loading, validation, hashing.

A run is fully described by one RunConfig; ``RunConfig()`` holds the package
defaults. Precedence when resolving is CLI overrides > config file > package
defaults, merged one section key at a time. The resolved config is
serialized into every run directory; its hash changes iff any semantic
field changes. The output directory is not part of the config, so a
persisted config reproduces identical artifact bytes anywhere. API keys
are only ever read from the environment, never from config files.

Each config section is declared beside the code that reads it: the graph
spec in ``graphs``, the engines' parameters in ``numeric`` and
``language`` (their shared exposure rule in ``recommendation``), the nudge
policy in ``interventions`` and ``BackendSettings`` in ``backends``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .backends import BackendSettings
from .errors import INF, ConfigError, ParameterError, check_fields
from .graphs import GraphSpec, default_graph_spec
from .interventions import NudgePolicy
from .language import LlmParams
from .numeric import NUMERIC_ENGINES, BcmParams, FjParams
from .population import DEFAULT_TOPIC, check_topic
from .recommendation import EXPOSURE_MODES

ENGINES = NUMERIC_ENGINES + ("llm",)

# fixed per-component rng streams so e.g. populations match across structures
_STREAMS = {"graph": 0, "population": 1, "engine": 2, "layout": 3}


def component_rng(seed: int, component: str) -> np.random.Generator:
    """The rng stream of ``component`` under ``seed``: ``run()`` draws from it, and
    a caller that drives the engines directly draws the same graph and population."""
    if component not in _STREAMS:
        raise ParameterError(f"component must be one of {', '.join(map(repr, _STREAMS))}, got {component!r}")
    return np.random.default_rng([seed, _STREAMS[component]])


@dataclass(frozen=True)
class RunConfig:
    n: int = field(default=50, metadata={"range": ("[", 2, INF, ")")})
    days: int = field(default=30, metadata={"range": ("[", 1, INF, ")")})
    seed: int = field(default=1, metadata={"range": ("[", 0, INF, ")")})
    topic: str = DEFAULT_TOPIC
    engine: str = field(default="bcm", metadata={"choices": ENGINES})
    exposure_mode: str = field(default="recommended", metadata={"choices": EXPOSURE_MODES})
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
        """Raise a ConfigError naming the key at fault. A section's messages
        start with its field name, so the section's name goes in front."""
        try:
            check_fields(self)
            check_topic(self.topic)
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc
        if self.graph.n != self.n:
            raise ConfigError(f"graph n={self.graph.n} disagrees with population n={self.n}")
        for name in _SECTIONS:
            try:
                getattr(self, name).validate()
            except ParameterError as exc:
                raise ConfigError(f"{name}.{exc}") from exc


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


def config_from_dict(data: dict) -> RunConfig:
    """Build and validate a RunConfig from a plain (YAML-shaped) dict."""
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    _check_keys("config", data, [f.name for f in fields(RunConfig)])
    top = {key: value for key, value in data.items() if key not in _SECTIONS}
    base = RunConfig()
    sections = {}
    for name, cls in _SECTIONS.items():
        given = data.get(name, {})
        _check_keys(name, given, _file_keys(cls))
        default = (default_graph_spec(given.get("kind", "small_world"), data.get("n", base.n))
                   if cls is GraphSpec else getattr(base, name))
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
    import yaml  # here, not at the top: only config files need it, and it takes over 10 ms to import

    return yaml.safe_dump(config_to_dict(cfg), sort_keys=True, default_flow_style=False)


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_config_file(path) -> dict:
    import yaml

    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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


def resolve_config(file_data: Optional[dict] = None, overrides: Optional[dict] = None) -> RunConfig:
    """defaults < config file < overrides, then validate. An override section is
    merged into the file's section key by key, except that a new graph kind
    drops the old kind's parameters."""
    data = dict(file_data or {})
    for key, value in (overrides or {}).items():
        old = data.get(key)
        if (isinstance(value, dict) and isinstance(old, dict)
                and not (key == "graph" and value.get("kind") not in (None, old.get("kind")))):
            value = {**old, **value}
        data[key] = value
    return config_from_dict(data)
