"""echosim: deterministic agent-based simulation of opinion dynamics,
echo chambers, and nudge-based mitigation on social graphs.

The public names are the ones imported below and, imported on first
access, those in ``_LAZY``: the run-directory layer (``runner``, ``layout``
and ``metrics``) and what it defines. So a caller that drives the engines
directly loads neither that layer nor PyYAML, which only reading or writing
a config file needs."""

__version__ = "0.6.0"

from .backends import BackendError, BackendSettings, MockBackend, RemoteChatBackend, mock_backend_rule
from .config import RunConfig, component_rng, config_from_dict, resolve_config
from .errors import ConfigError, OpinionParseError, ParameterError
from .graphs import (
    GraphSpec,
    NetworkGraph,
    clustering_coefficient,
    default_graph_spec,
    degree_sequence,
    from_edge_list_text,
    generate_graph,
    generate_random,
    generate_scale_free,
    generate_small_world,
    is_connected,
    to_edge_list_text,
)
from .interventions import NudgePolicy, active_nudge_content, passive_nudge_feed, select_targets
from .language import LlmParams, LlmRunResult, Transcript, compress_long_term, llm_day, run_llm
from .numeric import BcmParams, FjParams, bcm_day, fj_day, run_numeric
from .population import Population, init_population
from .prompts import OpinionOutput, build_reflection_prompt, heard_lines, parse_opinion_output
from .recommendation import ExposureRule, all_exposure_sets, exposure_set

# name -> the submodule that defines it; a submodule's own name maps to None
_LAZY = {
    "layout": None, "metrics": None, "runner": None,
    "force_layout": "layout",
    "MetricsSnapshot": "metrics", "deltas": "metrics", "global_disagreement": "metrics", "nci": "metrics",
    "polarization": "metrics", "snapshot": "metrics",
    "compare": "runner", "run": "runner", "sweep": "runner",
}
# so a star import still binds every public name, the lazy ones too
__all__ = sorted({name for name in globals() if not name.startswith("_")} | _LAZY.keys())


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_LAZY[name] or name}", __name__)
    value = module if _LAZY[name] is None else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
