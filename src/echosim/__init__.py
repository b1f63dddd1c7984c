"""echosim: deterministic agent-based simulation of opinion dynamics,
echo chambers, and nudge-based mitigation on social graphs.

The public names are the ones imported below."""

__version__ = "0.6.0"

from .backends import BackendError, BackendSettings, MockBackend, RemoteChatBackend, mock_backend_rule
from .config import RunConfig, config_from_dict, resolve_config
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
from .layout import force_layout
from .metrics import MetricsSnapshot, deltas, global_disagreement, nci, polarization, snapshot
from .numeric import BcmParams, FjParams, bcm_day, fj_day, run_numeric
from .population import Population, init_population
from .prompts import OpinionOutput, build_reflection_prompt, heard_lines, parse_opinion_output
from .recommendation import ExposureRule, all_exposure_sets, exposure_set
from .runner import compare, component_rng, run, sweep
