"""Command-line experiment runner.

Subcommands: run, compare, sweep, validate-config, export-projection.
Exit codes: 0 success, 2 config error (or, for export-projection, a run
directory it cannot use), 3 backend/transport error, 4 I/O error.
``--log-level`` sends the package's log records to stderr, never into a run
directory.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .backends import BACKEND_KINDS
from .config import ENGINES, config_to_yaml, load_config_file, resolve_config
from .errors import BackendError, ConfigError, ParameterError
from .graphs import GRAPH_KINDS
from .interventions import NUDGE_KINDS
from .recommendation import EXPOSURE_MODES
from .runner import compare, export_projection, run, sweep

DEFAULT_SWEEP_SEEDS = 10
LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")


def _configure_logging(level: str) -> None:
    """Send the ``echosim`` package's records at ``level`` and above to stderr, through one handler."""
    logger = logging.getLogger("echosim")
    logger.setLevel(level)
    for old in [h for h in logger.handlers if h.get_name() == "echosim-cli"]:
        logger.removeHandler(old)
    handler = logging.StreamHandler(sys.stderr)
    handler.set_name("echosim-cli")
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger.addHandler(handler)


def _overrides_from_args(args) -> dict:
    overrides: dict = {}
    for name in ("n", "days", "seed", "topic", "engine", "exposure_mode"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "graph_kind", None) is not None:
        overrides["graph"] = {"kind": args.graph_kind}
    if getattr(args, "nudge_kind", None) is not None:
        overrides["nudge"] = {"kind": args.nudge_kind}
    if getattr(args, "backend_kind", None) is not None:
        overrides["backend"] = {"kind": args.backend_kind}
    return overrides


def _resolve(args):
    file_data = load_config_file(args.config) if args.config else None
    return resolve_config(file_data, _overrides_from_args(args))


def _add_override_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="YAML config file (flags override file values)")
    p.add_argument("--n", type=int, help="number of agents")
    p.add_argument("--days", type=int, help="simulation horizon in days")
    p.add_argument("--seed", type=int, help="run seed")
    p.add_argument("--topic", help="discussion topic statement")
    p.add_argument("--engine", choices=ENGINES, help="dynamics engine")
    p.add_argument("--exposure-mode", dest="exposure_mode", choices=EXPOSURE_MODES)
    p.add_argument("--graph-kind", dest="graph_kind", choices=GRAPH_KINDS)
    p.add_argument("--nudge-kind", dest="nudge_kind", choices=NUDGE_KINDS)
    p.add_argument("--backend-kind", dest="backend_kind", choices=BACKEND_KINDS)


def cmd_run(args) -> int:
    cfg = _resolve(args)
    artifacts = run(cfg, Path(args.out))
    d_pol, d_dg, d_nci = artifacts.deltas
    nci_text = "undefined" if d_nci is None else f"{d_nci:+.4f}"
    print(f"run complete: {artifacts.run_dir}")
    print(f"delta polarization {d_pol:+.4f}  delta disagreement {d_dg:+.4f}  delta nci {nci_text}")
    return 0


def cmd_compare(args) -> int:
    shared = _overrides_from_args(args)
    configs = [resolve_config(load_config_file(path), shared) for path in args.config]
    result = compare(configs, Path(args.out))
    print(result.text_path.read_text(encoding="utf-8"), end="")
    print(f"comparison written to {result.csv_path}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _resolve(args)
    if args.seeds:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        except ValueError as exc:
            raise ConfigError(f"--seeds must be a comma-separated integer list: {exc}") from exc
    else:
        seeds = list(range(cfg.seed, cfg.seed + DEFAULT_SWEEP_SEEDS))
    result = sweep(cfg, seeds, Path(args.out))
    print(result.aggregate_csv.read_text(encoding="utf-8"), end="")
    if result.failures:
        print(f"{len(result.failures)} seed(s) failed; see failures.txt", file=sys.stderr)
    return 0


def cmd_validate_config(args) -> int:
    cfg = _resolve(args)
    print(config_to_yaml(cfg), end="")
    print("config is valid")
    return 0


def cmd_export_projection(args) -> int:
    try:
        text = export_projection(Path(args.run_dir), args.out)
    except (ConfigError, ParameterError) as exc:  # the run directory's own config or trajectory
        print(f"run directory error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        print(f"projection written to {args.out}")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echosim",
        description="Agent-based opinion dynamics and echo-chamber experiments on social graphs.",
    )
    parser.add_argument("--log-level", dest="log_level", choices=LOG_LEVELS, default="WARNING",
                        help="log records of this level and above go to stderr (default: WARNING)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment and persist its artifacts")
    _add_override_flags(p_run)
    p_run.add_argument("--out", required=True, help="output directory for run artifacts")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run several configs and tabulate metric deltas")
    p_cmp.add_argument("--config", action="append", required=True, help="config file (repeatable)")
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--seed", type=int, help="override the seed for every config")
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="repeat one config over many seeds and aggregate")
    _add_override_flags(p_sweep)
    p_sweep.add_argument("--seeds", help="comma-separated seed list (default: 10 seeds from the base seed)")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate-config", help="resolve and validate a config, print the result")
    _add_override_flags(p_val)
    p_val.set_defaults(func=cmd_validate_config)

    p_proj = sub.add_parser("export-projection", help="re-export a run's projection CSV")
    p_proj.add_argument("run_dir", help="directory of a completed run")
    p_proj.add_argument("--out", help="output file (default: stdout)")
    p_proj.set_defaults(func=cmd_export_projection)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.log_level)
    try:
        return args.func(args)
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
