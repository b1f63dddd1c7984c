"""Experiment orchestration: single runs, comparisons, and seed sweeps.

Every run writes a self-contained directory: per-day metrics CSV, a
line-delimited trajectory record, the transcript (language engine only), a
projection export (final beliefs plus layout coordinates), the resolved
config, a population record, and a manifest with the config hash and the
code, Python and numpy versions. Mock and numeric runs are bit-reproducible
from the persisted config; remote-backend runs are excluded from that
guarantee and marked in the manifest.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .backends import MockBackend, RemoteChatBackend, TextBackend
from .config import RunConfig, config_from_dict, config_hash, config_to_yaml, load_config_file
from .errors import ParameterError
from .graphs import NetworkGraph, generate_graph, is_connected, to_edge_list_text
from .language import run_llm
from .layout import force_layout
from .metrics import METRICS_CSV_HEADER, deltas, snapshot
from .numeric import run_numeric
from .population import Population, init_population, population_to_text

# fixed per-component rng streams so e.g. populations match across structures
_STREAMS = {"graph": 0, "population": 1, "engine": 2, "layout": 3}

DELTA_ROWS = ("delta_polarization", "delta_global_disagreement", "delta_nci")


def component_rng(seed: int, component: str) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAMS[component]])


@dataclass
class RunArtifacts:
    run_dir: Path
    snapshots: list
    deltas: tuple


def _build_backend(config: RunConfig) -> TextBackend:
    if config.backend.kind == "mock":
        return MockBackend()
    backend = RemoteChatBackend(
        base_url=config.backend.base_url,
        model=config.backend.model,
        api_key_env=config.backend.api_key_env,
        timeout=config.backend.timeout,
        max_retries=config.backend.max_retries,
    )
    backend._api_key()  # fail fast on missing credentials, before any work
    return backend


def _simulate(config: RunConfig, g: NetworkGraph, population: Population, backend: Optional[TextBackend]):
    """(belief trajectory, opinion texts per day or None, transcript or None)."""
    params = getattr(config, config.engine)
    if config.engine != "llm":
        return run_numeric(config.engine, g, population.beliefs, params, config.days), None, None
    if config.backend.kind == "mock":
        # the mock is CPU-bound under the GIL, so a pool only adds overhead
        params = replace(params, max_in_flight=1)
    result = run_llm(
        g, population, backend, params, config.nudge,
        days=config.days, rng=component_rng(config.seed, "engine"),
    )
    return result.belief_trajectory.astype(float), result.opinion_trajectory, result.transcript


def _write_files(out: Path, files: dict) -> None:
    """Write each ``name: text`` under ``out`` as UTF-8 with ``\\n`` newlines;
    a name whose text is None is removed, so no file of an earlier run survives."""
    for name, text in files.items():
        if text is None:
            (out / name).unlink(missing_ok=True)
        else:
            (out / name).write_text(text, encoding="utf-8", newline="\n")


def run(config: RunConfig, out_dir) -> RunArtifacts:
    """Execute one experiment and persist all artifacts under ``out_dir``."""
    config.validate()
    backend = _build_backend(config) if config.engine == "llm" else None  # before any work

    run_dir = Path(out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)

    grid = config.engine == "llm"
    population = init_population(config.n, config.topic, grid, component_rng(config.seed, "population"))
    g = generate_graph(config.graph, component_rng(config.seed, "graph"))

    trajectory, texts, transcript = _simulate(config, g, population, backend)
    snapshots = [snapshot(day, g, trajectory[day]) for day in range(config.days + 1)]
    run_deltas = deltas(snapshots)
    positions = force_layout(g, component_rng(config.seed, "layout"))

    reproducible = not (config.engine == "llm" and config.backend.kind == "remote")
    _write_files(run_dir, {
        "metrics.csv": "\n".join([METRICS_CSV_HEADER] + [s.csv_row() for s in snapshots]) + "\n",
        "trajectory.jsonl": trajectory_text(trajectory, texts),
        # a numeric run removes the transcript an earlier llm run left here
        "transcript.jsonl": None if transcript is None else transcript.to_jsonl(),
        "projection.csv": projection_text(trajectory[-1], positions),
        "population.txt": population_to_text(population),
        "graph.txt": to_edge_list_text(g),
        "config.yaml": config_to_yaml(config),
        "manifest.txt": "\n".join([
            f"config_hash: {config_hash(config)}",
            f"code_version: {__version__}",
            f"python_version: {platform.python_version()}",
            f"numpy_version: {np.__version__}",
            f"engine: {config.engine}",
            f"backend: {config.backend.kind if config.engine == 'llm' else 'none'}",
            f"graph_kind: {config.graph.kind}",
            f"graph_connected: {str(is_connected(g)).lower()}",
            f"reproducible: {str(reproducible).lower()}",
        ]) + "\n",
    })
    return RunArtifacts(run_dir=run_dir, snapshots=snapshots, deltas=run_deltas)


def trajectory_text(trajectory, texts=None) -> str:
    """One JSON record per (day, agent), keys sorted, each written with one
    f-string exactly as ``json.dumps(record, sort_keys=True)`` would. Numeric
    beliefs are finite floats, whose ``repr`` is what ``json.dumps`` writes;
    grid rows write the belief as an int and also carry ``texts[day][agent]``
    as ``"opinion"``, escaped by ``json.encoder.encode_basestring_ascii``."""
    rows = np.asarray(trajectory)
    if texts is None:
        lines = [f'{{"agent": {a}, "belief": {b!r}, "day": {d}}}'
                 for d, row in enumerate(rows) for a, b in enumerate(row.tolist())]
    else:
        enc = encode_basestring_ascii
        lines = [f'{{"agent": {a}, "belief": {int(b)}, "day": {d}, "opinion": {enc(texts[d][a])}}}'
                 for d, row in enumerate(rows) for a, b in enumerate(row.tolist())]
    return "\n".join(lines) + "\n"


def projection_text(final_beliefs, positions) -> str:
    lines = ["agent,x,y,final_belief"]
    for i, (xy, belief) in enumerate(zip(positions, final_beliefs)):
        lines.append(f"{i},{float(xy[0])!r},{float(xy[1])!r},{float(belief)!r}")
    return "\n".join(lines) + "\n"


# --- comparison tables ------------------------------------------------------


@dataclass
class ComparisonResult:
    labels: list
    table: dict  # row name -> list of values aligned with labels (None allowed)
    csv_path: Path
    text_path: Path


def _fmt(value) -> str:
    return "" if value is None else f"{value:+.4f}"


def compare(configs: Sequence[RunConfig], out_dir) -> ComparisonResult:
    """Run each config and emit a metric-delta grid (rows = deltas,
    columns = engine x structure). All configs must share n, topic, and seed
    so the initialized agents stay consistent across columns."""
    if not configs:
        raise ParameterError("compare needs at least one config")
    head = configs[0]
    for cfg in configs[1:]:
        if (cfg.n, cfg.topic, cfg.seed) != (head.n, head.topic, head.seed):
            raise ParameterError("compare configs must share n, topic, and seed")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    labels = []
    columns = []
    for cfg in configs:
        label = f"{cfg.engine}-{cfg.graph.kind}"
        if label in labels:
            label = f"{label}-{len(labels)}"
        labels.append(label)
        artifacts = run(cfg, out / label)
        columns.append(artifacts.deltas)

    table = {name: [col[k] for col in columns] for k, name in enumerate(DELTA_ROWS)}

    width = max(len(name) for name in DELTA_ROWS)
    col_width = max(12, max(len(lb) for lb in labels) + 2)
    csv_lines = ["metric," + ",".join(labels)]
    text_lines = [" " * width + "".join(lb.rjust(col_width) for lb in labels)]
    for name in DELTA_ROWS:
        csv_lines.append(name + "," + ",".join("" if v is None else repr(v) for v in table[name]))
        text_lines.append(name.ljust(width) + "".join(_fmt(v).rjust(col_width) for v in table[name]))
    _write_files(out, {"comparison.csv": "\n".join(csv_lines) + "\n",
                       "comparison.txt": "\n".join(text_lines) + "\n"})
    return ComparisonResult(labels=labels, table=table, csv_path=out / "comparison.csv",
                            text_path=out / "comparison.txt")


# --- seed sweeps -------------------------------------------------------------


@dataclass
class SweepResult:
    seeds: list
    per_seed_deltas: dict  # seed -> deltas tuple, successful runs only
    failures: dict  # seed -> error message
    aggregate_csv: Path


def sweep(config: RunConfig, seeds: Sequence[int], out_dir) -> SweepResult:
    """Run the config once per seed, aggregate metric deltas (mean, stddev).

    A failing seed is recorded and skipped; remaining seeds still run.
    """
    if len(seeds) < 2:
        raise ParameterError(f"sweep needs at least 2 seeds, got {len(seeds)}")
    seeds = [int(s) for s in seeds]
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise ParameterError(f"sweep seeds must be distinct; repeated: {', '.join(map(str, repeated))}")
    for s in seeds:  # a bad seed is a config error, not a failure of its run
        replace(config, seed=s).validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    per_seed: dict = {}
    failures: dict = {}
    for s in seeds:
        try:
            artifacts = run(replace(config, seed=s), out / f"seed_{s}")
        except Exception as exc:  # keep sweeping; report at the end
            failures[s] = f"{type(exc).__name__}: {exc}"
            continue
        per_seed[s] = artifacts.deltas

    csv_lines = ["metric,mean,stddev,count"]
    for k, name in enumerate(DELTA_ROWS):
        values = [d[k] for d in per_seed.values() if d[k] is not None]
        if values:
            arr = np.array(values, dtype=float)
            csv_lines.append(f"{name},{float(arr.mean())!r},{float(arr.std())!r},{len(values)}")
        else:
            csv_lines.append(f"{name},,,0")
    report = [f"seed {s}: {msg}" for s, msg in sorted(failures.items())]
    _write_files(out, {"aggregate.csv": "\n".join(csv_lines) + "\n",
                       # a clean sweep removes the report an earlier sweep left here
                       "failures.txt": "\n".join(report) + "\n" if report else None})
    return SweepResult(seeds=seeds, per_seed_deltas=per_seed, failures=failures,
                       aggregate_csv=out / "aggregate.csv")


# --- projection re-export ----------------------------------------------------


def export_projection(run_dir, out_path=None) -> str:
    """Rebuild the projection CSV for a completed run from its persisted
    config and trajectory; writes to ``out_path`` when given."""
    run_dir = Path(run_dir)
    cfg = config_from_dict(load_config_file(run_dir / "config.yaml"))
    g = generate_graph(cfg.graph, component_rng(cfg.seed, "graph"))
    positions = force_layout(g, component_rng(cfg.seed, "layout"))

    final = np.zeros(cfg.n, dtype=float)
    last_day = -1
    for line in (run_dir / "trajectory.jsonl").read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record["day"] >= last_day:
            last_day = record["day"]
            final[record["agent"]] = float(record["belief"])
    text = projection_text(final, positions)
    if out_path is not None:
        out_path = Path(out_path)
        _write_files(out_path.parent, {out_path.name: text})
    return text
