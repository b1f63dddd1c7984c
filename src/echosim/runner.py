"""Experiment orchestration: single runs, comparisons, and seed sweeps.

Every run writes a self-contained directory: per-day metrics CSV, a
line-delimited trajectory record, the transcript (language engine only), a
projection export (final beliefs plus layout coordinates), the resolved
config, a population record, and a manifest with the config hash and the
code, Python and numpy versions. Mock and numeric runs are bit-reproducible
from the persisted config; remote-backend runs are excluded from that
guarantee and marked in the manifest. Each file is written under a temporary
name, the trajectory and transcript one day at a time, and none is renamed into
place until all are written, the manifest last: a run that fails before then
leaves the directory as it was, and one with a manifest holds one whole run. An
llm run writes each day as the engine runs. The files that need neither the
metrics nor the layout (``population.txt``, ``graph.txt``, ``config.yaml`` and a
numeric run's trajectory) are written by a forked child while those run, or
inline with the same bytes where forking is not safe (no ``os.fork``, or other
threads alive). The parent renders ``metrics.csv``, ``projection.csv`` and the
manifest while the child may still be writing, and only then waits for it;
``run()`` always reaps the child.
"""

from __future__ import annotations

import json
import operator
import os
import platform
import re
import shutil
import threading
from collections import deque
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from . import __version__
from .backends import MockBackend, RemoteChatBackend, TextBackend
from .config import ENGINES, RunConfig, config_from_dict, config_hash, config_to_yaml, load_config_file
from .errors import ParameterError
from .graphs import GRAPH_KINDS, generate_graph, is_connected, to_edge_list_text
from .language import events_jsonl, run_llm
from .layout import force_layout
from .metrics import METRICS_CSV_HEADER, deltas, snapshot
from .numeric import run_numeric
from .population import init_population, population_to_text

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
    backend = RemoteChatBackend(config.backend)
    backend._api_key()  # fail fast on missing credentials, before any work
    return backend


def _preflight(config: RunConfig) -> Optional[TextBackend]:
    """Validate ``config`` and build its backend (None for a numeric engine),
    so a bad config or a missing API key fails before any work."""
    config.validate()
    return _build_backend(config) if config.engine == "llm" else None


@contextmanager
def _staged(out: Path, names) -> Iterator[dict]:
    """Yield a UTF-8 text handle with ``\\n`` newlines on ``out/.<name>.tmp`` per name.
    On a clean exit each is closed and renamed to ``out/<name>``, in order; on any
    error every one is unlinked, so no partial file stands under a real name, and a
    block that raises renames none. A writer process the block forks onto a handle
    is reaped, and killed first on an error, before the block ends, so none writes
    a file this renames or unlinks."""
    tmps = {name: out / f".{name}.tmp" for name in names}
    try:
        with ExitStack() as stack:
            yield {name: stack.enter_context(tmp.open("w", encoding="utf-8", newline="\n"))
                   for name, tmp in tmps.items()}
        for name, tmp in tmps.items():
            os.replace(tmp, out / name)
    except BaseException:
        for tmp in tmps.values():
            tmp.unlink(missing_ok=True)
        raise


@contextmanager
def _written_apart(pairs) -> Iterator[None]:
    """For each ``(handle, render)`` pair, write the text chunks ``render()`` yields to
    ``handle`` from one forked child while the block runs, then reap it: a failed child
    raises OSError naming its exception, and a block that raises kills and reaps it
    first. Inline, with the same bytes, where forking is unsafe: no ``os.fork``, or
    other threads, which may hold a lock."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        for handle, render in pairs:
            handle.writelines(render())
        yield
        return
    for handle, _ in pairs:
        handle.flush()  # else the child would write the parent's buffered text again
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as report, open(write_end, "wb", buffering=0) as sink:
        pid = os.fork()
        if pid == 0:  # the child writes these handles and leaves by os._exit: no atexit, no other flush
            status = 1
            try:
                for handle, render in pairs:
                    handle.writelines(render())
                    handle.flush()
                status = 0
            except BaseException as exc:
                sink.write(f"{type(exc).__name__}: {exc}".encode())
            finally:
                os._exit(status)
        sink.close()  # the report ends when the child's copy closes, at its exit
        try:
            yield
            error = report.read().decode(errors="replace")
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        except BaseException:
            os.kill(pid, 9)  # SIGKILL, 9 on every POSIX system
            os.waitpid(pid, 0)
            raise
    if status:
        reason = error or (f"killed by signal {-status}" if status < 0 else f"exit status {status}")
        raise OSError(f"writer process failed: {reason}")


def _write_files(out: Path, files: dict) -> None:
    """Write each ``name: text`` under ``out`` through ``_staged``; a name whose
    text is None is removed, so no file of an earlier run survives."""
    texts = {name: text for name, text in files.items() if text is not None}
    for name in files.keys() - texts.keys():
        (out / name).unlink(missing_ok=True)
    with _staged(out, texts) as handles:
        for name, text in texts.items():
            handles[name].write(text)


def _remove_stale_runs(out: Path, pattern: str, kept) -> None:
    """Remove each directory under ``out`` named by ``pattern`` that holds a
    ``manifest.txt``, so a run wrote it, and that is not in ``kept``."""
    for path in out.iterdir():
        if path.name not in kept and re.fullmatch(pattern, path.name) and (path / "manifest.txt").is_file():
            shutil.rmtree(path)


def run(config: RunConfig, out_dir) -> RunArtifacts:
    """Execute one experiment and persist all artifacts under ``out_dir``."""
    backend = _preflight(config)
    llm = config.engine == "llm"
    params = getattr(config, config.engine)

    run_dir = Path(out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)

    population = init_population(config.n, config.topic, llm, component_rng(config.seed, "population"))
    g = generate_graph(config.graph, component_rng(config.seed, "graph"))

    streamed = ("trajectory.jsonl", "transcript.jsonl") if llm else ("trajectory.jsonl",)
    with _staged(run_dir, streamed + ("metrics.csv", "projection.csv", "population.txt", "graph.txt",
                                      "config.yaml", "manifest.txt")) as files:
        if llm:
            def write_day(day, beliefs, texts, events):
                files["trajectory.jsonl"].write(grid_day_lines(day, beliefs, texts))
                files["transcript.jsonl"].write(events_jsonl(events))
            if config.backend.kind == "mock":
                # the mock is CPU-bound under the GIL, so a pool only adds overhead
                params = replace(params, max_in_flight=1)
            trajectory = run_llm(
                g, population, backend, params, config.nudge,
                days=config.days, rng=component_rng(config.seed, "engine"), on_day=write_day,
            ).belief_trajectory.astype(float)
        else:
            trajectory = run_numeric(config.engine, g, population.beliefs, params, config.days)
        # the files that need neither the metrics nor the layout are rendered by a child while those run
        apart = [(files["population.txt"], lambda: [population_to_text(population)]),
                 (files["graph.txt"], lambda: [to_edge_list_text(g)]),
                 (files["config.yaml"], lambda: [config_to_yaml(config)])]
        if not llm:  # an llm run wrote its trajectory day by day
            apart.append((files["trajectory.jsonl"], lambda: trajectory_chunks(trajectory)))
        with _written_apart(apart):
            snapshots = snapshot(range(config.days + 1), g, trajectory)
            run_deltas = deltas(snapshots)
            positions = force_layout(g, component_rng(config.seed, "layout"))
            # written after the fork, so the child inherits no buffered text of these files,
            # and while it may still be writing
            files["metrics.csv"].write("\n".join([METRICS_CSV_HEADER] + [s.csv_row() for s in snapshots]) + "\n")
            files["projection.csv"].write(projection_text(trajectory[-1], positions))
            files["manifest.txt"].write("\n".join([
                f"config_hash: {config_hash(config)}",
                f"code_version: {__version__}",
                f"python_version: {platform.python_version()}",
                f"numpy_version: {np.__version__}",
                f"engine: {config.engine}",
                f"backend: {config.backend.kind if llm else 'none'}",
                f"graph_kind: {config.graph.kind}",
                f"graph_connected: {str(is_connected(g)).lower()}",
                f"reproducible: {str(not (llm and config.backend.kind == 'remote')).lower()}",
            ]) + "\n")
        # the manifest, renamed last, marks a complete run: none stands while the files change
        (run_dir / "manifest.txt").unlink(missing_ok=True)
        if not llm:  # a numeric run removes the transcript an earlier llm run left here
            (run_dir / "transcript.jsonl").unlink(missing_ok=True)
    return RunArtifacts(run_dir=run_dir, snapshots=snapshots, deltas=run_deltas)


def trajectory_chunks(trajectory) -> Iterator[str]:
    """Yield the JSON lines of one day at a time: one record per agent, keys
    sorted, exactly as ``json.dumps(record, sort_keys=True)`` would write them.
    Beliefs are written as floats, by ``repr``, which is what ``json.dumps``
    writes for a finite float. Each agent's record head, its prefix and its
    belief, is kept across days, and after day 0 only the heads whose belief
    bits changed since the previous day are rendered again, so a day costs one
    join plus one concatenation per changed belief."""
    values = np.ascontiguousarray(trajectory, dtype=float)
    # bits, not ==: -0.0 == 0.0, but their reprs differ
    bits = values.view(np.int64)
    prefixes = [f'{{"agent": {a}, "belief": ' for a in range(values.shape[1])]
    heads = list(map(operator.add, prefixes, map(repr, values[0].tolist())))
    for d in range(len(values)):
        if d:
            changed = np.flatnonzero(bits[d] != bits[d - 1])
            for a, b in zip(changed.tolist(), values[d, changed].tolist()):
                heads[a] = prefixes[a] + repr(b)
        sep = f', "day": {d}}}\n'
        yield sep.join(heads) + sep


def grid_day_lines(day: int, beliefs, texts) -> str:
    """One llm day's JSON lines, as ``json.dumps(record, sort_keys=True)`` writes them:
    the belief as an int, the text as ``"opinion"`` through ``encode_basestring_ascii``."""
    return "".join([f'{{"agent": {a}, "belief": {int(b)}, "day": {day}, "opinion": {encode_basestring_ascii(text)}}}\n'
                    for a, (b, text) in enumerate(zip(beliefs, texts))])


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
    for cfg in configs:
        _preflight(cfg)

    labels = []
    for cfg in configs:
        label = f"{cfg.engine}-{cfg.graph.kind}"
        labels.append(f"{label}-{len(labels)}" if label in labels else label)
    label_pattern = rf"({'|'.join(ENGINES)})-({'|'.join(GRAPH_KINDS)})(-\d+)?"

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # a compare that fails leaves no table and no run of an earlier call, only its own runs
    _write_files(out, {"comparison.csv": None, "comparison.txt": None})
    _remove_stale_runs(out, label_pattern, labels)
    columns = []
    try:
        for cfg, label in zip(configs, labels):
            columns.append(run(cfg, out / label).deltas)
    except BaseException:
        # the failed column's directory, and those of the columns after it, hold an earlier call's runs
        _remove_stale_runs(out, label_pattern, labels[:len(columns)])
        raise

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
    # a float or a bool would be truncated to a seed the caller did not name
    non_int = [s for s in seeds if isinstance(s, bool) or not isinstance(s, (int, np.integer))]
    if non_int:
        raise ParameterError(f"sweep seeds must be integers, got {', '.join(map(repr, non_int))}")
    seeds = [int(s) for s in seeds]
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise ParameterError(f"sweep seeds must be distinct; repeated: {', '.join(map(str, repeated))}")
    for s in seeds:  # a bad seed or backend is an error of the sweep, not a failure of its run
        _preflight(replace(config, seed=s))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # an interrupted sweep leaves no table and no run of an earlier call, only its own runs
    _write_files(out, {"aggregate.csv": None, "failures.txt": None})
    _remove_stale_runs(out, r"seed_\d+", {f"seed_{s}" for s in seeds})

    per_seed: dict = {}
    failures: dict = {}
    try:
        for s in seeds:
            try:
                per_seed[s] = run(replace(config, seed=s), out / f"seed_{s}").deltas
            except Exception as exc:  # keep sweeping; report at the end
                failures[s] = f"{type(exc).__name__}: {exc}"
    finally:
        # a seed that failed, or that an interrupt kept the sweep from, may hold an earlier sweep's run
        _remove_stale_runs(out, r"seed_\d+", {f"seed_{s}" for s in per_seed})

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
                       "failures.txt": "\n".join(report) + "\n" if report else None})
    return SweepResult(seeds=seeds, per_seed_deltas=per_seed, failures=failures,
                       aggregate_csv=out / "aggregate.csv")


# --- projection re-export ----------------------------------------------------


def export_projection(run_dir, out_path=None) -> str:
    """Rebuild the projection CSV for a completed run from its persisted
    config and trajectory; writes to ``out_path`` when given. The graph and the
    layout are generated again, so a run without a manifest of this code
    version is rejected: another version may lay the graph out otherwise."""
    run_dir = Path(run_dir)
    manifest = run_dir / "manifest.txt"
    if not manifest.is_file():
        raise ParameterError(f"{manifest}: missing, so {run_dir} holds no completed run")
    fields = dict(line.partition(": ")[::2] for line in manifest.read_text(encoding="utf-8").splitlines())
    if fields.get("code_version") != __version__:
        raise ParameterError(f"{manifest}: code_version {fields.get('code_version')!r} is not {__version__!r}, "
                             "whose graph and layout may differ")
    cfg = config_from_dict(load_config_file(run_dir / "config.yaml"))
    g = generate_graph(cfg.graph, component_rng(cfg.seed, "graph"))
    positions = force_layout(g, component_rng(cfg.seed, "layout"))

    # the final day is the file's last n lines; parse only those
    with (run_dir / "trajectory.jsonl").open(encoding="utf-8") as lines:
        tail = deque(lines, maxlen=cfg.n)
    try:
        records = [json.loads(line) for line in tail]
        final_day = {(r["day"], r["agent"]): float(r["belief"]) for r in records}
    except (ValueError, KeyError, TypeError) as exc:
        raise ParameterError(f"{run_dir / 'trajectory.jsonl'}: malformed record: {exc}") from exc
    if final_day.keys() != {(cfg.days, a) for a in range(cfg.n)}:
        raise ParameterError(f"{run_dir / 'trajectory.jsonl'}: its last {cfg.n} lines are not "
                             f"one record per agent 0..{cfg.n - 1} of day {cfg.days}")
    final = [final_day[cfg.days, a] for a in range(cfg.n)]
    text = projection_text(final, positions)
    if out_path is not None:
        out_path = Path(out_path)
        _write_files(out_path.parent, {out_path.name: text})
    return text
