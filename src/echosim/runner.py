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
metrics nor the layout (``population.txt``, ``graph.txt`` and a numeric run's
trajectory) are written by a forked child while those run, or inline with the
same bytes where forking is not safe (no ``os.fork``, or other threads alive).
The parent renders ``config.yaml``, ``metrics.csv``, ``projection.csv`` and the
manifest while the child may still be writing, and only then waits for the
child's report that it wrote everything; it reaps the child after the renames,
while the child's exit may still be tearing down, and ``run()`` always reaps it.
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
from .config import ENGINES, RunConfig, component_rng, config_from_dict, config_hash, config_to_yaml, load_config_file
from .errors import ParameterError
from .graphs import GRAPH_KINDS, generate_graph, is_connected, to_edge_list_text
from .language import events_jsonl, run_llm
from .layout import force_layout
from .metrics import METRICS_CSV_HEADER, deltas, snapshot
from .numeric import run_numeric
from .population import init_population, population_to_text

DELTA_ROWS = ("delta_polarization", "delta_global_disagreement", "delta_nci")

# every file a run writes, the transcript (llm runs only) first and the manifest,
# which marks a complete run, last; and their names while staged
_RUN_FILES = ("transcript.jsonl", "trajectory.jsonl", "metrics.csv", "projection.csv", "population.txt",
             "graph.txt", "config.yaml", "manifest.txt")
_RUN_NAMES = frozenset(_RUN_FILES) | {f".{name}.tmp" for name in _RUN_FILES}
# a writer child's report that it wrote everything; a failed one reports "<exception>: <message>"
_WRITER_DONE = b"\0"


@dataclass
class RunArtifacts:
    run_dir: Path
    snapshots: list
    deltas: tuple


def _preflight(config: RunConfig) -> Optional[TextBackend]:
    """Validate ``config`` and build its backend (None for a numeric engine),
    so a bad config or a missing API key fails before any work."""
    config.validate()
    if config.engine != "llm":
        return None
    return MockBackend() if config.backend.kind == "mock" else RemoteChatBackend(config.backend)


@contextmanager
def _staged(out: Path, names, absent=()) -> Iterator[dict]:
    """Yield a UTF-8 text handle with ``\\n`` newlines on ``out/.<name>.tmp`` per name.
    Each is a new file: whatever stood at that path is unlinked first, so no handle
    reaches a file that the writer process of a killed run may still hold open. The
    temporary file of each name in ``absent``, which this write leaves out, is
    unlinked too. On a clean exit each handle is closed, ``out/<name>`` unlinked for
    each absent name, and each temporary file renamed to ``out/<name>``, in order; on
    any error every one is unlinked, so no partial file stands under a real name, and
    a block that raises renames none and leaves each absent name's file in place. A
    writer process the block forks onto a handle has reported that it wrote
    everything, or has been killed and reaped, before the block ends, so none writes
    a file this renames or unlinks."""
    tmps = {name: out / f".{name}.tmp" for name in names}
    for name in absent:
        (out / f".{name}.tmp").unlink(missing_ok=True)
    try:
        with ExitStack() as stack:
            handles = {}
            for name, tmp in tmps.items():
                tmp.unlink(missing_ok=True)
                handles[name] = stack.enter_context(tmp.open("x", encoding="utf-8", newline="\n"))
            yield handles
        for name in absent:
            (out / name).unlink(missing_ok=True)
        for name, tmp in tmps.items():
            os.replace(tmp, out / name)
    except BaseException:
        for tmp in tmps.values():
            tmp.unlink(missing_ok=True)
        raise


@contextmanager
def _written_apart(pairs, reap: ExitStack) -> Iterator[None]:
    """For each ``(handle, render)`` pair, write the text chunks ``render()`` yields to
    ``handle`` from one forked child while the block runs, then wait for its report. A
    child that wrote everything reports so and closes its pipe before it exits, and is
    reaped when ``reap`` closes, so its teardown overlaps what the parent does until
    then; a failed child is reaped at once and raises OSError naming its exception, and
    a block that raises kills and reaps it first. A child whose parent was killed
    outright leaves before its next chunk, as it finds itself re-parented: one
    ``getppid`` call a chunk. Inline, with the same bytes, where forking is unsafe: no
    ``os.fork``, or other threads, which may hold a lock."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        for handle, render in pairs:
            handle.writelines(render())
        yield
        return
    for handle, _ in pairs:
        handle.flush()  # else the child would write the parent's buffered text again
    parent = os.getpid()
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as report, open(write_end, "wb", buffering=0) as sink:
        pid = os.fork()
        if pid == 0:  # the child writes these handles and leaves by os._exit: no atexit, no other flush
            status = 1
            try:
                for handle, render in pairs:
                    for chunk in render():
                        if os.getppid() != parent:  # orphaned: no run will rename what it writes
                            os._exit(status)
                        handle.write(chunk)
                    handle.flush()
                sink.write(_WRITER_DONE)
                status = 0
            except BaseException as exc:
                sink.write(f"{type(exc).__name__}: {exc}".encode())
            finally:
                sink.close()  # the report ends here, before the child's teardown
                os._exit(status)
        sink.close()  # else the parent's own copy would keep the report open
        try:
            yield
            error = report.read()
        except BaseException:
            os.kill(pid, 9)  # SIGKILL, 9 on every POSIX system
            os.waitpid(pid, 0)
            raise
    if error == _WRITER_DONE:
        reap.callback(os.waitpid, pid, 0)
        return
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    reason = error.decode(errors="replace") or (f"killed by signal {-status}" if status < 0
                                                 else f"exit status {status}")
    raise OSError(f"writer process failed: {reason}")


def _write_files(out: Path, files: dict) -> None:
    """Write each ``name: text`` under ``out`` through ``_staged``; a name whose
    text is None is removed, so no file of an earlier run survives."""
    texts = {name: text for name, text in files.items() if text is not None}
    with _staged(out, texts, absent=files.keys() - texts.keys()) as handles:
        for name, text in texts.items():
            handles[name].write(text)


def _a_run_wrote(path: Path) -> bool:
    """Whether ``path`` is a run's directory: it holds a ``manifest.txt``, or it is a
    directory of nothing but run files and their temporary copies, as a run killed
    before its renames leaves it (an empty one too)."""
    if (path / "manifest.txt").is_file():
        return True
    return path.is_dir() and all(entry.name in _RUN_NAMES and entry.is_file() for entry in path.iterdir())


def _multi_run_dir(out_dir, pattern: str, tables, configs) -> Path:
    """Check every config and build its backend, so a bad config or a missing API
    key fails with ``out_dir`` untouched; then make ``out_dir`` and remove its
    ``tables`` and each directory named by ``pattern`` that a run wrote, whole or
    killed, and none that holds any other file. From the first run on, the
    directory holds no run or table of an earlier call, however this call ends."""
    for cfg in configs:
        _preflight(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_files(out, dict.fromkeys(tables))
    for path in out.iterdir():
        if re.fullmatch(pattern, path.name) and _a_run_wrote(path):
            shutil.rmtree(path)
    return out


def run(config: RunConfig, out_dir) -> RunArtifacts:
    """Execute one experiment and persist all artifacts under ``out_dir``."""
    backend = _preflight(config)
    llm = config.engine == "llm"
    params = getattr(config, config.engine)

    run_dir = Path(out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)

    population = init_population(config.n, config.topic, llm, component_rng(config.seed, "population"))
    g = generate_graph(config.graph, component_rng(config.seed, "graph"))

    # a numeric run writes no transcript, so it removes one an earlier llm run left here
    absent = () if llm else ("transcript.jsonl",)
    # the writer child is reaped after the renames, or on any error, as this block ends
    with ExitStack() as reap, _staged(run_dir, [name for name in _RUN_FILES if name not in absent], absent) as files:
        if llm:
            def write_day(day, beliefs, texts, events):
                files["trajectory.jsonl"].write(grid_day_lines(day, beliefs, texts))
                files["transcript.jsonl"].write(events_jsonl(events))
            if config.backend.kind == "mock":
                # the mock is CPU-bound under the GIL, so a pool only adds overhead
                params = replace(params, max_in_flight=1)
            rows = run_llm(
                g, population, backend, params, config.nudge,
                days=config.days, rng=component_rng(config.seed, "engine"), on_day=write_day,
            ).belief_trajectory.astype(float)
            index = np.arange(len(rows))
        else:
            rows, index = run_numeric(g, population.beliefs, params, config.days)
        # the files that need neither the metrics nor the layout are rendered by a child while those run
        apart = [(files["population.txt"], lambda: [population_to_text(population)]),
                 (files["graph.txt"], lambda: [to_edge_list_text(g)])]
        if not llm:  # an llm run wrote its trajectory day by day
            apart.append((files["trajectory.jsonl"], lambda: trajectory_chunks(rows, index)))
        with _written_apart(apart, reap):
            row_snapshots = snapshot(range(len(rows)), g, rows)
            snapshots = [replace(row_snapshots[row], day=d) for d, row in enumerate(index.tolist())]
            run_deltas = deltas(snapshots)
            positions = force_layout(g, component_rng(config.seed, "layout"))
            # written after the fork, so the child inherits no buffered text of these files,
            # and while it may still be writing; config.yaml here, so PyYAML is imported once a
            # process, not again in each run's child
            files["config.yaml"].write(config_to_yaml(config))
            files["metrics.csv"].write("\n".join([METRICS_CSV_HEADER] + [s.csv_row() for s in snapshots]) + "\n")
            files["projection.csv"].write(projection_text(rows[index[-1]], positions))
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
    return RunArtifacts(run_dir=run_dir, snapshots=snapshots, deltas=run_deltas)


def trajectory_chunks(rows, index) -> Iterator[str]:
    """Yield the JSON lines of one day at a time, day d's beliefs being
    ``rows[index[d]]``: one record per agent, keys sorted, exactly as
    ``json.dumps(record, sort_keys=True)`` would write them, beliefs by ``repr``
    as ``json.dumps`` writes a finite float. A row's record heads (prefixes and
    beliefs) are rendered the first time a day needs it, and kept if it is a row
    of the cycle the days past ``len(rows)`` repeat: a cycle's day costs one join."""
    prefixes = [f'{{"agent": {a}, "belief": ' for a in range(rows.shape[1])]
    cycle = set(index[len(rows):].tolist())
    kept = {}
    for d, row in enumerate(index.tolist()):
        if row not in kept:
            kept = {r: heads for r, heads in kept.items() if r in cycle}
            kept[row] = list(map(operator.add, prefixes, map(repr, rows[row].astype(float, copy=False).tolist())))
        sep = f', "day": {d}}}\n'
        yield sep.join(kept[row]) + sep


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
    so the initialized agents stay consistent across columns. Every config is
    checked before the first run, which finds no table or run of an earlier
    call; a failing column stops the compare, and no table is written."""
    if not configs:
        raise ParameterError("compare needs at least one config")
    head = configs[0]
    for cfg in configs[1:]:
        if (cfg.n, cfg.topic, cfg.seed) != (head.n, head.topic, head.seed):
            raise ParameterError("compare configs must share n, topic, and seed")
    labels = []
    for cfg in configs:
        label = f"{cfg.engine}-{cfg.graph.kind}"
        labels.append(f"{label}-{len(labels)}" if label in labels else label)
    label_pattern = rf"({'|'.join(ENGINES)})-({'|'.join(GRAPH_KINDS)})(-\d+)?"
    out = _multi_run_dir(out_dir, label_pattern, ("comparison.csv", "comparison.txt"), configs)
    columns = [run(cfg, out / label).deltas for cfg, label in zip(configs, labels)]

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
    Every seed's config is checked before the first run, which finds no table
    or run of an earlier call. A failing seed is recorded and skipped, and no
    run stands in its directory; remaining seeds still run."""
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
    configs = [replace(config, seed=s) for s in seeds]
    # a bad seed or backend is an error of the sweep, not a failure of its run
    out = _multi_run_dir(out_dir, r"seed_\d+", ("aggregate.csv", "failures.txt"), configs)

    per_seed: dict = {}
    failures: dict = {}
    for s, cfg in zip(seeds, configs):
        try:
            per_seed[s] = run(cfg, out / f"seed_{s}").deltas
        except Exception as exc:  # keep sweeping; report at the end
            failures[s] = f"{type(exc).__name__}: {exc}"

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
    layout are generated again, so a run without a manifest of this code and
    numpy version is rejected: another version of either may lay the graph out
    otherwise (numpy's random streams may change between its versions). A
    ``manifest.txt`` or ``trajectory.jsonl`` that cannot be read or used raises
    ParameterError, and such a ``config.yaml`` ConfigError."""
    run_dir = Path(run_dir)
    manifest = run_dir / "manifest.txt"
    if not manifest.is_file():
        raise ParameterError(f"{manifest}: missing, so {run_dir} holds no completed run")
    try:
        fields = dict(line.partition(": ")[::2] for line in manifest.read_text(encoding="utf-8").splitlines())
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"{manifest}: cannot read it: {exc}") from exc
    for key, version in (("code_version", __version__), ("numpy_version", np.__version__)):
        if fields.get(key) != version:
            raise ParameterError(f"{manifest}: {key} {fields.get(key)!r} is not {version!r}, "
                                 "whose graph and layout may differ")
    cfg = config_from_dict(load_config_file(run_dir / "config.yaml"))

    # the final day is the file's last n lines; parse only those
    trajectory = run_dir / "trajectory.jsonl"
    try:
        with trajectory.open(encoding="utf-8") as lines:
            records = [json.loads(line) for line in deque(lines, maxlen=cfg.n)]
        final_day = {(r["day"], r["agent"]): float(r["belief"]) for r in records}
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"{trajectory}: cannot read it: {exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise ParameterError(f"{trajectory}: malformed record: {exc}") from exc
    if final_day.keys() != {(cfg.days, a) for a in range(cfg.n)}:
        raise ParameterError(f"{trajectory}: its last {cfg.n} lines are not "
                             f"one record per agent 0..{cfg.n - 1} of day {cfg.days}")
    final = [final_day[cfg.days, a] for a in range(cfg.n)]
    g = generate_graph(cfg.graph, component_rng(cfg.seed, "graph"))
    text = projection_text(final, force_layout(g, component_rng(cfg.seed, "layout")))
    if out_path is not None:
        out_path = Path(out_path)
        _write_files(out_path.parent, {out_path.name: text})
    return text
