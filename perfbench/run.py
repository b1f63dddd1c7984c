"""echosim benchmark: one workload, measured for a fixed time, outputs checked.

Run from the repository root:

    python3 perfbench/run.py --workload fj-long --seed 3 --seconds 30 --trace 0

``--trace 0`` repeats the workload untraced and reports the end-to-end
metrics (medians over repetitions); ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer metrics. Every repetition's
outputs are checked; the last stdout line is the JSON result. The package
is imported from ``src/`` next to this directory, never from an installed
copy, and scratch run directories live under ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

from oracles import check_final_metrics, check_fj_fixed_point

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")) if (ROOT / "BENCHMARK.json").is_file() else None

SETUP_SAMPLES = 7  # at least this many probes, even when few repetitions fit
MIN_REPS = 2  # the byte-identical repeat check needs two

# Each probe is a fresh interpreter. It times set-up (import echosim, resolve and
# validate the config), then a fixed numpy kernel shaped like force_layout's
# O(n^2) step on 600 points, which never changes with echosim and so measures
# the host's speed. REFERENCE_NOMINAL_S is a round figure for the kernel's time
# on the 2-vCPU Xeon the bounds were set on, where it took 0.14 to 0.25 s.
REFERENCE_NOMINAL_S = 0.2
PROBE_CODE = """
import json, sys, time
start = time.perf_counter()
import echosim
cfg = echosim.resolve_config(overrides=json.loads(sys.argv[1]))
cfg.validate()
setup = time.perf_counter() - start

import numpy as np

def kernel(pos, steps):
    for _ in range(steps):
        delta = pos[:, None, :] - pos[None, :, :]
        dist = np.linalg.norm(delta, axis=-1)
        np.fill_diagonal(dist, 1.0)
        pos = pos + 1e-6 * ((1e-3 / dist**2)[..., None] * delta).sum(axis=1)
    return pos

pos = np.random.default_rng(0).random((600, 2))
kernel(pos, 1)  # warm up
start = time.perf_counter()
kernel(pos, 6)
print(setup, time.perf_counter() - start, echosim.__file__)
"""


def probe(config_dict: dict) -> tuple:
    """(set-up seconds, reference kernel seconds), both from one fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", PROBE_CODE, json.dumps(config_dict)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    setup, kernel, module_file = done.stdout.split()
    if not Path(module_file).resolve().is_relative_to(SRC):
        raise RuntimeError(f"set-up imported echosim from {module_file}, not from {SRC}")
    return float(setup), float(kernel)


def provenance(seed: int) -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version(), "seed": seed}
    try:
        info["cpu_model"] = next(
            line.split(":", 1)[1].strip()
            for line in Path("/proc/cpuinfo").read_text().splitlines() if line.startswith("model name")
        )
    except (OSError, StopIteration):
        info["cpu_model"] = platform.processor() or "unknown"
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    try:
        last = max(caches, key=lambda p: int((p / "level").read_text()))
        info["llc"] = (last / "size").read_text().strip()
    except (OSError, ValueError):
        info["llc"] = "unknown"
    import numpy

    info["numpy"] = numpy.__version__
    info["commit"] = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            info["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    sources = hashlib.sha256()
    for path in sorted((SRC / "echosim").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    info["src_sha256"] = sources.hexdigest()
    return info


class Runner:
    """Repeats one workload and checks every repetition."""

    def __init__(self, workload, seed: int, tiny: bool, scratch: Path):
        import echosim
        from workloads import mock_reference

        self.workload = workload
        self.config_dict = workload.config_dict(seed, tiny)
        self.cfg = echosim.resolve_config(overrides=self.config_dict)
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.first_digest = None
        self.last_outcome = None
        self.expected_beliefs = mock_reference(self.cfg) if workload.entry == "run_llm" else None

    def repeat(self, before=None, after=None):
        """One checked repetition; returns its wall time, or None if it failed.
        ``before``/``after`` bracket the timed call (tracing hooks)."""
        from workloads import execute

        self.attempted += 1
        out_dir = self.scratch / f"rep{self.attempted}"
        try:
            if before:
                before()
            try:
                wall, outcome = execute(self.workload, self.cfg, out_dir)
            finally:
                if after:
                    after()
            problems = []
            if outcome.run_dir is not None:
                problems += check_final_metrics(outcome.run_dir)
                if self.cfg.engine == "fj" and self.cfg.exposure_mode == "all_neighbors":
                    problems += check_fj_fixed_point(outcome.run_dir, self.cfg.fj.alpha)
            if self.expected_beliefs is not None and not (outcome.beliefs == self.expected_beliefs).all():
                problems.append("belief trajectory differs from the MockBackend run")
            if self.first_digest is None:
                self.first_digest = outcome.digest
            elif outcome.digest != self.first_digest:
                problems.append("artifacts differ from the first repetition at the same seed")
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            print(f"repetition {self.attempted} failed its checks: {problems}", file=sys.stderr)
            self.failed += 1
            return None
        self.last_outcome = outcome
        return wall


def keep_going(reps: int, times: list, deadline: float) -> bool:
    if reps < MIN_REPS:
        return True
    return bool(times) and time.perf_counter() + median(times) <= deadline


def measure_plain(runner: Runner, seconds: float) -> dict:
    """End-to-end metrics. The host the bounds were set on changes speed by up
    to 1.4x over seconds to minutes, so times are scaled to the nominal host
    speed: each set-up sample by REFERENCE_NOMINAL_S over the kernel time of its
    own probe, and each repetition that does not wait on the latency backend by
    REFERENCE_NOMINAL_S over the mean kernel time of the probes just before and
    after it. The unscaled medians are printed beside them."""
    deadline = time.perf_counter() + seconds
    probes, walls, times = [probe(runner.config_dict)], [], []
    while keep_going(runner.attempted, walls, deadline):
        wall = runner.repeat()
        probes.append(probe(runner.config_dict))
        if wall is not None:
            walls.append(wall)
            around = (probes[-2][1] + probes[-1][1]) / 2
            # waiting on the latency backend's sleep does not change with host speed
            waited = runner.last_outcome.backend is not None
            times.append(wall if waited else wall * REFERENCE_NOMINAL_S / around)
    while len(probes) < SETUP_SAMPLES:
        probes.append(probe(runner.config_dict))
    if not times:
        raise SystemExit("every repetition failed")
    setup = [s * REFERENCE_NOMINAL_S / kernel for s, kernel in probes]
    run_s = median(times)
    agent_days = runner.cfg.n * runner.cfg.days
    print(f"run_s: {len(walls)} repetitions, wall {[round(t, 4) for t in walls]}; {len(probes)} probes, "
          f"(set-up, kernel) {[(round(s, 4), round(k, 4)) for s, k in probes]}", file=sys.stderr)
    return {
        "setup_s": median(setup),
        "run_s": run_s,
        "agent_days_per_s": agent_days / run_s,  # printed only: it is n*days / run_s
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "artifact_bytes": runner.last_outcome.artifact_bytes,
        "wall_run_s": median(walls),
        "wall_setup_s": median(s for s, _ in probes),
        "kernel_s": median(k for _, k in probes),
    }


def peak_alloc_mb(fn, *args) -> tuple:
    """(result, peak traced allocation in MiB) of one call under tracemalloc."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def measure_traced(runner: Runner, seconds: float) -> dict:
    from echosim import force_layout, generate_graph
    from echosim.runner import component_rng
    from spans import Tracer, check_spans, install, layer_metrics

    deadline = time.perf_counter() + seconds
    tracer = Tracer()
    plain, traced, rows = [], [], []
    agent_days = runner.cfg.n * runner.cfg.days
    # the numeric engines run on one thread; llm runs use a pool when max_in_flight > 1
    single_thread = runner.cfg.engine != "llm" or runner.cfg.llm.max_in_flight == 1
    while keep_going(runner.attempted, plain + traced, deadline) or (not traced and runner.attempted < 4):
        if runner.attempted % 2 == 0:
            wall = runner.repeat()
            if wall is not None:
                plain.append(wall)
            continue
        run_id = tracer.begin_run()
        wall = runner.repeat(before=lambda: install(tracer), after=tracer.restore)
        if wall is None:
            continue
        traced.append(wall)
        row = layer_metrics(tracer, run_id, agent_days)
        problems = check_spans([s for s in tracer.spans if s[5] == run_id], single_thread)
        if problems:
            runner.failed += 1
            print(f"traced repetition {runner.attempted}: {problems[:5]}", file=sys.stderr)
        backend = runner.last_outcome.backend
        counts = tracer.counts[run_id]
        calls = counts["backends.reflect_calls"] + counts["backends.summary_calls"]
        # each backend span encloses the backend's own timing of the same call
        if backend is not None and ((backend.calls, backend.chars) != (calls, counts["backends.chars"])
                                    or backend.busy_s > row["backends.busy_s"]):
            runner.failed += 1
            print(f"tracer saw {calls} backend calls and {row['backends.busy_s']} s busy, the backend "
                  f"counted {backend.calls} and {backend.busy_s} s", file=sys.stderr)
        rows.append(row)
    if not plain or not rows:
        raise SystemExit("every repetition of one kind failed")

    metrics = {name: median(row[name] for row in rows) for name in rows[0]}
    # tracemalloc slows Python allocation, so peak allocations get their own calls,
    # made only for the layers the traced repetitions went through
    seen = {span[1] for span in tracer.spans}
    cfg = runner.cfg
    metrics["graphs.peak_alloc_mb"] = metrics["layout.peak_alloc_mb"] = 0.0
    if "graphs.generate" in seen or "layout.force" in seen:
        g, graphs_mb = peak_alloc_mb(generate_graph, cfg.graph, component_rng(cfg.seed, "graph"))
        if "graphs.generate" in seen:
            metrics["graphs.peak_alloc_mb"] = graphs_mb
        if "layout.force" in seen:
            _, metrics["layout.peak_alloc_mb"] = peak_alloc_mb(force_layout, g, component_rng(cfg.seed, "layout"))
    metrics["trace.run_s"] = median(traced)
    metrics["trace.overhead_s"] = median(traced) - median(plain)
    print(f"{len(plain)} untraced and {len(traced)} traced repetitions", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every workload to a few agents and days")
    args = parser.parse_args(argv)

    if BENCH is None or not (SRC / "echosim" / "__init__.py").is_file():
        print(f"no echosim sources under {SRC} (or no BENCHMARK.json); run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    import echosim

    if not Path(echosim.__file__).resolve().is_relative_to(SRC):
        print(f"imported echosim from {echosim.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_runs" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(WORKLOADS[args.workload], args.seed, args.tiny, scratch)
        measure = measure_traced if args.trace else measure_plain
        values = measure(runner, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another benchmark process still uses it

    specs = BENCH["per_layer"] if args.trace else BENCH["end_to_end"]
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    print(json.dumps({"provenance": provenance(args.seed), "workload": args.workload}))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{args.workload} agent_days_per_s = {values['agent_days_per_s']:.6g} agent-days/s")
        print(f"{args.workload} unscaled: run_s = {values['wall_run_s']:.6g} s, setup_s = "
              f"{values['wall_setup_s']:.6g} s; reference kernel median {values['kernel_s']:.6g} s "
              f"(nominal {REFERENCE_NOMINAL_S} s)")
    print(f"{args.workload} failed_frac = {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} repetitions)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
