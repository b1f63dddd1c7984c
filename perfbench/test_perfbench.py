"""Smoke test of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from oracles import check_final_metrics, check_fj_fixed_point  # noqa: E402
from spans import PATCHED_MODULES, check_spans, self_times  # noqa: E402
from workloads import LATENCY_DELAY_S, MAX_IN_FLIGHT, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_cli(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workloads_and_predictions_match_benchmark_json():
    assert list(WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
    predictions = json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))
    assert predictions["latency_backend"] == {"workload": "llm-wait", "delay_s": LATENCY_DELAY_S,
                                              "max_in_flight": MAX_IN_FLIGHT}
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for entry in predictions["predictions"]:
        assert set(entry["layer_metrics"]) <= layer_names
        for metric, workload in entry["moves"] + entry["stays"]:
            assert metric in end_to_end and workload in WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_printed(workload, trace):
    done = run_cli(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {s["name"]: s["unit"] for s in specs}
    for s in specs:
        assert f"{workload} {s['name']} = " in done.stdout
    if trace:
        # peak allocations are measured only for layers the run went through;
        # run_llm gets its graph from outside the traced call and never lays it out
        for name in ("graphs.peak_alloc_mb", "layout.peak_alloc_mb"):
            assert (result["metrics"][name]["value"] > 0) == (workload != "llm-wait")


def test_traced_runs_restore_every_name(tmp_path):
    before = [dict(vars(module)) for module in PATCHED_MODULES]
    for name, workload in WORKLOADS.items():
        runner = bench.Runner(workload, 3, True, tmp_path / name)
        bench.measure_traced(runner, 0.1)
        assert runner.failed == 0
    for old, module in zip(before, PATCHED_MODULES):
        new = vars(module)
        assert new.keys() == old.keys()
        assert [k for k in old if new[k] is not old[k]] == []


def test_self_times_share_overlapping_pool_spans():
    # root 0-10 with a child 1-4 on its own thread and two pool-thread children 5-9 and 6-8
    spans = [(1, "root", 0.0, 10.0, None, 1), (2, "a", 1.0, 4.0, 1, 1),
             (3, "b", 5.0, 9.0, 1, 1), (4, "c", 6.0, 8.0, 1, 1)]
    assert self_times(spans) == {"root": 3.0, "a": 3.0, "b": 3.0, "c": 1.0}
    # overlapping siblings are fine with threads, but break the single-thread subtraction check
    assert check_spans(spans, single_thread=False) == []
    assert check_spans(spans, single_thread=True) != []


def test_check_spans_rejects_a_child_outside_its_parent():
    nested = [(1, "root", 0.0, 10.0, None, 1), (2, "a", 1.0, 4.0, 1, 1), (3, "b", 5.0, 9.0, 1, 1)]
    assert check_spans(nested, single_thread=True) == []
    escaped = nested[:2] + [(3, "b", 5.0, 11.0, 1, 1)]
    assert check_spans(escaped, single_thread=False) != []


def test_oracles_reject_tampered_outputs(tmp_path):
    import echosim

    cfg = echosim.resolve_config(overrides=WORKLOADS["fj-long"].config_dict(5, tiny=True))
    run_dir = echosim.run(cfg, tmp_path / "run").run_dir
    assert check_final_metrics(run_dir) == []
    assert check_fj_fixed_point(run_dir, cfg.fj.alpha) == []

    metrics = run_dir / "metrics.csv"
    rows = metrics.read_text().splitlines()
    day, pol, rest = rows[-1].split(",", 2)
    metrics.write_text("\n".join(rows[:-1] + [f"{day},{float(pol) + 1e-6!r},{rest}"]) + "\n")
    assert check_final_metrics(run_dir) != []

    projection = run_dir / "projection.csv"
    lines = projection.read_text().splitlines()
    head, tail = lines[1].rsplit(",", 1)
    projection.write_text("\n".join([lines[0], f"{head},{float(tail) + 1e-6!r}"] + lines[2:]) + "\n")
    assert check_fj_fixed_point(run_dir, cfg.fj.alpha) != []


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_cli(tmp_path, "fj-long", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
