"""Output checks that are independent of echosim's own code paths.

Each check returns a list of problems; an empty list is a pass. The run
directory is read back from its files: ``graph.txt`` (first line n, then one
``i j`` edge per line), ``population.txt`` (the initial belief is the last
tab-separated column of each agent line), ``projection.csv`` (final beliefs)
and ``metrics.csv`` (one row per day).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

TOLERANCE = 1e-9


def read_graph(run_dir: Path) -> tuple:
    """(n, list of neighbour lists) from graph.txt."""
    lines = (run_dir / "graph.txt").read_text(encoding="utf-8").split("\n")
    n = int(lines[0])
    neighbours = [[] for _ in range(n)]
    for line in lines[1:]:
        if line:
            a, b = map(int, line.split())
            neighbours[a].append(b)
            neighbours[b].append(a)
    return n, neighbours


def read_initial_beliefs(run_dir: Path) -> np.ndarray:
    lines = (run_dir / "population.txt").read_text(encoding="utf-8").splitlines()[2:]
    return np.array([float(line.split("\t")[-1]) for line in lines])


def read_final_beliefs(run_dir: Path) -> np.ndarray:
    lines = (run_dir / "projection.csv").read_text(encoding="utf-8").splitlines()[1:]
    return np.array([float(line.split(",")[3]) for line in lines])


def brute_force_metrics(neighbours: list, x) -> tuple:
    """(polarization, global disagreement, NCI or None), one node at a time."""
    n = len(x)
    mean = sum(x) / n
    pol = sum((v - mean) ** 2 for v in x) / n
    dis = 0.0
    own, around = [], []
    for i, ns in enumerate(neighbours):
        if not ns:
            continue
        dis += sum((x[i] - x[j]) ** 2 for j in ns) / len(ns)
        own.append(x[i])
        around.append(sum(x[j] for j in ns) / len(ns))
    dis /= 2 * n
    if len(own) < 2 or min(own) == max(own) or min(around) == max(around):
        return pol, dis, None
    mo, ma = sum(own) / len(own), sum(around) / len(around)
    cov = sum((a - mo) * (b - ma) for a, b in zip(own, around))
    var_o = sum((a - mo) ** 2 for a in own)
    var_a = sum((b - ma) ** 2 for b in around)
    return pol, dis, max(-1.0, min(1.0, cov / (var_o * var_a) ** 0.5))


def check_final_metrics(run_dir: Path) -> list:
    """The last metrics.csv row against a recomputation from the final beliefs."""
    _, neighbours = read_graph(run_dir)
    final = [float(v) for v in read_final_beliefs(run_dir)]
    row = (run_dir / "metrics.csv").read_text(encoding="utf-8").splitlines()[-1].split(",")
    reported = [float(row[1]), float(row[2]), float(row[3]) if row[3] else None]
    problems = []
    for name, got, want in zip(("polarization", "global_disagreement", "nci"),
                               reported, brute_force_metrics(neighbours, final)):
        if (got is None) != (want is None) or (want is not None and abs(got - want) > TOLERANCE):
            problems.append(f"final {name} {got!r} != recomputed {want!r}")
    return problems


def fj_fixed_point(neighbours: list, anchors: np.ndarray, alpha: float) -> np.ndarray:
    """z = alpha (I - (1 - alpha) D^-1 A)^-1 s on nodes with neighbours; isolated nodes keep s."""
    n = len(neighbours)
    system = np.eye(n)
    rhs = anchors.copy()
    for i, ns in enumerate(neighbours):
        if ns:
            system[i, ns] -= (1.0 - alpha) / len(ns)
            rhs[i] = alpha * anchors[i]
    return np.linalg.solve(system, rhs)


def check_fj_fixed_point(run_dir: Path, alpha: float) -> list:
    _, neighbours = read_graph(run_dir)
    expected = fj_fixed_point(neighbours, read_initial_beliefs(run_dir), alpha)
    worst = float(np.max(np.abs(read_final_beliefs(run_dir) - expected)))
    return [] if worst <= TOLERANCE else [f"final FJ beliefs are {worst:.3g} from the fixed point"]
