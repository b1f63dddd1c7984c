"""Run the two number-based engines and watch the echo-chamber metrics move.

The bounded-confidence engine only lets similar-enough opinions interact
(gate epsilon); the anchored-averaging engine blends a fixed anchor belief
with the neighborhood mean (weight alpha). Both are run on the same
population and graph so the columns are directly comparable, first with the
similarity-based recommendation filter on, then off.
"""

import numpy as np

from echosim import (
    BcmParams,
    FjParams,
    component_rng,
    default_graph_spec,
    deltas,
    generate_graph,
    init_population,
    run_numeric,
    snapshot,
)

SEED = 1
N, DAYS = 50, 30
TOPIC = "Euthanasia should be legal."


def metric_table(g, trajectory, label):
    print(f"\n--- {label} ---")
    print("day   polarization  disagreement   neighbor-corr")
    for day in range(0, len(trajectory), 5):
        s = snapshot(day, g, trajectory[day])
        nci_cell = "   undefined" if s.nci is None else f"{s.nci:+12.3f}"
        print(f"{day:3d}   {s.polarization:12.3f}  {s.global_disagreement:12.3f}  {nci_cell}")
    snaps = [snapshot(t, g, trajectory[t]) for t in (0, len(trajectory) - 1)]
    d_pol, d_dg, d_nci = deltas(snaps)
    nci_text = "undefined" if d_nci is None else f"{d_nci:+.3f}"
    print(f"deltas: polarization {d_pol:+.3f}, disagreement {d_dg:+.3f}, neighbor-corr {nci_text}")


def main():
    g = generate_graph(default_graph_spec("small_world", N), component_rng(SEED, "graph"))
    population = init_population(N, TOPIC, False, component_rng(SEED, "population"))

    for mode in ("recommended", "all_neighbors"):
        rows, index = run_numeric(g, population.beliefs, BcmParams(epsilon=2.0, mu=0.3, exposure_mode=mode), DAYS)
        metric_table(g, rows[index], f"bounded confidence, {mode}")

        rows, index = run_numeric(g, population.beliefs, FjParams(alpha=0.3, exposure_mode=mode), DAYS)
        metric_table(g, rows[index], f"anchored averaging, {mode}")

    print("\n--- long-horizon behavior ---")
    rows, index = run_numeric(g, population.beliefs, BcmParams(epsilon=4.0, mu=0.5, exposure_mode="all_neighbors"), 200)
    consensus = rows[index]
    print(f"bounded confidence with a wide-open gate reaches consensus: "
          f"final spread {consensus[-1].max() - consensus[-1].min():.2e}")
    rows, index = run_numeric(g, population.beliefs, FjParams(alpha=0.3), 200)
    anchored = rows[index]
    print(f"anchored averaging settles to a fixed point: "
          f"terminal day-over-day change {np.abs(anchored[-1] - anchored[-2]).max():.2e}")


if __name__ == "__main__":
    main()
