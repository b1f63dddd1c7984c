"""Measure how the two nudge policies blunt polarization.

Agents whose stance sits at the grid extremes get either an opposing
viewpoint sourced from the most-opposed agent (active nudge) or a fixed
open-mindedness note (passive nudge). Both run on scale-free graphs against
a no-intervention baseline, seed-matched, with the mock backend.
"""

import numpy as np

from echosim import (
    LlmParams,
    MockBackend,
    NudgePolicy,
    component_rng,
    default_graph_spec,
    generate_graph,
    init_population,
    polarization,
    run_llm,
)

SEEDS = range(1, 11)
N, DAYS = 50, 30
TOPIC = "Euthanasia should be legal."


def run_policy(kind: str):
    finals, extremes = [], []
    for seed in SEEDS:
        g = generate_graph(default_graph_spec("scale_free", N), component_rng(seed, "graph"))
        population = init_population(N, TOPIC, True, component_rng(seed, "population"))
        result = run_llm(
            g, population, MockBackend(), LlmParams(max_in_flight=1), NudgePolicy(kind=kind),
            days=DAYS, rng=component_rng(seed, "engine"),
        )
        final = result.belief_trajectory[-1]
        finals.append(polarization(final))
        extremes.append(int(np.sum(np.abs(final) == 2)))
    return float(np.mean(finals)), float(np.mean(extremes))


def main():
    print(f"scale-free, n={N}, {DAYS} days, {len(list(SEEDS))} seeds, mock backend\n")
    print("policy    mean final polarization   mean agents at an extreme")
    baseline = None
    for kind in ("none", "active", "passive"):
        pol, extreme = run_policy(kind)
        if kind == "none":
            baseline = pol
        drop = "" if kind == "none" else f"   ({100 * (baseline - pol) / baseline:.0f}% lower than baseline)"
        print(f"{kind:8s}  {pol:23.3f}   {extreme:24.1f}{drop}")


if __name__ == "__main__":
    main()
