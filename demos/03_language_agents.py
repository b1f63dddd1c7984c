"""Follow language agents through a few days of exchanges, offline.

Each agent has a persona, a grid stance in [-2, 2], a stated opinion, and a
dual memory (today's exchanges + a budget-bounded running summary). The
deterministic mock backend stands in for a real model, so the full loop --
exposure, nudge, reflection, memory compression -- runs reproducibly with no
network. The transcript lets you read one agent's trajectory event by event,
the way a case study would.
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
    run_llm,
)

SEED = 5
N, DAYS = 16, 6
TOPIC = "Euthanasia should be legal."


def main():
    g = generate_graph(default_graph_spec("small_world", N), component_rng(SEED, "graph"))
    population = init_population(N, TOPIC, True, component_rng(SEED, "population"))
    result = run_llm(
        g, population, MockBackend(), LlmParams(), NudgePolicy(kind="active"),
        days=DAYS, rng=component_rng(SEED, "engine"),
    )

    print("=== one agent, close up ===")
    agent = 12
    print(population.cards[agent])
    print(f"\nstance by day: {result.belief_trajectory[:, agent].tolist()}")
    print(f"final statement: {result.opinion_trajectory[-1][agent]}")
    print(f"memory summary:  {result.long_term[agent][:120] or '(empty)'}")

    print("\n=== transcript excerpt ===")
    shown = 0
    for event in result.transcript:
        if event.agent != agent:
            continue
        extra = ""
        if event.belief_before is not None and event.belief_after is not None:
            extra = f" [{event.belief_before:+d} -> {event.belief_after:+d}]"
        print(f"day {event.day}  {event.kind:10s} {event.payload[:70]}{extra}")
        shown += 1
        if shown >= 12:
            break

    print("\n=== population level ===")
    start, end = result.belief_trajectory[0], result.belief_trajectory[-1]
    for label, row in (("day 0", start), (f"day {DAYS}", end)):
        counts = {b: int(np.sum(row == b)) for b in (-2, -1, 0, 1, 2)}
        print(f"{label:>6}: stance histogram {counts}")
    events = result.transcript
    print(f"events: {len(events)} total, "
          f"{sum(e.kind == 'nudge' for e in events)} nudges, "
          f"{sum(e.kind == 'update' for e in events)} stance updates")

    rerun = run_llm(
        g, population, MockBackend(), LlmParams(), NudgePolicy(kind="active"),
        days=DAYS, rng=component_rng(SEED, "engine"),
    )
    identical = np.array_equal(rerun.belief_trajectory, result.belief_trajectory)
    print(f"\nrerun with the same seed is bit-identical: {identical}")


if __name__ == "__main__":
    main()
