"""Generate the three social network structures and inspect their shapes.

Small-world graphs keep the high clustering of a ring lattice while rewiring
shortens paths; scale-free graphs grow hubs through preferential attachment;
random graphs spread edges uniformly. All generators are deterministic per
seed, which this script demonstrates at the end.
"""

import numpy as np

from echosim import (
    clustering_coefficient,
    component_rng,
    default_graph_spec,
    degree_sequence,
    generate_graph,
    is_connected,
    to_edge_list_text,
)


def describe(kind: str, seed: int = 1, n: int = 50):
    g = generate_graph(default_graph_spec(kind, n), component_rng(seed, "graph"))
    degrees = degree_sequence(g)
    print(f"\n=== {kind} (n={n}, seed={seed}) ===")
    print(f"edges:      {g.edge_count}")
    print(f"degrees:    min {min(degrees)}, median {sorted(degrees)[n // 2]}, max {max(degrees)}")
    print(f"clustering: {clustering_coefficient(g):.3f}")
    print(f"connected:  {is_connected(g)}")
    head = to_edge_list_text(g).splitlines()[:5]
    print("edge list (first lines):", " | ".join(head))
    return g


def main():
    for kind in ("small_world", "scale_free", "random"):
        describe(kind)

    print("\n=== determinism ===")
    spec = default_graph_spec("scale_free", 50)
    a = generate_graph(spec, np.random.default_rng(7))
    b = generate_graph(spec, np.random.default_rng(7))
    c = generate_graph(spec, np.random.default_rng(8))
    print(f"same seed, same edge list:      {to_edge_list_text(a) == to_edge_list_text(b)}")
    print(f"different seed, different list: {to_edge_list_text(a) != to_edge_list_text(c)}")

    print("\n=== structure comparison at matched density ===")
    sw = np.mean([
        clustering_coefficient(generate_graph(default_graph_spec("small_world", 50),
                                              np.random.default_rng(s)))
        for s in range(20)
    ])
    er = np.mean([
        clustering_coefficient(generate_graph(default_graph_spec("random", 50),
                                              np.random.default_rng(s)))
        for s in range(20)
    ])
    print(f"mean clustering over 20 seeds: small_world {sw:.3f} vs random {er:.3f}")


if __name__ == "__main__":
    main()
