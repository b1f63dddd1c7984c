"""Drive full experiments through the runner: run, replay, compare, sweep.

Every run writes a self-contained directory (metrics CSV, trajectory and
transcript records, projection export with layout coordinates, resolved
config, manifest). Numeric and mock runs replay byte-for-byte from the
persisted config. Everything here is also reachable from the command line:

    echosim run --config cfg.yaml --out runs/demo
    echosim compare --config a.yaml --config b.yaml --out runs/cmp
    echosim sweep --config cfg.yaml --seeds 1,2,3 --out runs/sweep
    echosim validate-config --config cfg.yaml
    echosim export-projection runs/demo
"""

from pathlib import Path

from echosim import config_from_dict, compare, run, sweep
from echosim.config import load_config_file

OUT = Path(__file__).parent / "demo_runs"


def main():
    base = {"n": 50, "days": 30, "seed": 1, "engine": "llm",
            "graph": {"kind": "scale_free"}, "backend": {"kind": "mock"}}

    print("=== single run ===")
    artifacts = run(config_from_dict(base), OUT / "single")
    print(f"artifacts in {artifacts.run_dir}:")
    for path in sorted(artifacts.run_dir.iterdir()):
        print(f"  {path.name:18s} {path.stat().st_size:7d} bytes")
    d_pol, d_dg, d_nci = artifacts.deltas
    print(f"deltas: polarization {d_pol:+.3f}, disagreement {d_dg:+.3f}, "
          f"neighbor-corr {'undefined' if d_nci is None else f'{d_nci:+.3f}'}")

    print("\n=== replay from the persisted config ===")
    persisted = config_from_dict(load_config_file(artifacts.run_dir / "config.yaml"))
    replayed = run(persisted, OUT / "replayed")
    same = all(
        (artifacts.run_dir / p.name).read_bytes() == p.read_bytes()
        for p in replayed.run_dir.iterdir()
    )
    print(f"byte-identical artifacts: {same}")

    print("\n=== compare engines across structures (shared seed and agents) ===")
    configs = [
        config_from_dict({**base, "engine": engine, "graph": {"kind": kind}})
        for engine in ("bcm", "fj")
        for kind in ("small_world", "random")
    ]
    result = compare(configs, OUT / "comparison")
    print(result.text_path.read_text(), end="")

    print("\n=== sweep seeds and aggregate ===")
    sweep_result = sweep(config_from_dict({**base, "engine": "bcm"}), list(range(1, 6)), OUT / "sweep")
    print(sweep_result.aggregate_csv.read_text(), end="")


if __name__ == "__main__":
    main()
