"""Golden digests of the host-independent artifacts of small mock ``llm`` runs.

Each pin is the sha256 of one file of one run: every graph kind with every
nudge kind, n=30, 4 days. ``trajectory.jsonl`` and ``transcript.jsonl`` hold
the whole language path (exposure, nudges, prompts, the mock's replies,
parsing, memory), so a change anywhere on it shows here, not only in a
within-version replay. ``metrics.csv`` and ``projection.csv`` are left out:
their last bits still depend on the host CPU (BLAS in ``nci``, the fused
complex product of the mesh layout). ``manifest.txt`` names the Python and
numpy versions.

A pin changes only when the artifact bytes change on purpose: that needs a
``__version__`` bump and a CHANGES.md line saying which files changed and why.
"""

import hashlib

import pytest

from echosim.config import config_from_dict
from echosim.graphs import GRAPH_KINDS
from echosim.interventions import NUDGE_KINDS
from echosim.runner import run

PINNED_FILES = ("trajectory.jsonl", "transcript.jsonl", "population.txt", "graph.txt", "config.yaml")

GOLDEN = {
    ("small_world", "none"): {
        "trajectory.jsonl": "fdbf8ec797bea6f92d4e6effcb6f73039517f8de7ee8568e5be6d4b9de8208e4",
        "transcript.jsonl": "b8a0eadc7770fbb776cd715535b8c3600b0a2bfc86b65262da441a0dd80560b2",
        "population.txt": "cd8ecd74d8600358fb328dda00061a733685d9aca8fe4b0a996e38fcf74f1b50",
        "graph.txt": "58b8ed8fb6e5fc5baa30393fc7a73d34d91573a3c1e89a00a217f6b9981147fa",
        "config.yaml": "ca4f7830bbe0e27714340499c337690e551cabbd226117e876cbd3faeb878702",
    },
    ("small_world", "active"): {
        "trajectory.jsonl": "d6f8a9647cbc65a1f6b2ac9adffaefd1c23fd491539f1e50dd5cf703601a1e38",
        "transcript.jsonl": "cad74a52323de0efef7377dbd37d0fb5afe2d41d011cbe927129b9283ca80631",
        "population.txt": "cd8ecd74d8600358fb328dda00061a733685d9aca8fe4b0a996e38fcf74f1b50",
        "graph.txt": "58b8ed8fb6e5fc5baa30393fc7a73d34d91573a3c1e89a00a217f6b9981147fa",
        "config.yaml": "fdc8d8fae9cd0244f5d2529a494d91c33832f651dc3b9be82603c7b0f55ff347",
    },
    ("small_world", "passive"): {
        "trajectory.jsonl": "d6f8a9647cbc65a1f6b2ac9adffaefd1c23fd491539f1e50dd5cf703601a1e38",
        "transcript.jsonl": "662d871dbff0e1228b4fec89437c8fb05101884f987b9f7335cd0e05a0509be9",
        "population.txt": "cd8ecd74d8600358fb328dda00061a733685d9aca8fe4b0a996e38fcf74f1b50",
        "graph.txt": "58b8ed8fb6e5fc5baa30393fc7a73d34d91573a3c1e89a00a217f6b9981147fa",
        "config.yaml": "89dabcaa962b16830973aaf8b287002c88a25ede83ab8487a6fa0a8ca950ddde",
    },
    ("scale_free", "none"): {
        "trajectory.jsonl": "882743e174738dedca32857caa5837cf675768b0e140adc8b114d13b186c6912",
        "transcript.jsonl": "7f7895a7c1534347c5af035550f35ee4586a4a67814f1f48783d9e426ff22400",
        "population.txt": "cd8ecd74d8600358fb328dda00061a733685d9aca8fe4b0a996e38fcf74f1b50",
        "graph.txt": "f646791da3015dd4f93759ac4743294201856af03862038834fadd55735fcff5",
        "config.yaml": "6b489561e047d16755bf7fdba4b54e589db84a0f7f1bc86e69907b45350be6e4",
    },
    ("scale_free", "active"): {
        "trajectory.jsonl": "b976dc3810b428afc1238a94b092143d35cc748a0ba8612038195b2b06399f34",
        "transcript.jsonl": "e98c355e650c7c390026754b49382baf964744e1a8a81fb52d9c73862cade2e4",
        "population.txt": "cd8ecd74d8600358fb328dda00061a733685d9aca8fe4b0a996e38fcf74f1b50",
        "graph.txt": "f646791da3015dd4f93759ac4743294201856af03862038834fadd55735fcff5",
        "config.yaml": "c5fa0e1f7f2924ea01ae54d1fee70bcaf7abef095d4269c1492d37459c5b5be6",
    },
    ("scale_free", "passive"): {
        "trajectory.jsonl": "b976dc3810b428afc1238a94b092143d35cc748a0ba8612038195b2b06399f34",
        "transcript.jsonl": "82ecc9800b0aca32b329295c56371ab596fef546a9d08b1de046cb2069db06aa",
        "population.txt": "cd8ecd74d8600358fb328dda00061a733685d9aca8fe4b0a996e38fcf74f1b50",
        "graph.txt": "f646791da3015dd4f93759ac4743294201856af03862038834fadd55735fcff5",
        "config.yaml": "200732afa2f38fb5e18fc3f06e90dd3c209829af929f875d2649024bed7acc48",
    },
    ("random", "none"): {
        "trajectory.jsonl": "762524ac963a301cf5aabee010ac075d96b9673643ad53b8856fb3da51ddce65",
        "transcript.jsonl": "eea4ccbc93ab2b474d29cdfd9cd1740ed088b7ff79ba5cbc48bacf6ed5c67159",
        "population.txt": "cd8ecd74d8600358fb328dda00061a733685d9aca8fe4b0a996e38fcf74f1b50",
        "graph.txt": "24f04cc313c1627b08b6c8df2f74f5a1c8f93b5d0115d573f28bff5cd57c4799",
        "config.yaml": "f5d087781c0e12eba4ef25c70a1e9118e29035de111c3ef431b3e8f18e54b262",
    },
    ("random", "active"): {
        "trajectory.jsonl": "04df0d470c65ab35f5df0cf2d81908e1aedab29a9bbcb3897264b5b124f54962",
        "transcript.jsonl": "c27fc498ace054bdaaaa946eeb9084092daef519f74dd27f60509e8d252d5508",
        "population.txt": "cd8ecd74d8600358fb328dda00061a733685d9aca8fe4b0a996e38fcf74f1b50",
        "graph.txt": "24f04cc313c1627b08b6c8df2f74f5a1c8f93b5d0115d573f28bff5cd57c4799",
        "config.yaml": "37b2df4f4818f4f9146c18b3fe416f7428155264e7d586b44d2d1ff5d1221958",
    },
    ("random", "passive"): {
        "trajectory.jsonl": "04df0d470c65ab35f5df0cf2d81908e1aedab29a9bbcb3897264b5b124f54962",
        "transcript.jsonl": "a5e960358de8fd14f69acfc1bb59b4921f43998545830c430f72e760fa6ef396",
        "population.txt": "cd8ecd74d8600358fb328dda00061a733685d9aca8fe4b0a996e38fcf74f1b50",
        "graph.txt": "24f04cc313c1627b08b6c8df2f74f5a1c8f93b5d0115d573f28bff5cd57c4799",
        "config.yaml": "a2febcd7348185b8f8a03f65f544d8f282c7a706c5b78a60472f6d1ee307ce9d",
    },
}


@pytest.mark.parametrize("graph_kind", GRAPH_KINDS)
@pytest.mark.parametrize("nudge_kind", NUDGE_KINDS)
def test_llm_artifacts_match_their_pins(tmp_path, graph_kind, nudge_kind):
    cfg = config_from_dict({"engine": "llm", "n": 30, "days": 4, "seed": 11,
                            "graph": {"kind": graph_kind}, "nudge": {"kind": nudge_kind}})
    run_dir = run(cfg, tmp_path).run_dir
    digests = {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in PINNED_FILES}
    assert digests == GOLDEN[graph_kind, nudge_kind]
