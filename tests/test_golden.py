"""Golden digests of the host-independent artifacts of small runs.

Each pin is the sha256 of one file of one run: a mock ``llm`` run for every
graph kind with every nudge kind, n=30, 4 days, and a ``bcm`` and an ``fj``
run on every graph kind, n=30, 6 days. An llm run's ``trajectory.jsonl`` and
``transcript.jsonl`` hold the whole language path (exposure, nudges, prompts,
the mock's replies, parsing, memory), so a change anywhere on it shows here,
not only in a within-version replay. ``metrics.csv`` and ``projection.csv`` are left out:
their last bits still depend on the host CPU (BLAS in ``nci``, the fused
complex product of the mesh layout). ``manifest.txt`` names the Python and
numpy versions.

The pins were made with numpy 2.4.6, the version ``.github/constraints.txt``
pins for CI. numpy does not promise the same random streams or rounding
across releases, so a numpy bump is its own change that re-pins.

A pin changes only when the artifact bytes change on purpose: that needs a
``__version__`` bump and a CHANGES.md line saying which files changed and why.
"""

import hashlib

import pytest

from echosim.config import config_from_dict
from echosim.graphs import GRAPH_KINDS
from echosim.interventions import NUDGE_KINDS
from echosim.numeric import NUMERIC_ENGINES
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

# Computed at 0.2.0 before the deletions of config._deep_merge and of the
# nudge search's three scans, so these pins show that both kept the bytes.
NUMERIC_PINNED_FILES = ("trajectory.jsonl", "population.txt", "graph.txt", "config.yaml")

GOLDEN_NUMERIC = {
    ("bcm", "small_world"): {
        "trajectory.jsonl": "3e63e6768ebd155988b7067eab6a6eda493eebf359c3d4ff600f939c58db0e43",
        "population.txt": "61b3541ad55b5062dfeab86724be88506f89ceff947c11f6924aed15f64ea951",
        "graph.txt": "58b8ed8fb6e5fc5baa30393fc7a73d34d91573a3c1e89a00a217f6b9981147fa",
        "config.yaml": "e95a47e28d38fac0e7e2ea6bbc4ca742cfb89ea43c69ad403912bf433f8798b5",
    },
    ("bcm", "scale_free"): {
        "trajectory.jsonl": "8a4cf1fc15fbe8a1fa632e21e316e79cc5238d90ba08ae44f84398e13a8fd90d",
        "population.txt": "61b3541ad55b5062dfeab86724be88506f89ceff947c11f6924aed15f64ea951",
        "graph.txt": "f646791da3015dd4f93759ac4743294201856af03862038834fadd55735fcff5",
        "config.yaml": "06d883dfdac3419c330b979b6936c596ae94ba2edd19181ce98c82137e298e20",
    },
    ("bcm", "random"): {
        "trajectory.jsonl": "56f9e2822a261143a62559249c5de4f39cb369b31db8c05a2230f40e6f623cc4",
        "population.txt": "61b3541ad55b5062dfeab86724be88506f89ceff947c11f6924aed15f64ea951",
        "graph.txt": "24f04cc313c1627b08b6c8df2f74f5a1c8f93b5d0115d573f28bff5cd57c4799",
        "config.yaml": "1943519008450936c2b7145c84088edf802412f81effe038ae9dfcfb7a27439f",
    },
    ("fj", "small_world"): {
        "trajectory.jsonl": "f839e298c223a4ebfe53d2cdaa0c88b1a3f67f750ffb6084ed3f2c070f65364e",
        "population.txt": "61b3541ad55b5062dfeab86724be88506f89ceff947c11f6924aed15f64ea951",
        "graph.txt": "58b8ed8fb6e5fc5baa30393fc7a73d34d91573a3c1e89a00a217f6b9981147fa",
        "config.yaml": "6662e53c9359386d6be3837373d2cf2bbe126a9405f2c0fd74e38b21c71c2398",
    },
    ("fj", "scale_free"): {
        "trajectory.jsonl": "64f62a8fd67a41cfa900b9827f0c07c82d2f7d7e8046a513b06b1f82bd55c366",
        "population.txt": "61b3541ad55b5062dfeab86724be88506f89ceff947c11f6924aed15f64ea951",
        "graph.txt": "f646791da3015dd4f93759ac4743294201856af03862038834fadd55735fcff5",
        "config.yaml": "444e6c65baf7b75c9ab68b550854575c35b2f3639499b8329cf1796f20b7d4c4",
    },
    ("fj", "random"): {
        "trajectory.jsonl": "4d76a2ee8f4a357e510ada8af18c0cf9f451b0afdd8381254431fd1eb08f6154",
        "population.txt": "61b3541ad55b5062dfeab86724be88506f89ceff947c11f6924aed15f64ea951",
        "graph.txt": "24f04cc313c1627b08b6c8df2f74f5a1c8f93b5d0115d573f28bff5cd57c4799",
        "config.yaml": "2683fd8104ca394ea464d9bcd7c5dd3d658a35e5c6c2475e6ac56d5d24c2c705",
    },
}


def _digests(run_dir, names) -> dict:
    return {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("graph_kind", GRAPH_KINDS)
@pytest.mark.parametrize("nudge_kind", NUDGE_KINDS)
def test_llm_artifacts_match_their_pins(tmp_path, graph_kind, nudge_kind):
    cfg = config_from_dict({"engine": "llm", "n": 30, "days": 4, "seed": 11,
                            "graph": {"kind": graph_kind}, "nudge": {"kind": nudge_kind}})
    assert _digests(run(cfg, tmp_path).run_dir, PINNED_FILES) == GOLDEN[graph_kind, nudge_kind]


@pytest.mark.parametrize("graph_kind", GRAPH_KINDS)
@pytest.mark.parametrize("engine", NUMERIC_ENGINES)
def test_numeric_artifacts_match_their_pins(tmp_path, engine, graph_kind):
    cfg = config_from_dict({"engine": engine, "n": 30, "days": 6, "seed": 11, "graph": {"kind": graph_kind}})
    assert _digests(run(cfg, tmp_path).run_dir, NUMERIC_PINNED_FILES) == GOLDEN_NUMERIC[engine, graph_kind]
