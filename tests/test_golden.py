"""Golden digests of every artifact of small runs, and their independence of the CPU.

Each pin is the sha256 of one file of one run: a mock ``llm`` run for every
graph kind with every nudge kind, n=30, 4 days; a ``bcm`` and an ``fj`` run on
every graph kind, n=30, 6 days; and a ``bcm`` run with n=400, whose layout is
the particle mesh. Every file but ``manifest.txt`` is pinned; the manifest
names the Python and numpy versions. An llm run's ``trajectory.jsonl`` and
``transcript.jsonl`` hold the whole language path (exposure, nudges, prompts,
the mock's replies, parsing, memory), so a change anywhere on it shows here,
not only in a within-version replay.

The bytes are a function of the config, ``code_version`` and the numpy version
alone: ``test_digests_do_not_depend_on_the_cpu`` computes every pin in three
processes, with numpy's default SIMD loops, with OpenBLAS set to a Prescott
core, and with numpy's AVX2, FMA and AVX-512 loops off, and requires the same
digests from all three. It runs on x86-64 only, where those toggles exist.

The pins were made with numpy 2.4.6, the version ``.github/constraints.txt``
pins for CI. numpy does not promise the same random streams or rounding
across releases, so a numpy bump is its own change that re-pins.

A pin changes only when the artifact bytes change on purpose: that needs a
``__version__`` bump and a CHANGES.md line saying which files changed and why.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import echosim
from echosim.config import config_from_dict
from echosim.graphs import GRAPH_KINDS
from echosim.interventions import NUDGE_KINDS
from echosim.numeric import NUMERIC_ENGINES
from echosim.runner import run

PINNED_FILES = ("trajectory.jsonl", "transcript.jsonl", "metrics.csv", "projection.csv", "population.txt",
                "graph.txt", "config.yaml")
NUMERIC_PINNED_FILES = tuple(name for name in PINNED_FILES if name != "transcript.jsonl")

# each case's config: the first key names the engine
CASES = {
    **{("llm", graph_kind, nudge_kind): {"engine": "llm", "n": 30, "days": 4, "seed": 11,
                                         "graph": {"kind": graph_kind}, "nudge": {"kind": nudge_kind}}
       for graph_kind in GRAPH_KINDS for nudge_kind in NUDGE_KINDS},
    **{(engine, graph_kind): {"engine": engine, "n": 30, "days": 6, "seed": 11, "graph": {"kind": graph_kind}}
       for engine in NUMERIC_ENGINES for graph_kind in GRAPH_KINDS},
    # above 300 nodes the layout is the particle mesh, where numpy's FMA loops once changed the rounding
    ("bcm", "random", 400): {"engine": "bcm", "n": 400, "days": 6, "seed": 11,
                             "graph": {"kind": "random", "p_edge": 0.01}},
}

# each env var acts only on the child process it is given to
CPU_TOGGLES = {
    "default": {},
    "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "no-avx": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
}


def case_digests(case, out) -> dict:
    run_dir = run(config_from_dict(CASES[case]), Path(out) / "-".join(map(str, case))).run_dir
    names = PINNED_FILES if case[0] == "llm" else NUMERIC_PINNED_FILES
    return {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in names}


GOLDEN = {
    ("llm", "small_world", "none"): {
        "trajectory.jsonl": "fdbf8ec797bea6f92d4e6effcb6f73039517f8de7ee8568e5be6d4b9de8208e4",
        "transcript.jsonl": "b8a0eadc7770fbb776cd715535b8c3600b0a2bfc86b65262da441a0dd80560b2",
        "metrics.csv": "4ba78593ca3782a16d52d6808b3bef12c1d7031fe1a3bb61fa63186ccac0ab39",
        "projection.csv": "d0cf4ea1f7cfddb27bbc010934cf34baf0498e1df218b3ff7e73449c7a08bb72",
        "population.txt": "cd8ecd74d8600358fb328dda00061a733685d9aca8fe4b0a996e38fcf74f1b50",
        "graph.txt": "58b8ed8fb6e5fc5baa30393fc7a73d34d91573a3c1e89a00a217f6b9981147fa",
        "config.yaml": "ca4f7830bbe0e27714340499c337690e551cabbd226117e876cbd3faeb878702",
    },
    ("llm", "small_world", "active"): {
        "trajectory.jsonl": "d6f8a9647cbc65a1f6b2ac9adffaefd1c23fd491539f1e50dd5cf703601a1e38",
        "transcript.jsonl": "cad74a52323de0efef7377dbd37d0fb5afe2d41d011cbe927129b9283ca80631",
        "metrics.csv": "e778030935063e377704533229b8a4ef03cf2ae1d5466cd8b979b0534c9e85e7",
        "projection.csv": "bc6f25a5cc069a2f6409a5ad805a84cdbd26f9b64c9db5f977e0ff470cd0a1e0",
        "population.txt": "cd8ecd74d8600358fb328dda00061a733685d9aca8fe4b0a996e38fcf74f1b50",
        "graph.txt": "58b8ed8fb6e5fc5baa30393fc7a73d34d91573a3c1e89a00a217f6b9981147fa",
        "config.yaml": "fdc8d8fae9cd0244f5d2529a494d91c33832f651dc3b9be82603c7b0f55ff347",
    },
    ("llm", "small_world", "passive"): {
        "trajectory.jsonl": "d6f8a9647cbc65a1f6b2ac9adffaefd1c23fd491539f1e50dd5cf703601a1e38",
        "transcript.jsonl": "662d871dbff0e1228b4fec89437c8fb05101884f987b9f7335cd0e05a0509be9",
        "metrics.csv": "e778030935063e377704533229b8a4ef03cf2ae1d5466cd8b979b0534c9e85e7",
        "projection.csv": "bc6f25a5cc069a2f6409a5ad805a84cdbd26f9b64c9db5f977e0ff470cd0a1e0",
        "population.txt": "cd8ecd74d8600358fb328dda00061a733685d9aca8fe4b0a996e38fcf74f1b50",
        "graph.txt": "58b8ed8fb6e5fc5baa30393fc7a73d34d91573a3c1e89a00a217f6b9981147fa",
        "config.yaml": "89dabcaa962b16830973aaf8b287002c88a25ede83ab8487a6fa0a8ca950ddde",
    },
    ("llm", "scale_free", "none"): {
        "trajectory.jsonl": "882743e174738dedca32857caa5837cf675768b0e140adc8b114d13b186c6912",
        "transcript.jsonl": "7f7895a7c1534347c5af035550f35ee4586a4a67814f1f48783d9e426ff22400",
        "metrics.csv": "e6dd0cda7f23f341283e9f828ce19ab0db16b6f1f5681c30acc13e8cfac4c82f",
        "projection.csv": "bb2fea8a9fbf635231007bc99cdbeffd54f2fee2dcac684b2ba44025ec80087e",
        "population.txt": "cd8ecd74d8600358fb328dda00061a733685d9aca8fe4b0a996e38fcf74f1b50",
        "graph.txt": "f646791da3015dd4f93759ac4743294201856af03862038834fadd55735fcff5",
        "config.yaml": "6b489561e047d16755bf7fdba4b54e589db84a0f7f1bc86e69907b45350be6e4",
    },
    ("llm", "scale_free", "active"): {
        "trajectory.jsonl": "b976dc3810b428afc1238a94b092143d35cc748a0ba8612038195b2b06399f34",
        "transcript.jsonl": "e98c355e650c7c390026754b49382baf964744e1a8a81fb52d9c73862cade2e4",
        "metrics.csv": "e1f557ed144561c3b9e01df890afe800f06cd2e1f9ee90d7b383fa27cbd7addb",
        "projection.csv": "b4f46efe40c4f6e237cd5da71bd84206b74c78b01d06b6de5d43507d7488cd11",
        "population.txt": "cd8ecd74d8600358fb328dda00061a733685d9aca8fe4b0a996e38fcf74f1b50",
        "graph.txt": "f646791da3015dd4f93759ac4743294201856af03862038834fadd55735fcff5",
        "config.yaml": "c5fa0e1f7f2924ea01ae54d1fee70bcaf7abef095d4269c1492d37459c5b5be6",
    },
    ("llm", "scale_free", "passive"): {
        "trajectory.jsonl": "b976dc3810b428afc1238a94b092143d35cc748a0ba8612038195b2b06399f34",
        "transcript.jsonl": "82ecc9800b0aca32b329295c56371ab596fef546a9d08b1de046cb2069db06aa",
        "metrics.csv": "e1f557ed144561c3b9e01df890afe800f06cd2e1f9ee90d7b383fa27cbd7addb",
        "projection.csv": "b4f46efe40c4f6e237cd5da71bd84206b74c78b01d06b6de5d43507d7488cd11",
        "population.txt": "cd8ecd74d8600358fb328dda00061a733685d9aca8fe4b0a996e38fcf74f1b50",
        "graph.txt": "f646791da3015dd4f93759ac4743294201856af03862038834fadd55735fcff5",
        "config.yaml": "200732afa2f38fb5e18fc3f06e90dd3c209829af929f875d2649024bed7acc48",
    },
    ("llm", "random", "none"): {
        "trajectory.jsonl": "762524ac963a301cf5aabee010ac075d96b9673643ad53b8856fb3da51ddce65",
        "transcript.jsonl": "eea4ccbc93ab2b474d29cdfd9cd1740ed088b7ff79ba5cbc48bacf6ed5c67159",
        "metrics.csv": "c5023c5c7be5f1ccfb0b7b2c446e64a97f7b4bc25826fce52758a94b557d954a",
        "projection.csv": "38eb89a6d8cdf9268001732318faed0113c4b1388f4268ca54edf87eead6a740",
        "population.txt": "cd8ecd74d8600358fb328dda00061a733685d9aca8fe4b0a996e38fcf74f1b50",
        "graph.txt": "24f04cc313c1627b08b6c8df2f74f5a1c8f93b5d0115d573f28bff5cd57c4799",
        "config.yaml": "f5d087781c0e12eba4ef25c70a1e9118e29035de111c3ef431b3e8f18e54b262",
    },
    ("llm", "random", "active"): {
        "trajectory.jsonl": "04df0d470c65ab35f5df0cf2d81908e1aedab29a9bbcb3897264b5b124f54962",
        "transcript.jsonl": "c27fc498ace054bdaaaa946eeb9084092daef519f74dd27f60509e8d252d5508",
        "metrics.csv": "5065bab324d7e22baac16046ee44d3121ba255590a2fa079539eb1657cddd942",
        "projection.csv": "38f98e8e58d9c3e3d97792adb63e7e3b5f60496d00d784346c0d41564ce33d36",
        "population.txt": "cd8ecd74d8600358fb328dda00061a733685d9aca8fe4b0a996e38fcf74f1b50",
        "graph.txt": "24f04cc313c1627b08b6c8df2f74f5a1c8f93b5d0115d573f28bff5cd57c4799",
        "config.yaml": "37b2df4f4818f4f9146c18b3fe416f7428155264e7d586b44d2d1ff5d1221958",
    },
    ("llm", "random", "passive"): {
        "trajectory.jsonl": "04df0d470c65ab35f5df0cf2d81908e1aedab29a9bbcb3897264b5b124f54962",
        "transcript.jsonl": "a5e960358de8fd14f69acfc1bb59b4921f43998545830c430f72e760fa6ef396",
        "metrics.csv": "5065bab324d7e22baac16046ee44d3121ba255590a2fa079539eb1657cddd942",
        "projection.csv": "38f98e8e58d9c3e3d97792adb63e7e3b5f60496d00d784346c0d41564ce33d36",
        "population.txt": "cd8ecd74d8600358fb328dda00061a733685d9aca8fe4b0a996e38fcf74f1b50",
        "graph.txt": "24f04cc313c1627b08b6c8df2f74f5a1c8f93b5d0115d573f28bff5cd57c4799",
        "config.yaml": "a2febcd7348185b8f8a03f65f544d8f282c7a706c5b78a60472f6d1ee307ce9d",
    },
    ("bcm", "small_world"): {
        "trajectory.jsonl": "3e63e6768ebd155988b7067eab6a6eda493eebf359c3d4ff600f939c58db0e43",
        "metrics.csv": "d363af688a51552842311497c4e8e262e094aa7b5bb2b4cb15719b616085d1fc",
        "projection.csv": "80f21aa5d67db07f2714f162e2a2bd12e668cb3b5e1e592516b73c318d9f3714",
        "population.txt": "61b3541ad55b5062dfeab86724be88506f89ceff947c11f6924aed15f64ea951",
        "graph.txt": "58b8ed8fb6e5fc5baa30393fc7a73d34d91573a3c1e89a00a217f6b9981147fa",
        "config.yaml": "e95a47e28d38fac0e7e2ea6bbc4ca742cfb89ea43c69ad403912bf433f8798b5",
    },
    ("bcm", "scale_free"): {
        "trajectory.jsonl": "8a4cf1fc15fbe8a1fa632e21e316e79cc5238d90ba08ae44f84398e13a8fd90d",
        "metrics.csv": "c6732957848e93fc37cf446c26165e6442dab33c8a1850ca5226699d75c9b163",
        "projection.csv": "341a311fb5ae200fac4e8673b34ac2ab91cd2eb8c9dc7c8300aefe879d506d05",
        "population.txt": "61b3541ad55b5062dfeab86724be88506f89ceff947c11f6924aed15f64ea951",
        "graph.txt": "f646791da3015dd4f93759ac4743294201856af03862038834fadd55735fcff5",
        "config.yaml": "06d883dfdac3419c330b979b6936c596ae94ba2edd19181ce98c82137e298e20",
    },
    ("bcm", "random"): {
        "trajectory.jsonl": "56f9e2822a261143a62559249c5de4f39cb369b31db8c05a2230f40e6f623cc4",
        "metrics.csv": "2c953c9230a2e61165c049e75464468749d63c27c28d3e9e04ae579bcfe84e50",
        "projection.csv": "32e4fb15673955df89506c6d9beefbc6e9f52d4c8a32ef1d612c759a3fd5b152",
        "population.txt": "61b3541ad55b5062dfeab86724be88506f89ceff947c11f6924aed15f64ea951",
        "graph.txt": "24f04cc313c1627b08b6c8df2f74f5a1c8f93b5d0115d573f28bff5cd57c4799",
        "config.yaml": "1943519008450936c2b7145c84088edf802412f81effe038ae9dfcfb7a27439f",
    },
    ("fj", "small_world"): {
        "trajectory.jsonl": "f839e298c223a4ebfe53d2cdaa0c88b1a3f67f750ffb6084ed3f2c070f65364e",
        "metrics.csv": "eabb6a84dc08ed0c2c8d5190ec7fe5d4624d4e652041da9d185a734d93999a9c",
        "projection.csv": "1b53d13e60410f96822ad5e76071adf0d38d382b0b764d2b00f8ce2385d7e9d9",
        "population.txt": "61b3541ad55b5062dfeab86724be88506f89ceff947c11f6924aed15f64ea951",
        "graph.txt": "58b8ed8fb6e5fc5baa30393fc7a73d34d91573a3c1e89a00a217f6b9981147fa",
        "config.yaml": "6662e53c9359386d6be3837373d2cf2bbe126a9405f2c0fd74e38b21c71c2398",
    },
    ("fj", "scale_free"): {
        "trajectory.jsonl": "64f62a8fd67a41cfa900b9827f0c07c82d2f7d7e8046a513b06b1f82bd55c366",
        "metrics.csv": "90f8c3625fa47cabf184456864d7bb8706d581326315fe1c896a8426c10f3ca6",
        "projection.csv": "2af9ebda938eced7495c01f4ff1e7c05e71a38bc65c9f12f25dbb98bcf73e49c",
        "population.txt": "61b3541ad55b5062dfeab86724be88506f89ceff947c11f6924aed15f64ea951",
        "graph.txt": "f646791da3015dd4f93759ac4743294201856af03862038834fadd55735fcff5",
        "config.yaml": "444e6c65baf7b75c9ab68b550854575c35b2f3639499b8329cf1796f20b7d4c4",
    },
    ("fj", "random"): {
        "trajectory.jsonl": "4d76a2ee8f4a357e510ada8af18c0cf9f451b0afdd8381254431fd1eb08f6154",
        "metrics.csv": "ac78434efee10d0439db2dc9d67765d183af76121c918a36e503e953ea31eec4",
        "projection.csv": "0093a96f225775d1e9d6be341ca2c3cc06b1c920ab455870dec2b8b21c0e4b72",
        "population.txt": "61b3541ad55b5062dfeab86724be88506f89ceff947c11f6924aed15f64ea951",
        "graph.txt": "24f04cc313c1627b08b6c8df2f74f5a1c8f93b5d0115d573f28bff5cd57c4799",
        "config.yaml": "2683fd8104ca394ea464d9bcd7c5dd3d658a35e5c6c2475e6ac56d5d24c2c705",
    },
    ("bcm", "random", 400): {
        "trajectory.jsonl": "85df4cb75bd9cc719524fbebef67158478fe98de80299dc629e65a43dcec3455",
        "metrics.csv": "c1759b773643c4e7f43e14c9160a1dfa9b226a68a7d123517dd14c79d624c16c",
        "projection.csv": "93f36b66c9b4a6be5c17478c0350032e9c9daa144e5b34e076c0eccdbdb53e8a",
        "population.txt": "8c63e7d394c9f2de52592a8f555086fbc081278ce0b2b0af83e3e4202b219da6",
        "graph.txt": "ebb853f3ba6b64f0e356b9850ce5ecb114e2e4a8e14d4081a0d1a5583c37ce02",
        "config.yaml": "c6b86dc0a8f0943ad4399bc262534870a6130654318e9bc540e250854d81d6f6",
    },
}


@pytest.mark.parametrize("graph_kind", GRAPH_KINDS)
@pytest.mark.parametrize("nudge_kind", NUDGE_KINDS)
def test_llm_artifacts_match_their_pins(tmp_path, graph_kind, nudge_kind):
    assert case_digests(("llm", graph_kind, nudge_kind), tmp_path) == GOLDEN["llm", graph_kind, nudge_kind]


@pytest.mark.parametrize("graph_kind", GRAPH_KINDS)
@pytest.mark.parametrize("engine", NUMERIC_ENGINES)
def test_numeric_artifacts_match_their_pins(tmp_path, engine, graph_kind):
    assert case_digests((engine, graph_kind), tmp_path) == GOLDEN[engine, graph_kind]


def test_mesh_layout_artifacts_match_their_pins(tmp_path):
    assert case_digests(("bcm", "random", 400), tmp_path) == GOLDEN["bcm", "random", 400]


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the OpenBLAS core type and numpy CPU-feature toggles are x86-64 only")
def test_digests_do_not_depend_on_the_cpu(tmp_path):
    paths = [str(Path(echosim.__file__).parents[1]), str(Path(__file__).parent), os.environ.get("PYTHONPATH", "")]
    script = ("import json, sys, test_golden; print(json.dumps({repr(case): test_golden.case_digests(case, sys.argv[1])"
              " for case in test_golden.CASES}))")
    children = {name: subprocess.Popen(
        [sys.executable, "-c", script, str(tmp_path / name)], stdout=subprocess.PIPE, text=True,
        env={**os.environ, **toggle, "PYTHONPATH": os.pathsep.join(filter(None, paths))})
        for name, toggle in CPU_TOGGLES.items()}
    digests = {}
    for name, child in children.items():
        out, _ = child.communicate(timeout=120)
        assert child.returncode == 0, f"{name}: exit status {child.returncode}"
        digests[name] = json.loads(out)
    for name in CPU_TOGGLES:
        assert digests[name] == digests["default"], f"{name} digests differ from the default's"
