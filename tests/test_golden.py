"""Golden digests of every artifact of small runs, and their independence of the CPU.

Each pin is the sha256 of one file of one run: a mock ``llm`` run for every
graph kind with every nudge kind, n=30, 4 days; a ``bcm`` and an ``fj`` run on
every graph kind, n=30, 6 days; an ``fj`` run over all neighbours on the small
world, n=30, 6 days; and a ``bcm`` run with n=400. Every layout is
the particle mesh, on a 16 x 16 grid at n=30 and a 64 x 64 grid at n=400.
Every file but ``manifest.txt`` is pinned; the manifest names the Python and
numpy versions. An llm run's ``trajectory.jsonl`` and
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
    # every other numeric case recommends by similarity; this one hears every neighbour
    ("fj", "small_world", "all_neighbors"): {"engine": "fj", "n": 30, "days": 6, "seed": 11,
                                             "graph": {"kind": "small_world"}, "exposure_mode": "all_neighbors"},
    # a larger mesh grid than n=30's, on the path where numpy's FMA loops once changed the rounding
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
        "projection.csv": "8c2545d3d5130164dbdef55d4a87a65d284154a43aedcf132de8d28110543c5a",
        "population.txt": "cd8ecd74d8600358fb328dda00061a733685d9aca8fe4b0a996e38fcf74f1b50",
        "graph.txt": "58b8ed8fb6e5fc5baa30393fc7a73d34d91573a3c1e89a00a217f6b9981147fa",
        "config.yaml": "ca4f7830bbe0e27714340499c337690e551cabbd226117e876cbd3faeb878702",
    },
    ("llm", "small_world", "active"): {
        "trajectory.jsonl": "d6f8a9647cbc65a1f6b2ac9adffaefd1c23fd491539f1e50dd5cf703601a1e38",
        "transcript.jsonl": "cad74a52323de0efef7377dbd37d0fb5afe2d41d011cbe927129b9283ca80631",
        "metrics.csv": "e778030935063e377704533229b8a4ef03cf2ae1d5466cd8b979b0534c9e85e7",
        "projection.csv": "3ea7831a848644843a4fc2c084ead196ec672c6d2d780d75c9d479e9a5b82bc9",
        "population.txt": "cd8ecd74d8600358fb328dda00061a733685d9aca8fe4b0a996e38fcf74f1b50",
        "graph.txt": "58b8ed8fb6e5fc5baa30393fc7a73d34d91573a3c1e89a00a217f6b9981147fa",
        "config.yaml": "fdc8d8fae9cd0244f5d2529a494d91c33832f651dc3b9be82603c7b0f55ff347",
    },
    ("llm", "small_world", "passive"): {
        "trajectory.jsonl": "d6f8a9647cbc65a1f6b2ac9adffaefd1c23fd491539f1e50dd5cf703601a1e38",
        "transcript.jsonl": "662d871dbff0e1228b4fec89437c8fb05101884f987b9f7335cd0e05a0509be9",
        "metrics.csv": "e778030935063e377704533229b8a4ef03cf2ae1d5466cd8b979b0534c9e85e7",
        "projection.csv": "3ea7831a848644843a4fc2c084ead196ec672c6d2d780d75c9d479e9a5b82bc9",
        "population.txt": "cd8ecd74d8600358fb328dda00061a733685d9aca8fe4b0a996e38fcf74f1b50",
        "graph.txt": "58b8ed8fb6e5fc5baa30393fc7a73d34d91573a3c1e89a00a217f6b9981147fa",
        "config.yaml": "89dabcaa962b16830973aaf8b287002c88a25ede83ab8487a6fa0a8ca950ddde",
    },
    ("llm", "scale_free", "none"): {
        "trajectory.jsonl": "58a77115599b48cd71a006fa1cb136c8d5ea4b2302f1f779410d82a92eecbca7",
        "transcript.jsonl": "02b79022f29ace69cd0278f38f5c795841726e5561739f9365374b01143e174e",
        "metrics.csv": "e295035cb858898c39ba2438306592f281277df60089a1fda5ca4ac9d0d4e519",
        "projection.csv": "1f47b68657cb29c93bba93b5ed496fe0c7527e309380d13091c8633afaecd5f7",
        "population.txt": "cd8ecd74d8600358fb328dda00061a733685d9aca8fe4b0a996e38fcf74f1b50",
        "graph.txt": "b26b223eaea9570fb6f8fc95f9fbc50a5f7b9d6258269d5b66fb2bd7f335c0fb",
        "config.yaml": "6b489561e047d16755bf7fdba4b54e589db84a0f7f1bc86e69907b45350be6e4",
    },
    ("llm", "scale_free", "active"): {
        "trajectory.jsonl": "5d086b20e485b844c6d1a0fb7cb63ab0066f1ab699743fa7f658c167bfab802d",
        "transcript.jsonl": "5e3604e280b7e24af95908ebb917764e73619e04d276a11d4618db3ceb668ac3",
        "metrics.csv": "0eaf44861eb364ad5d368cc108f919e0b092d28feb14993372e5712e50553e34",
        "projection.csv": "34a74b5283f4479e0691ae5c6666e706a899ccf84166e9e84bff579609a0a83e",
        "population.txt": "cd8ecd74d8600358fb328dda00061a733685d9aca8fe4b0a996e38fcf74f1b50",
        "graph.txt": "b26b223eaea9570fb6f8fc95f9fbc50a5f7b9d6258269d5b66fb2bd7f335c0fb",
        "config.yaml": "c5fa0e1f7f2924ea01ae54d1fee70bcaf7abef095d4269c1492d37459c5b5be6",
    },
    ("llm", "scale_free", "passive"): {
        "trajectory.jsonl": "5d086b20e485b844c6d1a0fb7cb63ab0066f1ab699743fa7f658c167bfab802d",
        "transcript.jsonl": "ed21fa1f494ed93513187a61da2b3f6cf209953167eac2e8479d2f236d04e59f",
        "metrics.csv": "0eaf44861eb364ad5d368cc108f919e0b092d28feb14993372e5712e50553e34",
        "projection.csv": "34a74b5283f4479e0691ae5c6666e706a899ccf84166e9e84bff579609a0a83e",
        "population.txt": "cd8ecd74d8600358fb328dda00061a733685d9aca8fe4b0a996e38fcf74f1b50",
        "graph.txt": "b26b223eaea9570fb6f8fc95f9fbc50a5f7b9d6258269d5b66fb2bd7f335c0fb",
        "config.yaml": "200732afa2f38fb5e18fc3f06e90dd3c209829af929f875d2649024bed7acc48",
    },
    ("llm", "random", "none"): {
        "trajectory.jsonl": "87738b5f86771acd67a17ab0b9baa785f6a0bd0b288bcc64ac5a6f4e06fe457e",
        "transcript.jsonl": "a6acf500ab7e0e1dc6ef099b27c23a945031e9ec6ff67a48a3c24711c3cd8915",
        "metrics.csv": "a954e7d5070fc010557e9a7602afbdab12afa24642d2f54314cee42aafe23a79",
        "projection.csv": "f51ec6dcdef3780869129d7f17a8222a4c75c0d3f91f7db806f79f58b50ba106",
        "population.txt": "cd8ecd74d8600358fb328dda00061a733685d9aca8fe4b0a996e38fcf74f1b50",
        "graph.txt": "37935a057e16c827fc46f5a9264f836ccb8cc2c27902fa2754d46013565ff3e8",
        "config.yaml": "f5d087781c0e12eba4ef25c70a1e9118e29035de111c3ef431b3e8f18e54b262",
    },
    ("llm", "random", "active"): {
        "trajectory.jsonl": "22ea415793f44d526edac5a8dc6286c21c62406cd583a37d3c224b8d4f3b5bc6",
        "transcript.jsonl": "ca386f67c591296a7d1414008b709e430d5ae8fbbcf6a10155e56c85d943022a",
        "metrics.csv": "0c2bb409f9eba9e0a7d27257bfc2055b4142d897ea427a0a2a01ea6b0ffc6663",
        "projection.csv": "ce1fbe83b0aea2558bbdd6563ffc6f3d249e245bc092034794036580bcd5b78c",
        "population.txt": "cd8ecd74d8600358fb328dda00061a733685d9aca8fe4b0a996e38fcf74f1b50",
        "graph.txt": "37935a057e16c827fc46f5a9264f836ccb8cc2c27902fa2754d46013565ff3e8",
        "config.yaml": "37b2df4f4818f4f9146c18b3fe416f7428155264e7d586b44d2d1ff5d1221958",
    },
    ("llm", "random", "passive"): {
        "trajectory.jsonl": "22ea415793f44d526edac5a8dc6286c21c62406cd583a37d3c224b8d4f3b5bc6",
        "transcript.jsonl": "c610e008e60ae123a37a7a230b203525fa121202b5ab6c59810442437ac71fc1",
        "metrics.csv": "0c2bb409f9eba9e0a7d27257bfc2055b4142d897ea427a0a2a01ea6b0ffc6663",
        "projection.csv": "ce1fbe83b0aea2558bbdd6563ffc6f3d249e245bc092034794036580bcd5b78c",
        "population.txt": "cd8ecd74d8600358fb328dda00061a733685d9aca8fe4b0a996e38fcf74f1b50",
        "graph.txt": "37935a057e16c827fc46f5a9264f836ccb8cc2c27902fa2754d46013565ff3e8",
        "config.yaml": "a2febcd7348185b8f8a03f65f544d8f282c7a706c5b78a60472f6d1ee307ce9d",
    },
    ("bcm", "small_world"): {
        "trajectory.jsonl": "3e63e6768ebd155988b7067eab6a6eda493eebf359c3d4ff600f939c58db0e43",
        "metrics.csv": "d363af688a51552842311497c4e8e262e094aa7b5bb2b4cb15719b616085d1fc",
        "projection.csv": "8a7f3bfd20032f06ed3bf72a240d4b1e4557a344496711a643e6484f28a02df5",
        "population.txt": "61b3541ad55b5062dfeab86724be88506f89ceff947c11f6924aed15f64ea951",
        "graph.txt": "58b8ed8fb6e5fc5baa30393fc7a73d34d91573a3c1e89a00a217f6b9981147fa",
        "config.yaml": "e95a47e28d38fac0e7e2ea6bbc4ca742cfb89ea43c69ad403912bf433f8798b5",
    },
    ("bcm", "scale_free"): {
        "trajectory.jsonl": "46ca5ac1595e80757d7a50d5cbec1cc8145b379d6f5417d9e35d948ec72b079c",
        "metrics.csv": "7f8260e98ccd89443b94f958e865149f2bebbad698f2b03ebddaecd1f7fab2de",
        "projection.csv": "ba19555fe229545532b41e2efc148a78b9e41c2186e7a8623672d9069da40696",
        "population.txt": "61b3541ad55b5062dfeab86724be88506f89ceff947c11f6924aed15f64ea951",
        "graph.txt": "b26b223eaea9570fb6f8fc95f9fbc50a5f7b9d6258269d5b66fb2bd7f335c0fb",
        "config.yaml": "06d883dfdac3419c330b979b6936c596ae94ba2edd19181ce98c82137e298e20",
    },
    ("bcm", "random"): {
        "trajectory.jsonl": "dab5938d29474a5b8d4de2290bd9f0fbe2eefd492aedd8581ff9193533dd03e1",
        "metrics.csv": "dfac33c6cf9cb43a0462f7fb4fb558383293e0977a64d0976b0ba20ed85460fb",
        "projection.csv": "ac6e2ddc53ad62359996e0955e749a1455f0f6f53324ae91442c58ea0dc41e90",
        "population.txt": "61b3541ad55b5062dfeab86724be88506f89ceff947c11f6924aed15f64ea951",
        "graph.txt": "37935a057e16c827fc46f5a9264f836ccb8cc2c27902fa2754d46013565ff3e8",
        "config.yaml": "1943519008450936c2b7145c84088edf802412f81effe038ae9dfcfb7a27439f",
    },
    ("fj", "small_world"): {
        "trajectory.jsonl": "f839e298c223a4ebfe53d2cdaa0c88b1a3f67f750ffb6084ed3f2c070f65364e",
        "metrics.csv": "eabb6a84dc08ed0c2c8d5190ec7fe5d4624d4e652041da9d185a734d93999a9c",
        "projection.csv": "8325bd8765545b451acd33f60e7b5c424586f02703fd70611f0afb9064662e1e",
        "population.txt": "61b3541ad55b5062dfeab86724be88506f89ceff947c11f6924aed15f64ea951",
        "graph.txt": "58b8ed8fb6e5fc5baa30393fc7a73d34d91573a3c1e89a00a217f6b9981147fa",
        "config.yaml": "6662e53c9359386d6be3837373d2cf2bbe126a9405f2c0fd74e38b21c71c2398",
    },
    ("fj", "scale_free"): {
        "trajectory.jsonl": "c7fd6b170364a12e54665d3fdbdc5df86d430d89ac3c44ca6029f5bf12fbead5",
        "metrics.csv": "188153d1b6429f14531e90438667864f342ee8894fef8f5026a100e03b54d5bb",
        "projection.csv": "786ac5b499d03765a51d78be803713758e0a3635e2645b4c0c532a98984e58d8",
        "population.txt": "61b3541ad55b5062dfeab86724be88506f89ceff947c11f6924aed15f64ea951",
        "graph.txt": "b26b223eaea9570fb6f8fc95f9fbc50a5f7b9d6258269d5b66fb2bd7f335c0fb",
        "config.yaml": "444e6c65baf7b75c9ab68b550854575c35b2f3639499b8329cf1796f20b7d4c4",
    },
    ("fj", "random"): {
        "trajectory.jsonl": "960b13a1eb265d936eedb8f74a6dddbd88ce766e4be2c3a079badd7251a5daf9",
        "metrics.csv": "fd3fd7d0fd1e46c666792e1bef4bd586a69c4a8350adea3446e69546c0ef6a86",
        "projection.csv": "b25028285d6badf731e822b59851d17764b22287fc2b5bad227d6b4d87891092",
        "population.txt": "61b3541ad55b5062dfeab86724be88506f89ceff947c11f6924aed15f64ea951",
        "graph.txt": "37935a057e16c827fc46f5a9264f836ccb8cc2c27902fa2754d46013565ff3e8",
        "config.yaml": "2683fd8104ca394ea464d9bcd7c5dd3d658a35e5c6c2475e6ac56d5d24c2c705",
    },
    ("fj", "small_world", "all_neighbors"): {
        "trajectory.jsonl": "0af3b9e6ce55ae216724853ca8fd2d1dad3e0d49138b9cc696cd49f4d8cb8afe",
        "metrics.csv": "4f25b66306a346b1f145868243514d943f052cf8bc5b61a33cc9abae1495794c",
        "projection.csv": "f9b426bd76d3af61de6a2aac3203a4ded62a7a7931592158eac199270147c657",
        "population.txt": "61b3541ad55b5062dfeab86724be88506f89ceff947c11f6924aed15f64ea951",
        "graph.txt": "58b8ed8fb6e5fc5baa30393fc7a73d34d91573a3c1e89a00a217f6b9981147fa",
        "config.yaml": "0e3978a7624a428472f4e359dee5c70487b99e0f0faad47e79c316636a3deb6b",
    },
    ("bcm", "random", 400): {
        "trajectory.jsonl": "265ce8ff89e05b6ff328e392c7cf94167061f713b2a6a79cce5696ac2d4f481c",
        "metrics.csv": "8c044b840952b88dd3c049c844d6b8a8b959c63ec8447e9d646e3bc11002b9f7",
        "projection.csv": "45416c43619a30ce937dbf6bf4a8da48fc94972c1845607cdc9b15b346a260d8",
        "population.txt": "8c63e7d394c9f2de52592a8f555086fbc081278ce0b2b0af83e3e4202b219da6",
        "graph.txt": "46eb5c87855312e918d3220a8f0107e536135500c1ebac17b0a65426544347f5",
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


def test_fj_over_all_neighbors_artifacts_match_their_pins(tmp_path):
    case = ("fj", "small_world", "all_neighbors")
    assert case_digests(case, tmp_path) == GOLDEN[case]


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
