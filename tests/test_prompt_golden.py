"""Golden digests of every prompt the language engine sends in two small runs.

The artifact pins of ``test_golden.py`` see a prompt only through what the mock
backend reads from it: the stance tokens, the platform note and the exchange
lines. A change to a persona card, the memory text, the topic or the reply
format in a prompt would pass them. These pins hold the sha256 of every prompt,
in the order ``run()`` sends them (serially, for the mock: each day's
reflections, then its compressions), and their count, for one mock run with
active nudges on a scale-free graph and one with passive nudges on a small
world.

A pin changes only when the prompt text changes on purpose, with a CHANGES.md
line saying what changed and why.
"""

import hashlib

import pytest

import echosim.runner as runner_mod
from echosim.backends import MockBackend
from echosim.config import config_from_dict
from echosim.runner import run

CASES = {
    "active": {"engine": "llm", "n": 30, "days": 4, "seed": 11,
               "graph": {"kind": "scale_free"}, "nudge": {"kind": "active"}},
    "passive": {"engine": "llm", "n": 30, "days": 4, "seed": 11,
                "graph": {"kind": "small_world"}, "nudge": {"kind": "passive"}},
}

# (sha256 of the prompts joined by NUL, number of prompts): at most 2n a day, as an
# agent that heard nothing keeps its notes without a compression call
GOLDEN = {
    "active": ("df38733ddbff01875895c618b9834cc1a3f440427dcdf8f904e256c26e641d28", 238),
    "passive": ("556e456b893463aaf794ac35ed0e2d656b0e410ef350a92a7d09f4ef39e67b71", 240),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_prompt_of_a_run_matches_its_pin(tmp_path, monkeypatch, case):
    prompts = []

    class RecordingBackend(MockBackend):
        def complete(self, prompt, max_length, temperature):
            prompts.append(prompt)
            return super().complete(prompt, max_length, temperature)

    monkeypatch.setattr(runner_mod, "MockBackend", RecordingBackend)
    run(config_from_dict(CASES[case]), tmp_path / case)
    digest = hashlib.sha256("\0".join(prompts).encode("utf-8")).hexdigest()
    assert (digest, len(prompts)) == GOLDEN[case]
