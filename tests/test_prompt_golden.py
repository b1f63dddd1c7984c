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
from echosim.config import config_from_dict
from echosim.runner import run
from helpers import RecordingBackend

CASES = {
    "active": {"engine": "llm", "n": 30, "days": 4, "seed": 11,
               "graph": {"kind": "scale_free"}, "nudge": {"kind": "active"}},
    "passive": {"engine": "llm", "n": 30, "days": 4, "seed": 11,
                "graph": {"kind": "small_world"}, "nudge": {"kind": "passive"}},
}

# (sha256 of the prompts joined by NUL, number of prompts): at most 2n a day, as an
# agent that heard nothing, or whose notes already answer today's request (the last
# compression with the same notes, heard lines and budget returned those notes),
# keeps its notes without a compression call
GOLDEN = {
    "active": ("f433af38f9d28806675cc9691a8b1f84ec4652d3e38e482cde2e5abb04d7cff4", 214),
    "passive": ("39eaf98dc7b0adfba87903397252ccf61250ad3b97d8c9d5df4d792d9e475213", 206),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_prompt_of_a_run_matches_its_pin(tmp_path, monkeypatch, case):
    backend = RecordingBackend()
    monkeypatch.setattr(runner_mod, "MockBackend", lambda: backend)
    run(config_from_dict(CASES[case]), tmp_path / case)
    digest = hashlib.sha256("\0".join(backend.prompts).encode("utf-8")).hexdigest()
    assert (digest, len(backend.prompts)) == GOLDEN[case]
