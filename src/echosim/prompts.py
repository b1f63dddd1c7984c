"""Prompt templates for the language engine, and parsing of model replies.

The wording here is this package's own design. Two templates exist: a daily
reflection prompt asking for an updated stance, and a note-compression
prompt for long-term memory; the first opens with the agent's card, as
``Population.cards`` renders it. Replies to the reflection prompt must carry a
``BELIEF:`` integer in [-2, 2] and opinion text, in either order: the text is
the reply without its first ``BELIEF:`` match, from its ``OPINION:`` tag on
when it has one. Out-of-range integers are clamped to the nearest grid endpoint.

Exposure items embed the speaker's numeric stance (``(stance +1) ...``) so
the stance signal reaches the model explicitly and a deterministic mock
backend can act on it. Both templates list what an agent heard as one
``- Agent {source}: {text}`` line per item, and take those lines as one block,
joined by newlines: ``heard_lines`` renders every speaker's line once a day, and
the language engine joins each listener's block once, for both of its prompts.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional, Sequence

from .errors import OpinionParseError
from .population import clamp_to_grid

REFLECTION_HEADER = "You are a participant in a long-running online discussion. Stay in character."
SUMMARY_HEADER = "You keep private discussion notes for one participant."

SECTION_PROFILE = "== Who you are =="
SECTION_TOPIC = "== Topic =="
SECTION_MEMORY = "== What you remember =="
SECTION_HEARD = "== Today you heard =="
SECTION_NOTE = "== Platform note =="
SECTION_POSITION = "== Your current position =="
SECTION_FORMAT = "== How to answer =="
SECTION_OLD_NOTES = "== Existing notes =="
SECTION_EXCHANGES = "== Today's exchanges =="

STANCE_STATEMENTS = {
    -2: "I strongly oppose this.",
    -1: "I lean against this.",
    0: "I am undecided for now.",
    1: "I lean in favor of this.",
    2: "I strongly support this.",
}

# the reply format that ends every reflection prompt, after a blank line
_REFLECTION_FORMAT = "\n".join([
    "",
    SECTION_FORMAT,
    "Think about what you heard today and whether it changes your view.",
    "Reply with exactly two lines:",
    "BELIEF: <integer from -2 (strongly oppose) to 2 (strongly support)>",
    "OPINION: <one or two sentences giving your current view>",
])

_BELIEF_RE = re.compile(r"BELIEF:\s*([+-]?)0*(\d+)")  # sign, then the digits without leading zeros


class OpinionOutput(NamedTuple):
    """An agent's stated opinion text plus its grid belief value."""

    opinion_text: str
    belief: int
    clamped: bool = False


def heard_lines(texts: Sequence[str]) -> list:
    """The prompt line of each agent's text, ``- Agent {j}: {text}``, by index."""
    return [f"- Agent {j}: {text}" for j, text in enumerate(texts)]


def stance_statement(belief: int) -> str:
    """Canonical opinion text for a grid belief; used for day-0 states."""
    return STANCE_STATEMENTS[clamp_to_grid(belief)]


def build_reflection_prompt(
    card: str,
    topic: str,
    long_term: str,
    heard: str,
    belief: int,
    text: str,
    nudge: Optional[str] = None,
) -> str:
    """Deterministic daily prompt: the agent's card, topic, long-term summary,
    the block of today's heard lines (no section when it is empty), optional
    note, the current position (grid ``belief`` and opinion ``text``), reply format."""
    heard = f"\n\n{SECTION_HEARD}\n{heard}" if heard else ""
    note = "" if nudge is None else f"\n\n{SECTION_NOTE}\n{nudge}"
    return (f"{REFLECTION_HEADER}\n\n{SECTION_PROFILE}\n{card}\n\n{SECTION_TOPIC}\n{topic}\n\n"
            f"{SECTION_MEMORY}\n{long_term or 'Nothing so far.'}{heard}{note}\n\n"
            f"{SECTION_POSITION}\nStance value: {belief:+d}\nStatement: {text}\n{_REFLECTION_FORMAT}")


def build_summary_prompt(old_summary: str, heard: str, budget: int) -> str:
    """Deterministic compression prompt: the old notes, the block of the day's
    heard lines, and the character budget of the rewritten notes."""
    heard = f"{heard}\n" if heard else ""
    return (f"{SUMMARY_HEADER}\n\n{SECTION_OLD_NOTES}\n{old_summary or '(none)'}\n\n{SECTION_EXCHANGES}\n{heard}\n"
            f"{SECTION_FORMAT}\nRewrite the notes to at most {budget} characters, keeping what will matter\n"
            "in future conversations. Reply with the notes text only.")


def parse_opinion_output(raw: str) -> OpinionOutput:
    """Read a reply by one rule per field, whatever the order of its lines.

    The belief is the first ``BELIEF:`` integer, read from at most four digits
    after its leading zeros (more lie off the grid anyway), then clamped to the
    grid and flagged when it was off it. The opinion text is the reply with that
    match cut out, from its first ``OPINION:`` tag on when it has one, stripped.
    Raises OpinionParseError when there is no belief integer or no opinion text.
    """
    belief_match = _BELIEF_RE.search(raw)
    if belief_match is None:
        raise OpinionParseError(f"no BELIEF line in reply: {raw[:80]!r}")
    sign, digits = belief_match.groups()
    read = int(sign + digits[:4])  # int() refuses more than 4,300 digits
    belief = clamp_to_grid(read)
    head, tag, tail = (raw[:belief_match.start()] + raw[belief_match.end():]).partition("OPINION:")
    text = (tail if tag else head).strip()
    if not text:
        raise OpinionParseError("reply carries no opinion text")
    return OpinionOutput(opinion_text=text, belief=belief, clamped=belief != read)
