"""Agent pool: personas and initial beliefs.

Beliefs live on the scale -2 (strong opposition) to +2 (strong support).
Numeric engines use the continuous interval; the language engine uses the
integer grid {-2, -1, 0, 1, 2}. Persona attributes are drawn independently
of initial beliefs. Prompts and logs show a persona by its ``card``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError

BELIEF_MIN = -2.0
BELIEF_MAX = 2.0
BELIEF_GRID = (-2, -1, 0, 1, 2)

DEFAULT_TOPIC = "Euthanasia should be legal."

GENDERS = ("female", "male", "non-binary")
EDUCATION_LEVELS = ("high school", "bachelor", "master", "doctorate")

# Big Five dimensions with one adjective per polarity (positive, negative).
# Fixed here so persona cards are stable across runs and machines.
TRAIT_NAMES = ("openness", "conscientiousness", "extraversion", "agreeableness", "neuroticism")
TRAIT_ADJECTIVES = {
    "openness": ("curious", "conventional"),
    "conscientiousness": ("organized", "careless"),
    "extraversion": ("spontaneous", "reserved"),
    "agreeableness": ("cooperative", "argumentative"),
    "neuroticism": ("anxious", "calm"),
}

AGE_MIN = 18
AGE_MAX = 64


def clamp_to_grid(value: float) -> int:
    """Nearest integer grid point, clamped to [-2, 2]."""
    return int(min(max(round(value), BELIEF_GRID[0]), BELIEF_GRID[-1]))


@dataclass(frozen=True)
class Persona:
    """Immutable agent identity. ``traits`` holds one positive-polarity flag
    per Big Five dimension, in TRAIT_NAMES order."""

    index: int
    gender: str
    age: int
    education: str
    traits: tuple

    def __post_init__(self):
        if not AGE_MIN <= self.age <= AGE_MAX:
            raise ParameterError(f"age {self.age} outside [{AGE_MIN}, {AGE_MAX}]")
        if len(self.traits) != len(TRAIT_NAMES):
            raise ParameterError(f"expected {len(TRAIT_NAMES)} trait entries, got {len(self.traits)}")
        if self.gender not in GENDERS:
            raise ParameterError(f"unknown gender {self.gender!r}")
        if self.education not in EDUCATION_LEVELS:
            raise ParameterError(f"unknown education level {self.education!r}")

    def trait_adjectives(self) -> tuple:
        return tuple(
            TRAIT_ADJECTIVES[name][0 if positive else 1]
            for name, positive in zip(TRAIT_NAMES, self.traits)
        )

    @cached_property
    def card(self) -> str:
        """The deterministic text block that renders this persona in prompts and
        logs. It is rendered on first use and then kept with the persona, so a run
        renders each card once however many prompts carry it."""
        adjectives = ", ".join(self.trait_adjectives())
        return (
            f"Agent {self.index}. Gender: {self.gender}. Age: {self.age}. Education: {self.education}.\n"
            f"Personality: {adjectives}."
        )


@dataclass(frozen=True)
class Population:
    """Personas plus the aligned initial belief vector and the discussion topic."""

    personas: tuple
    beliefs: np.ndarray
    topic: str
    grid: bool

    def __post_init__(self):
        if len(self.personas) != len(self.beliefs):
            raise ParameterError(
                f"{len(self.personas)} personas but {len(self.beliefs)} beliefs"
            )


def check_topic(topic: str) -> None:
    """population.txt keeps the topic on one line, read back with str.splitlines."""
    if not isinstance(topic, str) or topic.splitlines() != [topic]:
        raise ParameterError(f"topic must be non-empty and one line, got {topic!r}")


def init_population(n: int, topic: str, grid: bool, rng: np.random.Generator) -> Population:
    """Create ``n`` agents: uniform ages in [18, 64], fair-coin trait
    polarities, uniform education and gender, and initial beliefs uniform on
    [-2, 2] (continuous) or on the integer grid when ``grid`` is set."""
    if n < 2:
        raise ParameterError(f"population needs at least 2 agents, got {n}")
    check_topic(topic)

    genders = rng.integers(0, len(GENDERS), size=n)
    ages = rng.integers(AGE_MIN, AGE_MAX + 1, size=n)
    educations = rng.integers(0, len(EDUCATION_LEVELS), size=n)
    trait_flags = rng.random((n, len(TRAIT_NAMES))) < 0.5
    if grid:
        beliefs = rng.integers(BELIEF_GRID[0], BELIEF_GRID[-1] + 1, size=n).astype(float)
    else:
        beliefs = rng.uniform(BELIEF_MIN, BELIEF_MAX, size=n)

    # through Python ints and bools: indexing the arrays one scalar at a time costs twice as much
    columns = zip(genders.tolist(), ages.tolist(), educations.tolist(), trait_flags.tolist())
    personas = tuple(
        Persona(index=i, gender=GENDERS[gender], age=age, education=EDUCATION_LEVELS[education], traits=tuple(flags))
        for i, (gender, age, education, flags) in enumerate(columns)
    )
    return Population(personas=personas, beliefs=beliefs, topic=topic, grid=grid)


def population_to_text(pop: Population) -> str:
    """Serialize for replay/audit: topic line, then one tab-separated agent
    line (index, gender, age, education, trait polarities, initial belief)."""
    lines = [f"topic\t{pop.topic}", f"grid\t{int(pop.grid)}"]
    for p, belief in zip(pop.personas, pop.beliefs):
        polarity = "".join("+" if t else "-" for t in p.traits)
        value = str(int(belief)) if pop.grid else repr(float(belief))
        lines.append(f"{p.index}\t{p.gender}\t{p.age}\t{p.education}\t{polarity}\t{value}")
    return "\n".join(lines) + "\n"


def population_from_text(text: str) -> Population:
    """Population from ``population_to_text``'s form; blank lines are skipped. A
    line that cannot be read, a persona index that is not the record's position
    from 0, a grid flag other than 0 or 1, and a grid belief off the integer grid
    are each a ``ParameterError`` naming the line."""
    lines = [(number, ln) for number, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if len(lines) < 3 or not lines[0][1].startswith("topic\t") or not lines[1][1].startswith("grid\t"):
        raise ParameterError("malformed population record")
    topic = lines[0][1].split("\t", 1)[1]
    personas = []
    beliefs = []
    number, ln = lines[1]
    try:
        flag = ln.split("\t", 1)[1]
        if flag not in ("0", "1"):
            raise ValueError("the grid flag must be 0 or 1")
        grid = flag == "1"
        for position, (number, ln) in enumerate(lines[2:]):
            index, gender, age, education, polarity, value = ln.split("\t")
            if int(index) != position:
                raise ValueError(f"agent {position} has index {index}")
            personas.append(
                Persona(
                    index=position,
                    gender=gender,
                    age=int(age),
                    education=education,
                    traits=tuple(ch == "+" for ch in polarity),
                )
            )
            beliefs.append(float(value))
            if grid and beliefs[-1] not in BELIEF_GRID:
                raise ValueError(f"a grid belief must be an integer in [-2, 2], got {value}")
    except ValueError as exc:  # a ParameterError of Persona's checks too
        raise ParameterError(f"malformed population record at line {number}: {ln!r} ({exc})") from None
    return Population(
        personas=tuple(personas),
        beliefs=np.array(beliefs, dtype=float),
        topic=topic,
        grid=grid,
    )
