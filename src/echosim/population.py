"""Agent pool: the agents as aligned columns, and initial beliefs.

Beliefs live on the scale -2 (strong opposition) to +2 (strong support).
Numeric engines use the continuous interval; the language engine uses the
integer grid {-2, -1, 0, 1, 2}. Each agent's gender, age, education and Big
Five trait polarities are drawn independently of its initial belief, and are
kept as one array per attribute. Prompts and logs show an agent by its card,
which only the language engine renders, once a run, from those columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError, check_integer

BELIEF_MIN = -2.0
BELIEF_MAX = 2.0
BELIEF_GRID = (-2, -1, 0, 1, 2)

DEFAULT_TOPIC = "Euthanasia should be legal."

GENDERS = ("female", "male", "non-binary")
EDUCATION_LEVELS = ("high school", "bachelor", "master", "doctorate")

# Big Five dimensions with one adjective per polarity (positive, negative).
# Fixed here so agent cards are stable across runs and machines.
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


class AgentError(ParameterError):
    """A value of one agent is outside its valid range; ``agent`` is its index."""

    def __init__(self, agent: int, message: str):
        super().__init__(message)
        self.agent = agent


def check_beliefs(values, grid: bool = False) -> None:
    """Raise an AgentError naming the first agent whose initial belief in
    ``values`` is not finite or lies outside [-2, 2], or with ``grid`` set, is
    not an integer. Every engine's beliefs pass this one check."""
    values = np.asarray(values, dtype=float)
    bad = ~((values >= BELIEF_MIN) & (values <= BELIEF_MAX))  # NaN fails both comparisons
    if grid:
        bad |= values != np.round(values)
    outside = np.flatnonzero(bad)
    if outside.size:
        rule = "integers" if grid else "finite and"
        raise AgentError(int(outside[0]), f"initial beliefs must be {rule} in [-2, 2], got "
                                          f"{float(values[outside[0]])!r} for agent {outside[0]}")


@dataclass(frozen=True, eq=False)
class Population:
    """The agents as aligned read-only columns, row i for agent i: ``genders``
    and ``educations`` as codes into GENDERS and EDUCATION_LEVELS, ``ages``, an
    (n, 5) bool ``traits`` of positive-polarity flags in TRAIT_NAMES order, and
    the initial ``beliefs``; plus the one-line topic and whether the beliefs are
    on the integer grid, which ``check_beliefs`` holds them to. The columns are
    copies, so these checks hold for good. Compared and hashed by identity."""

    genders: np.ndarray
    ages: np.ndarray
    educations: np.ndarray
    traits: np.ndarray
    beliefs: np.ndarray
    topic: str
    grid: bool

    def __post_init__(self):
        check_topic(self.topic)
        # what population_to_text writes and population_from_text reads back: numpy dtype kinds
        for name, kinds, form in (("genders", "iu", "a 1-D array of integer codes"),
                                  ("ages", "iu", "a 1-D array of integers"),
                                  ("educations", "iu", "a 1-D array of integer codes"),
                                  ("traits", "b", f"an (n, {len(TRAIT_NAMES)}) array of booleans"),
                                  ("beliefs", "iuf", "a 1-D array of real numbers")):
            column = np.array(getattr(self, name))
            column.flags.writeable = False
            object.__setattr__(self, name, column)
            if column.dtype.kind not in kinds or (column.ndim != 1 and name != "traits"):
                raise ParameterError(f"{name} must be {form}, got {column.dtype} of shape {column.shape}")
        if self.traits.shape[1:] != (len(TRAIT_NAMES),):
            raise ParameterError(f"expected {len(TRAIT_NAMES)} trait entries, got traits of shape {self.traits.shape}")
        if not len(self.beliefs):
            raise ParameterError("a population needs at least one agent, got 0 beliefs")
        for name in ("genders", "ages", "educations", "traits"):
            if len(getattr(self, name)) != len(self.beliefs):
                raise ParameterError(f"{len(getattr(self, name))} {name} but {len(self.beliefs)} beliefs")
        for name, column, low, high in (("age", self.ages, AGE_MIN, AGE_MAX),
                                        ("gender code", self.genders, 0, len(GENDERS) - 1),
                                        ("education code", self.educations, 0, len(EDUCATION_LEVELS) - 1)):
            outside = np.flatnonzero((column < low) | (column > high))
            if outside.size:
                raise AgentError(int(outside[0]), f"{name} {column[outside[0]]} outside [{low}, {high}]")
        check_beliefs(self.beliefs, self.grid)

    @cached_property
    def cards(self) -> tuple:
        """Each agent's card, the deterministic text block that renders it in
        prompts and logs. They are rendered on first use and then kept, so a run
        renders each card once however many prompts carry it."""
        personalities = [
            ", ".join([TRAIT_ADJECTIVES[name][0 if positive else 1] for name, positive in zip(TRAIT_NAMES, flags)])
            for flags in self.traits.tolist()
        ]
        columns = zip(self.genders.tolist(), self.ages.tolist(), self.educations.tolist(), personalities)
        return tuple(
            f"Agent {i}. Gender: {GENDERS[gender]}. Age: {age}. Education: {EDUCATION_LEVELS[education]}.\n"
            f"Personality: {personality}."
            for i, (gender, age, education, personality) in enumerate(columns)
        )


def check_topic(topic: str) -> None:
    """population.txt keeps the topic on one line, read back with str.splitlines."""
    if not isinstance(topic, str) or topic.splitlines() != [topic]:
        raise ParameterError(f"topic must be non-empty and one line, got {topic!r}")


def init_population(n: int, topic: str, grid: bool, rng: np.random.Generator) -> Population:
    """Create ``n`` agents: uniform ages in [18, 64], fair-coin trait
    polarities, uniform education and gender, and initial beliefs uniform on
    [-2, 2] (continuous) or on the integer grid when ``grid`` is set."""
    check_integer("agent count", n)
    if n < 2:
        raise ParameterError(f"population needs at least 2 agents, got {n}")

    genders = rng.integers(0, len(GENDERS), size=n)
    ages = rng.integers(AGE_MIN, AGE_MAX + 1, size=n)
    educations = rng.integers(0, len(EDUCATION_LEVELS), size=n)
    traits = rng.random((n, len(TRAIT_NAMES))) < 0.5
    if grid:
        beliefs = rng.integers(BELIEF_GRID[0], BELIEF_GRID[-1] + 1, size=n).astype(float)
    else:
        beliefs = rng.uniform(BELIEF_MIN, BELIEF_MAX, size=n)
    return Population(genders=genders, ages=ages, educations=educations, traits=traits, beliefs=beliefs,
                      topic=topic, grid=grid)


def population_to_text(pop: Population) -> str:
    """Serialize for replay/audit: topic line, then one tab-separated agent
    line (index, gender, age, education, trait polarities, initial belief)."""
    polarities = ["".join(row) for row in np.where(pop.traits, "+", "-").tolist()]
    values = [str(int(b)) for b in pop.beliefs.tolist()] if pop.grid else [repr(b) for b in pop.beliefs.tolist()]
    columns = zip(pop.genders.tolist(), pop.ages.tolist(), pop.educations.tolist(), polarities, values)
    lines = [f"topic\t{pop.topic}", f"grid\t{int(pop.grid)}"]
    lines += [f"{i}\t{GENDERS[gender]}\t{age}\t{EDUCATION_LEVELS[education]}\t{polarity}\t{value}"
              for i, (gender, age, education, polarity, value) in enumerate(columns)]
    return "\n".join(lines) + "\n"


def population_from_text(text: str) -> Population:
    """Population from ``population_to_text``'s form; blank lines are skipped. A
    line that cannot be read, a grid flag other than 0 or 1, an agent index that
    is not the record's position from 0, an unknown gender or education, a
    polarity other than five ``+`` or ``-``, and any value ``Population`` rejects
    are each a ``ParameterError`` naming the line."""
    lines = [(number, ln) for number, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if len(lines) < 3 or not lines[0][1].startswith("topic\t") or not lines[1][1].startswith("grid\t"):
        raise ParameterError("malformed population record")
    rows = []
    number, ln = lines[1]
    try:
        flag = ln.split("\t", 1)[1]
        if flag not in ("0", "1"):
            raise ValueError("the grid flag must be 0 or 1")
        for position, (number, ln) in enumerate(lines[2:]):
            index, gender, age, education, polarity, value = ln.split("\t")
            if int(index) != position:
                raise ValueError(f"agent {position} has index {index}")
            if gender not in GENDERS:
                raise ValueError(f"unknown gender {gender!r}")
            if education not in EDUCATION_LEVELS:
                raise ValueError(f"unknown education level {education!r}")
            if len(polarity) != len(TRAIT_NAMES) or polarity.strip("+-"):
                raise ValueError(f"a polarity must be {len(TRAIT_NAMES)} characters, each + or -, got {polarity!r}")
            rows.append((GENDERS.index(gender), int(age), EDUCATION_LEVELS.index(education),
                         [ch == "+" for ch in polarity], float(value)))
        genders, ages, educations, traits, beliefs = map(np.array, zip(*rows))
        number, ln = lines[0]  # a refusal that names no agent is the topic's
        return Population(genders=genders, ages=ages, educations=educations, traits=traits, beliefs=beliefs,
                          topic=ln.split("\t", 1)[1], grid=flag == "1")
    except ValueError as exc:
        if isinstance(exc, AgentError):
            number, ln = lines[2 + exc.agent]
        raise ParameterError(f"malformed population record at line {number}: {ln!r} ({exc})") from None
