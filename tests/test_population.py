import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from echosim.errors import ParameterError
from echosim.population import (
    AGE_MAX,
    AGE_MIN,
    BELIEF_GRID,
    BELIEF_MAX,
    BELIEF_MIN,
    EDUCATION_LEVELS,
    GENDERS,
    TRAIT_ADJECTIVES,
    TRAIT_NAMES,
    Population,
    check_beliefs,
    init_population,
    population_from_text,
    population_to_text,
)
from helpers import AWKWARD_TEXT

TOPIC = "Euthanasia should be legal."
COLUMNS = ("genders", "ages", "educations", "traits", "beliefs")


def rng(seed=1):
    return np.random.default_rng(seed)


def columns(n=3, **over):
    """Keyword arguments of a valid ``n``-agent Population: female master's
    graduates of 30 with every trait positive, at belief 0, with ``over`` applied."""
    return {"genders": np.zeros(n, dtype=int), "ages": np.full(n, 30), "educations": np.full(n, 2),
            "traits": np.ones((n, len(TRAIT_NAMES)), dtype=bool), "beliefs": np.zeros(n),
            "topic": TOPIC, "grid": False, **over}


def assert_same_population(a, b):
    for name in COLUMNS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.topic, a.grid) == (b.topic, b.grid)


def test_same_seed_same_population():
    assert_same_population(init_population(2, TOPIC, False, rng(1)), init_population(2, TOPIC, False, rng(1)))


def test_attribute_ranges():
    pop = init_population(200, TOPIC, False, rng(3))
    assert np.all(pop.ages >= AGE_MIN) and np.all(pop.ages <= AGE_MAX)
    assert set(pop.genders.tolist()) == {0, 1, 2} and set(pop.educations.tolist()) == {0, 1, 2, 3}
    assert pop.traits.shape == (200, 5) and pop.traits.dtype == bool
    assert np.all(pop.beliefs >= -2) and np.all(pop.beliefs <= 2)


def test_grid_beliefs_stay_on_grid():
    pop = init_population(50, TOPIC, True, rng(2))
    assert all(int(b) == b and int(b) in BELIEF_GRID for b in pop.beliefs)


def test_mean_belief_near_zero_over_many_seeds():
    means = [init_population(50, TOPIC, False, rng(s)).beliefs.mean() for s in range(1000)]
    assert abs(float(np.mean(means))) < 0.15


def test_trait_polarity_is_roughly_fair():
    pop = init_population(1000, TOPIC, False, rng(5))
    shares = pop.traits.mean(axis=0)
    assert np.all(shares >= 0.45) and np.all(shares <= 0.55)


def test_card_text():
    traits = np.array([[True, False, True, False, True]] * 13)
    pop = Population(**columns(13, genders=np.full(13, 2), ages=np.full(13, 40), traits=traits))
    assert pop.cards[12] == ("Agent 12. Gender: non-binary. Age: 40. Education: master.\n"
                             "Personality: curious, careless, spontaneous, argumentative, anxious.")


def test_card_contents():
    cards = Population(**columns()).cards
    assert [card.split(".")[0] for card in cards] == ["Agent 0", "Agent 1", "Agent 2"]
    for name in TRAIT_NAMES:
        assert TRAIT_ADJECTIVES[name][0] in cards[1]
    assert Population(**columns()).cards == cards  # byte-identical on repeat


def test_cards_are_rendered_once_per_population():
    pop = init_population(3, TOPIC, True, rng(2))
    assert "cards" not in vars(pop)
    assert pop.cards is pop.cards


def test_a_population_is_compared_and_hashed_by_identity():
    # generated field-wise methods would compare the array columns: == raised ValueError, hash() TypeError
    pop, twin = init_population(5, TOPIC, True, rng(3)), init_population(5, TOPIC, True, rng(3))
    assert pop == pop and pop != twin and not pop == twin
    assert hash(pop) == hash(pop) != hash(twin)
    assert len({pop, twin, pop}) == 2


def test_card_negative_polarity_adjective():
    traits = np.ones((3, 5), dtype=bool)
    traits[0, 0] = False
    cards = Population(**columns(traits=traits)).cards
    assert TRAIT_ADJECTIVES["openness"][1] in cards[0]  # "conventional"
    assert TRAIT_ADJECTIVES["openness"][1] not in cards[1]


def test_serialization_round_trip_continuous():
    pop = init_population(20, TOPIC, False, rng(7))
    restored = population_from_text(population_to_text(pop))
    assert_same_population(restored, pop)
    assert restored.topic == TOPIC and restored.grid is False


def test_serialization_round_trip_grid():
    pop = init_population(20, TOPIC, True, rng(8))
    restored = population_from_text(population_to_text(pop))
    assert_same_population(restored, pop)
    assert restored.grid is True


@pytest.mark.parametrize("n", [3.0, 2.5, True, "3", None])
def test_an_agent_count_that_is_not_an_integer_is_a_parameter_error(n):
    with pytest.raises(ParameterError, match=f"agent count must be an integer, got {re.escape(repr(n))}"):
        init_population(n, TOPIC, False, rng())


def test_a_numpy_integer_agent_count_is_a_count():
    assert len(init_population(np.int64(4), TOPIC, True, rng()).beliefs) == 4


@pytest.mark.parametrize("grid", [False, True])
@pytest.mark.parametrize("beliefs, bad, agent", [
    ([0.0, np.nan, 1.0], "nan", 1),
    ([np.inf, 0.0, 1.0], "inf", 0),
    ([0.0, 1.0, -2.0000000000000004], "-2.0000000000000004", 2),
    ([5.0, -7.0, 0.0], "5.0", 0),
], ids=["nan", "inf", "just-below-the-range", "outside-the-grid"])
def test_beliefs_outside_the_range_are_rejected(beliefs, bad, agent, grid):
    rule = "integers" if grid else "finite and"
    message = f"initial beliefs must be {rule} in [-2, 2], got {bad} for agent {agent}"
    with pytest.raises(ParameterError, match=re.escape(message)):
        check_beliefs(beliefs, grid)
    with pytest.raises(ParameterError, match=re.escape(message)):
        Population(**columns(beliefs=np.array(beliefs), grid=grid))


def test_grid_beliefs_off_the_integer_grid_are_rejected():
    # the continuous scale takes them
    check_beliefs([1.5, -0.25, 2.0])
    Population(**columns(beliefs=np.array([1.5, -0.25, 2.0])))
    with pytest.raises(ParameterError, match=re.escape("must be integers in [-2, 2], got 1.5 for agent 0")):
        Population(**columns(beliefs=np.array([1.5, -0.25, 2.0]), grid=True))


def test_beliefs_at_the_ends_of_the_range_are_accepted():
    for grid in (False, True):
        assert Population(**columns(beliefs=np.array([-2.0, 0.0, 2.0]), grid=grid)).grid is grid


def test_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        init_population(1, TOPIC, False, rng())
    with pytest.raises(ParameterError):
        init_population(5, "", False, rng())
    with pytest.raises(ParameterError):
        population_from_text("garbage")


@pytest.mark.parametrize("over,message", [
    ({"ages": np.array([30, 17, 70])}, "age 17 outside [18, 64]"),
    ({"ages": np.array([30, 30, 65])}, "age 65 outside [18, 64]"),
    ({"traits": np.ones((3, 4), dtype=bool)}, "expected 5 trait entries, got traits of shape (3, 4)"),
    ({"traits": np.ones(3, dtype=bool)}, "expected 5 trait entries, got traits of shape (3,)"),
    ({"genders": np.array([0, 3, 0])}, "gender code 3 outside [0, 2]"),
    ({"educations": np.array([-1, 0, 0])}, "education code -1 outside [0, 3]"),
    ({"beliefs": np.zeros(2)}, "3 genders but 2 beliefs"),
    ({"ages": np.full(4, 30)}, "4 ages but 3 beliefs"),
    ({"educations": np.zeros(2, dtype=int)}, "2 educations but 3 beliefs"),
    ({"traits": np.ones((2, 5), dtype=bool)}, "2 traits but 3 beliefs"),
    # columns population_to_text cannot write, or population_from_text cannot read back as they were
    ({name: np.zeros(0, dtype=int) for name in ("genders", "ages", "educations")}
     | {"traits": np.ones((0, 5), dtype=bool), "beliefs": np.zeros(0)},
     "a population needs at least one agent, got 0 beliefs"),
    ({"ages": [30.5, 30, 30]}, "ages must be a 1-D array of integers, got float64 of shape (3,)"),
    ({"genders": [0.5, 0, 0]}, "genders must be a 1-D array of integer codes, got float64 of shape (3,)"),
    ({"educations": [[2], [2], [2]]}, "educations must be a 1-D array of integer codes, got int64 of shape (3, 1)"),
    ({"traits": np.full((3, 5), 0.5)}, "traits must be an (n, 5) array of booleans, got float64 of shape (3, 5)"),
    ({"traits": np.full((3, 5), 2)}, "traits must be an (n, 5) array of booleans, got int64 of shape (3, 5)"),
    ({"beliefs": np.zeros((3, 2))}, "beliefs must be a 1-D array of real numbers, got float64 of shape (3, 2)"),
    ({"beliefs": ["1", "0", "0"]}, "beliefs must be a 1-D array of real numbers, got <U1 of shape (3,)"),
    ({"beliefs": [True, False, False]}, "beliefs must be a 1-D array of real numbers, got bool of shape (3,)"),
])
def test_the_columns_are_checked(over, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        Population(**columns(**over))


@pytest.mark.parametrize("number,line", [
    (1, "topic\t"),
    (3, "0\tfemale\t30\tmaster\t+++++\t0.1\textra"),
    (4, "1\tfemale\t30\tmaster\t+++++"),
    (3, "0\tfemale\tthirty\tmaster\t+++++\t0.1"),
    (5, "2\tfemale\t30\tmaster\t+++++\tx"),
    (4, "1\tfemale\t99\tmaster\t+++++\t0.1"),
    (2, "grid\tyes"),
    (4, "1\tfemale\t30\tmaster\t+x+++\t0.1"),
    (4, "1\tfemale\t30\tmaster\t++++\t0.1"),
    (4, "1\tfemale\t30\tmaster\t+++++-\t0.1"),
    (3, "0\tfemale\t30\tmaster\t+++++\tnan"),
    (3, "0\tfemale\t30\tmaster\t+++++\t7.5"),
    (3, "0\tfemale\t30\tmaster\t+++++\t-inf"),
])
def test_a_malformed_line_is_named(number, line):
    lines = population_to_text(init_population(3, TOPIC, False, rng())).splitlines()
    lines[number - 1] = line
    with pytest.raises(ParameterError, match=f"malformed population record at line {number}: "):
        population_from_text("\n".join(lines))


@pytest.mark.parametrize("grid,number,line,reason", [
    (False, 3, "9\tfemale\t30\tmaster\t+++++\t0.1", "agent 0 has index 9"),
    (False, 5, "1\tfemale\t30\tmaster\t+++++\t0.1", "agent 2 has index 1"),
    (False, 2, "grid\t7", "the grid flag must be 0 or 1"),
    (True, 4, "1\tfemale\t30\tmaster\t+++++\t3", "initial beliefs must be integers in [-2, 2], got 3.0 for agent 1"),
    (True, 4, "1\tfemale\t30\tmaster\t+++++\t0.5", "initial beliefs must be integers in [-2, 2], got 0.5 for agent 1"),
])
def test_a_record_at_odds_with_its_position_or_the_grid_flag_is_named(grid, number, line, reason):
    lines = population_to_text(init_population(3, TOPIC, grid, rng())).splitlines()
    lines[number - 1] = line
    with pytest.raises(ParameterError, match=re.escape(f"line {number}: {line!r} ({reason})")):
        population_from_text("\n".join(lines))


@pytest.mark.parametrize("number,line,reason", [
    (3, "0\trobot\t30\tmaster\t+++++\t0.1", "unknown gender 'robot'"),
    (3, "0\tfemale\t30\tnone\t+++++\t0.1", "unknown education level 'none'"),
    (4, "1\tfemale\t17\tmaster\t+++++\t0.1", "age 17 outside [18, 64]"),
    (4, "1\tfemale\t30\tmaster\t+x+++\t0.1", "a polarity must be 5 characters, each + or -, got '+x+++'"),
    (4, "1\tfemale\t30\tmaster\t++++\t0.1", "a polarity must be 5 characters, each + or -, got '++++'"),
    (5, "2\tfemale\t30\tmaster\t+++++\tnan", "initial beliefs must be finite and in [-2, 2], got nan for agent 2"),
    (5, "2\tfemale\t30\tmaster\t+++++\t7.5", "initial beliefs must be finite and in [-2, 2], got 7.5 for agent 2"),
    (5, "2\tfemale\t30\tmaster\t+++++\tinf", "initial beliefs must be finite and in [-2, 2], got inf for agent 2"),
])
def test_a_field_outside_its_range_is_named_with_the_reason(number, line, reason):
    lines = population_to_text(init_population(3, TOPIC, False, rng())).splitlines()
    lines[number - 1] = line
    with pytest.raises(ParameterError, match=re.escape(f"line {number}: {line!r} ({reason})")):
        population_from_text("\n".join(lines))


def test_a_grid_flag_over_continuous_beliefs_is_named():
    text = population_to_text(init_population(3, TOPIC, False, rng())).replace("grid\t0", "grid\t1")
    with pytest.raises(ParameterError, match="malformed population record at line 3: .*initial beliefs must be integers"):
        population_from_text(text)


def test_every_topic_init_population_accepts_reads_back():
    # population.txt holds the topic on one line, so a multi-line topic is refused up front
    for topic in ("a\nb", "a\rb", "a\u2028b", "ends with a newline\n", "", None):
        with pytest.raises(ParameterError, match="topic must be non-empty and one line"):
            init_population(3, topic, False, rng())
        with pytest.raises(ParameterError, match="topic must be non-empty and one line"):
            Population(**columns(topic=topic))
    pop = init_population(3, "Cats rule, \"dogs\" drool.", False, rng())
    assert population_from_text(population_to_text(pop)).topic == pop.topic


@st.composite
def population_columns(draw):
    """Keyword arguments of a Population: valid columns of 1 to 6 agents, grid
    or continuous beliefs, and any topic, one line or not."""
    n, grid = draw(st.integers(1, 6)), draw(st.booleans())

    def column(element):
        return np.array(draw(st.lists(element, min_size=n, max_size=n)))

    belief = st.integers(BELIEF_GRID[0], BELIEF_GRID[-1]).map(float) if grid else st.floats(BELIEF_MIN, BELIEF_MAX)
    return {"genders": column(st.integers(0, len(GENDERS) - 1)), "ages": column(st.integers(AGE_MIN, AGE_MAX)),
            "educations": column(st.integers(0, len(EDUCATION_LEVELS) - 1)),
            "traits": column(st.lists(st.booleans(), min_size=len(TRAIT_NAMES), max_size=len(TRAIT_NAMES))),
            "beliefs": column(belief), "topic": draw(AWKWARD_TEXT), "grid": grid}


@given(population_columns())
@example(columns(topic="\ttabs\tinside, and 'é', 世界 and 😀 "))
@example(columns(topic="  leading and trailing spaces  ", beliefs=np.array([-2.0, 1e-300, 2.0])))
@example(columns(topic="a\nb"))
@example(columns(topic="a\rb"))
@example(columns(topic="a\u2028b"))
def test_every_population_that_can_be_built_reads_back_equal(kwargs):
    try:
        pop = Population(**kwargs)
    except ParameterError:
        # valid columns, so the topic is the one thing Population can refuse here
        assert kwargs["topic"].splitlines() != [kwargs["topic"]]
        return
    assert_same_population(population_from_text(population_to_text(pop)), pop)


@pytest.mark.parametrize("grid,name,value", [
    (False, "ages", 17),
    (False, "ages", 65),
    (False, "beliefs", np.nan),
    (False, "beliefs", np.inf),
    (False, "beliefs", -np.inf),
    (False, "beliefs", 7.5),
    (True, "beliefs", 0.5),
])
def test_a_value_population_refuses_is_refused_in_a_record_on_its_line(grid, name, value):
    # gender and education codes have no place in the text: a record names them
    pop = init_population(3, TOPIC, grid, rng())
    given = {column: np.array(getattr(pop, column)) for column in COLUMNS}
    given[name][1] = value
    with pytest.raises(ParameterError) as refused:
        Population(**given, topic=TOPIC, grid=grid)
    lines = population_to_text(pop).splitlines()
    fields = lines[3].split("\t")
    fields[2 if name == "ages" else 5] = str(value)
    lines[3] = "\t".join(fields)
    with pytest.raises(ParameterError, match=re.escape(f"line 4: {lines[3]!r} ({refused.value})")):
        population_from_text("\n".join(lines))


def test_the_columns_of_a_built_population_are_read_only_copies():
    given = columns()
    pop = Population(**given)
    for name in COLUMNS:
        assert not np.shares_memory(getattr(pop, name), given[name]), name
        with pytest.raises(ValueError, match="read-only"):
            getattr(pop, name)[0] = getattr(pop, name)[1]
