import re

import numpy as np
import pytest

from echosim.errors import ParameterError
from echosim.population import (
    AGE_MAX,
    AGE_MIN,
    BELIEF_GRID,
    TRAIT_ADJECTIVES,
    TRAIT_NAMES,
    Population,
    check_beliefs,
    init_population,
    population_from_text,
    population_to_text,
)

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
])
def test_the_columns_are_checked(over, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        Population(**columns(**over))


@pytest.mark.parametrize("number,line", [
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
    (True, 4, "1\tfemale\t30\tmaster\t+++++\t3", "a grid belief must be an integer in [-2, 2], got 3"),
    (True, 4, "1\tfemale\t30\tmaster\t+++++\t0.5", "a grid belief must be an integer in [-2, 2], got 0.5"),
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
    (5, "2\tfemale\t30\tmaster\t+++++\tnan", "a belief must be finite and in [-2, 2], got nan"),
    (5, "2\tfemale\t30\tmaster\t+++++\t7.5", "a belief must be finite and in [-2, 2], got 7.5"),
    (5, "2\tfemale\t30\tmaster\t+++++\tinf", "a belief must be finite and in [-2, 2], got inf"),
])
def test_a_field_outside_its_range_is_named_with_the_reason(number, line, reason):
    lines = population_to_text(init_population(3, TOPIC, False, rng())).splitlines()
    lines[number - 1] = line
    with pytest.raises(ParameterError, match=re.escape(f"line {number}: {line!r} ({reason})")):
        population_from_text("\n".join(lines))


def test_a_grid_flag_over_continuous_beliefs_is_named():
    text = population_to_text(init_population(3, TOPIC, False, rng())).replace("grid\t0", "grid\t1")
    with pytest.raises(ParameterError, match="malformed population record at line 3: .*a grid belief must be"):
        population_from_text(text)


def test_every_topic_init_population_accepts_reads_back():
    # population.txt holds the topic on one line, so a multi-line topic is refused up front
    for topic in ("a\nb", "a\rb", "a\u2028b", "ends with a newline\n", "", None):
        with pytest.raises(ParameterError, match="topic must be non-empty and one line"):
            init_population(3, topic, False, rng())
    pop = init_population(3, "Cats rule, \"dogs\" drool.", False, rng())
    assert population_from_text(population_to_text(pop)).topic == pop.topic
