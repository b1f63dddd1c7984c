import numpy as np
import pytest

from echosim.errors import ParameterError
from echosim.population import (
    AGE_MAX,
    AGE_MIN,
    BELIEF_GRID,
    TRAIT_ADJECTIVES,
    TRAIT_NAMES,
    Persona,
    Population,
    init_population,
    population_from_text,
    population_to_text,
)

TOPIC = "Euthanasia should be legal."


def rng(seed=1):
    return np.random.default_rng(seed)


def test_same_seed_same_population():
    a = init_population(2, TOPIC, False, rng(1))
    b = init_population(2, TOPIC, False, rng(1))
    assert a.personas == b.personas
    assert np.array_equal(a.beliefs, b.beliefs)


def test_attribute_ranges():
    pop = init_population(200, TOPIC, False, rng(3))
    for p in pop.personas:
        assert AGE_MIN <= p.age <= AGE_MAX
        assert len(p.traits) == 5
    assert np.all(pop.beliefs >= -2) and np.all(pop.beliefs <= 2)


def test_grid_beliefs_stay_on_grid():
    pop = init_population(50, TOPIC, True, rng(2))
    assert all(int(b) == b and int(b) in BELIEF_GRID for b in pop.beliefs)


def test_mean_belief_near_zero_over_many_seeds():
    means = [init_population(50, TOPIC, False, rng(s)).beliefs.mean() for s in range(1000)]
    assert abs(float(np.mean(means))) < 0.15


def test_trait_polarity_is_roughly_fair():
    pop = init_population(1000, TOPIC, False, rng(5))
    flags = np.array([p.traits for p in pop.personas], dtype=float)
    shares = flags.mean(axis=0)
    assert np.all(shares >= 0.45) and np.all(shares <= 0.55)


def test_persona_card_contents():
    p = Persona(index=12, gender="female", age=40, education="master",
                traits=(True, True, True, True, True))
    card = p.card
    assert "Agent 12" in card
    for name in TRAIT_NAMES:
        assert TRAIT_ADJECTIVES[name][0] in card
    assert p.card == card  # byte-identical on repeat


def test_persona_card_is_rendered_once_per_persona():
    p = init_population(3, TOPIC, True, rng(2)).personas[1]
    assert p.card is p.card


def test_persona_card_negative_polarity_adjective():
    p = Persona(index=0, gender="male", age=30, education="bachelor",
                traits=(False, True, True, True, True))
    assert TRAIT_ADJECTIVES["openness"][1] in p.card  # "conventional"


def test_serialization_round_trip_continuous():
    pop = init_population(20, TOPIC, False, rng(7))
    restored = population_from_text(population_to_text(pop))
    assert restored.personas == pop.personas
    assert np.array_equal(restored.beliefs, pop.beliefs)
    assert restored.topic == TOPIC and restored.grid is False


def test_serialization_round_trip_grid():
    pop = init_population(20, TOPIC, True, rng(8))
    restored = population_from_text(population_to_text(pop))
    assert np.array_equal(restored.beliefs, pop.beliefs)
    assert restored.grid is True


def test_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        init_population(1, TOPIC, False, rng())
    with pytest.raises(ParameterError):
        init_population(5, "", False, rng())
    with pytest.raises(ParameterError):
        Persona(index=0, gender="female", age=17, education="master",
                traits=(True,) * 5)
    for over, message in (({"traits": (True,) * 4}, "expected 5 trait entries, got 4"),
                          ({"gender": "robot"}, "unknown gender 'robot'"),
                          ({"education": "none"}, "unknown education level 'none'")):
        with pytest.raises(ParameterError, match=message):
            Persona(**{"index": 0, "gender": "female", "age": 30, "education": "master", "traits": (True,) * 5,
                       **over})
    with pytest.raises(ParameterError, match="3 personas but 2 beliefs"):
        Population(personas=init_population(3, TOPIC, False, rng()).personas, beliefs=np.zeros(2),
                   topic=TOPIC, grid=False)
    with pytest.raises(ParameterError):
        population_from_text("garbage")


@pytest.mark.parametrize("number,line", [
    (3, "0\tfemale\t30\tmaster\t+++++\t0.1\textra"),
    (4, "1\tfemale\t30\tmaster\t+++++"),
    (3, "0\tfemale\tthirty\tmaster\t+++++\t0.1"),
    (5, "2\tfemale\t30\tmaster\t+++++\tx"),
    (4, "1\tfemale\t99\tmaster\t+++++\t0.1"),
    (2, "grid\tyes"),
])
def test_a_malformed_line_is_named(number, line):
    lines = population_to_text(init_population(3, TOPIC, False, rng())).splitlines()
    lines[number - 1] = line
    with pytest.raises(ParameterError, match=f"malformed population record at line {number}: "):
        population_from_text("\n".join(lines))



def test_every_topic_init_population_accepts_reads_back():
    # population.txt holds the topic on one line, so a multi-line topic is refused up front
    for topic in ("a\nb", "a\rb", "a\u2028b", "ends with a newline\n", "", None):
        with pytest.raises(ParameterError, match="topic must be non-empty and one line"):
            init_population(3, topic, False, rng())
    pop = init_population(3, "Cats rule, \"dogs\" drool.", False, rng())
    assert population_from_text(population_to_text(pop)).topic == pop.topic
