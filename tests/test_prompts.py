import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from echosim.errors import OpinionParseError
from echosim.population import BELIEF_GRID
from echosim.prompts import (
    SECTION_HEARD,
    OpinionOutput,
    SECTION_NOTE,
    build_reflection_prompt,
    build_summary_prompt,
    parse_opinion_output,
    stance_statement,
)

CARD = ("Agent 12. Gender: female. Age: 40. Education: master.\n"
        "Personality: curious, careless, spontaneous, argumentative, anxious.")
TOPIC = "Euthanasia should be legal."
CURRENT = (1, "I lean in favor of this.")  # belief, opinion text


class TestReflectionPrompt:
    def test_empty_memory_no_nudge(self):
        prompt = build_reflection_prompt(CARD, TOPIC, "", "", *CURRENT)
        assert CARD in prompt
        assert TOPIC in prompt
        assert SECTION_HEARD not in prompt
        assert SECTION_NOTE not in prompt
        assert "Stance value: +1" in prompt

    def test_short_term_items_appear_verbatim(self):
        heard = ["- Agent 3: (stance -1) first take",
                 "- Agent 7: (stance +2) second take",
                 "- Agent 9: (stance 0) third take"]
        prompt = build_reflection_prompt(CARD, TOPIC, "", "\n".join(heard), *CURRENT)
        assert SECTION_HEARD + "\n" + "\n".join(heard) + "\n\n" in prompt
        assert prompt.count(SECTION_HEARD) == 1

    def test_nudge_block_appears_exactly_once(self):
        prompt = build_reflection_prompt(CARD, TOPIC, "", "", *CURRENT,
                                         nudge="Issues are rarely black and white.")
        assert prompt.count(SECTION_NOTE) == 1
        assert "Issues are rarely black and white." in prompt

    def test_deterministic(self):
        a = build_reflection_prompt(CARD, TOPIC, "old notes", "", *CURRENT)
        b = build_reflection_prompt(CARD, TOPIC, "old notes", "", *CURRENT)
        assert a == b


class TestSummaryPrompt:
    def test_contains_items_and_budget(self):
        prompt = build_summary_prompt("old", "- Agent 4: (stance +1) hello", 600)
        assert "- Agent 4: (stance +1) hello" in prompt
        assert "at most 600 characters" in prompt

    def test_an_empty_block_leaves_no_line_between_the_sections(self):
        assert build_summary_prompt("old", "", 600) == (
            "You keep private discussion notes for one participant.\n"
            "\n"
            "== Existing notes ==\n"
            "old\n"
            "\n"
            "== Today's exchanges ==\n"
            "\n"
            "== How to answer ==\n"
            "Rewrite the notes to at most 600 characters, keeping what will matter\n"
            "in future conversations. Reply with the notes text only."
        )

    def test_a_multi_line_opinion_text_stands_as_it_is(self):
        block = "- Agent 2: (stance -1) line one\nline two\n- Agent 5: (stance +2) yes"
        assert build_summary_prompt("", block, 80) == (
            "You keep private discussion notes for one participant.\n"
            "\n"
            "== Existing notes ==\n"
            "(none)\n"
            "\n"
            "== Today's exchanges ==\n"
            "- Agent 2: (stance -1) line one\n"
            "line two\n"
            "- Agent 5: (stance +2) yes\n"
            "\n"
            "== How to answer ==\n"
            "Rewrite the notes to at most 80 characters, keeping what will matter\n"
            "in future conversations. Reply with the notes text only."
        )


class TestParsing:
    def test_plain_reply(self):
        out = parse_opinion_output("BELIEF: -2\nOPINION: I firmly oppose.")
        assert out.belief == -2
        assert out.opinion_text == "I firmly oppose."
        assert out.clamped is False

    def test_out_of_grid_integer_clamps_and_flags(self):
        out = parse_opinion_output("BELIEF: 7\nOPINION: x")
        assert out.belief == 2
        assert out.clamped is True
        low = parse_opinion_output("BELIEF: -9\nOPINION: y")
        assert low.belief == -2 and low.clamped

    @pytest.mark.parametrize("sign, end", [("", 2), ("+", 2), ("-", -2)], ids=["unsigned", "plus", "minus"])
    def test_an_integer_too_long_for_int_clamps_to_the_end_of_its_sign(self, sign, end):
        out = parse_opinion_output(f"BELIEF: {sign}{'9' * 5000}\nOPINION: x")
        assert (out.belief, out.clamped, out.opinion_text) == (end, True, "x")

    @pytest.mark.parametrize("sign, value", [("", 1), ("-", -2), ("+", 0)], ids=["one", "minus-two", "plus-zero"])
    def test_leading_zeros_read_as_the_number(self, sign, value):
        out = parse_opinion_output(f"BELIEF: {sign}{'0' * 5000}{abs(value)}\nOPINION: x")
        assert (out.belief, out.clamped) == (value, False)

    def test_unstructured_reply_is_an_error(self):
        with pytest.raises(OpinionParseError):
            parse_opinion_output("no structure here")

    def test_first_belief_tag_wins(self):
        out = parse_opinion_output("BELIEF: 1\nOPINION: fine\nBELIEF: -2")
        assert out.belief == 1

    def test_multiline_opinion_is_kept(self):
        out = parse_opinion_output("BELIEF: 0\nOPINION: line one\nline two")
        assert out.opinion_text == "line one\nline two"

    def test_missing_opinion_tag_falls_back_to_surrounding_text(self):
        out = parse_opinion_output("I think it depends.\nBELIEF: 1")
        assert out.belief == 1
        assert "I think it depends." in out.opinion_text

    def test_belief_without_any_text_is_an_error(self):
        with pytest.raises(OpinionParseError):
            parse_opinion_output("BELIEF: 1")

    def test_an_opinion_line_first_leaves_no_belief_line_in_the_text(self):
        out = parse_opinion_output("OPINION: I agree.\nBELIEF: 1")
        assert (out.opinion_text, out.belief, out.clamped) == ("I agree.", 1, False)

    def test_the_text_runs_from_the_opinion_tag_with_the_belief_cut_out(self):
        out = parse_opinion_output("Let me think.\nOPINION: I lean against it.\nBELIEF: -1\nThat is all.")
        assert (out.opinion_text, out.belief) == ("I lean against it.\n\nThat is all.", -1)

    @given(belief=st.sampled_from(BELIEF_GRID),
           text=st.text().filter(lambda t: "\n" not in t and t.strip()
                                 and "BELIEF:" not in t and "OPINION:" not in t))
    @example(belief=-2, text=" 42 ")
    @example(belief=0, text="OPINION")
    def test_either_line_order_reads_the_same(self, belief, text):
        expected = OpinionOutput(text.strip(), belief)
        assert parse_opinion_output(f"BELIEF: {belief}\nOPINION: {text}") == expected
        assert parse_opinion_output(f"OPINION: {text}\nBELIEF: {belief}") == expected


def test_stance_statements_cover_grid():
    seen = {stance_statement(b) for b in (-2, -1, 0, 1, 2)}
    assert len(seen) == 5
    assert all(s for s in seen)
