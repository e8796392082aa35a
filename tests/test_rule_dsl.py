"""Parser, printer and variable-assignment behaviour on the notation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexroad.rule_dsl import (
    Connective,
    DuplicateLabelError,
    NamingConflictError,
    RuleSyntaxError,
    VarKind,
    assign_variables,
    parse_rule_text,
    pretty_print,
)

SEAT_BELT_RULE = """\
IF:
    [A] Vehicle occupant is:
        a. An adult; or,
        b. A minor over:
            i. 14 years of age; or,
            ii. 1.35 metres in height.
EXCEPT:
    [C] Where seat belt is not fitted or available;
THEN:
    [X] Seat belt cannot be worn.
ELSE:
    [Y] Seat belt MUST be worn.
"""

BABY_RESTRAINT_RULE = """\
IF:
    [A] Vehicle occupant is a minor; and
    [B] Under 3 years of age.
EXCEPT:
    [C] Where vehicle is a taxi; and,
        a. Correct restraint is unavailable;
THEN:
    [X] Minor may be unrestrained.
ELSE:
    [Y] Correct child restraint MUST be used.
"""

OLDER_MINOR_RESTRAINT_RULE = """\
IF:
    [A] Vehicle occupant is a minor;
    [B] 3 years of age or older; and,
        a. Under:
            i. 1.35 metres in height; or,
            ii. 14 years of age.
EXCEPT:
    [C] Where child restraint is:
        a. unavailable:
            i. In a licensed taxi or private hire vehicle; or,
            ii. For reasons of unexpected necessity:
                a. over a short distance;
            iii. If two occupied restraints prevent fitment of a third.
THEN:
    [X] Adult restraint must be used.
ELSE:
    [Y] Correct child restraint MUST be used;
        a. Where:
            i. Seat belts are fitted.
"""

SIGNALLING_RULE = """\
IF:
    [A] When in control of a motor vehicle; and,
    [B] There is an intention to:
        a. Change course; or,
        b. Direction; or,
        c. Stop; or,
        d. Move off.
EXCEPT:
    [C] Where it would be misleading to signal at that time;
THEN:
    [X] Signalling should be delayed;
        a. until:
            i. Signalling would not be misleading;
ELSE:
    [Y] Other road users should be alerted by:
        a. Clear signals;
        b. Given in plenty of time.
"""

SIDE_ROAD_SCENARIO_RULE = """\
IF:
    [A] When in control of a motor vehicle; and,
    [B] There is an intention to:
        a. Turn or exit the current road:
            i. Immediately after passing a side road on;
            ii. The same side as the intended turn.
EXCEPT:
    [C] Where it would be misleading to signal at that time;
        b. Because other drivers may believe it signals an intention to:
            i. Turn into the side road.
THEN:
    [X] Signalling should be delayed;
        a. Until:
            i. The vehicle has passed the side road.
ELSE:
    [Y] Other road users should be alerted by:
        a. Clear signals:
            i. Brake lights to warn when slowing down; and,
            ii. Indicators to warn of change in course;
        b. Given with sufficient time to:
            i. Adjust their own course and speed; and,
            ii. Avoid potential for an accident.
"""

DUAL_CARRIAGEWAY_RULE = """\
IF:
    [A] Where a vehicle is on a two-lane or three-lane dual carriageway;
EXCEPT:
    [C] Where there is an intention to:
        a. Overtake; or,
        b. Turn right;
THEN:
    [X] The vehicle may:
        a. Use:
            i. The right lane on a two-lane dual carriageway; or,
            ii. The middle or right lane on a three-lane dual carriageway.
        b. Until:
            i. It is safe to move back into the left lane.
ELSE:
    [Y] The vehicle should stay in the left lane.
"""

PEDESTRIAN_CROSSING_RULE = """\
IF:
    [A] Where a vehicle is approaching a pedestrian crossing;
EXCEPT:
    [C] Where there is no person on or entering the pedestrian crossing, and:
        a. a flashing amber light;
        b. a green light; or,
        c. no traffic lights.
THEN:
    [X] The vehicle may proceed through the pedestrian crossing with caution.
ELSE:
    [Y] The vehicle must stop at the pedestrian crossing until there is:
        a. no person on or entering the pedestrian crossing; and,
        b. if present, the traffic light has changed to:
            i. flashing amber; or,
            ii. green.
"""

ALL_RULES = [
    SEAT_BELT_RULE,
    BABY_RESTRAINT_RULE,
    OLDER_MINOR_RESTRAINT_RULE,
    SIGNALLING_RULE,
    SIDE_ROAD_SCENARIO_RULE,
    DUAL_CARRIAGEWAY_RULE,
    PEDESTRIAN_CROSSING_RULE,
]


def test_seat_belt_structure():
    ast = parse_rule_text(SEAT_BELT_RULE, "seat-belt")
    assert len(ast.if_clauses) == 1
    a = ast.if_clauses[0]
    assert a.label == "A"
    assert [c.label for c in a.children] == ["a", "b"]
    assert a.children[0].connective == Connective.OR
    b = a.children[1]
    assert [c.label for c in b.children] == ["i", "ii"]
    assert b.children[0].connective == Connective.OR
    assert b.children[1].text == "1.35 metres in height"
    assert [c.label for c in ast.except_clauses] == ["C"]
    assert [c.label for c in ast.then_outcomes] == ["X"]
    assert [c.label for c in ast.else_outcomes] == ["Y"]
    assert ast.else_outcomes[0].text == "Seat belt MUST be worn"


def test_minimal_rule_has_no_exception():
    ast = parse_rule_text("IF:\n    [A] p.\nELSE:\n    [Y] q.\n")
    assert ast.except_clauses == ()
    assert ast.then_outcomes == ()
    assert ast.if_clauses[0].text == "p"


def test_section_level_and_between_clauses():
    ast = parse_rule_text(BABY_RESTRAINT_RULE)
    assert [c.label for c in ast.if_clauses] == ["A", "B"]
    assert ast.if_clauses[0].connective == Connective.AND
    # the exception clause keeps its refining child
    c = ast.except_clauses[0]
    assert c.children[0].text == "Correct restraint is unavailable"


def test_crossing_exception_has_three_or_children():
    ast = parse_rule_text(PEDESTRIAN_CROSSING_RULE)
    c = ast.except_clauses[0]
    assert len(c.children) == 3
    # the single explicit "or" spreads across the bare boundaries
    assert c.children[0].connective == Connective.OR
    assert c.children[1].connective == Connective.OR
    assert c.children[2].connective is None


def test_intention_list_is_or_fold():
    ast = parse_rule_text(SIGNALLING_RULE)
    b = ast.if_clauses[1]
    assert [c.text for c in b.children] == [
        "Change course", "Direction", "Stop", "Move off",
    ]
    assert all(c.connective == Connective.OR for c in b.children[:-1])


def test_deep_exception_nesting_and_inherited_or():
    ast = parse_rule_text(OLDER_MINOR_RESTRAINT_RULE)
    # IF list has no explicit connective anywhere: defaults to AND
    assert ast.if_clauses[0].connective == Connective.AND
    unavailable = ast.except_clauses[0].children[0]
    assert unavailable.label == "a"
    cases = unavailable.children
    assert [c.label for c in cases] == ["i", "ii", "iii"]
    # "ii" opens children, so its boundary inherits the preceding "or"
    assert cases[0].connective == Connective.OR
    assert cases[1].connective == Connective.OR
    assert cases[1].children[0].text == "over a short distance"
    # fourth nesting level reuses letter markers
    assert cases[1].children[0].label == "a"
    guard = ast.else_outcomes[0].children[0]
    assert guard.text == "Where"
    assert guard.children[0].text == "Seat belts are fitted"


def test_relabelled_exception_sub_item_is_first_child():
    ast = parse_rule_text(SIDE_ROAD_SCENARIO_RULE)
    c = ast.except_clauses[0]
    assert c.children[0].label == "b"
    assert c.children[0].children[0].text == "Turn into the side road"


def test_round_trip_on_notation_samples():
    for text in ALL_RULES:
        ast = parse_rule_text(text, "round-trip")
        again = parse_rule_text(pretty_print(ast), "round-trip")
        assert again == ast


def test_label_multiset_preserved():
    ast = parse_rule_text(DUAL_CARRIAGEWAY_RULE)

    def labels(clauses):
        out = []
        for c in clauses:
            if c.label:
                out.append(c.label)
            out.extend(labels(c.children))
        return out

    got = sorted(
        labels(ast.if_clauses) + labels(ast.except_clauses)
        + labels(ast.then_outcomes) + labels(ast.else_outcomes)
    )
    assert got == sorted(["A", "C", "a", "b", "X", "a", "i", "ii", "b", "i", "Y"])


def test_smart_punctuation_is_folded():
    text = "IF:\n    [A] Driver\u2019s side \u2013 occupied.\nELSE:\n    [Y] q.\n"
    ast = parse_rule_text(text)
    assert ast.if_clauses[0].text == "Driver's side - occupied"


def test_determinism():
    assert parse_rule_text(SEAT_BELT_RULE) == parse_rule_text(SEAT_BELT_RULE)


def test_round_trip_with_uppercase_label_below_top_level():
    text = "IF:\n  x is so.\n    [Y] nested; and,\n    [X] also.\nELSE:\n    [Z] out.\n"
    ast = parse_rule_text(text)
    assert ast.if_clauses[0].children[0].label == "Y"
    assert parse_rule_text(pretty_print(ast)) == ast


def test_connective_on_parent_line_is_inherited_not_kept():
    # a clause that opens children has no terminator slot; the boundary to
    # its next sibling inherits from the list's explicit connectives
    text = (
        "IF:\n"
        "    [B] group; and,\n"
        "        a. sub.\n"
        "    [A] single; or,\n"
        "    [C] last.\n"
        "ELSE:\n"
        "    [Y] out.\n"
    )
    ast = parse_rule_text(text)
    assert ast.if_clauses[0].connective == Connective.OR  # inherited from [A]
    assert parse_rule_text(pretty_print(ast)) == ast


def test_missing_else_is_rejected():
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule_text("IF:\n    [A] p.\n")
    assert "outcome" in str(err.value)


def test_malformed_section_header():
    with pytest.raises(RuleSyntaxError):
        parse_rule_text("WHEN:\n    [A] p.\nELSE:\n    [Y] q.\n")


def test_repeated_section_is_rejected():
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule_text("IF:\n    [A] p.\nIF:\n    [B] q.\nELSE:\n    [Y] r.\n")
    assert "twice" in str(err.value)


def test_sections_must_be_in_order():
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule_text("ELSE:\n    [Y] q.\nIF:\n    [A] p.\n")
    assert "out of order" in str(err.value)


def test_unindented_clause_is_rejected():
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule_text("IF:\n[A] p.\nELSE:\n    [Y] q.\n")
    assert "indented" in str(err.value)


def test_empty_clause_text_is_rejected():
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule_text("IF:\n    [A] ;\nELSE:\n    [Y] q.\n")
    assert "empty clause" in str(err.value)


def test_missing_if_section_is_rejected():
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule_text("ELSE:\n    [Y] q.\n")
    assert "IF" in str(err.value)


def test_outcome_labels_unique_across_sections():
    text = "IF:\n    [A] p.\nEXCEPT:\n    [C] e.\nTHEN:\n    [X] t.\nELSE:\n    [X] u.\n"
    with pytest.raises(DuplicateLabelError):
        parse_rule_text(text)


def test_unbalanced_nesting():
    bad = "IF:\n    [A] p:\n            a. deep;\n        b. shallow.\nELSE:\n    [Y] q.\n"
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule_text(bad)
    assert "nesting" in str(err.value)


def test_duplicate_sibling_label():
    bad = "IF:\n    [A] p; and,\n    [A] q.\nELSE:\n    [Y] r.\n"
    with pytest.raises(DuplicateLabelError):
        parse_rule_text(bad)


def test_error_positions_are_reported():
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule_text("IF:\nbad line\nELSE:\n    [Y] q.\n")
    assert err.value.line == 2
    assert str(err.value).startswith("<rule:adhoc>:2:1: error:")


def test_rule_file_header_round_trip(tmp_path):
    from lexroad.rule_dsl import load_rule_file

    path = tmp_path / "sample.rule"
    path.write_text(
        "# leading comment\n"
        "rule: TEST-1\n"
        "title: A sample rule\n"
        "cites: First source, s1\n"
        "cites: Second source, s2\n"
        "\n"
        "IF:\n    [A] p.\nELSE:\n    [Y] q.\n",
        encoding="utf-8",
    )
    source = load_rule_file(path)
    assert source.rule_id == "TEST-1"
    assert source.title == "A sample rule"
    assert source.citations == ("First source, s1", "Second source, s2")
    ast = parse_rule_text(source.text, source.rule_id)
    assert ast.if_clauses[0].text == "p"


def test_rule_file_without_id_is_rejected(tmp_path):
    from lexroad.rule_dsl import load_rule_file

    path = tmp_path / "anonymous.rule"
    path.write_text("title: no id\n\nIF:\n    [A] p.\nELSE:\n    [Y] q.\n")
    with pytest.raises(RuleSyntaxError) as err:
        load_rule_file(path)
    assert "rule:" in str(err.value)


def test_rule_file_errors_report_file_line(tmp_path):
    from lexroad.rule_dsl import load_rule_file, parse_rule

    path = tmp_path / "broken.rule"
    path.write_text("rule: TEST-2\n\nIF:\n    [A] p.\n")  # no ELSE
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule(load_rule_file(path))
    assert err.value.file == str(path)


def test_assign_variables_with_naming_map():
    text = """\
IF:
    [A] Vehicle occupant is:
        a. A minor under 3 years of age. @var(t)
EXCEPT:
    [C] Where vehicle is a taxi and the correct restraint is unavailable. @var(z)
THEN:
    [X] Minor may be unrestrained. @var(A)
ELSE:
    [Y] Correct child restraint MUST be used. @var(E)
"""
    ast = parse_rule_text(text, "baby")
    table = assign_variables(ast)
    assert table.ids(VarKind.FACTUAL) == ("t",)
    assert table.ids(VarKind.SITUATION) == ("z",)
    assert table.ids(VarKind.DECISION) == ("A", "E")
    assert table["t"].description == "A minor under 3 years of age"
    assert table["A"].description == "Minor may be unrestrained"


def test_assign_variables_auto_id():
    ast = parse_rule_text("IF:\n    [A] p.\nELSE:\n    [Y] q.\n", "tiny")
    table = assign_variables(ast)
    assert table.ids(VarKind.FACTUAL) == ("tiny.IF.A",)
    assert table.ids(VarKind.DECISION) == ("tiny.ELSE.Y",)


def test_assign_variables_kinds_and_guard(rules_by_id):
    entry = rules_by_id["UK-HC-99-100/3"]
    table = entry.equations.table
    assert table.ids(VarKind.FACTUAL) == ("u", "v", "w")
    assert table.ids(VarKind.SITUATION) == ("p", "x")
    assert table.ids(VarKind.DECISION) == ("C", "F")


def test_annotated_parent_is_one_variable(rules_by_id):
    # the intention list of the signalling rule folds into the single B
    table = rules_by_id["UK-HC-103"].equations.table
    assert table.ids(VarKind.FACTUAL) == ("A", "B")
    assert table.ids(VarKind.SITUATION) == ("C",)


def test_naming_conflict_on_distinct_texts():
    text = "IF:\n    [A] p; and, @var(same)\n    [B] q. @var(same)\nELSE:\n    [Y] r.\n"
    ast = parse_rule_text(text)
    with pytest.raises(NamingConflictError):
        assign_variables(ast)


def test_shared_text_may_share_an_id():
    text = ("IF:\n    [A] brakes are sound. @var(ok)\nEXCEPT:\n    [C] brakes are sound. @var(ok)\n"
            "THEN:\n    [X] x.\nELSE:\n    [Y] y.\n")
    ast = parse_rule_text(text)
    table = assign_variables(ast)
    assert "ok" in table
    assert table.paths["IF.A"] == table.paths["EXCEPT.C"] == "ok"


def test_pretty_print_sections_in_order(rules_by_id):
    entry = rules_by_id["UK-HC-137-138"]
    text = pretty_print(entry.ast)
    positions = [text.index(header) for header in ("IF:", "EXCEPT:", "THEN:", "ELSE:")]
    assert positions == sorted(positions)
    for label in ("[A]", "[C]", "[X]", "[Y]"):
        assert label in text


def test_pretty_print_elides_empty_sections():
    ast = parse_rule_text("IF:\n    [A] p.\nELSE:\n    [Y] q.\n")
    text = pretty_print(ast)
    assert "EXCEPT:" not in text
    assert "THEN:" not in text


def test_round_trip_on_shipped_rules(pack):
    for entry in pack.rules():
        from lexroad.rule_dsl import parse_rule, RuleSource

        printed = pretty_print(entry.ast)
        again = parse_rule(RuleSource(rule_id=entry.rule_id, text=printed))
        assert again == entry.ast


# --- generated round-trip ----------------------------------------------------

_WORDS = st.sampled_from(
    ["speed", "signal", "lane", "vehicle", "driver", "crossing", "clear",
     "restraint", "light", "stop"]
)
_TEXT = st.lists(_WORDS, min_size=1, max_size=3).map(" ".join)
_TERMS = st.sampled_from(["; or,", "; and,", ";", "."])


@st.composite
def _clause_lines(draw, depth, index):
    if depth == 1:
        label = f"[{chr(ord('A') + index)}] "
    elif depth == 2:
        label = f"{chr(ord('a') + index)}. "
    else:
        label = ["i. ", "ii. ", "iii. "][index]
    text = draw(_TEXT)
    want_children = depth < 3 and draw(st.booleans())
    lines = []
    if want_children:
        # any terminator may precede children; the notation treats it as ":"
        term = draw(st.sampled_from([":", ":", "; or,", "; and,", ";"]))
        lines.append("    " * depth + label + text + term)
        for i in range(draw(st.integers(1, 3))):
            lines.extend(draw(_clause_lines(depth + 1, i)))
    else:
        lines.append("    " * depth + label + text + draw(_TERMS))
    return lines


@st.composite
def _rule_texts(draw):
    lines = ["IF:"]
    for i in range(draw(st.integers(1, 2))):
        lines.extend(draw(_clause_lines(1, i)))
    if draw(st.booleans()):
        lines.append("EXCEPT:")
        lines.extend(draw(_clause_lines(1, 2)))
        lines.append("THEN:")
        lines.append("    [X] " + draw(_TEXT) + ".")
    lines.append("ELSE:")
    lines.append("    [Y] " + draw(_TEXT) + ".")
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(_rule_texts())
def test_generated_rules_round_trip(text):
    ast = parse_rule_text(text, "generated")
    assert parse_rule_text(pretty_print(ast), "generated") == ast
