"""Parser, printer and variable-assignment behaviour on the notation."""

import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from lexroad.boolean_core import compile_rule, equations_to_text
from lexroad.rule_dsl import (
    Connective,
    DuplicateLabelError,
    NamingConflictError,
    RuleSource,
    RuleSyntaxError,
    VarKind,
    assign_variables,
    load_rule_file,
    parse_rule,
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
    with pytest.raises(DuplicateLabelError) as err:
        parse_rule_text(text)
    # reported at the second clause that carries the label
    assert (err.value.label, err.value.line, err.value.col) == ("X", 8, 5)
    assert str(err.value) == "<rule:adhoc>:8:5: error: duplicate label 'X'"


def test_outcome_label_clash_names_the_first_then_label():
    text = ("IF:\n    [A] p.\nTHEN:\n    [X] t; and,\n    [Z] z.\n"
            "ELSE:\n    [Z] u; and,\n    [X] v.\n")
    with pytest.raises(DuplicateLabelError) as err:
        parse_rule_text(text)
    assert str(err.value) == "<rule:adhoc>:8:5: error: duplicate label 'X'"


@pytest.mark.parametrize("text, error", [
    # a scan error anywhere comes before a nesting error
    ("IF:\n    [A] p:\n            a. deep;\n        b. shallow.\nELSE:\n    [Y] ;\n",
     "6:5: error: empty clause"),
    ("IF:\n    [A] p; and,\n    [A] q.\nELSE:\n    [Y] r.\nWHEN:\n",
     "6:1: error: clause line must be indented"),
    # in a section, a line left of its first line comes before any other
    ("IF:\n    [A] p:\n            a. deep;\n        b. shallow.\n  [B] r.\nELSE:\n    [Y] s.\n",
     "5:3: error: unbalanced nesting"),
    ("IF:\n    [A] p:\n        a. q; and,\n        a. r.\n    [B] s.\n  [C] t.\nELSE:\n    [Y] u.\n",
     "6:3: error: unbalanced nesting"),
    # else the first one met, in the earliest section that has one
    ("IF:\n    [A] p:\n        a. q; and,\n        a. r.\n    [B] s:\n            b. t.\n"
     "        c. u.\nELSE:\n    [Y] v.\n", "4:9: error: duplicate label 'a'"),
    ("IF:\n    [A] p.\nTHEN:\n    [X] q; and,\n    [X] r.\nELSE:\n  [Y] s.\n    [Z] t.\n",
     "5:5: error: duplicate label 'X'"),
], ids=["scan-after-nesting", "scan-after-label", "left-of-first", "left-of-first-after-label",
     "first-met", "earlier-section"])
def test_error_precedence(text, error):
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule_text(text)
    assert str(err.value).startswith(f"<rule:adhoc>:{error}")


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


@pytest.mark.parametrize("key", ["rule", "title", "group"])
def test_rule_file_header_given_twice_is_rejected(tmp_path, key):
    path = tmp_path / "twice.rule"
    path.write_text(
        "rule: TEST-1\ntitle: A title\ngroup: 113\ncites: s1\ncites: s2\n"
        f"# a comment\n  {key}: again\n\nIF:\n    [A] p.\nELSE:\n    [Y] q.\n",
        encoding="utf-8",
    )
    with pytest.raises(RuleSyntaxError) as err:
        load_rule_file(path)
    assert str(err.value) == f"{path}:7:1: error: header '{key}' given twice"


def test_rule_file_path_is_spelled_as_pathlib_does(tmp_path, monkeypatch):
    (tmp_path / "d").mkdir()
    rule = tmp_path / "d" / "r.rule"
    rule.write_text("rule: R\n\nIF:\n    [A] p.\nELSE:\n    [Y] q.\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for spelling in (rule, str(rule), f"{tmp_path}//d/./r.rule", f"{tmp_path}/d/../d/r.rule",
                     "d/r.rule", "./d/r.rule", "d//r.rule", "d/./r.rule"):
        assert load_rule_file(spelling).path == str(Path(spelling)), spelling
    with pytest.raises(TypeError):  # as Path(bytes) does
        load_rule_file(bytes(rule))


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


def test_generated_ids_follow_clause_paths():
    # a key is the clause's label, or its 1-based position among all its
    # siblings, labelled ones included
    text = """\
IF:
    [A] Driver is on a road:
        a. road is a motorway; or,
        road is a dual carriageway.
    Vehicle is moving; and,
    [B] Lights are on: @var(lit)
        headlights are on.
EXCEPT:
    Emergency.
THEN:
    [X] May stop:
        Until told to move.
ELSE:
    Must not stop:
        Where signs permit.
"""
    ast = parse_rule_text(text, "R")
    table = assign_variables(ast)
    assert list(table.paths.items()) == [
        ("IF.A.a", "R.IF.A.a"), ("IF.A.2", "R.IF.A.2"), ("IF.2", "R.IF.2"), ("IF.B", "lit"),
        ("EXCEPT.1", "R.EXCEPT.1"), ("ELSE.1.1", "R.ELSE.1.1"), ("THEN.X", "R.THEN.X"),
        ("ELSE.1", "R.ELSE.1"),
    ]
    assert equations_to_text(compile_rule(ast, table)) == (
        "R.THEN.X = ((R.IF.A.a ∨ R.IF.A.2) ∧ R.IF.2 ∧ lit) ∧ R.EXCEPT.1\n"
        "R.ELSE.1 = (((R.IF.A.a ∨ R.IF.A.2) ∧ R.IF.2 ∧ lit) ∧ ¬R.EXCEPT.1) ∧ R.ELSE.1.1\n"
    )


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


@st.composite
def _rule_files(draw):
    """A generated rule, small enough for exhaustive steps, maybe corrupted."""
    lines = ["rule: GEN", ""] + draw(_rule_texts().filter(lambda t: t.count("\n") <= 9)).splitlines()
    corruption = draw(st.sampled_from(["none", "none", "splice", "char", "drop", "latin-1"]))
    at = draw(st.integers(0, len(lines) - 1))
    if corruption == "splice":  # a clause of any depth anywhere, maybe a duplicate label
        lines[at:at] = draw(_clause_lines(draw(st.integers(1, 3)), draw(st.integers(0, 2))))
    elif corruption == "char":
        col = draw(st.integers(0, len(lines[at])))
        glyph = draw(st.sampled_from(list("[]().:;@\t #é\r") + ["@var(GEN.IF.A)", "EXCEPT:"]))
        lines[at] = lines[at][:col] + glyph + lines[at][col:]
    elif corruption == "drop":
        del lines[at]
    elif corruption == "latin-1":
        lines[at] += " café"
    text = "\n".join(lines) + "\n"
    return text.encode("latin-1" if corruption == "latin-1" else "utf-8")


_HEADER_LINES = st.sampled_from([
    "rule: GEN", "rule: OTHER", "rule:", "title: A title", "title: Another", "cites: Act s1",
    "group: 103-105", "  group: 300  ", "rules: GEN", "# a comment", "",
])
# smart punctuation the reader folds, a combining accent NFC composes,
# whitespace str.split() and str.strip() see, and line breaks only
# str.splitlines() sees
_ODD_GLYPHS = st.sampled_from(list("\u2018\u2019\u201c\u201d\u2013\u2014\u00a0\u2003\x1f\x0b\x85")
                              + ["e\u0301", "  "])
_SIBLING_MARKERS = st.sampled_from(["[K] ", "[L] ", "k. ", "l. ", "iv. ", ""])
_VARS = st.sampled_from([" @var(a)", " @var(b_1)", "  @var(GEN.x-2)  ", "@var(a)", " @var(9z)"])


@st.composite
def _mangled_rule_files(draw):
    """``_rule_files``, and on those that decode one more change: more
    siblings after a clause, ``@var`` on some clauses, a bracket label
    swapped for another, a line indented more or less, a line repeated,
    leading spaces turned to tabs, an odd glyph inserted, header lines
    added or CRLF line ends."""
    data = draw(_rule_files())
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        return data
    change = draw(st.sampled_from(["none", "siblings", "vars", "label", "indent", "repeat", "tabs",
                                   "glyph", "header", "crlf"]))
    at = draw(st.integers(0, len(lines) - 1))
    clauses = [i for i, line in enumerate(lines) if line[:1] == " "] or [at]
    if change == "siblings":
        at = draw(st.sampled_from(clauses))
        indent = lines[at][: len(lines[at]) - len(lines[at].lstrip(" "))]
        markers = draw(st.lists(_SIBLING_MARKERS, min_size=2, max_size=4, unique=True))
        lines[at + 1:at + 1] = [indent + marker + draw(_TEXT) + draw(_TERMS) for marker in markers]
    elif change == "vars":
        for i in draw(st.sets(st.sampled_from(clauses), min_size=1, max_size=4)):
            lines[i] += draw(_VARS)
    elif change == "label":
        at = draw(st.sampled_from([i for i in clauses if "[" in lines[i]] or [at]))
        lines[at] = re.sub(r"\[[A-Z]\]", draw(st.sampled_from(["[A]", "[B]", "[X]", "[Y]"])),
                           lines[at], count=1)
    elif change == "indent":
        lines[at] = " " * draw(st.integers(0, 6)) + lines[at].lstrip(" ")
    elif change == "repeat":
        lines.insert(draw(st.integers(at, len(lines))), lines[at])
    elif change == "tabs":
        lines[at] = lines[at].replace("    ", "\t", draw(st.integers(1, 3)))
    elif change == "glyph":
        col = draw(st.integers(0, len(lines[at])))
        lines[at] = lines[at][:col] + draw(_ODD_GLYPHS) + lines[at][col:]
    elif change == "header":
        at = draw(st.integers(0, 2))
        lines[at:at] = draw(st.lists(_HEADER_LINES, min_size=1, max_size=3))
    return ("\r\n" if change == "crlf" else "\n").join(lines).encode("utf-8")


def _outcome(read, *args):
    """What ``read(*args)`` returns, or the class and text of what it raises."""
    try:
        return read(*args)
    except (RuleSyntaxError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(_mangled_rule_files())
def test_parser_agrees_with_the_plain_reference(data):
    """The one-pass reader gives the source, tree or error that the plain
    line-by-line parser in ``reference`` gives, on a file and on its body
    as ``parse_rule_text`` would get it."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "r.rule"
        path.write_bytes(data)
        source = _outcome(load_rule_file, path)
        assert source == _outcome(reference.load_rule_file, path)
        if isinstance(source, RuleSource):
            assert _outcome(parse_rule, source) == _outcome(reference.parse_rule, source)
    text = data.decode("utf-8", errors="replace")
    body = RuleSource("GEN", text=text.partition("\n\n")[2] or text)
    assert _outcome(parse_rule, body) == _outcome(reference.parse_rule, body)
