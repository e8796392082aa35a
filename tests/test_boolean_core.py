"""Compilation, scenario evaluation, truth tables and normalization.

Expected values for the derived cases are computed by independent
brute-force evaluators written here, not by the code under test.
"""

import itertools
import random
from string import ascii_lowercase

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexroad.boolean_core import (
    And,
    Const,
    CyclicDefinitionError,
    EquationSyntaxError,
    FALSE,
    Not,
    Or,
    RuleEquations,
    Var,
    check_properties,
    compile_rule,
    equations_to_text,
    evaluate,
    normalize,
    parse_equations,
    parse_expr,
    to_text,
)
from lexroad.rule_dsl import VariableTable, assign_variables, parse_rule_text
from reference import equivalent, expand, kleene_eval, truth_table


def brute_eval(expr, env):
    """Two-valued reference evaluator, independent of kleene_eval."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return env[expr.id]
    if isinstance(expr, Not):
        return not brute_eval(expr.child, env)
    results = [brute_eval(c, env) for c in expr.children]
    return all(results) if isinstance(expr, And) else any(results)


def completions_consensus(expr, partial, names):
    """TRUE/FALSE when all completions agree, else None."""
    unknown = [n for n in names if partial.get(n) is None]
    values = set()
    for combo in itertools.product((False, True), repeat=len(unknown)):
        env = dict(partial)
        env.update(zip(unknown, combo))
        values.add(brute_eval(expr, env))
    return values.pop() if len(values) == 1 else None


# --- compilation -------------------------------------------------------------

def test_compile_seat_belt_rule(rules_by_id):
    eqs = rules_by_id["UK-HC-99-100/1"].equations
    assert equations_to_text(eqs) == "B = (q ∨ (r ∨ s)) ∧ y\nD = (q ∨ (r ∨ s)) ∧ ¬y\n"


def test_compile_signalling_rule(rules_by_id):
    eqs = rules_by_id["UK-HC-103"].equations
    assert equations_to_text(eqs) == "X = (A ∧ B) ∧ C\nY = (A ∧ B) ∧ ¬C\n"
    assert equations_to_text(eqs, ascii_ops=True) == "X = (A & B) & C\nY = (A & B) & !C\n"


def test_compile_without_exception_gives_antecedent_only():
    ast = parse_rule_text("IF:\n    [A] p. @var(A)\nELSE:\n    [Y] out. @var(Y)\n")
    eqs = compile_rule(ast, assign_variables(ast))
    assert equations_to_text(eqs) == "Y = A\n"


def test_then_without_exception_is_unsatisfiable():
    text = (
        "IF:\n    [A] p. @var(A)\n"
        "THEN:\n    [X] never. @var(X)\n"
        "ELSE:\n    [Y] out. @var(Y)\n"
    )
    ast = parse_rule_text(text)
    eqs = compile_rule(ast, assign_variables(ast))
    assert eqs.equations["X"] == FALSE
    assert eqs.equations["Y"] == Var("A")
    assert all(not row.decisions["X"] for row in truth_table(eqs))


def test_guard_conjoins_the_outcome(rules_by_id):
    eqs = rules_by_id["UK-HC-99-100/3"].equations
    assert to_text(eqs.equations["F"]) == "((u ∨ v ∨ w) ∧ ¬p) ∧ x"


# --- evaluation --------------------------------------------------------------

def test_evaluate_baby_restraint_scenarios(rules_by_id):
    eqs = rules_by_id["UK-HC-99-100/2"].equations
    assert evaluate(eqs, {"t": True, "z": True}) == {"A": True, "E": False}
    assert evaluate(eqs, {"t": True, "z": False}) == {"A": False, "E": True}


def test_false_antecedent_forces_both_decisions(rules_by_id):
    eqs = rules_by_id["UK-HC-99-100/1"].equations
    for y in (True, False):
        result = evaluate(eqs, {"q": False, "r": False, "s": False, "y": y})
        assert result == {"B": False, "D": False}


def test_unknowns_propagate(rules_by_id):
    eqs = rules_by_id["UK-HC-99-100/3"].equations
    result = evaluate(eqs, {"u": True, "x": True})  # p unknown
    assert result == {"C": None, "F": None}
    # oracle: both completions of p must disagree for each decision
    exprs = expand(eqs)
    names = ("p", "u", "v", "w", "x")
    partial = {"u": True, "x": True, "v": False, "w": False}
    assert completions_consensus(exprs["C"], partial, names) is None
    assert completions_consensus(exprs["F"], partial, names) is None


def test_empty_assignment_is_all_unknown(rules_by_id):
    eqs = rules_by_id["UK-HC-103"].equations
    assert evaluate(eqs, {}) == {"X": None, "Y": None}


def test_decision_reference_is_expanded():
    eqs = parse_equations("E = (u ∨ v) ∧ ¬p\nF = E ∧ x\n")
    assert evaluate(eqs, {"u": True, "v": False, "p": False, "x": True}) == {
        "E": True,
        "F": True,
    }
    exprs = expand(eqs)
    assert to_text(exprs["F"]) == "((u ∨ v) ∧ ¬p) ∧ x"


# Z = (a ∨ b) ∧ ¬a: with b FALSE, Z is FALSE on every completion, although
# Kleene evaluation, which reads each occurrence of a on its own, says UNKNOWN.
REPEATED_VAR_RULE = (
    "IF:\n"
    "    [A] a holds; or, @var(a)\n"
    "    [B] b holds. @var(b)\n"
    "EXCEPT:\n"
    "    [C] a holds. @var(a)\n"
    "THEN:\n"
    "    [Y] y. @var(Y)\n"
    "ELSE:\n"
    "    [Z] z. @var(Z)\n"
)


def _compiled(text, rule_id="R"):
    ast = parse_rule_text(text, rule_id)
    return compile_rule(ast, assign_variables(ast))


def test_repeated_variable_verdict_is_exact():
    eqs = _compiled(REPEATED_VAR_RULE)
    assert equations_to_text(eqs) == "Y = (a ∨ b) ∧ a\nZ = (a ∨ b) ∧ ¬a\n"
    assert kleene_eval(expand(eqs)["Z"], {"b": False}) is None
    assert evaluate(eqs, {"b": False}) == {"Y": None, "Z": False}
    assert evaluate(eqs, {"a": True}) == {"Y": True, "Z": False}
    assert evaluate(eqs, {"b": True}) == {"Y": None, "Z": None}


def test_evaluate_rejects_a_hand_built_forward_reference():
    eqs = RuleEquations(
        rule_id="bad",
        table=VariableTable(rule_id="bad"),
        equations={"F": Var("E"), "E": Var("u")},
        input_order=("u",),
    )
    with pytest.raises(CyclicDefinitionError):
        evaluate(eqs, {"u": True})


def test_equations_are_frozen(rules_by_id):
    eqs = rules_by_id["UK-HC-103"].equations
    for name, value in (("equations", {}), ("input_order", ()), ("rule_id", "other")):
        with pytest.raises(AttributeError):
            setattr(eqs, name, value)


def test_evaluate_adds_no_diagram_nodes():
    eqs = _compiled(REPEATED_VAR_RULE)
    bdd, _ = eqs.diagram
    size = len(bdd._nodes)
    rng = random.Random(11)
    for _ in range(1000):
        evaluate(eqs, {name: rng.choice((True, False, None)) for name in ("a", "b")})
    assert eqs.diagram[0] is bdd and len(bdd._nodes) == size


@st.composite
def _repeated_var_rules(draw):
    """Rule text over 1-10 inputs or over 11-16, whose clauses give up to
    three @vars a second time: in one section, in the antecedent and the
    exception, or in an outcome's guard."""
    width = draw(st.integers(1, 10) | st.integers(11, 16))
    names = draw(st.permutations("abcdefghijklmnop"))[:width]
    twice = draw(st.lists(st.sampled_from(names), max_size=3))
    leaves = draw(st.permutations([*names, *twice]))
    cut = len(leaves)
    if len(leaves) > 1 and draw(st.booleans()):
        cut = draw(st.integers(1, len(leaves) - 1))

    def section(leaves):
        """Up to four top-level clauses over ``leaves`` in order: a leaf, or
        an "any of" clause over a run of them."""
        cuts = []
        if len(leaves) > 1:
            cuts = sorted(draw(st.sets(st.integers(1, len(leaves) - 1), max_size=3)))
        runs = [leaves[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, len(leaves)])]
        lines = []
        for i, run in enumerate(runs):
            if len(run) == 1:
                lines.append(f"    [{'ABCD'[i]}] {leaf(run[0], term(i == len(runs) - 1))}")
                continue
            lines.append(f"    [{'ABCD'[i]}] any of:")
            lines += [f"        {ascii_lowercase[j]}. {leaf(name, term(j == len(run) - 1))}"
                      for j, name in enumerate(run)]
        return lines

    def term(last):
        return "." if last else draw(st.sampled_from(["; or,", "; and,"]))

    def leaf(name, term):
        # one text per name, so that a name's clauses agree (an outcome's
        # guard is a clause that starts "Where")
        return f"Where {name} holds{term} @var({name})"

    lines = ["IF:", *section(leaves[:cut])]
    if cut < len(leaves):
        lines += ["EXCEPT:", *section(leaves[cut:]), "THEN:", "    [X] x. @var(X)"]
    lines += ["ELSE:", "    [Y] y. @var(Y)"]
    if draw(st.booleans()):
        lines += ["    [W] w: @var(W)", f"        a. {leaf(draw(st.sampled_from(names)), '.')}"]
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(_repeated_var_rules(), st.data())
def test_evaluate_is_exact_on_repeated_variables(text, data):
    """Each verdict is the consensus of brute force over every completion of
    the facts; Kleene evaluation only has to be sound.  At most 8 inputs are
    left open (missing or None), which keeps the completions at 256."""
    eqs = _compiled(text)
    names = eqs.input_ids()
    open_names = data.draw(st.lists(st.sampled_from(names), max_size=8, unique=True))
    facts = data.draw(st.fixed_dictionaries(
        {name: st.booleans() for name in names if name not in open_names},
        optional={name: st.none() for name in open_names}))
    known = {k: v for k, v in facts.items() if v is not None}
    got = evaluate(eqs, facts)
    for decision, expr in expand(eqs).items():
        want = completions_consensus(expr, known, names)
        assert got[decision] == want, (text, facts, decision)
        assert kleene_eval(expr, facts) in (None, want)


def test_forward_reference_is_a_cycle():
    with pytest.raises(CyclicDefinitionError):
        parse_equations("F = E ∧ x\nE = u ∨ v\n")


def test_a_cycle_names_the_line_of_the_first_use():
    with pytest.raises(CyclicDefinitionError) as err:
        parse_equations("A = a\n\nB = a ∧ (C ∨ B)\nC = B ∨ C\n")
    assert (err.value.var_id, str(err.value)) == (
        "C", "line 3: decision 'C' is used before (or within) its own definition")


@pytest.mark.parametrize("equations", [
    {"F": Var("E"), "E": Var("u")},
    {"X": And((Var("a"), Not(Var("X"))))},
    {"A": Var("u"), "B": Or((Var("A"), And((Var("D"), Var("C"))))), "C": Var("u"), "D": Var("u")},
])
def test_a_hand_built_cycle_blames_what_substitution_blames(equations):
    """Building each decision on the nodes of the ones before it blames the
    same decision that substituting them into each other's trees does."""
    eqs = RuleEquations(rule_id="bad", table=VariableTable(rule_id="bad"),
                        equations=equations, input_order=("u", "a"))
    with pytest.raises(CyclicDefinitionError) as want:
        expand(eqs)
    with pytest.raises(CyclicDefinitionError) as got:
        evaluate(eqs, {})
    assert got.value.var_id == want.value.var_id


def test_compile_requires_covering_table():
    from lexroad.boolean_core import UnboundVariableError
    from lexroad.rule_dsl import VariableTable

    ast = parse_rule_text("IF:\n    [A] p.\nELSE:\n    [Y] q.\n", "bare")
    with pytest.raises(UnboundVariableError):
        compile_rule(ast, VariableTable(rule_id="bare"))


def test_compile_requires_an_else_outcome():
    from lexroad.boolean_core import NoOutcomeError

    ast = parse_rule_text("IF:\n    [A] p.\nELSE:\n    [Y] q.\n", "bare")
    table = assign_variables(ast)
    with pytest.raises(NoOutcomeError):
        compile_rule(ast._replace(else_outcomes=()), table)


def test_equivalence_detects_decision_set_mismatch():
    from lexroad.boolean_core import equations_equivalent

    a = parse_equations("X = A\n")
    b = parse_equations("X = A\nY = A\n")
    ok, decision, witness = equations_equivalent(a, b)
    assert not ok and decision == "Y" and witness is None


# --- truth tables ------------------------------------------------------------

def test_signalling_truth_table(rules_by_id):
    rows = truth_table(rules_by_id["UK-HC-103"].equations)
    assert len(rows) == 8
    # oracle: direct enumeration of the hand equations
    x_rows = [r for r in rows if r.decisions["X"]]
    y_rows = [r for r in rows if r.decisions["Y"]]
    assert len(x_rows) == 1 and x_rows[0].assignment == {"A": True, "B": True, "C": True}
    assert len(y_rows) == 1 and y_rows[0].assignment == {"A": True, "B": True, "C": False}


def test_single_variable_truth_table():
    eqs = parse_equations("Y = A\n")
    rows = truth_table(eqs)
    assert len(rows) == 2
    assert all(row.decisions["Y"] == row.assignment["A"] for row in rows)


def test_seat_belt_truth_table_counts(rules_by_id):
    rows = truth_table(rules_by_id["UK-HC-99-100/1"].equations)
    assert len(rows) == 16
    # oracle: brute-force counts from the hand-entered equations
    oracle_b = sum(
        (q or r or s) and y
        for q, r, s, y in itertools.product((False, True), repeat=4)
    )
    oracle_d = sum(
        (q or r or s) and not y
        for q, r, s, y in itertools.product((False, True), repeat=4)
    )
    assert oracle_b == 7 and oracle_d == 7
    assert sum(row.decisions["B"] for row in rows) == oracle_b
    assert sum(row.decisions["D"] for row in rows) == oracle_d
    neither = [r for r in rows if not r.decisions["B"] and not r.decisions["D"]]
    assert len(neither) == 2
    assert all(
        not (r.assignment["q"] or r.assignment["r"] or r.assignment["s"])
        for r in neither
    )


def test_truth_table_row_order_is_lexicographic(rules_by_id):
    rows = truth_table(rules_by_id["UK-HC-99-100/2"].equations)
    assert list(rows[0].assignment) == ["t", "z"]
    assert [tuple(r.assignment.values()) for r in rows] == [
        (False, False), (False, True), (True, False), (True, True),
    ]


# --- property checks ---------------------------------------------------------

def test_seat_belt_rule_is_exclusive_and_exhaustive(rules_by_id):
    report = check_properties(rules_by_id["UK-HC-99-100/1"].equations)
    assert report.mutually_exclusive == {("B", "D"): True}
    assert report.exhaustive_given_antecedent is True


def test_duplicated_decisions_are_not_exclusive():
    eqs = parse_equations("X = A ∧ C\nY = A ∧ C\n")
    report = check_properties(eqs)
    assert report.mutually_exclusive[("X", "Y")] is False
    witness = report.witnesses["not_exclusive:X,Y"]
    assert witness == {"A": True, "C": True}


def test_guarded_outcome_breaks_exhaustiveness(rules_by_id):
    eqs = rules_by_id["UK-HC-99-100/3"].equations
    report = check_properties(eqs)
    assert report.mutually_exclusive == {("C", "F"): True}
    assert report.exhaustive_given_antecedent is False
    witness = report.witnesses["not_exhaustive"]
    # the witness really is a hole: antecedent holds, neither decision fires
    assert witness["u"] or witness["v"] or witness["w"]
    assert not witness["p"] and not witness["x"]
    # and the documented counterexample is a hole too
    hole = {"u": True, "v": False, "w": False, "p": False, "x": False}
    exprs = expand(eqs)
    assert not brute_eval(exprs["C"], hole) and not brute_eval(exprs["F"], hole)


def test_every_compiled_rule_is_pairwise_exclusive(pack):
    for entry in pack.rules():
        report = check_properties(entry.equations)
        assert report.all_mutually_exclusive, entry.rule_id


# --- normalization and text form ----------------------------------------------

def test_normalize_double_negation():
    assert normalize(Not(Not(Var("a")))) == Var("a")


def test_normalize_flattens_same_operator():
    expr = Or((Var("a"), Or((Var("b"), Var("c")))))
    assert normalize(expr) == Or((Var("a"), Var("b"), Var("c")))


def test_normalize_matches_hand_entered_form(rules_by_id):
    eqs = rules_by_id["UK-HC-99-100/1"].equations
    flat = normalize(eqs.equations["B"])
    assert flat == And((Or((Var("q"), Var("r"), Var("s"))), Var("y")))
    ok, _ = equivalent(flat, eqs.equations["B"])
    assert ok


def test_text_round_trip_on_goldens(pack):
    for entry in pack.rules():
        text = entry.golden_equations
        assert text is not None
        again = equations_to_text(parse_equations(text, entry.rule_id))
        assert again == text


def test_parse_expr_accepts_all_operator_spellings():
    for text in ("(A ∧ B) ∧ ¬C", "(A & B) & !C", "(A × B) × ∼C"):
        expr = parse_expr(text)
        assert to_text(expr) == "(A ∧ B) ∧ ¬C"
    assert parse_expr("a + b") == Or((Var("a"), Var("b")))


def test_parse_expr_rejects_garbage():
    with pytest.raises(EquationSyntaxError):
        parse_expr("A ∧")
    with pytest.raises(EquationSyntaxError):
        parse_expr("A ? B")


# --- randomized invariants -----------------------------------------------------

_NAMES = tuple("abcdefgh")


def random_expr(rng, depth):
    kind = rng.randint(0, 3 if depth > 0 else 0)
    if kind == 0:
        return Var(rng.choice(_NAMES))
    if kind == 1:
        return Not(random_expr(rng, depth - 1))
    children = tuple(
        random_expr(rng, depth - 1) for _ in range(rng.randint(2, 3))
    )
    return And(children) if kind == 2 else Or(children)


def test_normalize_preserves_semantics_randomized():
    rng = random.Random(20210817)
    for _ in range(200):
        expr = random_expr(rng, rng.randint(1, 6))
        names = tuple(sorted(set(n for n in _NAMES)))
        flat = normalize(expr)
        for combo in itertools.product((False, True), repeat=len(names)):
            env = dict(zip(names, combo))
            assert brute_eval(expr, env) == brute_eval(flat, env)


@st.composite
def exprs(draw, max_depth=4, leaves=st.sampled_from(_NAMES).map(Var)):
    if max_depth == 0:
        return draw(leaves)
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(leaves)
    if kind == 1:
        return Not(draw(exprs(max_depth - 1, leaves)))
    children = tuple(
        draw(exprs(max_depth - 1, leaves))
        for _ in range(draw(st.integers(2, 3)))
    )
    return And(children) if kind == 2 else Or(children)


@settings(max_examples=150, deadline=None)
@given(exprs())
def test_normalize_equivalence_property(expr):
    ok, witness = equivalent(expr, normalize(expr))
    assert ok, witness


@settings(max_examples=150, deadline=None)
@given(
    exprs(),
    st.dictionaries(st.sampled_from(_NAMES), st.sampled_from([True, False, None])),
)
def test_kleene_matches_completion_consensus(expr, partial):
    assignment = {k: v for k, v in partial.items() if v is not None}
    got = kleene_eval(expr, dict(partial))
    want = completions_consensus(expr, assignment, _NAMES)
    # Kleene is sound: whenever it is definite it matches the consensus;
    # it may return UNKNOWN where the consensus is definite (e.g. a ∨ ¬a).
    if got is not None:
        assert got == want
