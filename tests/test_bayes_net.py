"""Network construction, exact inference and Boolean-agreement validation."""

import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexroad import bayes_net
from lexroad.bayes_net import (
    AGREEMENT_TOLERANCE,
    MAX_NODE_PARENTS,
    BayesNet,
    BnNodeKind,
    ImpossibleEvidenceError,
    _cpt_for,
    _node_functions,
    _posteriors,
    build_bn,
    infer,
    net_to_json,
    validate_bn,
)
from lexroad.boolean_core import (
    FALSE,
    TRUE,
    And,
    Bdd,
    Not,
    Or,
    RuleEquations,
    Var,
    compile_rule,
    evaluate,
    free_vars,
    parse_equations,
    to_text,
)
from lexroad.rule_dsl import assign_variables, load_rule_file, parse_rule
from reference import (
    cpt_by_rows,
    infer_enumeration,
    net_to_json_by_dumps,
    p_true,
    validate_by_enumeration,
)
from test_boolean_core import exprs
from test_lawmap import AWKWARD_TEXT, first_difference


def joint_brute(net, evidence=None):
    """Independent full-joint reference: enumerate every node-state combo."""
    evidence = evidence or {}
    names = [n.id for n in net.nodes]
    mass = {name: 0.0 for name in names}
    total = 0.0
    for combo in itertools.product((True, False), repeat=len(names)):
        state = dict(zip(names, combo))
        if any(state[k] != v for k, v in evidence.items()):
            continue
        weight = 1.0
        for node in net.nodes:
            p = p_true(node, state)
            weight *= p if state[node.id] else 1.0 - p
        total += weight
        for name in names:
            if state[name]:
                mass[name] += weight
    return {name: mass[name] / total for name in names}, total


def test_seat_belt_net_structure(rules_by_id):
    net = build_bn(rules_by_id["UK-HC-99-100/1"].equations)
    roots = net.ids(BnNodeKind.FACT_ROOT)
    assert roots == ("q", "r", "s", "y")
    clause = net.node("A")
    assert clause.kind == BnNodeKind.CLAUSE
    assert clause.parents == ("q", "r", "s")
    assert net.node("B").parents == ("A", "y")
    assert net.node("D").parents == ("A", "y")
    # deterministic CPTs realize the fold:  A = q ∨ (r ∨ s)
    assert set(clause.cpt) <= {0.0, 1.0}
    assert clause.cpt[-1] == 0.0  # all parents false
    assert clause.cpt[0] == 1.0  # all parents true


def test_two_node_identity_net():
    net = build_bn(parse_equations("Y = A\n"))
    assert net.ids() == ("A", "Y")
    assert net.node("Y").cpt == (1.0, 0.0)


def test_decision_reference_becomes_parent():
    eqs = parse_equations("E = (u ∨ v ∨ w) ∧ ¬p\nF = E ∧ x\n")
    net = build_bn(eqs)
    assert net.node("F").parents == ("E", "x")
    assert net.node("F").kind == BnNodeKind.DECISION


_CPT_LEAVES = st.sampled_from((TRUE, FALSE, *(Var(f"p{i:02d}") for i in range(12))))


@settings(max_examples=200, deadline=None)
@given(exprs(5, _CPT_LEAVES))
def test_cpt_rows_match_row_by_row_evaluation(expr):
    parents = free_vars(expr)  # 0 to 12
    assert _cpt_for(expr, parents) == cpt_by_rows(expr, parents)


def test_cpt_of_the_widest_unsplit_or():
    parents = tuple(f"v{i:02d}" for i in range(MAX_NODE_PARENTS))
    expr = Or(tuple(Var(v) for v in parents))
    rows = _cpt_for(expr, parents)
    assert rows == (1.0,) * (2 ** MAX_NODE_PARENTS - 1) + (0.0,)  # 65,536 rows
    assert rows == cpt_by_rows(expr, parents)


def test_priors_must_be_open_interval(rules_by_id):
    eqs = rules_by_id["UK-HC-99-100/2"].equations
    with pytest.raises(ValueError):
        build_bn(eqs, priors={"t": 1.0})


def test_uniform_prior_of_identity_net():
    net = build_bn(parse_equations("Y = A\n"))
    assert infer(net)["Y"] == pytest.approx(0.5, abs=1e-12)


def test_seat_belt_prior_query_matches_brute_force(rules_by_id):
    net = build_bn(rules_by_id["UK-HC-99-100/1"].equations)
    oracle, _ = joint_brute(net)
    posterior = infer(net)
    assert posterior["B"] == pytest.approx(oracle["B"], abs=1e-12)
    assert oracle["B"] == pytest.approx(7 / 16, abs=1e-12)


def test_scenario_evidence_forces_decision(rules_by_id):
    net = build_bn(rules_by_id["UK-HC-99-100/3"].equations)
    posterior = infer(net, {"u": True, "p": True})
    assert posterior["C"] == pytest.approx(1.0, abs=1e-9)


def test_impossible_evidence_raises(rules_by_id):
    net = build_bn(rules_by_id["UK-HC-99-100/2"].equations)
    # A = t ∧ z cannot be true while t is false
    with pytest.raises(ImpossibleEvidenceError):
        infer(net, {"t": False, "A": True})


def test_evidence_whose_probability_underflows_is_refused():
    net = build_bn(parse_equations("Y = a ∧ b\n"), priors={"a": 1e-200, "b": 1e-200})
    for method in (infer_enumeration, infer):
        with pytest.raises(ImpossibleEvidenceError):
            method(net, {"a": True, "b": True})


def _generated_rule(rng, n):
    """Two decisions over the inputs v0 … v<n-1>, the second reading the first."""
    literals = [("¬" if rng.random() < 0.3 else "") + f"v{i}" for i in range(n)]
    rng.shuffle(literals)
    pairs = [f"({a} {rng.choice('∧∨')} {b})" for a, b in zip(literals[::2], literals[1::2])]
    half = len(pairs) // 2
    return parse_equations(
        f"Y = {' ∨ '.join(pairs[:half])}\nZ = ¬Y ∧ ({' ∨ '.join(pairs[half:])})\n"
    )


def test_root_evidence_is_restriction_and_other_evidence_is_conjoined(rules_by_id):
    rng = random.Random(2121)
    wide = _generated_rule(rng, 12)
    nets = [build_bn(rules_by_id["UK-HC-103"].equations),
            build_bn(wide, priors={v: rng.uniform(0.1, 0.9) for v in wide.input_ids()})]
    for net in nets:
        roots, others = net.ids(BnNodeKind.FACT_ROOT), net.ids(BnNodeKind.DECISION)
        # evidence on roots only adds no variable and no node to the manager
        bdd = Bdd()
        fn = _node_functions(net, bdd)
        size = (len(bdd.names), len(bdd._nodes))
        for _ in range(6):
            observed = rng.sample(roots, rng.randint(2, len(roots)))
            evidence = {root: rng.random() < 0.5 for root in observed}
            targets = rng.sample(net.ids(), 3)
            got = _posteriors(net, bdd, fn, evidence, targets)
            assert (len(bdd.names), len(bdd._nodes)) == size
            want = infer_enumeration(net, evidence)
            for node_id in targets:
                assert got[node_id] == pytest.approx(want[node_id], abs=AGREEMENT_TOLERANCE)
        # mixed evidence, roots and a decision, agrees with enumeration, and
        # both refuse it exactly when it is impossible
        mixed = [{"X": True, "A": False}] if net.rule_id == "UK-HC-103" else []
        for _ in range(8):
            observed = rng.sample(roots, rng.randint(1, len(roots) - 1))
            mixed.append({root: rng.random() < 0.5 for root in observed}
                         | {rng.choice(others): rng.random() < 0.5})
        refused = 0
        for evidence in mixed:
            try:
                want = infer_enumeration(net, evidence)
            except ImpossibleEvidenceError:
                with pytest.raises(ImpossibleEvidenceError, match="zero probability"):
                    infer(net, evidence)
                refused += 1
                continue
            got = infer(net, evidence)
            for node_id in want:
                assert got[node_id] == pytest.approx(want[node_id], abs=AGREEMENT_TOLERANCE)
        assert 0 < refused < len(mixed)  # both kinds were checked


def test_evidence_validation():
    net = build_bn(parse_equations("Y = A\n"))
    with pytest.raises(KeyError):
        infer(net, {"nope": True})
    with pytest.raises(ValueError):
        infer(net, {"A": "yes"})


def test_hand_built_forward_reference_is_cyclic():
    from lexroad.boolean_core import CyclicDefinitionError, RuleEquations, Var
    from lexroad.rule_dsl import VariableTable

    eqs = RuleEquations(
        rule_id="bad",
        table=VariableTable(rule_id="bad"),
        equations={"F": Var("E"), "E": Var("u")},
        input_order=("u",),
    )
    with pytest.raises(CyclicDefinitionError):
        build_bn(eqs)


def test_forward_reference_in_a_wide_decision_names_the_decision():
    """The cycle check runs before the split, so it blames the decision, not
    the split clause that would read the undefined node."""
    from lexroad.boolean_core import CyclicDefinitionError, RuleEquations
    from lexroad.rule_dsl import VariableTable

    inputs = tuple(f"v{i}" for i in range(MAX_NODE_PARENTS + 1))
    eqs = RuleEquations(
        rule_id="bad",
        table=VariableTable(rule_id="bad"),
        equations={"F": Or((*map(Var, inputs), Var("E"))), "E": Var("v0")},
        input_order=inputs,
    )
    with pytest.raises(CyclicDefinitionError) as err:
        build_bn(eqs)
    assert err.value.var_id == "F"


EQUAL_FOLDS_RULE = (
    "rule: EQ\n\n"
    "IF:\n"
    "    [A] Either:\n"
    "        a. p holds; or, @var(p)\n"
    "        b. q holds. @var(q)\n"
    "EXCEPT:\n"
    "    [C] Either:\n"
    "        a. p holds; or, @var(p)\n"
    "        b. q holds. @var(q)\n"
    "THEN:\n"
    "    [X] x. @var(X)\n"
    "ELSE:\n"
    "    [Y] y. @var(Y)\n"
)


def test_equal_folds_share_the_first_labels_node(tmp_path):
    path = tmp_path / "eq.rule"
    path.write_text(EQUAL_FOLDS_RULE, encoding="utf-8")
    ast = parse_rule(load_rule_file(path))
    eqs = compile_rule(ast, assign_variables(ast))
    assert eqs.folds == {"A": Or((Var("p"), Var("q"))), "C": Or((Var("p"), Var("q")))}
    net = build_bn(eqs)
    assert net.ids(BnNodeKind.CLAUSE) == ("A",)
    assert net.node("X").parents == net.node("Y").parents == ("A",)
    assert validate_bn(net, eqs).ok


def test_validation_root_bound():
    big = "Y = " + " ∨ ".join(f"v{i}" for i in range(25)) + "\n"
    eqs = parse_equations(big)
    report = validate_bn(build_bn(eqs), eqs)
    assert report.ok
    assert report.assignments_checked == 2**25


def _join(op, k):
    return f" {op} ".join(f"v{i}" for i in range(k))


def _p_or(priors):
    return 1.0 - math.prod(1.0 - p for p in priors)


def _p_nand(priors):
    return 1.0 - math.prod(priors)


# equations, fixed evidence, value of the other observed v's (it leaves Y
# open), closed-form P(Y) from the priors of the unobserved v's
WIDE_CASES = {
    "or-17": ("Y = " + _join("∨", 17), {}, False, _p_or),
    "or-40": ("Y = " + _join("∨", 40), {}, False, _p_or),
    "not-and-20": ("Y = w ∨ ¬(" + _join("∧", 20) + ")", {"w": False}, True, _p_nand),
}


@pytest.mark.parametrize("case", sorted(WIDE_CASES))
def test_wide_net_is_split_and_matches_oracles(case):
    text, fixed, observed, closed_form = WIDE_CASES[case]
    eqs = parse_equations(text + "\n")
    rng = random.Random(2109)
    priors = {v: rng.uniform(0.2, 0.8) for v in eqs.input_ids()}
    net = build_bn(eqs, priors=priors)

    assert net.ids(BnNodeKind.FACT_ROOT) == eqs.input_ids()
    assert net.ids(BnNodeKind.CLAUSE)
    seen = set()
    for node in net.nodes:
        assert len(node.parents) <= MAX_NODE_PARENTS
        assert set(node.parents) <= seen  # still topological
        seen.add(node.id)

    vs = [v for v in eqs.input_ids() if v.startswith("v")]
    hidden = rng.sample(vs, 3)
    evidence = {v: observed for v in vs if v not in hidden} | fixed
    a = infer_enumeration(net, evidence)
    b = infer(net, evidence)
    for node_id in a:
        assert a[node_id] == pytest.approx(b[node_id], abs=AGREEMENT_TOLERANCE)
    assert a["Y"] == pytest.approx(
        closed_form([priors[v] for v in hidden]), abs=AGREEMENT_TOLERANCE
    )
    brute = 0.0
    for combo in itertools.product((True, False), repeat=len(hidden)):
        weight = math.prod(priors[v] if x else 1.0 - priors[v] for v, x in zip(hidden, combo))
        if evaluate(eqs, evidence | dict(zip(hidden, combo)))["Y"]:
            brute += weight
    assert a["Y"] == pytest.approx(brute, abs=AGREEMENT_TOLERANCE)

    # complete assignments: Y open at the baseline, flips settle it either way
    wants = set()
    for _ in range(20):
        assignment = {v: observed for v in vs} | fixed
        for v in rng.sample(list(assignment), rng.randint(0, 2)):
            assignment[v] = not assignment[v]
        want = evaluate(eqs, assignment)["Y"]
        wants.add(want)
        got = infer_enumeration(net, assignment)["Y"]
        assert got == pytest.approx(1.0 if want else 0.0, abs=AGREEMENT_TOLERANCE)
    assert wants == {True, False}


def test_split_names_avoid_existing_ids():
    eqs = parse_equations("Y = Y_1 ∨ " + _join("∨", 17) + "\nZ = ¬Y\n")
    net = build_bn(eqs)
    clauses = net.ids(BnNodeKind.CLAUSE)
    assert clauses and not set(clauses) & set(eqs.input_ids() + eqs.decision_ids())
    assert len(set(net.ids())) == len(net.ids())
    assert net_to_json(net) == net_to_json_by_dumps(net)


def _vs(prefix, lo, hi):
    return tuple(f"{prefix}{i}" for i in range(lo, hi))


# equations, then every non-root node as (id, kind, parents) in net order:
# clause nodes are numbered in post-order, each after the clauses it reads
SPLIT_LAYOUTS = {
    "compound-children-wider-than-16": (
        f"Y = ({' ∧ '.join(_vs('a', 0, 20))}) ∨ ({' ∧ '.join(_vs('b', 0, 18))})"
        f" ∨ {' ∨ '.join(_vs('c', 0, 16))}\n",
        [("Y_1", "clause", _vs("a", 0, 10)),
         ("Y_2", "clause", _vs("a", 10, 20)),
         ("Y_3", "clause", ("Y_1", "Y_2")),
         ("Y_4", "clause", _vs("b", 0, 9)),
         ("Y_5", "clause", _vs("b", 9, 18)),
         ("Y_6", "clause", ("Y_4", "Y_5")),
         ("Y_7", "clause", ("Y_3", "Y_6", *_vs("c", 0, 7))),
         ("Y_8", "clause", _vs("c", 7, 16)),
         ("Y", "decision", ("Y_7", "Y_8"))]),
    "not-over-a-wide-and": (
        f"Z = w ∨ ¬({' ∧ '.join(_vs('a', 0, 20))})\nN = ¬({' ∧ '.join(_vs('b', 0, 18))})\n",
        [("Z_1", "clause", _vs("a", 0, 10)),
         ("Z_2", "clause", _vs("a", 10, 20)),
         ("Z_3", "clause", ("Z_1", "Z_2")),
         ("Z", "decision", ("w", "Z_3")),
         ("N_1", "clause", _vs("b", 0, 9)),
         ("N_2", "clause", _vs("b", 9, 18)),
         ("N", "decision", ("N_1", "N_2"))]),
    "split-name-taken": (
        f"Y = Y_1 ∨ Y_3 ∨ {' ∨ '.join(_vs('a', 0, 20))}\nZ = ¬Y\n",
        [("Y_1_split", "clause", ("Y_1", "Y_3", *_vs("a", 0, 9))),
         ("Y_2", "clause", _vs("a", 9, 20)),
         ("Y", "decision", ("Y_1_split", "Y_2")),
         ("Z", "decision", ("Y",))]),
}


@pytest.mark.parametrize("case", sorted(SPLIT_LAYOUTS))
def test_split_layout(case):
    """The exact nodes parent divorcing cuts, and their names."""
    text, layout = SPLIT_LAYOUTS[case]
    eqs = parse_equations(text)
    net = build_bn(eqs)
    assert net.ids(BnNodeKind.FACT_ROOT) == eqs.input_ids()
    assert [(n.id, n.kind.value, n.parents) for n in net.nodes
            if n.kind != BnNodeKind.FACT_ROOT] == layout
    assert net_to_json(net) == net_to_json_by_dumps(net)


def test_validation_passes_for_shipped_rules(pack):
    for entry in pack.rules():
        net = build_bn(entry.equations)
        report = validate_bn(net, entry.equations)
        assert report.ok, (entry.rule_id, report.divergences)
        assert report.equations_passed == report.equations_total == len(
            entry.equations.decision_ids()
        )
        roots = len(net.ids(BnNodeKind.FACT_ROOT))
        assert report.assignments_checked == 2 ** roots


def test_signalling_net_agrees_on_all_evidence_sets(rules_by_id):
    eqs = rules_by_id["UK-HC-103"].equations
    report = validate_bn(build_bn(eqs), eqs)
    assert report.assignments_checked == 8
    assert report.ok


def test_corrupted_cpt_is_reported(rules_by_id):
    eqs = rules_by_id["UK-HC-99-100/2"].equations
    net = build_bn(eqs)
    broken_nodes = tuple(
        n._replace(cpt=(1.0 - n.cpt[0],) + n.cpt[1:]) if n.id == "E" else n
        for n in net.nodes
    )
    report = validate_bn(BayesNet(net.rule_id, broken_nodes), eqs)
    assert not report.ok
    assert any(d.decision == "E" for d in report.divergences)
    divergence = next(d for d in report.divergences if d.decision == "E")
    assert set(divergence.evidence) == {"t", "z"}


def test_posteriors_are_normalized(rules_by_id):
    net = build_bn(rules_by_id["UK-HC-99-100/1"].equations)
    posterior = infer(net, {"q": True})
    for node_id, p in posterior.items():
        assert 0.0 <= p <= 1.0


def test_monotone_prior_raises_monotone_decision(rules_by_id):
    """Raising q's prior never lowers P(D): q appears only positively in D."""
    eqs = rules_by_id["UK-HC-99-100/1"].equations
    last = -1.0
    for prior in (0.1, 0.3, 0.5, 0.7, 0.9):
        posterior = infer(build_bn(eqs, priors={"q": prior}))
        assert posterior["D"] >= last - 1e-12
        last = posterior["D"]


def test_enumeration_and_wmc_agree_randomized(pack):
    rng = random.Random(40425)
    for entry in pack.rules():
        net = build_bn(
            entry.equations,
            priors={
                v: rng.uniform(0.05, 0.95)
                for v in entry.equations.input_ids()
            },
        )
        for _ in range(20):
            observable = list(net.ids())
            picked = rng.sample(observable, k=rng.randint(0, min(3, len(observable))))
            evidence = {name: rng.random() < 0.5 for name in picked}
            try:
                a = infer_enumeration(net, evidence)
            except ImpossibleEvidenceError:
                with pytest.raises(ImpossibleEvidenceError):
                    infer(net, evidence)
                continue
            b = infer(net, evidence)
            for node_id in a:
                assert a[node_id] == pytest.approx(b[node_id], abs=1e-9), (
                    entry.rule_id, evidence, node_id,
                )


def test_wmc_matches_independent_joint(rules_by_id):
    net = build_bn(rules_by_id["UK-HC-99-100/3"].equations, priors={"u": 0.2, "x": 0.7})
    evidence = {"v": True}
    oracle, _ = joint_brute(net, evidence)
    got = infer(net, evidence)
    for node_id in got:
        want = 1.0 if evidence.get(node_id) else oracle[node_id]
        assert got[node_id] == pytest.approx(want, abs=1e-9)


def _set_cpt(nodes, i, cpt):
    nodes[i] = nodes[i]._replace(cpt=cpt)


# name, change to the node list of UK-HC-99-100/1's net (roots q r s y,
# clause A, decisions B and D), words the error must contain
BAD_NODES = [
    ("cpt-length", lambda nodes: _set_cpt(nodes, -1, nodes[-1].cpt[:-1]),
     "node D: 3 CPT entries for 2 parents"),
    ("root-prior", lambda nodes: _set_cpt(nodes, 0, (1.0,)), "node q: a root needs"),
    ("non-deterministic-cpt", lambda nodes: _set_cpt(nodes, 4, (nodes[4].cpt[0], 0.25,
                                                                *nodes[4].cpt[2:])),
     "node A: CPT entries must be 0 or 1"),
    ("parent-later", lambda nodes: nodes.insert(0, nodes.pop()),
     "node D: parent A is not defined before it"),
    ("duplicate-id", lambda nodes: nodes.insert(1, nodes[0]), "node q is defined twice"),
]


@pytest.mark.parametrize(
    "change, message", [row[1:] for row in BAD_NODES], ids=[row[0] for row in BAD_NODES]
)
def test_hand_built_nets_inference_cannot_use_are_refused(rules_by_id, change, message):
    eqs = rules_by_id["UK-HC-99-100/1"].equations
    net = build_bn(eqs)
    assert net.ids() == ("q", "r", "s", "y", "A", "B", "D")
    nodes = list(net.nodes)
    change(nodes)
    broken = BayesNet(net.rule_id, tuple(nodes))
    with pytest.raises(ValueError, match=message):
        infer(broken)
    with pytest.raises(ValueError, match=message):
        validate_bn(broken, eqs)


def test_wmc_refuses_a_non_deterministic_cpt(rules_by_id):
    eqs = rules_by_id["UK-HC-99-100/2"].equations
    net = build_bn(eqs)
    noisy = BayesNet(net.rule_id, tuple(
        n._replace(cpt=(0.9,) + n.cpt[1:]) if n.id == "E" else n for n in net.nodes
    ))
    with pytest.raises(ValueError, match="node E"):
        infer(noisy)
    with pytest.raises(ValueError, match="node E"):
        validate_bn(noisy, eqs)
    assert 0.0 < infer_enumeration(noisy)["E"] < 1.0


def test_each_net_is_checked_once(rules_by_id, monkeypatch):
    """The check of a net's nodes runs on its first use only: its result is
    cached on the immutable net, for built nets and for nets made from their
    nodes alike, while a net that fails it fails the same way on every use,
    a node lookup included."""
    checks = []
    check_nodes = bayes_net._check_nodes

    def counted(nodes):
        checks.append(len(nodes))
        return check_nodes(nodes)

    monkeypatch.setattr(bayes_net, "_check_nodes", counted)
    rng = random.Random(2323)
    for eqs in (rules_by_id["UK-HC-103"].equations, _generated_rule(rng, 12)):
        net = build_bn(eqs)
        roots = net.ids(BnNodeKind.FACT_ROOT)
        checks.clear()
        for k in (0, 1, len(roots)):
            infer(net, {root: rng.random() < 0.5 for root in roots[:k]})
        assert validate_bn(net, eqs).ok
        assert checks == [len(net.nodes)]
        checks.clear()
        copy = BayesNet(net.rule_id, net.nodes)  # a net build_bn did not make
        infer(copy)
        infer(copy, {roots[0]: True})
        assert checks == [len(net.nodes)]
    net = build_bn(rules_by_id["UK-HC-99-100/1"].equations)
    noisy = BayesNet(net.rule_id, tuple(
        n._replace(cpt=(0.5,) + n.cpt[1:]) if n.kind == BnNodeKind.CLAUSE else n
        for n in net.nodes))
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError, match="^node A: CPT entries must be 0 or 1$") as refused:
            infer(noisy)
        messages.append(str(refused.value))
    assert messages[0] == messages[1]
    # looking up a node, or evidence on an unknown one, reads the same plan
    with pytest.raises(ValueError, match=messages[0]):
        noisy.node("q")
    with pytest.raises(ValueError, match=messages[0]):
        infer(noisy, {"nope": True})
    assert net.node("A") is net.nodes[4]


@pytest.mark.parametrize("entry", [float("nan"), [1.0]], ids=["nan", "unhashable"])
def test_a_cpt_entry_neither_0_nor_1_is_refused_by_name(rules_by_id, entry):
    """NaN equals neither 0 nor 1, and an unhashable entry in a hand-built
    net gets the same ValueError as any other, not a TypeError."""
    net = build_bn(rules_by_id["UK-HC-99-100/1"].equations)
    broken = BayesNet(net.rule_id, tuple(
        n._replace(cpt=(entry,) + n.cpt[1:]) if n.id == "A" else n for n in net.nodes))
    with pytest.raises(ValueError, match="^node A: CPT entries must be 0 or 1$"):
        infer(broken)


def _subterms(expr):
    if isinstance(expr, (And, Or, Not)):
        yield expr
        for child in (expr.child,) if isinstance(expr, Not) else expr.children:
            yield from _subterms(child)


@st.composite
def _small_equations(draw):
    """1-3 decisions from ``exprs()`` (so at most 8 inputs), the later ones
    maybe referring to D0, with some compound subterms as clause folds."""
    drawn = draw(st.lists(exprs(), min_size=1, max_size=3))
    decisions = [drawn[0]] + [
        And((Var("D0"), d)) if draw(st.booleans()) else d for d in drawn[1:]
    ]
    eqs = parse_equations("".join(f"D{i} = {to_text(d)}\n" for i, d in enumerate(decisions)))
    subterms = [t for d in drawn for t in _subterms(d)]
    if subterms:
        folds = draw(st.lists(st.sampled_from(subterms), max_size=2, unique=True))
        eqs = RuleEquations(eqs.rule_id, eqs.table, eqs.equations, eqs.antecedent,
                            {f"F{i}": t for i, t in enumerate(folds)}, eqs.input_order)
    return eqs


@st.composite
def _queries(draw):
    """(equations, net, evidence): equations from ``_small_equations()``,
    or an OR over 17-20 inputs whose net has split nodes; random priors;
    evidence on roots, clauses and decisions, leaving at most 8 roots
    open."""
    if draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(17, 20))
        eqs = parse_equations("Y = " + _join("∨", k) + "\nZ = ¬Y ∨ v0\n")
    else:
        eqs = draw(_small_equations())
    priors = {v: draw(st.floats(0.05, 0.95)) for v in eqs.input_ids()}
    net = build_bn(eqs, priors=priors)
    roots = net.ids(BnNodeKind.FACT_ROOT)
    open_roots = draw(st.lists(st.sampled_from(roots), max_size=8, unique=True))
    evidence = {
        v: draw(st.booleans())
        for v in roots
        if v not in open_roots and (len(roots) > 8 or draw(st.booleans()))
    }
    inner = [n for n in net.ids() if n not in roots]
    for name in draw(st.lists(st.sampled_from(inner), max_size=2, unique=True)):
        evidence[name] = draw(st.booleans())
    return eqs, net, evidence


def brute_root_posteriors(eqs, net, evidence):
    """P(root | evidence) by summing over the open roots' assignments, each
    node's value read off its deterministic CPT and each decision checked
    against ``evaluate``; None when no assignment has the evidence."""
    roots = net.ids(BnNodeKind.FACT_ROOT)
    hidden = [v for v in roots if v not in evidence]
    mass = dict.fromkeys(roots, 0.0)
    total = 0.0
    for combo in itertools.product((True, False), repeat=len(hidden)):
        state = {v: evidence[v] for v in roots if v in evidence} | dict(zip(hidden, combo))
        decisions = evaluate(eqs, dict(state))
        for node in net.nodes:
            if node.id not in roots:
                state[node.id] = p_true(node, state) == 1.0
        assert all(state[d] == decisions[d] for d in eqs.decision_ids())
        if any(state[k] != v for k, v in evidence.items()):
            continue
        weight = math.prod(net.node(v).cpt[0] if state[v] else 1.0 - net.node(v).cpt[0]
                           for v in hidden)
        total += weight
        for v in roots:
            mass[v] += weight if state[v] else 0.0
    return None if total == 0.0 else {v: mass[v] / total for v in roots}


@settings(max_examples=150, deadline=None)
@given(_queries())
def test_wmc_agrees_with_enumeration_and_brute_force(query):
    eqs, net, evidence = query
    brute = brute_root_posteriors(eqs, net, evidence)
    try:
        a = infer_enumeration(net, evidence)
    except ImpossibleEvidenceError:
        with pytest.raises(ImpossibleEvidenceError):
            infer(net, evidence)
        assert brute is None
        return
    b = infer(net, evidence)
    assert list(b) == list(a) == list(net.ids())
    for node_id in a:
        assert b[node_id] == pytest.approx(a[node_id], abs=AGREEMENT_TOLERANCE), node_id
    for root, p in brute.items():
        assert b[root] == pytest.approx(p, abs=AGREEMENT_TOLERANCE), root


@settings(max_examples=150, deadline=None)
@given(_small_equations(), st.data())
def test_validation_agrees_with_the_enumeration_oracle(eqs, data):
    """Symbolic validation against the 2^roots enumeration loop, on built
    nets and on nets with one CPT row flipped: the same divergences in the
    same order, the same count and the same equation checks."""
    net = build_bn(eqs)
    if data.draw(st.booleans()):
        inner = [i for i, n in enumerate(net.nodes) if n.kind != BnNodeKind.FACT_ROOT]
        i = data.draw(st.sampled_from(inner))
        node = net.nodes[i]
        row = data.draw(st.integers(0, len(node.cpt) - 1))
        cpt = node.cpt[:row] + (1.0 - node.cpt[row],) + node.cpt[row + 1:]
        net = BayesNet(net.rule_id, net.nodes[:i] + (node._replace(cpt=cpt),) + net.nodes[i + 1:])
    assert len(net.ids(BnNodeKind.FACT_ROOT)) <= 10
    got, want = validate_bn(net, eqs), validate_by_enumeration(net, eqs)
    assert got.divergences == want.divergences
    assert got.assignments_checked == want.assignments_checked
    assert got.equation_checks == want.equation_checks


_PRIORS = st.sampled_from([0.1, 1e-05, 0.30000000000000004, 2 / 3]) | st.floats(
    0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.none(), _small_equations(), st.sampled_from([16, 32, 40]).map(
    lambda k: parse_equations(f"Y = {_join('∨', k)}\n"))), st.data())
def test_net_json_is_the_json_dumps_text(pack, eqs, data):
    """``net_to_json`` writes what ``json.dumps`` writes for the same
    payload, byte for byte: nets of the shipped pack (``eqs`` None), of
    generated rules and of flat ORs over 16, 32 and 40 inputs (16-parent
    nodes, the second split in two, the third in three), with drawn priors
    and, in half of them, a drawn rule id and descriptions."""
    if eqs is None:
        eqs = data.draw(st.sampled_from([entry.equations for entry in pack.rules()]))
    net = build_bn(eqs, priors={v: data.draw(_PRIORS) for v in eqs.input_ids()})
    if data.draw(st.booleans()):
        net = BayesNet(data.draw(AWKWARD_TEXT), tuple(
            n._replace(description=data.draw(AWKWARD_TEXT)) for n in net.nodes))
    assert first_difference(net_to_json(net), net_to_json_by_dumps(net)) is None
