"""The decision-diagram analyses against exhaustive reference versions.

``reference_*`` below are the 2^n enumerations that equivalence, property
checks and Lawmaps used before they worked on decision diagrams; they stay
here as oracles, and the diagram versions must agree with them byte for
byte.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from lexroad.boolean_core import (
    FALSE,
    TRUE,
    And,
    Bdd,
    Not,
    Or,
    PropertyReport,
    RuleEquations,
    Var,
    check_properties,
    equations_equivalent,
    evaluate,
    free_vars,
    normalize,
    parse_equations,
    to_text,
)
from lexroad.lawmap import (
    EdgeGuard,
    LawmapEdge,
    LawmapGraph,
    LawmapNode,
    NodeKind,
    build_lawmap,
    export_json,
)
from lexroad.rule_dsl import Variable, VarKind
from reference import (
    PlainBdd,
    equivalent,
    expand,
    kleene_eval,
    settle_by_walk,
    truth_table,
    witness_by_restriction,
)
from test_boolean_core import _NAMES, exprs
from test_cli import deadline


def reference_equivalent(a, b):
    names = tuple(sorted(set(free_vars(a)) | set(free_vars(b))))
    for values in itertools.product((False, True), repeat=len(names)):
        env = dict(zip(names, values))
        if kleene_eval(a, env) != kleene_eval(b, env):
            return False, env
    return True, None


def reference_check_properties(eqs):
    rows = truth_table(eqs)
    decisions = eqs.decision_ids()
    pairs = list(itertools.combinations(decisions, 2))
    exclusive = {pair: True for pair in pairs}
    witnesses = {}
    exhaustive = None if eqs.antecedent is None else True
    for row in rows:
        for x, y in pairs:
            if exclusive[(x, y)] and row.decisions[x] and row.decisions[y]:
                exclusive[(x, y)] = False
                witnesses[f"not_exclusive:{x},{y}"] = row.assignment
        if exhaustive and kleene_eval(eqs.antecedent, dict(row.assignment)) \
                and not any(row.decisions.values()):
            exhaustive = False
            witnesses["not_exhaustive"] = row.assignment
    return PropertyReport(exclusive, exhaustive, witnesses)


def reference_lawmap(eqs):
    """Decision vectors of all 2^n assignments (first input in clause order
    most significant, TRUE first), cut into blocks that are merged when
    equal."""
    order, decisions = eqs.input_ids(), eqs.decision_ids()
    exprs_ = expand(eqs)
    vectors = tuple(
        tuple(bool(kleene_eval(exprs_[d], dict(zip(order, values)))) for d in decisions)
        for values in itertools.product((True, False), repeat=len(order))
    )

    def build(index, block):
        if all(v == block[0] for v in block):
            return ("leaf", block[0])
        half = len(block) // 2
        hi, lo = build(index + 1, block[:half]), build(index + 1, block[half:])
        return hi if hi == lo else ("node", index, hi, lo)

    nodes = [LawmapNode("start", NodeKind.START, "START")]
    edges = []
    ids = {}
    counter = itertools.count(1)

    def realize(ref):
        if ref in ids:
            return ids[ref]
        if ref[0] == "leaf":
            fired = tuple(d for d, v in zip(decisions, ref[1]) if v)
            if fired:
                node_id = "outcome_" + "_".join(fired)
                label = "; ".join(eqs.table.describe(d) for d in fired)
            else:
                node_id, label = "sink", "Out of scope"
            nodes.append(LawmapNode(node_id, NodeKind.OUTCOME, label, None, fired))
            ids[ref] = node_id
            return node_id
        var = order[ref[1]]
        node_id = ids[ref] = f"c{next(counter)}"
        nodes.append(LawmapNode(node_id, NodeKind.CONDITION, eqs.table.describe(var), var))
        edges.append((node_id, ref[2], ref[3]))
        realize(ref[2])
        realize(ref[3])
        return node_id

    root = realize(build(0, vectors))
    out = [LawmapEdge("start", root, EdgeGuard.ALWAYS)]
    for node_id, hi, lo in edges:
        out.append(LawmapEdge(node_id, ids[hi], EdgeGuard.TRUE_BRANCH))
        out.append(LawmapEdge(node_id, ids[lo], EdgeGuard.FALSE_BRANCH))
    return LawmapGraph(eqs.rule_id, tuple(nodes), tuple(out))


@st.composite
def equation_sets(draw):
    """1-3 decisions over up to 8 inputs, later ones maybe referring to the
    first, with an antecedent and the inputs in a drawn clause order."""
    decisions = draw(st.lists(exprs(), min_size=1, max_size=3))
    for i in range(1, len(decisions)):
        if draw(st.booleans()):
            decisions[i] = And((Var("D0"), decisions[i]))
    eqs = parse_equations("".join(f"D{i} = {to_text(d)}\n" for i, d in enumerate(decisions)))
    antecedent = draw(exprs())
    inputs = dict.fromkeys(eqs.input_ids() + free_vars(antecedent))
    for name in inputs:
        eqs.table.variables.setdefault(name, Variable(name, VarKind.FACTUAL, name))
    order = tuple(draw(st.permutations(list(inputs))))
    return RuleEquations(eqs.rule_id, eqs.table, eqs.equations, antecedent, eqs.folds, order)


@settings(max_examples=150, deadline=None)
@given(equation_sets())
def test_decision_diagrams_agree_with_the_enumerations(eqs):
    assert export_json(build_lawmap(eqs)) == export_json(reference_lawmap(eqs))
    assert check_properties(eqs) == reference_check_properties(eqs)
    exprs_ = expand(eqs)
    for a, b in ((exprs_["D0"], eqs.antecedent), (exprs_["D0"], list(exprs_.values())[-1])):
        assert equivalent(a, b) == reference_equivalent(a, b)


def test_reference_lawmaps_match_the_shipped_pack(pack):
    for entry in pack.rules():
        graph = build_lawmap(entry.equations, entry.ast)
        assert export_json(graph) == export_json(reference_lawmap(entry.equations))


def test_witness_is_first_in_the_given_order():
    bdd = Bdd(("a", "b", "c"))
    f = bdd.of(Or((And((Var("a"), Var("c"))), Var("b"))))
    assert bdd.witness(f, ("a", "b", "c"), False) == {"a": False, "b": True, "c": False}
    assert bdd.witness(f, ("c", "b", "a"), False) == {"c": False, "b": True, "a": False}
    assert bdd.witness(f, ("b", "a", "c"), True) == {"b": True, "a": True, "c": True}
    assert bdd.witness(Bdd.FALSE, ("a",), True) is None


@settings(max_examples=150, deadline=None)
@given(exprs(), st.data(), st.booleans())
def test_witness_agrees_with_restriction(expr, data, first):
    bdd = Bdd()
    f = bdd.of(expr)
    # "z" is a name the manager lacks: it is free, so it takes ``first``
    names = tuple(data.draw(st.permutations([*bdd.names, "z"])))
    got = bdd.witness(f, names, first)
    assert got == witness_by_restriction(bdd, f, names, first)


def test_witness_adds_no_node(pack):
    """Witnesses read the cached rule diagram without growing it."""
    for entry in pack.rules():
        bdd, nodes = entry.equations.diagram
        size, names = len(bdd._nodes), list(bdd.names)
        for f in nodes.values():
            for first in (False, True):
                bdd.witness(f, (*reversed(names), "z"), first)
        assert (len(bdd._nodes), bdd.names) == (size, names)


@st.composite
def synth_like_rules(draw):
    """Equations in the synthetic family's shape, over 20-60 inputs: an
    antecedent and maybe an exception, each a join of groups of inputs, a
    THEN decision when there is an exception and one to three ELSE ones,
    some guarded by an input they read again.  Too wide to check against
    every completion of the facts."""
    n = draw(st.integers(20, 60))
    names = [f"v{i}" for i in range(n)]
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=9)))
    ops = st.sampled_from((And, Or))

    def join(parts):
        return parts[0] if len(parts) == 1 else draw(ops)(tuple(parts))

    groups = [join([Var(name) for name in names[lo:hi]]) for lo, hi in zip([0, *cuts], [*cuts, n])]
    split = draw(st.integers(1, len(groups)))
    antecedent, equations = join(groups[:split]), {}
    base = antecedent
    if split < len(groups):
        exception = join(groups[split:])
        equations["X"] = And((antecedent, exception))
        base = And((antecedent, Not(exception)))
    for decision in ("Y", "W", "Z")[:draw(st.integers(1, 3))]:
        guard = Var(draw(st.sampled_from(names)))
        equations[decision] = draw(st.sampled_from((base, And((base, guard)),
                                                    And((base, Not(guard))))))
    return parse_equations("".join(f"{d} = {to_text(e)}\n" for d, e in equations.items()))


@settings(max_examples=200, deadline=None)
@given(synth_like_rules(), st.data())
def test_settle_agrees_with_the_recursive_walk(eqs, data):
    """The search for the terminals a node reaches gives each decision of a
    wide rule, and each terminal, the verdict the recursive walk gives; on
    the same facts, ``evaluate`` gives the decisions theirs, and ``witness``
    the assignments restriction finds.  None of them adds a node."""
    bdd, nodes = eqs.diagram
    size = len(bdd._nodes)
    order = data.draw(st.permutations(eqs.input_ids()))
    n = len(order)
    # few open facts, any number, or nearly all, so every verdict comes up
    open_count = data.draw(st.integers(0, 4) | st.integers(0, n) | st.integers(n - 4, n))
    values = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    facts = dict(zip(order[open_count:], values))
    facts.update({name: None for name in order[:open_count] if data.draw(st.booleans())})
    # names the diagram lacks: a decision and a variable no rule has
    facts.update(data.draw(st.dictionaries(st.sampled_from((*nodes, "z")),
                                           st.sampled_from((False, True, None)))))
    fs = (*nodes.values(), Bdd.FALSE, Bdd.TRUE)
    names = tuple(data.draw(st.permutations([*bdd.names, "z"])))
    first = data.draw(st.booleans())
    got = [bdd.settle(f, facts) for f in fs]
    verdicts = evaluate(eqs, facts)
    witnesses = [bdd.witness(f, names, first) for f in fs]
    assert len(bdd._nodes) == size
    assert got == settle_by_walk(bdd, fs, facts)
    assert verdicts == dict(zip(nodes, got))
    assert witnesses == [witness_by_restriction(bdd, f, names, first) for f in fs]


_LEAVES = st.one_of(st.sampled_from(_NAMES).map(Var), st.sampled_from((TRUE, FALSE)))


@settings(max_examples=300, deadline=None)
@given(st.lists(exprs(leaves=_LEAVES), min_size=1, max_size=4), st.data())
def test_kernel_builds_the_plain_node_table(expressions, data):
    """The same ``of`` calls, then ``ite`` calls on nodes built so far, give
    ``Bdd`` and the plain kernel the same results and the same node table:
    the same ids, created in the same order."""
    fast, plain = Bdd(("h", "c")), PlainBdd(("h", "c"))
    built = [Bdd.FALSE, Bdd.TRUE]
    for expr in expressions:
        built.append(fast.of(expr))
        assert built[-1] == plain.of(expr)
        assert fast._nodes == plain._nodes
    for _ in range(data.draw(st.integers(0, 12))):
        f, g, h = (data.draw(st.sampled_from(built)) for _ in range(3))
        built.append(fast.ite(f, g, h))
        assert built[-1] == plain.ite(f, g, h)
        assert fast._nodes == plain._nodes
    assert fast.names == plain.names


@settings(max_examples=100, deadline=None)
@given(exprs())
def test_models_are_the_satisfying_rows_in_order(expr):
    bdd = Bdd()
    f = bdd.of(expr)
    rows = [
        values for values in itertools.product((False, True), repeat=len(bdd.names))
        if kleene_eval(expr, dict(zip(bdd.names, values)))
    ]
    assert list(bdd.models(f)) == rows


def test_forty_input_or_is_checked_without_enumeration():
    names = [f"v{i}" for i in range(40)]
    wide = parse_equations("X = " + " ∨ ".join(names) + "\n")
    assert equations_equivalent(wide, parse_equations("X = " + " ∨ ".join(reversed(names)) + "\n")) \
        == (True, None, None)
    ok, decision, witness = equations_equivalent(
        wide, parse_equations("X = " + " ∨ ".join(names[1:]) + "\n")
    )
    assert (ok, decision) == (False, "X")
    assert witness == {name: name == "v0" for name in sorted(names)}

    two = parse_equations("X = " + " ∨ ".join(names) + "\nY = ¬v0 ∧ v39\n")
    report = check_properties(RuleEquations(two.rule_id, two.table, two.equations,
                                            two.equations["X"], input_order=two.input_order))
    assert report.mutually_exclusive == {("X", "Y"): False}
    assert report.exhaustive_given_antecedent is True
    assert report.witnesses == {"not_exclusive:X,Y": {name: name == "v39" for name in sorted(names)}}


def test_a_chain_of_decision_references_is_linear():
    """``D_i = D_{i-1} ∧ (D_{i-1} ∨ a_i)`` reads the decision before it
    twice; each decision is built on its predecessor's node, so thirty lines
    cost what thirty independent ones do, not 2^30 walks of a tree."""
    lines = ["D0 = a0"] + [f"D{i} = D{i - 1} ∧ (D{i - 1} ∨ a{i})" for i in range(1, 30)]
    chain = parse_equations("\n".join(lines) + "\n")
    changed = parse_equations("\n".join(lines[:-1] + ["D29 = D28 ∧ a29"]) + "\n")
    with deadline(5):
        assert evaluate(chain, {"a0": True}) == {f"D{i}": True for i in range(30)}
        report = check_properties(RuleEquations(chain.rule_id, chain.table, chain.equations,
                                                Var("a0"), input_order=chain.input_order))
        assert report.exhaustive_given_antecedent is True
        assert not any(report.mutually_exclusive.values())
        assert equations_equivalent(chain, chain) == (True, None, None)
        assert equations_equivalent(chain, changed) == (
            False, "D29", {f"a{i}": i == 0 for i in range(30)})


def reference_equations_equivalent(a, b):
    """``equations_equivalent`` by expanding both sets into input trees and
    comparing each decision's two trees in a fresh diagram."""
    if set(a.decision_ids()) != set(b.decision_ids()):
        return False, sorted(set(a.decision_ids()) ^ set(b.decision_ids()))[0], None
    ea, eb = expand(a), expand(b)
    for decision in a.decision_ids():
        ok, witness = equivalent(ea[decision], eb[decision])
        if not ok:
            return False, decision, witness
    return True, None, None


@st.composite
def equation_pairs(draw):
    """A rule's equation set over a-d and a golden for it: each decision may
    read earlier ones, and each golden decision is the rule's own text, its
    normal form, or a fresh equation that may read y and z, which the rule
    lacks.  Now and then the golden leaves a decision out."""
    rule, golden = [], []
    for i in range(draw(st.integers(1, 4))):
        earlier = [f"D{j}" for j in range(i)]
        rule_leaves = st.sampled_from([*_NAMES[:4], *earlier]).map(Var)
        golden_leaves = st.sampled_from([*_NAMES[:4], "y", "z", *earlier]).map(Var)
        expr = draw(exprs(max_depth=3, leaves=rule_leaves))
        kind = draw(st.sampled_from(("same", "normal", "negated", "fresh")))
        other = {"same": expr, "normal": normalize(expr), "negated": Not(expr)}.get(kind)
        rule.append(f"D{i} = {to_text(expr)}")
        golden.append(f"D{i} = {to_text(other or draw(exprs(max_depth=3, leaves=golden_leaves)))}")
    if len(golden) > 1 and draw(st.booleans()) and draw(st.booleans()):
        golden.pop()
    return (parse_equations("\n".join(rule) + "\n"), parse_equations("\n".join(golden) + "\n"))


@settings(max_examples=200, deadline=None)
@given(equation_pairs())
def test_equivalence_agrees_with_expanded_trees(pair):
    """Building the golden's decisions in the rule's cached diagram gives the
    verdict, the diverging decision and the witness that expanding both sets
    and comparing them tree by tree gives, and leaves the rule's own nodes
    as they were."""
    rule, golden = pair
    bdd, nodes = rule.diagram
    before = dict(nodes)
    assert equations_equivalent(rule, golden) == reference_equations_equivalent(rule, golden)
    assert rule.diagram == (bdd, before)
