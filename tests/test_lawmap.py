"""Graph construction, path tracing and export determinism."""

import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexroad.boolean_core import And, Not, Or, Var, evaluate, parse_equations, to_text
from lexroad.lawmap import (
    EdgeGuard,
    IncompleteAssignmentError,
    InconsistentInputsError,
    LawmapGraph,
    NodeKind,
    _validate,
    build_lawmap,
    export_dot,
    export_json,
    graph_from_json,
    trace_path,
)
from reference import export_json_by_dumps, trace_path_by_edges, truth_table
from test_boolean_core import _compiled, _repeated_var_rules


def graphs_for(pack):
    return {
        entry.rule_id: build_lawmap(entry.equations, entry.ast)
        for entry in pack.rules()
    }


def test_signalling_graph_shape(rules_by_id):
    entry = rules_by_id["UK-HC-103"]
    graph = build_lawmap(entry.equations, entry.ast)
    conditions = [n for n in graph.nodes if n.kind == NodeKind.CONDITION]
    assert [n.var for n in conditions] == ["A", "B", "C"]
    path = trace_path(graph, {"A": True, "B": True, "C": True})
    assert graph.node(path[-1]).decisions == ("X",)
    path = trace_path(graph, {"A": True, "B": True, "C": False})
    assert graph.node(path[-1]).decisions == ("Y",)


def test_single_equation_graph():
    eqs = parse_equations("Y = A\n")
    graph = build_lawmap(eqs)
    kinds = [n.kind for n in graph.nodes]
    assert kinds.count(NodeKind.CONDITION) == 1
    outcomes = [n for n in graph.nodes if n.kind == NodeKind.OUTCOME]
    assert sorted(n.decisions for n in outcomes) == [(), ("Y",)]


def test_trace_to_unrestrained_outcome(rules_by_id):
    entry = rules_by_id["UK-HC-99-100/2"]
    graph = build_lawmap(entry.equations, entry.ast)
    path = trace_path(graph, {"t": True, "z": True})
    terminal = graph.node(path[-1])
    assert terminal.decisions == ("A",)
    assert terminal.label == "Minor may be unrestrained"
    # failed antecedent routes to the out-of-scope sink
    path = trace_path(graph, {"t": False, "z": False})
    assert graph.node(path[-1]).decisions == ()


def test_trace_matches_evaluate(rules_by_id):
    entry = rules_by_id["UK-HC-99-100/3"]
    graph = build_lawmap(entry.equations, entry.ast)
    assignment = {"u": True, "v": False, "w": False, "p": True, "x": False}
    path = trace_path(graph, assignment)
    assert graph.node(path[-1]).decisions == ("C",)
    assert evaluate(entry.equations, dict(assignment))["C"] is True


def test_incomplete_assignment_is_rejected(rules_by_id):
    entry = rules_by_id["UK-HC-103"]
    graph = build_lawmap(entry.equations, entry.ast)
    with pytest.raises(IncompleteAssignmentError) as err:
        trace_path(graph, {"A": True})
    assert "B" in err.value.missing and "C" in err.value.missing


def test_a_fact_off_the_path_is_still_required(rules_by_id):
    """A is FALSE, so the path ends at the sink before B and C are tested;
    the trace is still refused, naming both, not walked on partial facts."""
    entry = rules_by_id["UK-HC-103"]
    graph = build_lawmap(entry.equations, entry.ast)
    for trace in (trace_path, trace_path_by_edges):
        with pytest.raises(IncompleteAssignmentError) as err:
            trace(graph, {"A": False})
        assert err.value.missing == ("B", "C")
    assert trace_path(graph, {"A": False, "B": True, "C": True}) == ["start", "c1", "sink"]


_SEEDS = st.integers(0, 2**32 - 1)


def _trace_or_missing(trace, graph, assignment):
    try:
        return trace(graph, assignment)
    except IncompleteAssignmentError as err:
        return err.missing


def _assert_trace_matches_the_edge_walk(graph, names, data):
    """Every complete assignment of up to 10 inputs (64 random ones above),
    then one partial assignment: the same path, or the same ``missing``."""
    if len(names) <= 10:
        combos = itertools.product((False, True), repeat=len(names))
    else:
        rng = random.Random(data.draw(_SEEDS))
        combos = ([rng.random() < 0.5 for _ in names] for _ in range(64))
    for combo in combos:
        assignment = dict(zip(names, combo))
        assert trace_path(graph, assignment) == trace_path_by_edges(graph, assignment)
    partial = data.draw(st.fixed_dictionaries(
        {}, optional={name: st.sampled_from([True, False, None]) for name in names}))
    assert (_trace_or_missing(trace_path, graph, partial)
            == _trace_or_missing(trace_path_by_edges, graph, partial))


def _round_trip(graph, data):
    """``graph`` through ``export_json`` and ``graph_from_json``, its edges
    listed in a drawn order (a yes edge may follow its no edge)."""
    payload = json.loads(export_json(graph))
    random.Random(data.draw(_SEEDS)).shuffle(payload["edges"])
    return graph_from_json(json.dumps(payload))


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_trace_matches_the_edge_walk_on_the_shipped_pack(pack, data):
    for entry in pack.rules():
        graph = build_lawmap(entry.equations, entry.ast)
        names = entry.equations.input_ids()
        _assert_trace_matches_the_edge_walk(graph, names, data)
        _assert_trace_matches_the_edge_walk(_round_trip(graph, data), names, data)


@st.composite
def _wide_equations(draw):
    """1-2 decisions, each a drawn tree over 11-16 inputs, up to three of
    them read twice (the rule texts above stay under 10 inputs)."""

    def tree(leaves):
        if len(leaves) == 1:
            return Not(leaves[0]) if draw(st.booleans()) else leaves[0]
        cut = draw(st.integers(1, len(leaves) - 1))
        return draw(st.sampled_from((And, Or)))((tree(leaves[:cut]), tree(leaves[cut:])))

    names = draw(st.permutations([f"v{i:02d}" for i in range(16)]))[:draw(st.integers(11, 16))]
    decisions = []
    for _ in range(draw(st.integers(1, 2))):
        twice = draw(st.lists(st.sampled_from(names), max_size=3))
        leaves = draw(st.permutations([Var(name) for name in [*names, *twice]]))
        decisions.append(tree(leaves))
    return parse_equations("".join(f"D{i} = {to_text(d)}\n" for i, d in enumerate(decisions)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_repeated_var_rules().map(_compiled), _wide_equations()), st.booleans(),
       st.data())
def test_trace_matches_the_edge_walk_on_generated_rules(eqs, round_trip, data):
    graph = build_lawmap(eqs)
    if round_trip:
        graph = _round_trip(graph, data)
    _assert_trace_matches_the_edge_walk(graph, eqs.input_ids(), data)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.none(), _repeated_var_rules().map(_compiled), _wide_equations()), st.data())
def test_built_graphs_pass_validation(pack, eqs, data):
    """``build_lawmap`` leaves ``_validate`` to ``graph_from_json``: every
    graph it builds, of the shipped pack (``eqs`` None) or of generated
    rules, is valid by construction."""
    if eqs is None:
        eqs = data.draw(st.sampled_from([entry.equations for entry in pack.rules()]))
    _validate(build_lawmap(eqs))


def test_outcome_ids_stay_unique_when_decision_names_join_alike():
    """A and B firing together, and A_B alone, would both be outcome_A_B."""
    graph = build_lawmap(parse_equations("A = x ∧ e\nB = x ∧ e\nA_B = x ∧ ¬e\n"))
    _validate(graph)
    for e, fired in ((True, ("A", "B")), (False, ("A_B",))):
        assert graph.node(trace_path(graph, {"x": True, "e": e})[-1]).decisions == fired
    assert graph_from_json(export_json(graph)) == graph


def test_path_evaluate_agreement_everywhere(pack):
    """The traced leaf's decision set equals the TRUE decisions, for every
    complete assignment of every shipped rule."""
    for entry in pack.rules():
        graph = build_lawmap(entry.equations, entry.ast)
        names = entry.equations.input_ids()
        for combo in itertools.product((False, True), repeat=len(names)):
            assignment = dict(zip(names, combo))
            fired = tuple(
                d for d, v in evaluate(entry.equations, dict(assignment)).items() if v
            )
            terminal = graph.node(trace_path(graph, assignment)[-1])
            assert terminal.decisions == fired, (entry.rule_id, assignment)


def test_every_equation_has_a_path(pack):
    """Each decision with a satisfying assignment is reachable as an OUTCOME."""
    for entry in pack.rules():
        graph = build_lawmap(entry.equations, entry.ast)
        for decision in entry.equations.decision_ids():
            rows = [
                r for r in truth_table(entry.equations) if r.decisions[decision]
            ]
            assert rows, (entry.rule_id, decision)
            path = trace_path(graph, rows[0].assignment)
            assert decision in graph.node(path[-1]).decisions


def test_structural_invariants(pack):
    for graph in graphs_for(pack).values():
        starts = [n for n in graph.nodes if n.kind == NodeKind.START]
        assert len(starts) == 1
        for node in graph.nodes:
            out = graph.out_edges(node.id)
            if node.kind == NodeKind.CONDITION:
                assert sorted((e.guard for e in out), key=lambda g: g.value) == [
                    EdgeGuard.FALSE_BRANCH,
                    EdgeGuard.TRUE_BRANCH,
                ]
            if node.kind == NodeKind.OUTCOME:
                assert out == ()
        # fully reachable from START, and edges never revisit a node on any
        # walk (DAG): every maximal path must terminate at an OUTCOME
        seen = set()
        frontier = ["start"]
        while frontier:
            node_id = frontier.pop()
            if node_id in seen:
                continue
            seen.add(node_id)
            frontier.extend(e.dst for e in graph.out_edges(node_id))
        assert seen == {n.id for n in graph.nodes}
        for path in graph.outcome_paths():
            assert len(set(path)) == len(path)
            assert graph.node(path[-1]).kind == NodeKind.OUTCOME


def test_dot_export_shapes_and_labels(rules_by_id):
    entry = rules_by_id["UK-HC-103"]
    dot = export_dot(build_lawmap(entry.equations, entry.ast))
    assert dot.count("shape=diamond") == 3
    assert 'label="yes"' in dot and 'label="no"' in dot
    assert "shape=circle" in dot and "shape=box" in dot


def test_dot_export_without_exception_has_no_exception_diamond():
    eqs = parse_equations("Y = A\n")
    dot = export_dot(build_lawmap(eqs))
    assert dot.count("shape=diamond") == 1


def test_crossing_outcome_text_in_dot(rules_by_id):
    entry = rules_by_id["UK-HC-191-199"]
    dot = export_dot(build_lawmap(entry.equations, entry.ast))
    assert "proceed through the pedestrian crossing with caution" in dot


def test_json_round_trip(pack):
    for entry in pack.rules():
        graph = build_lawmap(entry.equations, entry.ast, meta={"title": "x"})
        assert graph_from_json(export_json(graph)) == graph


# text a JSON writer must escape or pass through: quotes, backslashes,
# control characters, U+2028 and other non-ASCII text
AWKWARD_TEXT = st.one_of(
    st.text(st.sampled_from('"\\\x00\x1f\n\t/aé€\u2028\U0001f697'), max_size=6),
    st.text(max_size=6),
)


def first_difference(got, want):
    """None for equal texts, else the number and both versions of the first
    line where they differ (a pytest diff of two long texts takes minutes)."""
    if got == want:
        return None
    got_lines, want_lines = got.splitlines(True), want.splitlines(True)
    i = next((i for i, pair in enumerate(zip(got_lines, want_lines)) if pair[0] != pair[1]),
             min(len(got_lines), len(want_lines)))
    return i + 1, got_lines[i:i + 1], want_lines[i:i + 1]


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.none(), _repeated_var_rules().map(_compiled), _wide_equations()), st.data())
def test_json_export_is_the_json_dumps_text(pack, eqs, data):
    """``export_json`` writes what ``json.dumps`` writes for the same
    payload, byte for byte: graphs of the shipped pack (``eqs`` None) and of
    generated rules, with a drawn meta (maybe empty) and, in half of them, a
    drawn rule id and labels."""
    if eqs is None:
        eqs = data.draw(st.sampled_from([entry.equations for entry in pack.rules()]))
    graph = build_lawmap(eqs, meta=data.draw(st.dictionaries(AWKWARD_TEXT, AWKWARD_TEXT,
                                                             max_size=3)))
    if data.draw(st.booleans()):
        rule_id = data.draw(AWKWARD_TEXT)
        nodes = tuple(n._replace(label=data.draw(AWKWARD_TEXT)) for n in graph.nodes)
        graph = LawmapGraph(rule_id, nodes, graph.edges, graph.meta)
    assert first_difference(export_json(graph), export_json_by_dumps(graph)) is None


def test_graph_from_json_rejects_a_key_given_twice(rules_by_id):
    entry = rules_by_id["UK-HC-103"]
    text = export_json(build_lawmap(entry.equations, entry.ast))
    twice = text.replace('"rule_id": "UK-HC-103"', '"rule_id": "UK-HC-103", "rule_id": "OTHER"')
    assert twice.count('"rule_id"') == 2
    with pytest.raises(ValueError, match="^key 'rule_id' appears twice$"):
        graph_from_json(twice)


def _drop_c1_no(payload):
    payload["edges"] = [e for e in payload["edges"] if (e["from"], e["guard"]) != ("c1", "no")]


def _edge_to_nowhere(payload):
    payload["edges"][1]["to"] = "nowhere"


def _c1_yes_to_itself(payload):
    next(e for e in payload["edges"] if (e["from"], e["guard"]) == ("c1", "yes"))["to"] = "c1"


def _start_last(payload):
    payload["nodes"].append(payload["nodes"].pop(0))


def _c1_without_var(payload):
    payload["nodes"][1]["var"] = None


def _c1_twice(payload):
    payload["nodes"].append({**payload["nodes"][1], "var": "B"})


def _second_start_edge(payload):
    payload["edges"].append({"from": "start", "to": "sink", "guard": "always"})


@pytest.mark.parametrize("change, message", [
    (_drop_c1_no, "condition c1 needs exactly one yes and one no edge"),
    (_edge_to_nowhere, "edge c1 -> nowhere: no node nowhere"),
    (_c1_yes_to_itself, "graph has a cycle"),
    (_start_last, "graph must have one START node, the first"),
    (_c1_without_var, "condition c1 names no variable"),
    (_c1_twice, "node c1 is defined twice"),
    (_second_start_edge, "START must have one out-edge, unconditional"),
])
def test_graph_from_json_rejects_graphs_trace_path_cannot_walk(rules_by_id, change, message):
    """Each of these once loaded, and then ``trace_path`` raised a KeyError,
    never returned (the cycle) or silently followed the first of two nodes
    or START edges."""
    entry = rules_by_id["UK-HC-103"]
    payload = json.loads(export_json(build_lawmap(entry.equations, entry.ast)))
    change(payload)
    with pytest.raises(InconsistentInputsError, match=f"^{message}$"):
        graph_from_json(json.dumps(payload))


def set_field(value, *path):
    """A change to a JSON payload that sets the field at ``path`` to ``value``."""
    def change(payload):
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return payload
    return change


# (id, change to the payload of UK-HC-103's Lawmap, message); each of these
# once loaded (and then failed in export_json or trace_path) or raised TypeError
WRONG_TYPES = [
    ("graph-array", lambda payload: [payload], "graph must be a JSON object"),
    ("nodes-object", set_field({}, "nodes"), "nodes must be a JSON array"),
    ("node-number", set_field([5], "nodes"), "each node must be a JSON object"),
    ("id-number", set_field(1, "nodes", 1, "id"), "node id must be a JSON string"),
    ("kind-number", set_field(2, "nodes", 1, "kind"), "node c1: kind must be a JSON string"),
    ("kind-unknown", set_field("begin", "nodes", 1, "kind"),
     "node c1: kind must be one of start, condition, outcome, got 'begin'"),
    ("label-number", set_field(3, "nodes", 1, "label"), "node c1: label must be a JSON string"),
    ("var-boolean", set_field(True, "nodes", 1, "var"), "node c1: var must be a JSON string"),
    ("decisions-text", set_field("X", "nodes", 4, "decisions"),
     "node outcome_X: decisions must be a JSON array"),
    ("decision-number", set_field(0, "nodes", 4, "decisions", 0),
     "node outcome_X: each decision must be a JSON string"),
    ("edges-object", set_field({}, "edges"), "edges must be a JSON array"),
    ("edge-text", set_field(["start"], "edges"), "each edge must be a JSON object"),
    ("edge-from-number", set_field(0, "edges", 0, "from"), "edge from must be a JSON string"),
    ("edge-to-array", set_field(["c1"], "edges", 0, "to"), "edge to must be a JSON string"),
    ("edge-guard-boolean", set_field(True, "edges", 1, "guard"),
     "edge guard must be a JSON string"),
    ("edge-guard-unknown", set_field("maybe", "edges", 1, "guard"),
     "edge c1 -> c2: guard must be one of always, yes, no, got 'maybe'"),
    ("meta-array", set_field([], "meta"), "meta must be a JSON object"),
    ("meta-value-number", set_field({"k": 1}, "meta"), "meta k must be a JSON string"),
    ("rule-id-number", set_field(5, "rule_id"), "rule_id must be a JSON string"),
    ("graph-unknown-field", set_field("x", "title"),
     r"title is not a field \(fields: nodes, edges, meta, rule_id\)"),
    ("node-unknown-field", set_field("X", "nodes", 1, "decision"),
     r"node c1: decision is not a field \(fields: id, kind, label, var, decisions\)"),
    ("edge-unknown-field", set_field("yes", "edges", 1, "label"),
     r"edge label is not a field \(fields: from, to, guard\)"),
]


@pytest.mark.parametrize(
    "change, message", [row[1:] for row in WRONG_TYPES], ids=[row[0] for row in WRONG_TYPES]
)
def test_graph_from_json_refuses_wrongly_typed_fields(rules_by_id, change, message):
    entry = rules_by_id["UK-HC-103"]
    payload = json.loads(export_json(build_lawmap(entry.equations, entry.ast)))
    with pytest.raises(ValueError, match=f"^{message}$"):
        graph_from_json(json.dumps(change(payload)))


def test_json_counts_condition_entries(rules_by_id):
    entry = rules_by_id["UK-HC-103"]
    payload = json.loads(export_json(build_lawmap(entry.equations, entry.ast)))
    conditions = [n for n in payload["nodes"] if n["kind"] == "condition"]
    assert len(conditions) == 3


def test_exports_are_deterministic(rules_by_id):
    entry = rules_by_id["UK-HC-99-100/1"]
    first = build_lawmap(entry.equations, entry.ast)
    second = build_lawmap(entry.equations, entry.ast)
    assert export_dot(first) == export_dot(second)
    assert export_json(first) == export_json(second)


def test_rule_id_mismatch_is_inconsistent(rules_by_id):
    entry = rules_by_id["UK-HC-103"]
    other = rules_by_id["UK-HC-137-138"]
    with pytest.raises(InconsistentInputsError):
        build_lawmap(entry.equations, other.ast)


def test_degenerate_variable_free_rule_is_rejected():
    with pytest.raises(InconsistentInputsError):
        build_lawmap(parse_equations("Y = TRUE\n"))


def test_non_exclusive_decisions_share_a_leaf():
    graph = build_lawmap(parse_equations("X = A ∧ C\nY = A ∧ C\n"))
    both = [n for n in graph.nodes if n.decisions == ("X", "Y")]
    assert len(both) == 1
    path = trace_path(graph, {"A": True, "C": True})
    assert graph.node(path[-1]).decisions == ("X", "Y")


def test_restraint_bundle_builds_one_graph_per_rule(pack):
    """The composite seat-belt group yields three graphs whose path counts
    equal the distinct traced routes over their full truth tables."""
    bundle = [rule for rule in pack.rules() if rule.source.group == "99-100"]
    assert len(bundle) == 3
    for entry in bundle:
        graph = build_lawmap(entry.equations, entry.ast)
        names = entry.equations.input_ids()
        distinct = {
            tuple(trace_path(graph, dict(zip(names, combo))))
            for combo in itertools.product((False, True), repeat=len(names))
        }
        assert len(graph.outcome_paths()) == len(distinct)


GOLDEN_LAWMAPS = Path(__file__).parent / "golden" / "lawmaps"


def test_render_lawmaps_matches_the_goldens(tmp_path):
    script = Path(__file__).parents[1] / "scripts" / "render_lawmaps.py"
    subprocess.run([sys.executable, str(script), str(tmp_path)], check=True,
                   capture_output=True)
    rendered = sorted(p.name for p in tmp_path.iterdir())
    assert rendered == sorted(p.name for p in GOLDEN_LAWMAPS.iterdir())
    assert len(rendered) == 14
    for name in rendered:
        assert (tmp_path / name).read_bytes() == (GOLDEN_LAWMAPS / name).read_bytes(), name
