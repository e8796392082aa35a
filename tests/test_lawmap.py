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
    build_lawmap,
    export_dot,
    export_json,
    trace_path,
)
from reference import export_json_by_dumps, trace_path_by_edges, truth_table
from test_boolean_core import _compiled, _repeated_var_rules


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


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_trace_matches_the_edge_walk_on_the_shipped_pack(pack, data):
    for entry in pack.rules():
        graph = build_lawmap(entry.equations, entry.ast)
        names = entry.equations.input_ids()
        _assert_trace_matches_the_edge_walk(graph, names, data)


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
@given(st.one_of(_repeated_var_rules().map(_compiled), _wide_equations()), st.data())
def test_trace_matches_the_edge_walk_on_generated_rules(eqs, data):
    _assert_trace_matches_the_edge_walk(build_lawmap(eqs), eqs.input_ids(), data)


def test_outcome_ids_stay_unique_when_decision_names_join_alike():
    """A and B firing together, and A_B alone, would both be outcome_A_B."""
    graph = build_lawmap(parse_equations("A = x ∧ e\nB = x ∧ e\nA_B = x ∧ ¬e\n"))
    assert len({n.id for n in graph.nodes}) == len(graph.nodes)
    for e, fired in ((True, ("A", "B")), (False, ("A_B",))):
        assert graph.node(trace_path(graph, {"x": True, "e": e})[-1]).decisions == fired


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


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.none(), _repeated_var_rules().map(_compiled), _wide_equations()))
def test_structural_invariants(pack, eqs):
    """Every graph ``build_lawmap`` builds, of each shipped rule (``eqs``
    None) or of a generated rule: one START, first, with one unconditional
    out-edge; unique node ids; each condition's yes edge, then its no edge;
    no edge out of an outcome or into START; every node reachable from
    START; and no cycle, without enumerating the paths (a wide graph has up
    to 2^16): the condition variable's place in ``eqs.input_ids()`` rises
    along every edge between conditions."""
    for eqs in [entry.equations for entry in pack.rules()] if eqs is None else [eqs]:
        graph = build_lawmap(eqs)
        kinds = [n.kind for n in graph.nodes]
        assert kinds.index(NodeKind.START) == 0 and kinds.count(NodeKind.START) == 1
        ids = {n.id for n in graph.nodes}
        assert len(ids) == len(graph.nodes)
        assert all(e.src in ids and e.dst in ids for e in graph.edges)
        place = {name: i for i, name in enumerate(eqs.input_ids())}
        for node in graph.nodes:
            out = graph.out_edges(node.id)
            assert all(graph.node(e.dst).kind != NodeKind.START for e in out)
            if node.kind == NodeKind.START:
                assert [e.guard for e in out] == [EdgeGuard.ALWAYS]
            if node.kind == NodeKind.CONDITION:
                assert [e.guard for e in out] == [EdgeGuard.TRUE_BRANCH, EdgeGuard.FALSE_BRANCH]
                for edge in out:
                    dst = graph.node(edge.dst)
                    if dst.kind == NodeKind.CONDITION:
                        assert place[dst.var] > place[node.var]
            if node.kind == NodeKind.OUTCOME:
                assert out == ()
        seen = set()
        frontier = ["start"]
        while frontier:
            node_id = frontier.pop()
            if node_id not in seen:
                seen.add(node_id)
                frontier.extend(e.dst for e in graph.out_edges(node_id))
        assert seen == ids


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
