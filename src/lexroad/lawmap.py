"""State-transition graphs over compiled rules.

A graph starts at a single START node, tests the rule's condition
variables in clause order (antecedent first, then exception, then outcome
guards) and ends in OUTCOME leaves: one per reachable decision, plus an
"out of scope" sink for assignments where no decision fires.  Equivalent
subtrees are merged and redundant tests skipped, so a path tests, in clause
order, only conditions its verdict still depends on.  That makes it minimal
for this fixed test order, not a smallest set of facts that forces the
verdict: for ``Y = a ∨ b`` the path a=FALSE, b=TRUE reaches ``outcome_Y``,
yet b=TRUE alone forces Y.  The graph is read off the decisions' binary
decision diagrams (``boolean_core.Bdd``) in clause order, so its size, not
the 2^n input assignments, sets the cost.  The diagram walks recurse once
per input, so Python's recursion limit caps a rule's width: an EXCEPT that
is one OR of about 985 facts does not build (the CLI exits 2).

``trace_path`` walks a transition table cached on the graph (each node's
condition variable and yes and no successors), so after a graph's first
trace a trace costs its path length plus one check per condition variable
that no fact is missing, not a scan of the graph's nodes and edges.

Exports are deterministic: DOT for rendering (START circle, CONDITION
diamond, OUTCOME box, yes/no edge labels) and canonical JSON for golden
diffs, both written directly; the JSON is byte for byte what ``json``'s
``dumps(payload, sort_keys=True, ensure_ascii=False, indent=2)`` writes.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from json.encoder import encode_basestring as _json_quote
from typing import NamedTuple

from . import strict_json
from .errors import IncompleteAssignmentError, InconsistentInputsError
from .boolean_core import Bdd, RuleEquations
from .rule_dsl import Frozen, RuleAst, RuleSource


class NodeKind(Enum):
    START = "start"
    CONDITION = "condition"
    OUTCOME = "outcome"


class EdgeGuard(Enum):
    ALWAYS = "always"
    TRUE_BRANCH = "yes"
    FALSE_BRANCH = "no"


class LawmapNode(NamedTuple):
    """A START, CONDITION (testing ``var``) or OUTCOME node."""

    id: str
    kind: NodeKind
    label: str
    var: str | None = None
    decisions: tuple[str, ...] = ()  # OUTCOME only; empty = out-of-scope sink


class LawmapEdge(NamedTuple):
    """An edge from ``src`` to ``dst``, taken when ``guard`` holds."""

    src: str
    dst: str
    guard: EdgeGuard


class LawmapGraph(Frozen):  # not a tuple: cached_property needs a __dict__
    """One rule's Lawmap: nodes (START first), edges and export metadata."""

    rule_id: str
    nodes: tuple[LawmapNode, ...]
    edges: tuple[LawmapEdge, ...]
    meta: tuple[tuple[str, str], ...] = ()

    @cached_property
    def _index(self) -> tuple[dict[str, LawmapNode], dict[str, tuple[LawmapEdge, ...]]]:
        """Nodes by id and each node's out-edges in edge order; built on
        first use."""
        out: dict[str, list[LawmapEdge]] = {}
        for edge in self.edges:
            out.setdefault(edge.src, []).append(edge)
        nodes = {node.id: node for node in self.nodes}
        return nodes, {src: tuple(edges) for src, edges in out.items()}

    @cached_property
    def _transitions(self) -> tuple[str, dict[str, tuple[str, str, str] | None], tuple[str, ...]]:
        """What ``trace_path`` reads, built on first use from a graph
        ``build_lawmap`` built, which lists each condition's yes edge before
        its no edge: START's successor; for every other node id, its
        condition variable and yes and no successors (``None`` for an
        OUTCOME); and the condition variables in ``condition_vars`` order."""
        steps: dict[str, tuple[str, str, str] | None] = {}
        for node in self.nodes[1:]:
            if node.kind == NodeKind.CONDITION:
                yes, no = self.out_edges(node.id)
                steps[node.id] = (node.var, yes.dst, no.dst)
            else:
                steps[node.id] = None
        first = self.out_edges(self.nodes[0].id)[0].dst
        return first, steps, self.condition_vars()

    def node(self, node_id: str) -> LawmapNode:
        return self._index[0][node_id]

    def out_edges(self, node_id: str) -> tuple[LawmapEdge, ...]:
        return self._index[1].get(node_id, ())

    def condition_vars(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for node in self.nodes:
            if node.kind == NodeKind.CONDITION and node.var:
                seen.setdefault(node.var, None)
        return tuple(seen)

    def outcome_paths(self) -> list[list[str]]:
        """Every START→OUTCOME path, depth first, yes before no."""
        paths: list[list[str]] = []
        stack = [[self.nodes[0].id]]
        while stack:
            trail = stack.pop()
            edges = self.out_edges(trail[-1])
            if not edges:
                paths.append(trail)
            stack.extend(trail + [edge.dst] for edge in reversed(edges))
        return paths


def source_meta(source: RuleSource) -> dict[str, str]:
    """The export metadata of ``source``'s Lawmap: its title, if it has one,
    then each citation as ``cites.<i>``."""
    meta = {"title": source.title} if source.title else {}
    for i, cite in enumerate(source.citations):
        meta[f"cites.{i}"] = cite
    return meta


def build_lawmap(
    eqs: RuleEquations,
    ast: RuleAst | None = None,
    meta: dict[str, str] | None = None,
) -> LawmapGraph:
    """Construct the reduced decision diagram realizing the rule's equations."""
    if ast is not None and ast.rule_id != eqs.rule_id:
        raise InconsistentInputsError(
            f"equations for {eqs.rule_id} do not belong to rule {ast.rule_id}"
        )
    if ast is not None:
        outcome_count = len(ast.then_outcomes) + len(ast.else_outcomes)
        if outcome_count != len(eqs.decision_ids()):
            raise InconsistentInputsError(
                f"{outcome_count} outcomes in the rule vs {len(eqs.decision_ids())} equations"
            )
    if not eqs.input_ids():
        raise InconsistentInputsError("rule has no condition variables")

    # The rule's decision diagram; a tuple of the decisions' nodes is one
    # node of the Lawmap, which tests the first variable any of them tests.
    bdd, by_decision = eqs.diagram
    decisions, root = tuple(by_decision), tuple(by_decision.values())

    nodes: list[LawmapNode] = [LawmapNode("start", NodeKind.START, "START")]
    branches: list[tuple[str, tuple[int, ...], tuple[int, ...]]] = []
    ids: dict[tuple[int, ...], str] = {}
    outcome_ids: set[str] = set()
    # depth first from the root, yes branch before no, each state once:
    # condition ids c1, c2, ... in preorder
    stack = [root]
    while stack:
        state = stack.pop()
        if state in ids:
            continue
        if max(state) <= Bdd.TRUE:  # every decision is a terminal
            fired = tuple(d for d, f in zip(decisions, state) if f == Bdd.TRUE)
            if fired:
                node_id = "outcome_" + "_".join(fired)
                while node_id in outcome_ids:  # (A, B) and (A_B,) join alike
                    node_id += "'"
                outcome_ids.add(node_id)
                label = "; ".join(eqs.table.describe(d) for d in fired)
            else:
                node_id = "sink"
                label = "Out of scope"
            ids[state] = node_id
            nodes.append(LawmapNode(node_id, NodeKind.OUTCOME, label, None, fired))
            continue
        level = min(map(bdd.level, state))
        var = bdd.names[level]
        node_id = ids[state] = f"c{len(branches) + 1}"
        nodes.append(LawmapNode(node_id, NodeKind.CONDITION, eqs.table.describe(var), var))
        hi = lo = ()
        for f in state:
            f1, f0 = bdd.cofactors(f, level)
            hi += (f1,)
            lo += (f0,)
        branches.append((node_id, hi, lo))
        stack += (lo, hi)

    edges = [LawmapEdge("start", ids[root], EdgeGuard.ALWAYS)]
    for node_id, hi, lo in branches:
        edges.append(LawmapEdge(node_id, ids[hi], EdgeGuard.TRUE_BRANCH))
        edges.append(LawmapEdge(node_id, ids[lo], EdgeGuard.FALSE_BRANCH))
    # valid by construction: unique ids, levels rise along edges, and each
    # yes edge comes before its no edge, which _transitions relies on
    return LawmapGraph(eqs.rule_id, tuple(nodes), tuple(edges),
                       meta=tuple(sorted((meta or {}).items())))


def trace_path(graph: LawmapGraph, assignment: dict[str, bool]) -> list[str]:
    """Follow the unique START→OUTCOME path the assignment realizes.

    Every condition variable of the graph must be set, also those off the
    path (``IncompleteAssignmentError`` lists all that are not).  The first
    trace of a graph builds its transition table; after that a trace costs
    its path length, one lookup per step, plus that check over the cached
    condition variables, not a scan of the graph."""
    first, steps, condition_vars = graph._transitions
    missing = tuple(v for v in condition_vars if assignment.get(v) is None)
    if missing:
        raise IncompleteAssignmentError(missing)
    path = [graph.nodes[0].id, first]
    step = steps[first]
    while step:
        var, yes, no = step
        path.append(yes if assignment[var] else no)
        step = steps[path[-1]]
    return path


# --- exports -----------------------------------------------------------------

def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


_SHAPES = {NodeKind.START: "circle", NodeKind.CONDITION: "diamond", NodeKind.OUTCOME: "box"}


def export_dot(graph: LawmapGraph, highlight: list[str] | None = None) -> str:
    """Deterministic DOT rendering; ``highlight`` marks a traced path."""
    on_path = set()
    if highlight:
        on_path = {(a, b) for a, b in zip(highlight, highlight[1:])}
    lines = [f"digraph {_dot_quote(graph.rule_id)} {{", "  rankdir=TB;"]
    for key, value in graph.meta:
        lines.append(f"  // {key}: {value}")
    for node in graph.nodes:
        if node.kind == NodeKind.CONDITION:
            label = f"{node.var}: {node.label}"
        elif node.kind == NodeKind.OUTCOME and node.decisions:
            label = f"{', '.join(node.decisions)}: {node.label}"
        else:
            label = node.label
        lines.append(
            f"  {_dot_quote(node.id)} [shape={_SHAPES[node.kind]}, label={_dot_quote(label)}];"
        )
    for edge in graph.edges:
        attrs = []
        if edge.guard != EdgeGuard.ALWAYS:
            attrs.append(f"label={_dot_quote(edge.guard.value)}")
        if (edge.src, edge.dst) in on_path:
            attrs.append("color=red")
            attrs.append("penwidth=2")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_dot_quote(edge.src)} -> {_dot_quote(edge.dst)}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(graph: LawmapGraph) -> str:
    """Canonical JSON, written directly (see the module docstring)."""
    q = _json_quote
    meta = ",\n    ".join(f"{q(k)}: {q(v)}" for k, v in sorted(dict(graph.meta).items()))
    meta = f"{{\n    {meta}\n  }}" if meta else "{}"
    nodes = [
        f'{{\n      "decisions": {strict_json.array([*map(q, n.decisions)], "      ")},'
        f'\n      "id": {q(n.id)},\n      "kind": "{n.kind.value}",\n      "label": {q(n.label)},'
        f'\n      "var": {"null" if n.var is None else q(n.var)}\n    }}'
        for n in graph.nodes
    ]
    edges = [
        f'{{\n      "from": {q(e.src)},\n      "guard": "{e.guard.value}",'
        f'\n      "to": {q(e.dst)}\n    }}'
        for e in graph.edges
    ]
    return (
        f'{{\n  "edges": {strict_json.array(edges, "  ")},\n  "meta": {meta},'
        f'\n  "nodes": {strict_json.array(nodes, "  ")},\n  "rule_id": {q(graph.rule_id)}\n}}\n'
    )

