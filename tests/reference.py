"""Explicit enumerations, a plain diagram kernel and a plain rule parser
kept as test oracles.

lexroad answers these questions on decision diagrams; the 2^n versions here
are the independent references it must agree with: the truth table of an
equation set, a witness found by restricting the diagram one name at a
time, a node's CPT evaluated row by row, inference by weighted
enumeration of the joint states, and BN validation that runs that
inference on every assignment of the roots.  ``kleene_eval``, the
three-valued evaluator these are written with, is what ``evaluate`` used
before it read verdicts off the rule's diagram; it stays as a sound (but
not complete) reference.

``expand`` substitutes each decision's earlier decisions into its equation,
leaving trees over the inputs alone, and ``equivalent`` compares two trees
in a fresh diagram: the way lexroad checked goldens before it built each
decision's node with the earlier decisions bound to theirs.

``PlainBdd`` is ``Bdd`` with the kernel written the plain way, through
``level`` and ``cofactors``; ``Bdd`` must build the same node table.
``settle_by_walk`` is how ``Bdd.settle`` read verdicts before it searched
for the terminals a node reaches: a memoised walk that recurses once per
level and combines the branches' verdicts on the way back up.

``load_rule_file`` and ``parse_rule`` here read rules the plain way: each
line through four patterns, then each section's tree built recursively
once the whole body is scanned.  lexroad's one-pass reader must give the
same sources, trees and errors.

``pack_digest`` walks a pack with ``Path.rglob`` and reads each file again,
and ``load_json_object`` reads JSON in text mode: lexroad's one walk and its
one binary reader must give the same digest and the same objects and errors.

``trace_path_by_edges`` traces a Lawmap the plain way: it scans every node
for the condition variables and, at each step, the node's out-edges for
the one its guard selects.  ``lawmap.trace_path`` walks a transition table
and must give the same paths and the same ``missing`` tuples.

``export_json_by_dumps``, ``net_to_json_by_dumps`` and
``report_to_json_by_dumps`` build each export's payload and hand it to
``json.dumps(..., sort_keys=True, ensure_ascii=False, indent=2)``; lexroad
writes the same text directly and must give the same bytes.

``build_parser`` is the ``argparse`` definition of the command line that
``lexroad.cli`` used before it read the command line from one table: where
it gives fields the reader must give the same ones, and where it refuses
the reader must refuse with its message. The one difference: argparse
drops a literal ``--`` from a value (``--out=--`` reads as an empty list),
and the reader keeps it.
"""

import argparse
import functools
import hashlib
import io
import itertools
import json
import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path

from lexroad import __version__, strict_json
from lexroad.cli import cmd_bn, cmd_check, cmd_compile, cmd_eval, cmd_lawmap
from lexroad.bayes_net import (
    AGREEMENT_TOLERANCE,
    BayesNet,
    BnNode,
    BnNodeKind,
    Divergence,
    EquationCheck,
    ImpossibleEvidenceError,
    ValidationReport,
)
from lexroad.boolean_core import (
    And,
    Bdd,
    BoolExpr,
    Const,
    CyclicDefinitionError,
    Not,
    Or,
    RuleEquations,
    Var,
    free_vars,
)
from lexroad.compliance import ComplianceReport
from lexroad.lawmap import (
    EdgeGuard,
    IncompleteAssignmentError,
    LawmapGraph,
    NodeKind,
)
from lexroad.rule_dsl import (
    SECTIONS,
    Clause,
    Connective,
    DuplicateLabelError,
    RuleAst,
    RuleSource,
    RuleSyntaxError,
)

MAX_TRUTH_TABLE_VARS = 24


def kleene_eval(expr: BoolExpr, env: dict[str, bool | None]) -> bool | None:
    """Three-valued (Kleene) evaluation; missing or None bindings are
    UNKNOWN.  Sound but not complete: a definite answer is the value on
    every completion, but UNKNOWN may hide a forced value once a variable
    occurs twice (``a ∨ ¬a``)."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return env.get(expr.id)
    if isinstance(expr, Not):
        value = kleene_eval(expr.child, env)
        return None if value is None else not value
    values = [kleene_eval(child, env) for child in expr.children]
    if isinstance(expr, And):
        if any(v is False for v in values):
            return False
        return None if any(v is None for v in values) else True
    if any(v is True for v in values):
        return True
    return None if any(v is None for v in values) else False


def expand(eqs: RuleEquations) -> dict[str, BoolExpr]:
    """Substitute references to earlier decisions, leaving pure input expressions."""
    expanded: dict[str, BoolExpr] = {}
    for decision, expr in eqs.equations.items():
        expanded[decision] = _subst(expr, expanded, eqs.equations)
    return expanded


def _subst(e: BoolExpr, expanded: dict[str, BoolExpr], equations: dict[str, BoolExpr]) -> BoolExpr:
    """``e`` with each decision in ``expanded`` replaced by its expression; a
    decision of ``equations`` not expanded yet is a cycle."""
    if isinstance(e, Var):
        if e.id in expanded:
            return expanded[e.id]
        if e.id in equations:
            raise CyclicDefinitionError(e.id)
        return e
    if isinstance(e, Not):
        return Not(_subst(e.child, expanded, equations))
    if isinstance(e, And):
        return And(tuple(_subst(c, expanded, equations) for c in e.children))
    if isinstance(e, Or):
        return Or(tuple(_subst(c, expanded, equations) for c in e.children))
    return e


def equivalent(a: BoolExpr, b: BoolExpr) -> tuple[bool, dict[str, bool] | None]:
    """Equivalence by decision-diagram identity; when the expressions differ,
    also the first distinguishing assignment over the sorted union of their
    free variables, FALSE before TRUE."""
    bdd = Bdd()
    fa, fb = bdd.of(a), bdd.of(b)
    if fa == fb:
        return True, None
    differ = bdd.ite(fa, bdd.ite(fb, Bdd.FALSE, Bdd.TRUE), fb)  # a XOR b
    return False, bdd.witness(differ, tuple(sorted(bdd.names)), False)


@dataclass(frozen=True)
class TruthTableRow:
    assignment: dict[str, bool]
    decisions: dict[str, bool]


def truth_table(eqs: RuleEquations) -> list[TruthTableRow]:
    """All 2^n rows over the sorted input variables, bounded by
    ``MAX_TRUTH_TABLE_VARS``."""
    inputs = tuple(sorted(eqs.input_ids()))
    if len(inputs) > MAX_TRUTH_TABLE_VARS:
        raise ValueError(
            f"{len(inputs)} input variables exceed the {MAX_TRUTH_TABLE_VARS}-variable bound"
        )
    exprs = expand(eqs)
    rows = []
    for values in itertools.product((False, True), repeat=len(inputs)):
        env: dict[str, bool | None] = dict(zip(inputs, values))
        decisions = {d: bool(kleene_eval(e, env)) for d, e in exprs.items()}
        rows.append(TruthTableRow(dict(zip(inputs, values)), decisions))
    return rows


class PlainBdd(Bdd):
    """``Bdd`` with the plain kernel: ``ite`` through ``level`` and
    ``cofactors``, ``of`` by ``isinstance`` with every child of an And/Or
    built before the fold from the right."""

    def ite(self, f: int, g: int, h: int) -> int:
        if f <= self.TRUE or g == h:
            return h if f == self.FALSE else g
        if (g, h) == (self.TRUE, self.FALSE):
            return f
        key = (f, g, h)
        if key not in self._ite:
            level = min(self.level(f), self.level(g), self.level(h))
            (f1, f0), (g1, g0), (h1, h0) = (self.cofactors(x, level) for x in key)
            self._ite[key] = self._node(level, self.ite(f1, g1, h1), self.ite(f0, g0, h0))
        return self._ite[key]

    def of(self, expr: BoolExpr) -> int:
        if isinstance(expr, Const):
            return self.TRUE if expr.value else self.FALSE
        if isinstance(expr, Var):
            return self.var(expr.id)
        if isinstance(expr, Not):
            return self.ite(self.of(expr.child), self.FALSE, self.TRUE)
        *rest, f = [self.of(child) for child in expr.children]  # every child first
        for g in reversed(rest):  # then fold from the right
            f = self.ite(g, f, self.FALSE) if isinstance(expr, And) else self.ite(g, self.TRUE, f)
        return f


def witness_by_restriction(
    bdd: Bdd, f: int, names: tuple[str, ...], first: bool
) -> dict[str, bool] | None:
    """``Bdd.witness`` by restriction: conjoin each name's literal with
    ``f`` (``first`` before its negation) and keep the one that leaves it
    satisfiable.  Builds nodes, and may add names to ``bdd``."""
    if f == Bdd.FALSE:
        return None
    assignment: dict[str, bool] = {}
    for name in names:
        literal = bdd.var(name) if first else bdd.ite(bdd.var(name), Bdd.FALSE, Bdd.TRUE)
        g = bdd.ite(f, literal, Bdd.FALSE)
        assignment[name] = first if g != Bdd.FALSE else not first
        f = g if g != Bdd.FALSE else bdd.ite(literal, Bdd.FALSE, f)
    return assignment


def settle_by_walk(bdd: Bdd, fs: tuple[int, ...], facts: dict[str, bool | None]
                   ) -> list[bool | None]:
    """``Bdd.settle`` of each of ``fs``, as the memoised walk that recurses
    once per level:
    a node on a known fact takes its branch's verdict, and one on an unknown
    variable its branches' verdict when they agree, else None."""
    seen: dict[int, bool | None] = {Bdd.FALSE: False, Bdd.TRUE: True}
    return [_settle_by_walk(bdd, f, facts, seen) for f in fs]


def _settle_by_walk(bdd: Bdd, f: int, facts: dict[str, bool | None],
                    seen: dict[int, bool | None]) -> bool | None:
    if f not in seen:
        level, hi, lo = bdd._nodes[f]
        value = facts.get(bdd.names[level])
        if value is None:  # unknown: both branches must agree
            first = _settle_by_walk(bdd, hi, facts, seen)
            seen[f] = None if first is None or _settle_by_walk(bdd, lo, facts, seen) != first \
                else first
        else:
            seen[f] = _settle_by_walk(bdd, hi if value else lo, facts, seen)
    return seen[f]


def cpt_by_rows(expr: BoolExpr, parents: tuple[str, ...]) -> tuple[float, ...]:
    """The CPT of a node computing ``expr``, one Kleene evaluation per row
    over ``itertools.product((True, False), ...)`` of ``parents``."""
    rows = []
    for combo in itertools.product((True, False), repeat=len(parents)):
        env: dict[str, bool | None] = dict(zip(parents, combo))
        rows.append(1.0 if kleene_eval(expr, env) else 0.0)
    return tuple(rows)


def p_true(node: BnNode, state: dict[str, bool]) -> float:
    """The CPT entry of ``node`` for its parents' values in ``state``."""
    index = 0
    for parent in node.parents:
        index = index * 2 + (0 if state[parent] else 1)
    return node.cpt[index]


def infer_enumeration(net: BayesNet, evidence: dict[str, bool] | None = None) -> dict[str, float]:
    """Posterior P(true) of every node by weighted enumeration of the joint
    states in topological order; any net, deterministic or not."""
    evidence = dict(evidence or {})
    order = list(net.nodes)
    true_mass = {n.id: 0.0 for n in order}
    total = 0.0
    state: dict[str, bool] = {}

    def recurse(i: int, weight: float) -> None:
        nonlocal total
        if weight == 0.0:
            return
        if i == len(order):
            total += weight
            for node_id, value in state.items():
                if value:
                    true_mass[node_id] += weight
            return
        node = order[i]
        p = p_true(node, state)
        fixed = evidence.get(node.id)
        for value, branch_p in ((True, p), (False, 1.0 - p)):
            if fixed is not None and value != fixed:
                continue
            state[node.id] = value
            recurse(i + 1, weight * branch_p)
        del state[node.id]

    recurse(0, 1.0)
    if total == 0.0:
        raise ImpossibleEvidenceError("evidence has zero probability")
    return {node_id: mass / total for node_id, mass in true_mass.items()}


def validate_by_enumeration(net: BayesNet, eqs: RuleEquations) -> ValidationReport:
    """``validate_bn`` by enumeration inference on each of the 2^roots
    assignments of the roots, checked against each expanded equation."""
    roots = net.ids(BnNodeKind.FACT_ROOT)
    report = ValidationReport(rule_id=net.rule_id, assignments_checked=0)
    decisions = eqs.decision_ids()
    exprs = expand(eqs)
    for combo in itertools.product((False, True), repeat=len(roots)):
        ev = dict(zip(roots, combo))
        posteriors = infer_enumeration(net, ev)
        report.assignments_checked += 1
        for decision in decisions:
            p = posteriors[decision]
            want = bool(kleene_eval(exprs[decision], ev))
            if min(p, 1.0 - p) > AGREEMENT_TOLERANCE or (p > 0.5) != want:
                report.divergences.append(Divergence(decision, ev, want, p))
    bdd = Bdd(eqs.input_ids())
    for decision in decisions:
        expr = exprs[decision]
        satisfying = bdd.witness(bdd.of(expr), free_vars(expr), first=True)
        if satisfying is None:
            continue  # unsatisfiable decision: nothing to instantiate
        p = infer_enumeration(net, satisfying)[decision]
        report.equation_checks.append(
            EquationCheck(decision, satisfying, p, abs(p - 1.0) <= AGREEMENT_TOLERANCE)
        )
    return report


# --- the plain rule parser ---------------------------------------------------

_PUNCT_FOLD = str.maketrans(
    {
        "\u2018": "'",
        "\u2019": "'",
        "\u201c": '"',
        "\u201d": '"',
        "\u2013": "-",
        "\u2014": "-",
        "\u00a0": " ",
        "\t": "    ",
    }
)


def _prepare(text: str) -> str:
    return unicodedata.normalize("NFC", text).translate(_PUNCT_FOLD)


_SECTION_RE = re.compile(r"^(IF|EXCEPT|THEN|ELSE):\s*$")
_BRACKET_RE = re.compile(r"^\[([A-Z])\]\s*")
_MARKER_RE = re.compile(r"^([a-z]+)\.\s+")
_VAR_RE = re.compile(r"\s*@var\(([A-Za-z_][A-Za-z0-9_.\-]*)\)\s*$")
_TERM_RE = re.compile(r";\s*(or|and)\b,?\s*$")


@dataclass
class _Line:
    indent: int
    label: str | None
    text: str
    var: str | None
    explicit: Connective | None
    lineno: int
    col: int


def _scan_body(body: str, offset: int, file: str) -> dict[str, list[_Line]]:
    """Split the body into sections of clause lines (still flat)."""
    sections: dict[str, list[_Line]] = {}
    current: str | None = None
    for i, raw in enumerate(body.splitlines()):
        lineno = offset + i
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        indent = len(raw) - len(raw.lstrip(" "))
        line = raw.strip()
        m = _SECTION_RE.match(line)
        if m and indent == 0:
            name = m.group(1)
            if name in sections:
                raise RuleSyntaxError(f"section {name} given twice", lineno, 1, file)
            order = [s for s in SECTIONS if s in sections]
            if order and SECTIONS.index(name) < SECTIONS.index(order[-1]):
                raise RuleSyntaxError(
                    f"section {name} out of order (after {order[-1]})", lineno, 1, file
                )
            sections[name] = []
            current = name
            continue
        if current is None:
            raise RuleSyntaxError(
                "expected section header IF:/EXCEPT:/THEN:/ELSE:", lineno, 1, file
            )
        if indent == 0:
            raise RuleSyntaxError(
                "clause line must be indented under its section", lineno, 1, file
            )
        sections[current].append(_parse_line(line, indent, lineno, file))
    if "IF" not in sections or not sections["IF"]:
        raise RuleSyntaxError("missing IF section", offset, 1, file)
    if "ELSE" not in sections or not sections["ELSE"]:
        raise RuleSyntaxError("missing outcome: rule has no ELSE section", offset, 1, file)
    return sections


def _parse_line(line: str, indent: int, lineno: int, file: str) -> _Line:
    col = indent + 1
    label = None
    rest = line
    m = _BRACKET_RE.match(rest)
    if m:
        label = m.group(1)
        rest = rest[m.end():]
    else:
        m = _MARKER_RE.match(rest)
        if m:
            label = m.group(1)
            rest = rest[m.end():]
    var = None
    m = _VAR_RE.search(rest)
    if m:
        var = m.group(1)
        rest = rest[: m.start()]
    rest = rest.rstrip()
    explicit = None
    m = _TERM_RE.search(rest)
    if m:
        explicit = Connective.OR if m.group(1) == "or" else Connective.AND
        rest = rest[: m.start()]
    elif rest.endswith((";", ".", ":", ",")):
        rest = rest[:-1]
    text = re.sub(r"\s+", " ", rest).strip()
    if not text:
        raise RuleSyntaxError("empty clause", lineno, col, file)
    return _Line(indent, label, text, var, explicit, lineno, col)


def _build_tree(lines: list[_Line], file: str) -> tuple[Clause, ...]:
    pos = 0

    def parse_siblings(indent: int) -> tuple[Clause, ...]:
        nonlocal pos
        items: list[tuple[_Line, tuple[Clause, ...]]] = []
        while pos < len(lines) and lines[pos].indent == indent:
            line = lines[pos]
            pos += 1
            children: tuple[Clause, ...] = ()
            if pos < len(lines) and lines[pos].indent > indent:
                children = parse_siblings(lines[pos].indent)
            items.append((line, children))
        if pos < len(lines) and lines[pos].indent > indent:
            bad = lines[pos]
            raise RuleSyntaxError("unbalanced nesting", bad.lineno, bad.col, file)
        return _resolve(items, file)

    first = lines[0].indent
    if any(l.indent < first for l in lines):
        bad = next(l for l in lines if l.indent < first)
        raise RuleSyntaxError("unbalanced nesting", bad.lineno, bad.col, file)
    clauses = parse_siblings(first)
    if pos != len(lines):
        bad = lines[pos]
        raise RuleSyntaxError("unbalanced nesting", bad.lineno, bad.col, file)
    return clauses


def _resolve(items: list[tuple[_Line, tuple[Clause, ...]]], file: str) -> tuple[Clause, ...]:
    """Resolve bare connectives against the explicit ones in the list."""
    seen: set[str] = set()
    for line, _ in items:
        if line.label is not None:
            if line.label in seen:
                raise DuplicateLabelError(line.label, line.lineno, line.col, file)
            seen.add(line.label)
    conns: list[Connective | None] = [
        None if children else line.explicit for line, children in items[:-1]
    ]
    carry: Connective | None = None
    for i, c in enumerate(conns):
        if c is None:
            conns[i] = carry
        else:
            carry = c
    carry = None
    for i in reversed(range(len(conns))):
        if conns[i] is None:
            conns[i] = carry
        else:
            carry = conns[i]
    conns = [c or Connective.AND for c in conns]
    out = []
    for i, (line, children) in enumerate(items):
        conn = conns[i] if i < len(items) - 1 else None
        out.append(Clause(line.label, line.text, line.var, conn, children))
    return tuple(out)


def parse_rule(source: RuleSource) -> RuleAst:
    """Parse one rule body into its clause tree.  An outcome label given in
    THEN and in ELSE is reported at its ELSE clause."""
    file = source.path or f"<rule:{source.rule_id}>"
    body = _prepare(source.text)
    sections = _scan_body(body, source.line_offset, file)
    trees = {
        name: _build_tree(lines, file) if lines else ()
        for name, lines in sections.items()
    }
    outcomes = list(trees.get("THEN", ())) + list(trees.get("ELSE", ()))
    labels = [c.label for c in outcomes if c.label is not None]
    for label in labels:
        if labels.count(label) > 1:
            top = [l for l in sections["ELSE"] if l.indent == sections["ELSE"][0].indent]
            second = next(l for l in top if l.label == label)
            raise DuplicateLabelError(label, second.lineno, second.col, file)
    return RuleAst(
        rule_id=source.rule_id,
        if_clauses=trees["IF"],
        except_clauses=trees.get("EXCEPT", ()),
        then_outcomes=trees.get("THEN", ()),
        else_outcomes=trees["ELSE"],
    )


def load_rule_file(path: str | Path) -> RuleSource:
    """Read a ``.rule`` file: header lines, blank line, DSL body.  A
    ``rule:``, ``title:`` or ``group:`` header given twice is refused."""
    path = Path(path)
    raw = _prepare(read_text(path))
    rule_id = ""
    title = ""
    citations: list[str] = []
    group = None
    given: set[str] = set()
    lines = raw.splitlines()
    i = len(lines)
    for i, line in enumerate(lines):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        m = re.match(r"^(rule|title|cites|group):\s*(.*)$", stripped)
        if not m:
            break
        key, value = m.group(1), m.group(2).strip()
        if key in given:
            raise RuleSyntaxError(f"header '{key}' given twice", i + 1, 1, str(path))
        if key == "rule":
            rule_id = value
        elif key == "title":
            title = value
        elif key == "group":
            group = value
        else:
            citations.append(value)
        if key != "cites":
            given.add(key)
    else:
        i = len(lines)
    if not rule_id:
        raise RuleSyntaxError("missing 'rule:' header", 1, 1, str(path))
    body = "\n".join(lines[i:])
    return RuleSource(
        rule_id=rule_id,
        title=title,
        text=body,
        citations=tuple(citations),
        path=str(path),
        line_offset=i + 1,
        group=group,
    )


def pack_digest(path: str | Path) -> str:
    """Digest of every pack file, keyed by relative path — order-independent."""
    path = Path(path)
    h = hashlib.sha256()
    for item in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(item.relative_to(path)).encode("utf-8"))
        h.update(b"\0")
        h.update(item.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def load_json_object(path: str | Path) -> object:
    """The JSON value in the file at ``path``, read in text mode."""
    return strict_json.loads(read_text(path), str(path))


def read_text(path: str | Path) -> str:
    """The file at ``path`` read in text mode; a file that is not UTF-8 is a
    ValueError naming it and the line, as text mode counts lines, of its
    first bad byte."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        before = io.StringIO(exc.object[:exc.start].decode("utf-8"), newline=None).read()
        raise ValueError(f"{path}: line {before.count(chr(10)) + 1}: can't decode byte "
                         f"0x{exc.object[exc.start]:02x} as UTF-8: {exc.reason}") from None


def trace_path_by_edges(graph: LawmapGraph, assignment: dict[str, bool]) -> list[str]:
    """The START→OUTCOME path the assignment realizes, found edge by edge."""
    missing = tuple(
        v for v in graph.condition_vars() if assignment.get(v) is None
    )
    if missing:
        raise IncompleteAssignmentError(missing)
    current = graph.nodes[0]
    path = [current.id]
    while current.kind != NodeKind.OUTCOME:
        if current.kind == NodeKind.START:
            guard = EdgeGuard.ALWAYS
        elif assignment[current.var]:
            guard = EdgeGuard.TRUE_BRANCH
        else:
            guard = EdgeGuard.FALSE_BRANCH
        step = {edge.guard: edge.dst for edge in graph.out_edges(current.id)}
        path.append(step[guard])
        current = graph.node(path[-1])
    return path


def export_json_by_dumps(graph: LawmapGraph) -> str:
    """``lawmap.export_json`` through ``json.dumps``."""
    payload = {
        "rule_id": graph.rule_id,
        "meta": {k: v for k, v in graph.meta},
        "nodes": [
            {
                "id": n.id,
                "kind": n.kind.value,
                "label": n.label,
                "var": n.var,
                "decisions": list(n.decisions),
            }
            for n in graph.nodes
        ],
        "edges": [
            {"from": e.src, "to": e.dst, "guard": e.guard.value} for e in graph.edges
        ],
    }
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def net_to_json_by_dumps(net: BayesNet) -> str:
    """``bayes_net.net_to_json`` through ``json.dumps``."""
    payload = {
        "rule_id": net.rule_id,
        "nodes": [
            {
                "id": n.id,
                "kind": n.kind.value,
                "parents": list(n.parents),
                "cpt": list(n.cpt),
                "description": n.description,
            }
            for n in net.nodes
        ],
    }
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def report_to_json_by_dumps(report: ComplianceReport) -> str:
    """``compliance.report_to_json`` through ``json.dumps``."""
    payload = {
        "tool_version": report.tool_version,
        "inputs": {
            "rulepack": {"path": report.pack_path, "sha256": report.pack_sha256},
            "profiles": report.profiles,
        },
        "requirements": [
            {
                "id": r.id,
                "rule_group": r.rule_group,
                "description": r.description,
                "hardware_gap": r.hardware_gap,
            }
            for r in report.requirements
        ],
        "answers": {
            vehicle: {rid: answer.value for rid, answer in by_req.items()}
            for vehicle, by_req in report.answers.items()
        },
        "ratings": {
            vehicle: {
                group: {"rating": rating.rating.value, "rationale": rating.rationale}
                for group, rating in by_group.items()
            }
            for vehicle, by_group in report.ratings.items()
        },
        "rule_outcomes": report.rule_outcomes,
    }
    if report.generated_at is not None:
        payload["generated_at"] = report.generated_at
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


class UsageError(Exception):
    """What ``build_parser()``'s ``error`` was called with."""


class _Parser(argparse.ArgumentParser):
    """A usage error raises ``UsageError``, not argparse's usage text and exit 2."""

    def error(self, message: str):
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later
    ``main`` call in the process. ``parse_args`` keeps no state in it, so it
    can be reused; callers must not mutate it."""
    parser = _Parser(
        prog="lexroad",
        description="Compile structured-English road rules, draw their decision "
        "flow, validate the logic probabilistically and check vehicle "
        "capability profiles.",
    )
    parser.add_argument("--version", action="version", version=f"lexroad {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a .rule file to Boolean equations")
    p.add_argument("rule")
    p.add_argument("--ascii", action="store_true", help="use & | ! instead of ∧ ∨ ¬")
    p.add_argument("--out", help="write output to a file instead of stdout")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("eval", help="evaluate a scenario against a rule")
    p.add_argument("rule")
    p.add_argument("scenario", help="JSON scenario file (absent facts are unknown)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("lawmap", help="export a rule's decision-flow graph")
    p.add_argument("rule")
    p.add_argument("-f", "--format", choices=("dot", "json"), default="dot")
    p.add_argument("--trace", help="scenario file; highlights the realized path")
    p.add_argument("--out")
    p.set_defaults(func=cmd_lawmap)

    p = sub.add_parser("bn", help="build, validate or query the rule's Bayesian network")
    p.add_argument("rules", nargs="+")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--validate", action="store_true",
                       help="check the net against the Boolean semantics (default)")
    group.add_argument("--infer", metavar="EV",
                       help="comma-separated evidence, e.g. u=true,p=true")
    group.add_argument("--export", action="store_true", help="emit the net as JSON")
    p.add_argument("--priors", help="JSON file of fact priors (default 0.5)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bn)

    p = sub.add_parser("check", help="run capability profiles against the rulepack")
    p.add_argument("rulepack", nargs="?",
                   help="rulepack directory (default: $LEXROAD_RULEPACK or the shipped pack)")
    p.add_argument("profiles", nargs="+", help="vehicle profile JSON files")
    p.add_argument("--scenario", action="append", help="fact scenario to evaluate")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="also write the JSON report here")
    p.add_argument("--timestamps", action="store_true",
                   help="include generation time in the report")
    p.set_defaults(func=cmd_check)
    return parser
