"""Boolean expressions and per-decision rule equations.

A compiled rule is one equation per decision variable.  With antecedent
fold ``A*``, exception fold ``C*`` and optional per-outcome guards::

    THEN outcome X:  X = A* ∧ C*   (∧ guard)
    ELSE outcome Y:  Y = A* ∧ ¬C*  (∧ guard)

and ``C* = FALSE`` when the rule has no exception, so THEN outcomes are
unsatisfiable and ELSE outcomes reduce to ``A*``.

Scenario evaluation is exact: a decision is TRUE or FALSE when every
completion of the known facts gives it that value, otherwise UNKNOWN
(``None``); it is read off the rule's cached decision diagram (:class:`Bdd`).
Scenario files are read here too (:func:`load_scenario`), next to the
evaluation they feed, and :func:`check_facts` refuses facts a rule lacks.
Equations may reference decisions defined earlier in the same set, which
are bound to their nodes as each decision's own equation is built
(:func:`decision_nodes`).  Equivalence and property checks work on decision
diagrams too.  Verdicts are read by a search with a stack of its own, so
``eval`` of an IF that is one OR has no width limit (6,000 facts in 0.1 s);
``ite`` still recurses once per input where it joins two wide functions,
so an EXCEPT that is one OR of 985 facts does not build (the CLI exits 2).
"""

from __future__ import annotations

import itertools
import os
import re
from collections.abc import Iterable, Iterator
from functools import cached_property
from typing import NamedTuple

from .errors import (CyclicDefinitionError, EquationSyntaxError, NoOutcomeError,
                     UnboundVariableError, UnknownScenarioVariableError)
from .rule_dsl import (
    Clause,
    Connective,
    Frozen,
    RuleAst,
    VariableTable,
    VarKind,
    Variable,
    is_guard,
    keyed,
)


# --- expression nodes --------------------------------------------------------

class _Node:
    """An immutable expression node.  Each kind has one field, kept in the
    slot ``_value`` and read under the kind's own name (``Var.id`` is the
    slot's descriptor), so one ``__eq__`` and ``__hash__`` serve every kind;
    equality includes the class, so And((a, b)) and Or((a, b)) differ."""

    __slots__ = ("_value",)
    __setattr__ = __delattr__ = Frozen.__setattr__

    def __init__(self, value):
        object.__setattr__(self, "_value", value)

    def __eq__(self, other):
        return type(other) is type(self) and other._value == self._value

    def __hash__(self):
        return hash(self._value)

    def __repr__(self):
        return f"{type(self).__name__}({self._value!r})"

    def __reduce__(self):  # copy and pickle call the class, as __setattr__ refuses
        return type(self), (self._value,)


class Var(_Node):
    """A variable, by id."""

    __slots__ = ()
    id = _Node._value


class Not(_Node):
    """Negation of ``child``."""

    __slots__ = ()
    child = _Node._value


class And(_Node):
    """Conjunction of two or more children."""

    __slots__ = ()
    children = _Node._value

    def __init__(self, children: tuple[BoolExpr, ...]):
        if len(children) < 2:
            raise ValueError(f"{type(self).__name__} needs at least two children")
        object.__setattr__(self, "_value", children)


class Or(_Node):
    """Disjunction of two or more children."""

    __slots__ = ()
    children = _Node._value
    __init__ = And.__init__


class Const(_Node):
    """The constant TRUE or FALSE."""

    __slots__ = ()
    value = _Node._value


TRUE = Const(True)
FALSE = Const(False)

BoolExpr = Var | Not | And | Or | Const


def conj(parts: list["BoolExpr"]) -> "BoolExpr":
    return parts[0] if len(parts) == 1 else And(tuple(parts))


def disj(parts: list["BoolExpr"]) -> "BoolExpr":
    return parts[0] if len(parts) == 1 else Or(tuple(parts))


def free_vars(expr: BoolExpr) -> tuple[str, ...]:
    """Variable ids in order of first appearance."""
    seen: dict[str, None] = {}
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Var):
            seen.setdefault(e.id, None)
        elif isinstance(e, Not):
            stack.append(e.child)
        elif isinstance(e, (And, Or)):
            stack.extend(reversed(e.children))
    return tuple(seen)


# --- rule equations ----------------------------------------------------------

class RuleEquations(Frozen):  # not a tuple: cached_property needs a __dict__
    """Ordered decision → expression map for one rule.

    ``antecedent`` is the fold of the IF section, ``folds`` the bracket-
    labelled compound sub-folds (used as intermediate nodes downstream),
    and ``input_order`` the condition variables in clause order.
    """

    rule_id: str
    table: VariableTable
    equations: dict[str, BoolExpr]
    antecedent: BoolExpr | None = None
    folds: dict[str, BoolExpr] = {}
    input_order: tuple[str, ...] = ()

    def decision_ids(self) -> tuple[str, ...]:
        return tuple(self.equations)

    def input_ids(self) -> tuple[str, ...]:
        return self.input_order

    @cached_property
    def diagram(self) -> tuple[Bdd, dict[str, int]]:
        """One decision diagram over the inputs, in clause order, and each
        decision's node in it; built on first use."""
        bdd = Bdd(self.input_ids())
        return bdd, decision_nodes(bdd, self)


def compile_rule(ast: RuleAst, table: VariableTable) -> RuleEquations:
    """Compile a parsed rule against its variable table."""
    if not ast.else_outcomes:
        raise NoOutcomeError(f"rule {ast.rule_id} has no ELSE outcomes")
    paths = table.paths
    folds: dict[str, BoolExpr] = {}
    section_folds: list[BoolExpr] = []  # the IF fold, then the EXCEPT fold if there is one
    for section, clauses in (("IF", ast.if_clauses), ("EXCEPT", ast.except_clauses)):
        if section_folds and not clauses:
            break
        parts = []
        for clause, path in keyed(section, clauses):
            part = _fold(clause, path, paths)
            if clause.label and clause.label.isupper() and not isinstance(part, (Var, Const)):
                folds[clause.label] = part
            parts.append(part)
        section_folds.append(_fold_with(parts, [clause.connective for clause in clauses[:-1]]))
    antecedent = section_folds[0]
    if len(section_folds) == 1:
        bases = (FALSE, antecedent)
    else:
        exception = section_folds[1]
        bases = (And((antecedent, exception)), And((antecedent, Not(exception))))

    equations: dict[str, BoolExpr] = {}
    for section, outcomes, base in zip(("THEN", "ELSE"), (ast.then_outcomes, ast.else_outcomes),
                                       bases):
        for outcome, path in keyed(section, outcomes):
            decision = paths.get(path)
            if decision is None:
                raise UnboundVariableError(path)
            expr = base
            for child, child_path in keyed(path, outcome.children):
                if is_guard(child):
                    guard = _fold(child, child_path, paths)  # folded even under a FALSE base
                    if base != FALSE:
                        expr = And((expr, guard))
            equations[decision] = expr

    return RuleEquations(ast.rule_id, table, equations, antecedent=antecedent, folds=folds,
                         input_order=table.condition_ids())


def _fold(clause: Clause, path: str, paths: dict[str, str]) -> BoolExpr:
    """The expression of ``clause`` at ``path``: its variable in ``paths``,
    else the fold of its children."""
    if path in paths:
        return Var(paths[path])
    if not clause.children:
        raise UnboundVariableError(path)
    parts = [_fold(child, child_path, paths) for child, child_path in keyed(path, clause.children)]
    return _fold_with(parts, [child.connective for child in clause.children[:-1]])


def _fold_with(parts: list[BoolExpr], conns: list[Connective | None]) -> BoolExpr:
    # AND binds tighter than OR when a sibling list mixes connectives.
    groups: list[list[BoolExpr]] = [[parts[0]]]
    for conn, part in zip(conns, parts[1:]):
        if conn == Connective.OR:
            groups.append([part])
        else:
            groups[-1].append(part)
    return disj([conj(group) for group in groups])


def evaluate(eqs: RuleEquations, assignment: dict[str, bool | None]) -> dict[str, bool | None]:
    """Each decision TRUE or FALSE when every completion of the facts (missing
    or None ones are unknown) gives it that value, else None (UNKNOWN): the
    terminals its node reaches, by one :meth:`Bdd.settle` search each.  A
    decision used before its definition raises CyclicDefinitionError."""
    bdd, nodes = eqs.diagram
    return {decision: bdd.settle(f, assignment) for decision, f in nodes.items()}


class Scenario(NamedTuple):
    rule_id: str
    facts: dict[str, bool]
    description: str = ""


def load_scenario(path: str | os.PathLike) -> Scenario:
    """The scenario in the JSON file at ``path``; ValueError naming the file
    and the field or key if it is not one."""
    from .strict_json import fields, load

    rule_id, facts, description = fields(load(path), f"{path}: ", rule_id=str,
                                         facts=(dict, {}), description=(str, ""))
    for key, value in facts.items():
        if not isinstance(value, bool):
            raise ValueError(f"{path}: scenario fact {key!r} must be true or false")
    return Scenario(rule_id, facts, description)


def check_facts(eqs: RuleEquations, names: Iterable[str], source: str = "scenario") -> None:
    """Refuse facts (or priors) the rule cannot take: names it does not
    have, and its decisions, which ``evaluate`` derives and would silently
    overwrite.  ``source`` names what gave them in the message."""
    unknown = tuple(v for v in names if v not in eqs.table.variables)
    if unknown:
        raise UnknownScenarioVariableError(eqs.rule_id, unknown, source=source)
    decisions = tuple(v for v in names if v in eqs.equations)
    if decisions:
        raise UnknownScenarioVariableError(eqs.rule_id, decisions, "decisions, not facts", source)


def verdict_name(value: bool | None) -> str:
    return {True: "TRUE", False: "FALSE", None: "UNKNOWN"}[value]


def decision_nodes(bdd: Bdd, eqs: RuleEquations) -> dict[str, int]:
    """Each decision's node in ``bdd``, built from its own equation with the
    decisions defined before it bound to their nodes; a decision used before
    (or within) its definition raises CyclicDefinitionError.  An And or Or
    object that several equations hold (:func:`compile_rule`'s folds) is
    built once, keyed by its id, which ``eqs`` keeps its own.  The node table
    is the same: building it again, on decisions already bound, would only
    repeat memoised ``ite`` calls, which add no node."""
    nodes: dict[str, int] = {}
    built: dict[int, int] = {}
    for decision, expr in eqs.equations.items():
        for name in free_vars(expr):
            if name in eqs.equations and name not in nodes:
                raise CyclicDefinitionError(name)
        nodes[decision] = bdd.of(expr, nodes, built)
    return nodes


def decision_inputs(eqs: RuleEquations) -> dict[str, tuple[str, ...]]:
    """Each decision's inputs in order of first appearance, once the
    decisions it reads are replaced by their equations; for equations that
    :func:`decision_nodes` accepts."""
    inputs: dict[str, tuple[str, ...]] = {}
    for decision, expr in eqs.equations.items():
        inputs[decision] = tuple(dict.fromkeys(
            name for var_id in free_vars(expr) for name in inputs.get(var_id, (var_id,))))
    return inputs


class PropertyReport(NamedTuple):
    mutually_exclusive: dict[tuple[str, str], bool]
    exhaustive_given_antecedent: bool | None
    witnesses: dict[str, dict[str, bool]]

    @property
    def all_mutually_exclusive(self) -> bool:
        return all(self.mutually_exclusive.values())


def check_properties(eqs: RuleEquations) -> PropertyReport:
    """Check pairwise exclusion (``Dᵢ ∧ Dⱼ = FALSE``) and coverage of the
    antecedent (``A* ∧ ¬(D₁ ∨ … ∨ Dₙ) = FALSE``) on the decisions' nodes in a
    fresh diagram; each failure gets the first counterexample over the
    sorted inputs, FALSE before TRUE."""
    bdd = Bdd(eqs.input_ids())
    names = tuple(sorted(eqs.input_ids()))
    nodes = decision_nodes(bdd, eqs)
    exclusive: dict[tuple[str, str], bool] = {}
    witnesses: dict[str, dict[str, bool]] = {}
    for x, y in itertools.combinations(nodes, 2):
        both = bdd.ite(nodes[x], nodes[y], Bdd.FALSE)
        exclusive[(x, y)] = both == Bdd.FALSE
        if both != Bdd.FALSE:
            witnesses[f"not_exclusive:{x},{y}"] = bdd.witness(both, names, False)
    exhaustive: bool | None = None
    if eqs.antecedent is not None:
        hole = bdd.of(eqs.antecedent)
        for f in nodes.values():  # less each decision
            hole = bdd.ite(f, Bdd.FALSE, hole)
        exhaustive = hole == Bdd.FALSE
        if not exhaustive:
            witnesses["not_exhaustive"] = bdd.witness(hole, names, False)
    return PropertyReport(exclusive, exhaustive, witnesses)


def normalize(expr: BoolExpr) -> BoolExpr:
    """Flatten same-operator nesting, drop double negation, sort children."""
    if isinstance(expr, Not):
        child = normalize(expr.child)
        if isinstance(child, Not):
            return child.child
        return Not(child)
    if isinstance(expr, (And, Or)):
        op = type(expr)
        flat: list[BoolExpr] = []
        for child in expr.children:
            child = normalize(child)
            if isinstance(child, op):
                flat.extend(child.children)
            else:
                flat.append(child)
        flat.sort(key=to_text)
        return op(tuple(flat))
    return expr


# --- text form ----------------------------------------------------------------

_OPS = {"unicode": ("∧", "∨", "¬"), "ascii": ("&", "|", "!")}


def to_text(expr: BoolExpr, ascii_ops: bool = False) -> str:
    return _render(expr, _OPS["ascii" if ascii_ops else "unicode"])


def _render(e: BoolExpr, ops: tuple[str, str, str]) -> str:
    """``e`` as text, with the and, or and not operators ``ops``."""
    if isinstance(e, Var):
        return e.id
    if isinstance(e, Const):
        return "TRUE" if e.value else "FALSE"
    if isinstance(e, Not):
        return f"{ops[2]}{_wrap(e.child, ops)}"
    op = f" {ops[0]} " if isinstance(e, And) else f" {ops[1]} "
    return op.join(_wrap(child, ops) for child in e.children)


def _wrap(e: BoolExpr, ops: tuple[str, str, str]) -> str:
    text = _render(e, ops)
    return f"({text})" if isinstance(e, (And, Or)) else text


def equations_to_text(eqs: RuleEquations, ascii_ops: bool = False) -> str:
    return "\n".join(
        f"{decision} = {to_text(expr, ascii_ops)}"
        for decision, expr in eqs.equations.items()
    ) + "\n"


_MAX_NESTING = 100  # parentheses and negations, one inside another
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lpar>\()|(?P<rpar>\))|(?P<not>¬|!|~|∼)|(?P<and>∧|&|×|·)"
    r"|(?P<or>∨|\||\+)|(?P<id>[A-Za-z_][A-Za-z0-9_.\-]*))"
)


def parse_expr(text: str) -> BoolExpr:
    """Parse one expression in either the unicode or the ASCII operator set;
    ``EquationSyntaxError`` if its parentheses and negations nest over 100 deep."""
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise EquationSyntaxError(f"bad token at '{text[pos:]}'")
        kind = m.lastgroup
        tokens.append((kind, m.group(kind)))
        pos = m.end()
    tokens.append(("end", ""))
    result, end = _parse_or(tokens, 0, 0)
    _take(tokens, end, "end")
    return result


# The parser's functions take the tokens, the index of the next one and its
# nesting depth; each ``_parse_*`` returns what it parsed and the index after it.

def _take(tokens: list[tuple[str, str]], index: int, kind: str) -> str:
    got, value = tokens[index]
    if got != kind:
        raise EquationSyntaxError(f"expected {kind}, got {got or 'end'}")
    return value


def _parse_or(tokens: list[tuple[str, str]], index: int, depth: int) -> tuple[BoolExpr, int]:
    part, index = _parse_and(tokens, index, depth)
    parts = [part]
    while tokens[index][0] == "or":
        part, index = _parse_and(tokens, index + 1, depth)
        parts.append(part)
    return disj(parts), index


def _parse_and(tokens: list[tuple[str, str]], index: int, depth: int) -> tuple[BoolExpr, int]:
    part, index = _parse_unary(tokens, index, depth)
    parts = [part]
    while tokens[index][0] == "and":
        part, index = _parse_unary(tokens, index + 1, depth)
        parts.append(part)
    return conj(parts), index


def _parse_unary(tokens: list[tuple[str, str]], index: int, depth: int) -> tuple[BoolExpr, int]:
    kind = tokens[index][0]
    if kind in ("not", "lpar") and depth == _MAX_NESTING:
        raise EquationSyntaxError(f"parentheses and negations nest more than {_MAX_NESTING} deep")
    if kind == "not":
        child, index = _parse_unary(tokens, index + 1, depth + 1)
        return Not(child), index
    if kind == "lpar":
        inner, index = _parse_or(tokens, index + 1, depth + 1)
        _take(tokens, index, "rpar")
        return inner, index + 1
    name = _take(tokens, index, "id")
    return TRUE if name == "TRUE" else FALSE if name == "FALSE" else Var(name), index + 1


def parse_equations(text: str, rule_id: str = "adhoc") -> RuleEquations:
    """Parse ``decision = expr`` lines into a RuleEquations set.

    Right-hand ids matching an earlier left-hand side are decision
    references; an id that is only defined later is a cycle.  A syntax
    error's message starts with its line number (``line 2: ...``), a cycle's
    with the line where the decision is first used.
    """
    equations: dict[str, BoolExpr] = {}
    first_use: dict[str, int] = {}  # each id read before its definition, if any: its line
    try:
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise EquationSyntaxError(f"expected 'decision = expression': {line!r}")
            lhs, rhs = line.split("=", 1)
            decision = lhs.strip()
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_.\-]*", decision):
                raise EquationSyntaxError(f"bad decision id {decision!r}")
            if decision in equations:
                raise EquationSyntaxError(f"decision {decision!r} defined twice")
            expr = parse_expr(rhs)
            for var_id in free_vars(expr):
                if var_id not in equations:
                    first_use.setdefault(var_id, lineno)
            equations[decision] = expr
    except EquationSyntaxError as exc:
        raise EquationSyntaxError(f"line {lineno}: {exc}") from None

    table = VariableTable(rule_id=rule_id)
    for var_id, line in first_use.items():
        if var_id in equations:
            raise CyclicDefinitionError(var_id, line)
        table.variables[var_id] = Variable(var_id, VarKind.FACTUAL, var_id)
    for decision in equations:
        table.variables[decision] = Variable(decision, VarKind.DECISION, decision)
    return RuleEquations(rule_id, table, equations, input_order=tuple(first_use))


def equations_equivalent(
    a: RuleEquations, b: RuleEquations
) -> tuple[bool, str | None, dict[str, bool] | None]:
    """Decision-by-decision equivalence of two equation sets, by node identity
    in ``a``'s cached diagram: ``(ok, decision, witness)`` with the first
    diverging decision and the first assignment over the sorted inputs of
    both its equations that tells them apart, FALSE before TRUE."""
    missing = set(a.equations) ^ set(b.equations)
    if missing:
        return False, min(missing), None
    bdd, nodes_a = a.diagram
    nodes_b = decision_nodes(bdd, b)
    for decision in a.decision_ids():
        fa, fb = nodes_a[decision], nodes_b[decision]
        if fa != fb:
            differ = bdd.ite(fa, bdd.ite(fb, Bdd.FALSE, Bdd.TRUE), fb)  # a XOR b
            names = {*decision_inputs(a)[decision], *decision_inputs(b)[decision]}
            return False, decision, bdd.witness(differ, tuple(sorted(names)), False)
    return True, None, None


# --- decision diagrams ----------------------------------------------------------

class Bdd:
    """Reduced ordered binary decision diagrams (Bryant 1986), hash-consed so
    that two nodes of one manager are the same int exactly when they are the
    same function.  Node 0 is FALSE, node 1 TRUE.  Variables are ordered by
    first appearance, starting with ``names``; callers pass clause order, as
    the order decides the size.  A manager serves one computation or one rule.

    The node table is a function of the calls made: the same sequence of
    ``var``, ``ite`` and ``of`` calls creates the same nodes, with the same
    ids, in the same order (``tests/reference.py`` keeps the plain kernel
    this must match).  Witnesses, model order, Lawmaps, CPTs and reports
    follow from the table, so a faster kernel may not change it."""

    FALSE, TRUE = 0, 1
    _LEAF = 1 << 30  # level of the terminals, below every variable

    def __init__(self, names: tuple[str, ...] = ()):
        self.names: list[str] = []
        self._levels: dict[str, int] = {}
        self._nodes: list[tuple[int, int, int]] = [(self._LEAF, 0, 0), (self._LEAF, 1, 1)]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._ite: dict[tuple[int, int, int], int] = {}
        for name in names:
            self.var(name)

    def level(self, f: int) -> int:
        """Position in ``names`` of the first variable ``f`` tests."""
        return self._nodes[f][0]

    def var(self, name: str) -> int:
        if name not in self._levels:
            self._levels[name] = len(self.names)
            self.names.append(name)
        return self._node(self._levels[name], self.TRUE, self.FALSE)

    def _node(self, level: int, hi: int, lo: int) -> int:
        if hi == lo:
            return hi
        key = (level, hi, lo)
        r = self._unique.get(key)
        if r is None:
            r = self._unique[key] = len(self._nodes)
            self._nodes.append(key)
        return r

    def cofactors(self, f: int, level: int) -> tuple[int, int]:
        """``f`` with the variable at ``level`` (not below ``f``'s) TRUE, FALSE."""
        top, hi, lo = self._nodes[f]
        return (hi, lo) if top == level else (f, f)

    def ite(self, f: int, g: int, h: int) -> int:
        """If ``f`` then ``g`` else ``h``: every Boolean connective.  The TRUE
        branch is built before the FALSE one, then the node joining them."""
        if f <= self.TRUE or g == h:
            return h if f == self.FALSE else g
        if g == self.TRUE and h == self.FALSE:
            return f
        key = (f, g, h)
        r = self._ite.get(key)
        if r is not None:
            return r
        nodes = self._nodes
        fl, f1, f0 = nodes[f]
        gl, g1, g0 = nodes[g]
        hl, h1, h0 = nodes[h]
        level = min(fl, gl, hl)
        # a node below ``level`` (a terminal included) is its own cofactor
        if fl != level:
            f1 = f0 = f
        if gl != level:
            g1 = g0 = g
        if hl != level:
            h1 = h0 = h
        hi = self.ite(f1, g1, h1)
        lo = self.ite(f0, g0, h0)
        if hi == lo:
            r = hi
        else:  # the node joining the branches, as _node makes it
            node = (level, hi, lo)
            r = self._unique.get(node)
            if r is None:
                r = self._unique[node] = len(nodes)
                nodes.append(node)
        self._ite[key] = r
        return r

    def of(self, expr: BoolExpr, bound: dict[str, int] | None = None,
           built: dict[int, int] | None = None) -> int:
        """``expr``'s node, with each variable in ``bound`` read as its node:
        every child of an And/Or is built, left to right, before the fold from
        the right, which joins each child above the finished rest, so a wide
        And/Or of variables in clause order costs one ``ite`` per child.
        ``built`` maps the ``id`` of each And and Or object built before to
        its node, which it is read as, and gains those this call builds."""
        kind = type(expr)
        if kind is Var:
            return bound[expr.id] if bound and expr.id in bound else self.var(expr.id)
        if kind is Not:
            return self.ite(self.of(expr.child, bound, built), self.FALSE, self.TRUE)
        if kind is Const:
            return self.TRUE if expr.value else self.FALSE
        built = {} if built is None else built
        if id(expr) in built:
            return built[id(expr)]
        *fs, f = [self.of(child, bound, built) for child in expr.children]
        if kind is And:
            for g in reversed(fs):
                f = self.ite(g, f, self.FALSE)
        else:
            for g in reversed(fs):
                f = self.ite(g, self.TRUE, f)
        built[id(expr)] = f
        return f

    def settle(self, f: int, facts: dict[str, bool | None]) -> bool | None:
        """``f``'s value on every completion of ``facts``, or None when they
        differ: a depth-first search for the terminals ``f`` reaches, which
        follows a known fact's branch, takes both branches of an unknown
        variable (TRUE first) and stops once it has met both terminals.  It
        keeps its own stack, so it does not recurse, and adds no node."""
        nodes, names = self._nodes, self.names
        seen: set[int] = set()
        stack: list[int] = []
        reached = 0  # bit 1: FALSE reached, bit 2: TRUE reached
        while True:
            while f > 1 and f not in seen:  # 0 and 1 are the terminals
                seen.add(f)
                level, hi, lo = nodes[f]
                value = facts.get(names[level])
                if value is None:
                    stack.append(lo)
                    f = hi
                else:
                    f = hi if value else lo
            if f <= 1:
                reached |= f + 1
                if reached == 3:
                    return None
            if not stack:
                return reached == 2
            f = stack.pop()

    def weights(self, fs: list[int], prior: tuple[float, ...], facts: list[bool | None]
                ) -> list[float]:
        """Each of ``fs``'s weighted model count: the probability that it is
        TRUE when the variable at level i is TRUE with probability
        ``prior[i]``, independently, or is ``facts[i]`` where that is not
        None.  One memoised walk serves all of ``fs`` and adds no node."""
        weight = {self.FALSE: 0.0, self.TRUE: 1.0}
        return [self._weight(f, prior, facts, weight) for f in fs]

    def _weight(self, f: int, prior: tuple[float, ...], facts: list[bool | None],
                weight: dict[int, float]) -> float:
        if f not in weight:
            level, hi, lo = self._nodes[f]
            value = facts[level]
            weight[f] = (self._weight(hi if value else lo, prior, facts, weight) if value is not None
                         else prior[level] * self._weight(hi, prior, facts, weight)
                         + (1.0 - prior[level]) * self._weight(lo, prior, facts, weight))
        return weight[f]

    def witness(self, f: int, names: tuple[str, ...], first: bool) -> dict[str, bool] | None:
        """The first assignment to ``names`` (which cover ``f``'s variables)
        that satisfies ``f``, in the order of ``names`` with ``first`` before
        its negation; None when ``f`` is FALSE.  Each choice keeps ``f``
        satisfiable, as a :meth:`settle` search tells, so no node is added."""
        if f == self.FALSE:
            return None
        assignment: dict[str, bool] = {}
        for name in names:
            assignment[name] = first
            if self.settle(f, assignment) is False:
                assignment[name] = not first
        return assignment

    def models(self, f: int) -> Iterator[tuple[bool, ...]]:
        """Every assignment to ``names`` that satisfies ``f``, as a tuple of
        values by level, in lexicographic order with FALSE before TRUE; a
        generator that walks the diagram depth first, FALSE branch first."""
        stack = [(f, ())]
        while stack:
            g, values = stack.pop()
            if g == self.FALSE:
                continue
            level = len(values)
            if level == len(self.names):
                yield values
                continue
            hi, lo = self.cofactors(g, level)
            stack.append((hi, (*values, True)))
            stack.append((lo, (*values, False)))
