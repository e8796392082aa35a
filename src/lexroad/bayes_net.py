"""Discrete Bayesian networks carrying a rule's Boolean semantics.

Every factual/situation variable becomes a root with a prior (0.5 unless
overridden), every bracket-labelled compound clause fold becomes an
intermediate node, and every equation becomes a decision node.  Non-root
CPTs are deterministic (entries 0 or 1), so instantiating a complete set
of fact observations drives each decision's posterior to exactly its
Boolean value; that agreement is what :func:`validate_bn` checks, together
with the per-equation scenario check (observing one satisfying assignment
of an equation forces its decision to probability 1).

A CPT has 2^parents rows, so no node has more than ``MAX_NODE_PARENTS``
(16) parents: a wider clause or decision is narrowed by cutting named
``CLAUSE`` nodes ``<node>_1``, ``<node>_2``, ... that each compute a part
of it (parent divorcing, :func:`_narrow`).  :func:`build_bn` is one loop
over the used folds and then the decisions, each added after the clause
nodes cut from it.  The diagram walks recurse once per input, so Python's
recursion limit caps the width of a rule that builds and validates (an
EXCEPT that is one OR of 988 facts fails; the CLI exits 2 naming the
limit).  The rows are read off the node's decision diagram over its parents
(:class:`Bdd`), so building a table costs the diagram and the rows it
emits, not a three-valued evaluation per row.

Because every non-root CPT is 0/1 and the roots are independent, each node
is a Boolean function of the roots: one decision diagram over the roots
(:class:`Bdd`) carries the whole net.  Validation is symbolic: a decision
agrees with its equation on all 2^roots assignments exactly when the two
are the same diagram node, and the assignments where they differ are the
divergences.  Inference is exact, by weighted model counting (Chavira &
Darwiche 2008): P(n | e) = WMC(n ∧ e) / WMC(e).  Evidence on a root is an
observed fact about an independent variable, so it conditions the weights
by restriction: the weighted walk takes the observed branch with weight 1,
and no node is built for it.  Only evidence on other nodes is conjoined
into the diagram's evidence function.  Both take only such deterministic
nets, so they refuse a non-root CPT entry other than 0 or 1, and inference
raises :class:`ImpossibleEvidenceError` exactly when the evidence has no
satisfying assignment.  A net is checked once, on its first use, and the
result is cached on the immutable net, with each node's parents by
position and the root priors by level; every call still builds its own
diagram.  :func:`net_to_json` writes its JSON directly, byte for byte
what ``json``'s ``dumps(payload, sort_keys=True, ensure_ascii=False,
indent=2)`` writes, for other tools: lexroad never reads a net back.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum
from functools import cached_property
from json.encoder import encode_basestring as _json_quote
from typing import NamedTuple

from . import strict_json
from .errors import CyclicDefinitionError, ImpossibleEvidenceError
from .boolean_core import (
    And,
    Bdd,
    BoolExpr,
    Not,
    Or,
    RuleEquations,
    Var,
    decision_inputs,
    decision_nodes,
    free_vars,
)
from .rule_dsl import Frozen, Record

MAX_NODE_PARENTS = 16  # CPT rows are 2^parents; beyond this a table is unusable
AGREEMENT_TOLERANCE = 1e-9


class BnNodeKind(Enum):
    FACT_ROOT = "fact_root"
    CLAUSE = "clause"
    DECISION = "decision"


class BnNode(NamedTuple):
    """One binary node: states are (true, false).

    ``cpt[i]`` is P(node=true | parents in combination i), combinations
    enumerated over ``itertools.product((True, False), ...)`` in parent
    order, so row 0 has every parent true and the last row every parent
    false.  Roots have no parents and a single-entry prior.
    """

    id: str
    kind: BnNodeKind
    parents: tuple[str, ...]
    cpt: tuple[float, ...]
    description: str = ""


class _Plan(NamedTuple):
    """What inference reads of a checked net, by node position."""

    index: dict[str, int]  # node id → position, in net order
    parents: tuple[tuple[int, ...], ...]  # each node's parents, by position
    prior: tuple[float, ...]  # the root priors, by level (roots in net order)


class BayesNet(Frozen):  # not a tuple: cached_property needs a __dict__
    """One rule's net: its nodes in topological order."""

    rule_id: str
    nodes: tuple[BnNode, ...]  # topological order

    @cached_property
    def _plan(self) -> _Plan:
        """The net checked by :func:`_check_nodes` and laid out for
        inference; built on first use and kept, as the net is immutable.  A
        net that fails the check raises the same ``ValueError`` on every use,
        since a ``cached_property`` that raises stores nothing."""
        return _check_nodes(self.nodes)

    def node(self, node_id: str) -> BnNode:
        return self.nodes[self._plan.index[node_id]]

    def ids(self, kind: BnNodeKind | None = None) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if kind is None or n.kind == kind)


def _check_nodes(nodes: tuple[BnNode, ...]) -> _Plan:
    """The plan of ``nodes``; ``ValueError`` unless they form a net inference
    can use: unique ids in topological order, 2^parents CPT entries, root
    priors in (0, 1) and deterministic (0/1) CPTs everywhere else."""
    index: dict[str, int] = {}
    parents: list[tuple[int, ...]] = []
    prior: list[float] = []
    for node in nodes:
        if node.id in index:
            raise ValueError(f"node {node.id} is defined twice")
        try:
            parents.append(tuple(map(index.__getitem__, node.parents)))
        except KeyError as missing:
            raise ValueError(
                f"node {node.id}: parent {missing.args[0]} is not defined before it") from None
        if len(node.cpt) != 2 ** len(node.parents):
            raise ValueError(
                f"node {node.id}: {len(node.cpt)} CPT entries for {len(node.parents)} parents"
            )
        if node.kind == BnNodeKind.FACT_ROOT:
            p = node.cpt[0]
            if node.parents or not isinstance(p, (int, float)) or not 0.0 < p < 1.0:
                raise ValueError(f"node {node.id}: a root needs no parents and a prior in (0, 1)")
            prior.append(p)
        elif node.cpt.count(0.0) + node.cpt.count(1.0) != len(node.cpt):
            raise ValueError(f"node {node.id}: CPT entries must be 0 or 1")
        index[node.id] = len(index)
    return _Plan(index, tuple(parents), tuple(prior))


def _cpt_for(expr: BoolExpr, parents: tuple[str, ...]) -> tuple[float, ...]:
    """The CPT of a node computing ``expr`` (over ``parents`` only), read
    off its decision diagram over ``parents``: the rows under a diagram
    node at level i are the rows of its TRUE cofactor, then those of its
    FALSE cofactor, which is the :class:`BnNode` row order."""
    bdd = Bdd(parents)
    return _rows(bdd, bdd.of(expr), 0, {})


def _rows(bdd: Bdd, f: int, i: int, memo: dict[tuple[int, int], tuple[float, ...]]
          ) -> tuple[float, ...]:
    """The CPT rows under ``f`` at level ``i`` of ``bdd``, memoised in ``memo``."""
    if i == len(bdd.names):
        return (1.0,) if f == Bdd.TRUE else (0.0,)
    if (f, i) not in memo:
        hi, lo = bdd.cofactors(f, i)
        memo[f, i] = _rows(bdd, hi, i + 1, memo) + _rows(bdd, lo, i + 1, memo)
    return memo[f, i]


def _replace_folds(expr: BoolExpr, fold_of: dict[BoolExpr, str]) -> BoolExpr:
    """``expr`` with every subterm that is a fold replaced by its node."""
    if expr in fold_of:
        return Var(fold_of[expr])
    if isinstance(expr, Not):
        return Not(_replace_folds(expr.child, fold_of))
    if isinstance(expr, (And, Or)):
        return type(expr)(tuple(_replace_folds(c, fold_of) for c in expr.children))
    return expr


def _fresh_name(name: str, taken: set[str], suffix: str) -> str:
    while name in taken:
        name = name + suffix
    taken.add(name)
    return name


def _narrow(owner: str, expr: BoolExpr, taken: set[str], cut: list[tuple[str, BoolExpr]]
            ) -> BoolExpr:
    """Parent divorcing (Olesen et al. 1989) for expressions too wide for
    one CPT: ``expr`` with at most ``MAX_NODE_PARENTS`` free variables.

    A narrow ``expr`` comes back unchanged.  Otherwise every child over more
    than one variable becomes its own CLAUSE node (narrowed the same way),
    ``Not`` passes through to its child, and runs of at most
    ``MAX_NODE_PARENTS`` children of an ``And``/``Or`` become nodes of the
    same connective until the rest fits; both connectives are associative,
    so the function is unchanged.  Each clause node goes on ``cut`` as
    ``(name, expr)`` after the clauses it reads, the k-th named
    ``<owner>_<k>`` unless ``taken`` holds that name."""
    if len(free_vars(expr)) <= MAX_NODE_PARENTS:
        return expr
    if isinstance(expr, Not):
        return Not(_narrow(owner, expr.child, taken, cut))
    op = type(expr)  # And or Or: nothing else has two free variables
    children = [c if len(free_vars(c)) <= 1 else _part(owner, c, taken, cut)
                for c in expr.children]
    while len(free_vars(op(tuple(children)))) > MAX_NODE_PARENTS:
        # as few runs as fit, of near-equal length (8 to 16 children)
        runs = -(-len(children) // MAX_NODE_PARENTS)
        cuts = [len(children) * i // runs for i in range(runs + 1)]
        children = [_part(owner, op(tuple(children[lo:hi])), taken, cut)
                    for lo, hi in zip(cuts, cuts[1:])]
    return op(tuple(children))


def _part(owner: str, expr: BoolExpr, taken: set[str], cut: list[tuple[str, BoolExpr]]) -> Var:
    """The clause node computing ``expr``, narrowed, appended to ``cut``."""
    expr = _narrow(owner, expr, taken, cut)
    name = _fresh_name(f"{owner}_{len(cut) + 1}", taken, "_split")
    cut.append((name, expr))
    return Var(name)


def build_bn(eqs: RuleEquations, priors: dict[str, float] | None = None) -> BayesNet:
    """Mechanically derive the network from the equations' structure: the
    used folds, then the decisions, each checked to read only nodes already
    defined, then narrowed to fit its table (:func:`_narrow`) and added
    after the clause nodes that narrowing cut."""
    priors = dict(priors or {})
    for fact, p in priors.items():
        if not 0.0 < p < 1.0:
            raise ValueError(f"prior for {fact} must be in (0, 1), got {p}")

    table = eqs.table
    nodes = [BnNode(v, BnNodeKind.FACT_ROOT, (), (priors.get(v, 0.5),), table.describe(v))
             for v in eqs.input_ids()]
    defined = set(eqs.input_ids())
    taken = defined | set(eqs.decision_ids())
    fold_of: dict[BoolExpr, str] = {}  # the first label of equal folds names the node
    for label, expr in eqs.folds.items():
        fold_of.setdefault(expr, _fresh_name(label, taken, "_fold"))
    folds = {name: expr for expr, name in fold_of.items()}
    rewritten = {d: _replace_folds(e, fold_of) for d, e in eqs.equations.items()}
    reads = {d: free_vars(e) for d, e in rewritten.items()}  # each expression's, once
    used = dict.fromkeys(v for names in reads.values() for v in names)
    steps = [(n, BnNodeKind.CLAUSE, folds[n], free_vars(folds[n]), "") for n in used if n in folds]
    steps += [(d, BnNodeKind.DECISION, e, reads[d], table.describe(d))
              for d, e in rewritten.items()]
    for name, kind, expr, parents, description in steps:
        if not defined.issuperset(parents):
            raise CyclicDefinitionError(name)
        cut: list[tuple[str, BoolExpr]] = []
        if len(parents) > MAX_NODE_PARENTS:
            expr = _narrow(name, expr, taken, cut)
            parents = free_vars(expr)
        for part_id, part in cut:
            part_parents = free_vars(part)
            nodes.append(BnNode(part_id, BnNodeKind.CLAUSE, part_parents, _cpt_for(part, part_parents)))
        nodes.append(BnNode(name, kind, parents, _cpt_for(expr, parents), description))
        defined.update(node.id for node in nodes[-1 - len(cut):])  # the nodes just added
    return BayesNet(rule_id=eqs.rule_id, nodes=tuple(nodes))


# --- inference ---------------------------------------------------------------

def _node_functions(net: BayesNet, bdd: Bdd) -> list[int]:
    """Each node's Boolean function of the roots as a node of ``bdd``, a
    fresh manager whose variables become the roots in net order, listed by
    node position.  The net is checked once, on first use, and the checked
    plan is cached on the immutable net; ``ValueError`` for a net that is
    not deterministic (see :func:`_check_nodes`)."""
    fn: list[int] = []
    for node, parents in zip(net.nodes, net._plan.parents):
        if node.kind == BnNodeKind.FACT_ROOT:
            fn.append(bdd.var(node.id))
        else:
            fn.append(_shannon(bdd, [fn[p] for p in parents], node.cpt, 0))
    return fn


def _shannon(bdd: Bdd, parents: list[int], rows: tuple[float, ...], i: int) -> int:
    """The node of ``bdd`` whose value is ``rows``, the CPT rows from parent
    ``i`` on, by Shannon expansion over the ``parents`` nodes."""
    if min(rows) == max(rows):  # this half of the table is constant
        return Bdd.TRUE if rows[0] else Bdd.FALSE
    half = len(rows) // 2  # first half: parent i true
    return bdd.ite(parents[i], _shannon(bdd, parents, rows[:half], i + 1),
                   _shannon(bdd, parents, rows[half:], i + 1))


def infer(net: BayesNet, evidence: dict[str, bool] | None = None) -> dict[str, float]:
    """Posterior P(true) for every node given the evidence, which may be on
    any node, decisions included: P(n | e) = WMC(n ∧ e) / WMC(e).
    Evidence on a root conditions the weights by restriction; evidence on
    any other node is conjoined into ``e``.

    The net must be deterministic (every non-root CPT entry 0 or 1, every
    root prior in (0, 1)); ``ValueError`` names the node otherwise.  That
    check runs once per net, on its first use, and its result is cached on
    the immutable net, so later queries pay only for their evidence.
    Evidence the net makes impossible, exactly when the root facts and the
    conjoined evidence have no common model, raises
    :class:`ImpossibleEvidenceError`, and so does evidence whose probability
    underflows to 0.
    """
    evidence = dict(evidence or {})
    for key, value in evidence.items():
        if key not in net._plan.index:
            raise KeyError(f"evidence on unknown node '{key}'")
        if not isinstance(value, bool):
            raise ValueError(f"evidence for {key} must be true or false")
    bdd = Bdd()
    return _posteriors(net, bdd, _node_functions(net, bdd), evidence, net._plan.index)


def _posteriors(
    net: BayesNet, bdd: Bdd, fn: list[int], evidence: dict[str, bool], targets: Iterable[str],
) -> dict[str, float]:
    """``infer`` for the ``targets`` nodes only, on the node functions that
    :func:`_node_functions` put in ``bdd``, for evidence on known nodes.
    Evidence on a root is a fact, which the weighted walk reads by taking
    that branch with weight 1 (restriction, adding no node); only other
    evidence is conjoined into ``e``."""
    index, prior = net._plan.index, net._plan.prior
    fact: list[bool | None] = [None] * len(prior)  # observed roots, by level
    e = Bdd.TRUE
    for node_id, value in evidence.items():
        f = fn[index[node_id]]
        if f > Bdd.TRUE and bdd.names[bdd.level(f)] == node_id:  # a root
            fact[bdd.level(f)] = value
        else:
            e = bdd.ite(f, e, Bdd.FALSE) if value else bdd.ite(f, Bdd.FALSE, e)
    if bdd.settle(e, dict(zip(bdd.names, fact))) is False:
        raise ImpossibleEvidenceError("evidence has zero probability")
    targets = tuple(targets)
    z, *counts = bdd.weights([e] + [bdd.ite(e, fn[index[t]], Bdd.FALSE) for t in targets],
                             prior, fact)
    p = z
    for level, value in enumerate(fact):  # P(evidence): the facts' priors times z
        if value is not None:
            p *= prior[level] if value else 1.0 - prior[level]
    if p == 0.0:
        raise ImpossibleEvidenceError("evidence probability underflows to 0")
    return {t: count / z for t, count in zip(targets, counts)}


# --- validation --------------------------------------------------------------

class Divergence(NamedTuple):
    decision: str
    evidence: dict[str, bool]
    expected: bool
    posterior: float


class EquationCheck(NamedTuple):
    decision: str
    evidence: dict[str, bool]
    posterior: float
    passed: bool


class ValidationReport(Record):
    """What :func:`validate_bn` found for one net."""

    rule_id: str
    assignments_checked: int
    divergences: list[Divergence] = []
    equation_checks: list[EquationCheck] = []

    @property
    def ok(self) -> bool:
        return not self.divergences and all(c.passed for c in self.equation_checks)

    @property
    def equations_total(self) -> int:
        return len(self.equation_checks)

    @property
    def equations_passed(self) -> int:
        return sum(1 for c in self.equation_checks if c.passed)


def validate_bn(net: BayesNet, eqs: RuleEquations) -> ValidationReport:
    """Confirm that ``net``, which must be deterministic, reproduces the
    Boolean semantics on all 2^roots assignments of its roots.

    Each decision's node function is compared with its equation's node
    (:func:`decision_nodes`) on one decision diagram over the roots, in net
    order as inference reads them.  Every assignment where they differ is
    a divergence, listed in the order of the assignments (roots in net
    order, FALSE before TRUE) and then of the decisions; its posterior is
    the node's value there, exactly 0.0 or 1.0.
    """
    bdd = Bdd()
    fn = _node_functions(net, bdd)
    want = decision_nodes(bdd, eqs)
    decisions = eqs.decision_ids()
    report = ValidationReport(rule_id=net.rule_id, assignments_checked=2 ** len(net._plan.prior))
    wrong = []
    for i, decision in enumerate(decisions):
        got = fn[net._plan.index[decision]]
        if got == want[decision]:
            continue  # the same function: both XORs are FALSE, which has no models
        for expected, differ in ((True, bdd.ite(got, Bdd.FALSE, want[decision])),
                                 (False, bdd.ite(want[decision], Bdd.FALSE, got))):
            wrong.extend((values, i, expected) for values in bdd.models(differ))
    for values, i, expected in sorted(wrong):
        report.divergences.append(Divergence(
            decisions[i], dict(zip(bdd.names, values)), expected, 0.0 if expected else 1.0
        ))
    for decision, inputs in decision_inputs(eqs).items():
        satisfying = bdd.witness(want[decision], inputs, first=True)
        if satisfying is None:
            continue  # unsatisfiable decision: nothing to instantiate
        p = _posteriors(net, bdd, fn, satisfying, (decision,))[decision]
        report.equation_checks.append(
            EquationCheck(decision, satisfying, p, abs(p - 1.0) <= AGREEMENT_TOLERANCE)
        )
    return report


# --- serialization -----------------------------------------------------------

def net_to_json(net: BayesNet) -> str:
    """The net as canonical JSON, written directly (see the module
    docstring).  ``repr`` writes a CPT entry as ``json`` does, for every
    number but a ``bool``, which no net :func:`build_bn` builds holds."""
    q = _json_quote
    nodes = [
        f'{{\n      "cpt": {strict_json.array([*map(repr, n.cpt)], "      ")},'
        f'\n      "description": {q(n.description)},\n      "id": {q(n.id)},'
        f'\n      "kind": "{n.kind.value}",'
        f'\n      "parents": {strict_json.array([*map(q, n.parents)], "      ")}\n    }}'
        for n in net.nodes
    ]
    return f'{{\n  "nodes": {strict_json.array(nodes, "  ")},\n  "rule_id": {q(net.rule_id)}\n}}\n'
