"""Explicit enumerations kept as test oracles.

lexroad answers these questions on decision diagrams; the 2^n versions here
are the independent references it must agree with: the truth table of an
equation set, a node's CPT evaluated row by row, inference by weighted
enumeration of the joint states, and BN validation that runs that
inference on every assignment of the roots.
"""

import itertools
from dataclasses import dataclass

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
    Bdd,
    BoolExpr,
    RuleEquations,
    evaluate,
    expand,
    free_vars,
    kleene_eval,
)

MAX_TRUTH_TABLE_VARS = 24


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
    assignments of the roots, checked against ``evaluate``."""
    roots = net.ids(BnNodeKind.FACT_ROOT)
    report = ValidationReport(rule_id=net.rule_id, assignments_checked=0)
    decisions = eqs.decision_ids()
    for combo in itertools.product((False, True), repeat=len(roots)):
        ev = dict(zip(roots, combo))
        posteriors = infer_enumeration(net, ev)
        expected = evaluate(eqs, dict(ev))
        report.assignments_checked += 1
        for decision in decisions:
            p = posteriors[decision]
            want = bool(expected[decision])
            if min(p, 1.0 - p) > AGREEMENT_TOLERANCE or (p > 0.5) != want:
                report.divergences.append(Divergence(decision, ev, want, p))
    exprs = expand(eqs)
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
