"""Acceptance suite: one test per release criterion.

Each criterion prints a single PASS/FAIL line.  Expected values are pinned
from independent oracles computed in this module (direct lambdas over the
hand-entered equation sets, brute-force joint enumeration, completion-set
consensus), never from the code paths under test.
"""

import itertools
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from lexroad.bayes_net import ImpossibleEvidenceError, build_bn, infer, validate_bn
from lexroad.boolean_core import (
    And,
    Const,
    Not,
    Or,
    RuleEquations,
    Var,
    check_properties,
    equations_equivalent,
    evaluate,
    normalize,
    parse_equations,
)
from lexroad.lawmap import build_lawmap, export_dot, export_json, trace_path
from lexroad.rule_dsl import RuleSource, VariableTable, parse_rule, pretty_print
from lexroad.rulepack import default_pack_dir, default_profile_paths
from reference import expand, infer_enumeration, kleene_eval, truth_table

GOLDEN_MATRIX = Path(__file__).parent / "golden" / "capability_matrix.txt"


@contextmanager
def criterion(number, title, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {title}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(f"criterion {number} FAIL: {title} "
              f"(took {elapsed:.2f}s, budget {budget_seconds:.0f}s)")
        raise AssertionError(f"budget exceeded: {elapsed:.2f}s")
    print(f"criterion {number} PASS: {title} ({elapsed:.2f}s)")


# Hand-entered decision semantics, written directly from the golden sets.
HAND_EQUATIONS = {
    "UK-HC-99-100/1": {
        "B": lambda e: (e["q"] or e["r"] or e["s"]) and e["y"],
        "D": lambda e: (e["q"] or e["r"] or e["s"]) and not e["y"],
    },
    "UK-HC-99-100/2": {
        "A": lambda e: e["t"] and e["z"],
        "E": lambda e: e["t"] and not e["z"],
    },
    "UK-HC-99-100/3": {
        "C": lambda e: (e["u"] or e["v"] or e["w"]) and e["p"],
        "F": lambda e: ((e["u"] or e["v"] or e["w"]) and not e["p"]) and e["x"],
    },
    "UK-HC-103": {
        "X": lambda e: (e["A"] and e["B"]) and e["C"],
        "Y": lambda e: (e["A"] and e["B"]) and not e["C"],
    },
    "UK-HC-103/scenario": {
        "X": lambda e: (e["A"] and e["B"]) and e["C"],
        "Y": lambda e: (e["A"] and e["B"]) and not e["C"],
    },
    "UK-HC-137-138": {
        "X": lambda e: e["A"] and e["C"],
        "Y": lambda e: e["A"] and not e["C"],
    },
    "UK-HC-191-199": {
        "X": lambda e: e["A"] and e["C"],
        "Y": lambda e: e["A"] and not e["C"],
    },
}

from conftest import MATRIX_ROWS

PROFILE_ORDER = ("vauxhall-insignia", "mitsubishi-shogun-sport", "bmw-740li")


def profile_paths_in_order():
    by_id = {p.name.split(".")[0]: p for p in default_profile_paths()}
    return [by_id[vid] for vid in PROFILE_ORDER]


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "lexroad", *map(str, args)],
        capture_output=True,
        text=True,
        check=True,
    )


def brute(expr, env):
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return env[expr.id]
    if isinstance(expr, Not):
        return not brute(expr.child, env)
    values = [brute(c, env) for c in expr.children]
    return all(values) if isinstance(expr, And) else any(values)


def test_criterion_1_golden_equation_reproduction(pack):
    with criterion(1, "compiled rules reproduce the hand-entered equation sets", 1.0):
        rules = pack.rules()
        assert len(rules) == 7
        for entry in rules:
            oracle = HAND_EQUATIONS[entry.rule_id]
            assert set(entry.equations.decision_ids()) == set(oracle)
            # exact reproduction of every row, against the independent lambdas
            for row in truth_table(entry.equations):
                for decision, fn in oracle.items():
                    assert row.decisions[decision] == fn(row.assignment), (
                        entry.rule_id, decision, row.assignment,
                    )
            # and truth-table equivalence against the shipped golden text
            golden = parse_equations(entry.golden_equations, entry.rule_id)
            ok, decision, witness = equations_equivalent(entry.equations, golden)
            assert ok, (entry.rule_id, decision, witness)


def test_criterion_2_exclusion_and_path_validation(pack):
    with criterion(2, "decision pairs exclusive; every satisfying assignment "
                      "traces to its outcome", 1.0):
        for entry in pack.rules():
            report = check_properties(entry.equations)
            assert report.all_mutually_exclusive, entry.rule_id
            graph = build_lawmap(entry.equations, entry.ast)
            rows = truth_table(entry.equations)
            assert len(rows) <= 2 ** 11
            for decision in entry.equations.decision_ids():
                satisfying = [r for r in rows if r.decisions[decision]]
                assert satisfying, (entry.rule_id, decision)
                for row in satisfying:
                    path = trace_path(graph, row.assignment)
                    terminal = graph.node(path[-1])
                    assert decision in terminal.decisions, (
                        entry.rule_id, decision, row.assignment,
                    )


def test_criterion_3_bn_validation(pack, rules_by_id):
    with criterion(3, "posteriors agree with the Boolean semantics; scenario "
                      "and prior queries hit their oracle values", 2.0):
        for entry in pack.rules():
            net = build_bn(entry.equations)
            report = validate_bn(net, entry.equations)
            assert report.ok, (entry.rule_id, report.divergences)

        # observing the adult-restraint equation's variables forces it
        net3 = build_bn(rules_by_id["UK-HC-99-100/3"].equations)
        posterior = infer(net3, {"u": True, "p": True})
        assert posterior["C"] == pytest.approx(1.0, abs=1e-9)

        # uniform-prior query against an independent joint enumeration
        eqs1 = rules_by_id["UK-HC-99-100/1"].equations
        b_expr = expand(eqs1)["B"]
        names = ("q", "r", "s", "y")
        oracle = sum(
            brute(b_expr, dict(zip(names, combo)))
            for combo in itertools.product((False, True), repeat=4)
        ) / 16.0
        assert oracle == pytest.approx(7 / 16, abs=0)
        posterior = infer(build_bn(eqs1))
        assert posterior["B"] == pytest.approx(oracle, abs=1e-9)


def test_criterion_4_inference_strategies_agree(pack):
    with criterion(4, "enumeration and weighted model counting agree on 100 "
                      "random configurations per rule net", 10.0):
        rng = random.Random(94101)
        for entry in pack.rules():
            inputs = entry.equations.input_ids()
            for _ in range(100):
                priors = {v: rng.uniform(0.05, 0.95) for v in inputs}
                net = build_bn(entry.equations, priors=priors)
                names = list(net.ids())
                picked = rng.sample(names, k=rng.randint(0, min(4, len(names))))
                evidence = {name: rng.random() < 0.5 for name in picked}
                try:
                    enum = infer_enumeration(net, evidence)
                except ImpossibleEvidenceError:
                    with pytest.raises(ImpossibleEvidenceError):
                        infer(net, evidence)
                    continue
                wmc = infer(net, evidence)
                for node_id in enum:
                    assert enum[node_id] == pytest.approx(wmc[node_id], abs=1e-9), (
                        entry.rule_id, evidence, node_id,
                    )


def test_criterion_5_capability_matrix_reproduction():
    with criterion(5, "check over the three shipped profiles regenerates "
                      "every matrix cell", 5.0):
        result = run_cli("check", default_pack_dir(), *profile_paths_in_order())
        assert result.stdout == GOLDEN_MATRIX.read_text(encoding="utf-8")

        # cell-by-cell against the transcription (27 rows × 3 vehicles)
        assert len(MATRIX_ROWS) == 27
        lines = result.stdout.splitlines()
        cells = []
        for _, description, v, m, b in MATRIX_ROWS:
            line = next(l for l in lines if description in l)
            tail = line.split(description, 1)[1]
            cells.append(tuple(tail.split()))
            assert cells[-1] == (v, m, b), description
        assert len(cells) == 27


def test_criterion_6_round_trip_and_determinism(pack):
    with criterion(6, "parse/print round-trip on shipped rules; byte-identical "
                      "exports across consecutive runs", 10.0):
        for entry in pack.rules():
            printed = pretty_print(entry.ast)
            again = parse_rule(RuleSource(rule_id=entry.rule_id, text=printed))
            assert again == entry.ast

        for entry in pack.rules():
            first_graph = build_lawmap(entry.equations, entry.ast)
            second_graph = build_lawmap(entry.equations, entry.ast)
            assert export_dot(first_graph) == export_dot(second_graph)
            assert export_json(first_graph) == export_json(second_graph)

        check_args = ("check", default_pack_dir(), *profile_paths_in_order(),
                      "--format", "json")
        assert run_cli(*check_args).stdout == run_cli(*check_args).stdout
        matrix_args = ("check", default_pack_dir(), *profile_paths_in_order())
        assert run_cli(*matrix_args).stdout == run_cli(*matrix_args).stdout


def _random_expr(rng, depth, names):
    kind = rng.randint(0, 3) if depth > 0 else 0
    if kind == 0:
        return Var(rng.choice(names))
    if kind == 1:
        return Not(_random_expr(rng, depth - 1, names))
    children = tuple(
        _random_expr(rng, depth - 1, names) for _ in range(rng.randint(2, 3))
    )
    return And(children) if kind == 2 else Or(children)


def test_criterion_7_randomized_invariants(pack):
    with criterion(7, "normalization preserves truth tables (500 exprs); "
                      "evaluate equals, and Kleene agrees with, completion consensus "
                      "(500 partials)", 10.0):
        names = tuple("abcdefgh")
        rng = random.Random(57721)
        for _ in range(500):
            expr = _random_expr(rng, rng.randint(1, 6), names)
            flat = normalize(expr)
            scope = tuple(sorted({v for v in _free(expr)}))
            for combo in itertools.product((False, True), repeat=len(scope)):
                env = dict(zip(scope, combo))
                assert brute(expr, env) == brute(flat, env)

        checked = 0
        while checked < 400:
            expr = _random_expr(rng, rng.randint(1, 6), names)
            scope = tuple(sorted(_free(expr)))
            partial = {
                name: rng.choice((True, False, None)) for name in scope
            }
            fixed = {k: v for k, v in partial.items() if v is not None}
            got = kleene_eval(expr, dict(partial))
            agree = _consensus(expr, fixed, scope)
            if got is not None:
                # definite Kleene output equals the completion consensus
                assert got == agree, (expr, partial)
            if agree is None:
                # disagreeing completions can never look definite
                assert got is None, (expr, partial)
            # evaluate is exact: the consensus itself, in both directions
            eqs = RuleEquations("random", VariableTable("random"), {"Z": expr}, input_order=scope)
            assert evaluate(eqs, dict(partial)) == {"Z": agree}, (expr, partial)
            checked += 1

        # on the shipped equations every variable occurs once, so Kleene
        # is exactly the consensus in both directions
        entries = pack.rules()
        for _ in range(100):
            entry = rng.choice(entries)
            exprs = expand(entry.equations)
            scope = entry.equations.input_ids()
            partial = {name: rng.choice((True, False, None)) for name in scope}
            fixed = {k: v for k, v in partial.items() if v is not None}
            for decision, expr in exprs.items():
                want = _consensus(expr, fixed, scope)
                assert kleene_eval(expr, dict(partial)) == want
            checked += 1
        assert checked >= 500


def _free(expr):
    if isinstance(expr, Var):
        return {expr.id}
    if isinstance(expr, Not):
        return _free(expr.child)
    if isinstance(expr, (And, Or)):
        out = set()
        for child in expr.children:
            out |= _free(child)
        return out
    return set()


def _consensus(expr, fixed, scope):
    unknown = [n for n in scope if n not in fixed]
    seen = set()
    for combo in itertools.product((False, True), repeat=len(unknown)):
        env = dict(fixed)
        env.update(zip(unknown, combo))
        seen.add(brute(expr, env))
        if len(seen) == 2:
            return None
    return seen.pop()
