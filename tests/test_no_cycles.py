"""No lexroad call leaves a reference cycle.

Each call frees its scratch state (memo tables, decision-diagram managers,
parse state) by reference counting when it returns, on success and on error,
so the cyclic collector has nothing of lexroad's to find.  Each check runs
its calls with the collector off and ``gc.DEBUG_SAVEALL`` on, then collects
once: everything the collector finds is kept in ``gc.garbage``, where no
function or frame of lexroad, no :class:`Bdd` and no function that lexroad
ran from the standard library may appear.
"""

import gc
import json
import types

import pytest

from lexroad import compliance
from lexroad.bayes_net import BayesNet, build_bn, infer, net_to_json, validate_bn
from lexroad.boolean_core import (
    Bdd,
    check_properties,
    compile_rule,
    decision_inputs,
    equations_equivalent,
    equations_to_text,
    evaluate,
    parse_equations,
    to_text,
)
from lexroad.lawmap import build_lawmap, export_dot, export_json, trace_path
from lexroad.rule_dsl import assign_variables, load_rule_file, parse_rule, pretty_print
from lexroad.rulepack import (
    default_pack_dir,
    default_profile_paths,
    load_profile,
    load_rulepack,
    pack_digest,
)
from test_cli import EXIT_TABLE, run_main

PACK = default_pack_dir()
PROFILES = default_profile_paths()

# 12 inputs, a and b each read twice (in the antecedent and the exception,
# and in the antecedent and an outcome's guard)
TWELVE_INPUTS = """rule: CYCLES-12
title: Twelve inputs, two of them read twice

IF:
    [A] Any of:
        a. Where a holds; or, @var(a)
        b. Where b holds. @var(b)
    [B] All of:
        a. Where c holds; and, @var(c)
        b. Where d holds; or, @var(d)
        c. Where e holds. @var(e)
    [C] Where f holds; or, @var(f)
    [D] Where g holds. @var(g)
EXCEPT:
    [E] Any of:
        a. Where a holds; or, @var(a)
        b. Where h holds; and, @var(h)
        c. Where i holds. @var(i)
    [F] Where j holds. @var(j)
THEN:
    [X] x: @var(X)
        a. Where k holds. @var(k)
ELSE:
    [Y] y: @var(Y)
        a. Where b holds; and, @var(b)
        b. Where l holds. @var(l)
"""


def cyclic_garbage(calls):
    """Run ``calls()`` with the collector off, then collect once with
    ``gc.DEBUG_SAVEALL``: the lexroad functions, lexroad frames and Bdd
    managers in what it found, and the qualified names of the other
    functions.  The collector's state is restored afterwards."""
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        calls()
        gc.collect()
        lexroad, others = [], set()
        for item in gc.garbage:
            if isinstance(item, types.FunctionType):
                name = f"{item.__module__}.{item.__qualname__}"
                (lexroad.append if name.startswith("lexroad.") else others.add)(name)
            elif isinstance(item, types.FrameType):
                module = item.f_globals.get("__name__", "")
                if module.startswith("lexroad."):
                    lexroad.append(f"frame of {module}.{item.f_code.co_qualname}")
            elif isinstance(item, Bdd):
                lexroad.append("Bdd")
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        if enabled:
            gc.enable()
    return sorted(lexroad), others


def _flipped(net: BayesNet) -> BayesNet:
    """``net`` with the first row of its last decision's CPT flipped."""
    last = net.nodes[-1]
    flipped = last._replace(cpt=(1.0 - last.cpt[0], *last.cpt[1:]))
    return BayesNet(net.rule_id, (*net.nodes[:-1], flipped))


def _library_calls(rule_file, results):
    """Every public library entry point, once on ``rule_file`` and once on
    each shipped rule, appending what they return to ``results``."""
    pack = load_rulepack(PACK)
    profiles = [load_profile(path) for path in PROFILES]
    results += [pack, profiles, pack_digest(PACK)]
    sources = [load_rule_file(rule_file)] + [entry.source for entry in pack.rules()]
    for source in sources:
        ast = parse_rule(source)
        eqs = compile_rule(ast, assign_variables(ast))
        golden = parse_equations(equations_to_text(eqs), rule_id=eqs.rule_id)
        inputs = eqs.input_ids()
        facts = {name: i % 2 == 0 for i, name in enumerate(inputs)}
        bdd, nodes = eqs.diagram
        graph = build_lawmap(eqs, ast, meta={"title": source.title})
        net = build_bn(eqs)
        results += [
            pretty_print(ast), [to_text(e) for e in eqs.equations.values()],
            decision_inputs(eqs),
            equations_equivalent(eqs, golden), check_properties(eqs),
            evaluate(eqs, facts), evaluate(eqs, {inputs[0]: True}),
            [bdd.witness(f, inputs, False) for f in nodes.values()],
            [list(bdd.models(f)) for f in nodes.values()],
            trace_path(graph, facts), graph.outcome_paths(), export_dot(graph),
            export_json(graph),
            infer(net), infer(net, {inputs[-1]: True}), validate_bn(net, eqs),
            validate_bn(_flipped(net), eqs), net_to_json(net),
        ]
    scenarios = [compliance.Scenario("UK-HC-103", {"A": True, "B": True, "C": False})]
    report = compliance.build_report(pack, profiles, scenarios)
    results += [report, compliance.render_text(report), compliance.report_to_json(report)]


def _cli_calls(rule_file, scenario, shipped_scenario, tmp_path, results):
    """``cli.main`` once for every subcommand and the options that change
    what it runs, on ``rule_file`` and on a shipped rule."""
    shipped = PACK / "103.rule"
    for rule in (rule_file, shipped):
        results += [
            run_main(["compile", rule]), run_main(["compile", rule, "--ascii"]),
            run_main(["lawmap", rule]), run_main(["lawmap", rule, "-f", "json"]),
            run_main(["bn", rule]), run_main(["bn", rule, "--export"]),
            run_main(["bn", rule, "--infer", ""]),
        ]
    results += [
        run_main(["eval", rule_file, scenario]),
        run_main(["lawmap", rule_file, "--trace", scenario]),
        run_main(["bn", rule_file, "--infer", "a=true,k=false"]),
        run_main(["bn", shipped, "--priors", tmp_path / "priors.json"]),
        run_main(["compile", rule_file, "--out", tmp_path / "out.beq"]),
        run_main(["check", PACK, *PROFILES]),
        run_main(["check", *PROFILES, "--format", "json", "--scenario", shipped_scenario]),
        run_main(["check", PACK, PROFILES[0], "--out", tmp_path / "report.json"]),
    ]


@pytest.fixture
def rule_file(tmp_path):
    path = tmp_path / "cycles-12.rule"
    path.write_text(TWELVE_INPUTS, encoding="utf-8")
    return path


def test_no_library_call_leaves_a_cycle(rule_file):
    ast = parse_rule(load_rule_file(rule_file))
    assert compile_rule(ast, assign_variables(ast)).input_ids() == tuple("abcdefghijkl")
    results = []
    lexroad, others = cyclic_garbage(lambda: _library_calls(rule_file, results))
    assert lexroad == []
    assert others == set()
    flipped = [r for r in results if getattr(r, "divergences", None)]
    assert len(flipped) == 8  # the flipped row of every net is listed


def test_no_command_leaves_a_cycle(rule_file, tmp_path):
    scenario = tmp_path / "scenario.json"
    facts = {name: i % 3 == 0 for i, name in enumerate("abcdefghijkl")}
    scenario.write_text(json.dumps({"rule_id": "CYCLES-12", "facts": facts}), encoding="utf-8")
    shipped_scenario = tmp_path / "103.json"
    shipped_scenario.write_text(json.dumps({"rule_id": "UK-HC-103", "facts": {"A": True}}),
                                encoding="utf-8")
    (tmp_path / "priors.json").write_text(json.dumps({"A": 0.3}), encoding="utf-8")
    results = []
    lexroad, others = cyclic_garbage(
        lambda: _cli_calls(rule_file, scenario, shipped_scenario, tmp_path, results))
    assert lexroad == []
    assert others == set()
    assert [code for code, _, err in results] == [0] * len(results), results


@pytest.mark.parametrize(
    "make_argv, code", [row[1:3] for row in EXIT_TABLE], ids=[row[0] for row in EXIT_TABLE]
)
def test_no_failing_command_leaves_a_cycle(tmp_path, make_argv, code):
    """A failed command's exception holds the frames it passed through; none
    of them may be left in a cycle, ``cli.main``'s own frame included."""
    argv = make_argv(tmp_path)
    results = []
    lexroad, others = cyclic_garbage(lambda: results.append(run_main(argv)))
    assert results[0][0] == code
    assert lexroad == []
    assert others == set()
