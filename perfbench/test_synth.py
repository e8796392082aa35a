"""Checks of the synthetic generator and the oracles built on it.

    PYTHONPATH=src python -m pytest -q perfbench/test_synth.py
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import oracles  # noqa: E402
import synth  # noqa: E402
import workloads  # noqa: E402
from lexroad import bayes_net, boolean_core, lawmap, rule_dsl, rulepack  # noqa: E402

SIZES = {shape: (6, 9, 12) for shape in synth.SHAPES}
SEEDS = (0, 1, 7)
LX = SimpleNamespace(rule_dsl=rule_dsl, boolean_core=boolean_core)


def compiled(rule: synth.SynthRule, tmp_path: Path):
    path = workloads.write_rules([rule], tmp_path)[rule.stem]
    return workloads.compile_file(LX, path)


@pytest.mark.parametrize("seed", SEEDS)
def test_family_parses_and_passes_golden_cross_check(seed, tmp_path):
    rules = synth.family(SIZES, seed)
    workloads.write_rules(rules, tmp_path)
    pack = rulepack.load_rulepack(tmp_path)  # raises GoldenMismatchError on divergence
    assert sorted(e.rule_id for e in pack.rules()) == sorted(r.rule_id for r in rules)
    for entry, rule in zip(sorted(pack.rules(), key=lambda e: e.rule_id),
                           sorted(rules, key=lambda r: r.rule_id)):
        assert list(entry.equations.input_ids()) == rule.inputs()
        assert list(entry.equations.decision_ids()) == list(rule.decisions())


@pytest.mark.parametrize("seed", SEEDS)
def test_family_matches_oracle_on_sampled_assignments(seed, tmp_path):
    rng = random.Random(seed)
    for rule in synth.family(workloads.QUERY_SIZES, seed):
        _, eqs = compiled(rule, tmp_path)
        for _ in range(32):
            env = {v: rng.random() < 0.5 for v in rule.inputs()}
            want = {d: synth.evaluate(f, env) for d, f in rule.decisions().items()}
            assert boolean_core.evaluate(eqs, env) == want
            partial = {v: b for v, b in env.items() if rng.random() < 0.5}
            want = {d: synth.kleene(f, partial) for d, f in rule.decisions().items()}
            assert boolean_core.evaluate(eqs, partial) == want


def test_same_seed_same_rules_and_sizes_fixed_by_shape():
    a, b, c = (synth.family(SIZES, s) for s in (3, 3, 4))
    assert [r.text() for r in a] == [r.text() for r in b]
    assert [r.text() for r in a] != [r.text() for r in c]
    assert [(r.shape, r.n, len(r.inputs())) for r in a] == [(r.shape, r.n, r.n) for r in c]


def test_properties_and_posteriors_agree_with_lexroad(tmp_path):
    rng = random.Random(5)
    for rule in synth.family({shape: (8,) for shape in synth.SHAPES}, 5):
        _, eqs = compiled(rule, tmp_path)
        assert oracles.check_properties_report(boolean_core.check_properties(eqs), rule) is None
        net = bayes_net.build_bn(eqs, priors=rule.priors)
        evidence = workloads.draw_facts(rng, rule.inputs(), 3)
        want = oracles.expected_posteriors(rule, evidence)
        assert oracles.check_posteriors(bayes_net.infer(net, evidence), want) is None


def test_oracles_reject_wrong_outputs(tmp_path):
    rule = synth.generate("else-guards", 10, random.Random(2))
    ast, eqs = compiled(rule, tmp_path)
    decisions = rule.decisions()
    samples = workloads.check_samples(random.Random(2), rule.inputs())

    text = boolean_core.equations_to_text(eqs)
    assert oracles.check_equations(text, decisions, samples) is None
    assert oracles.check_equations(text.replace("∧ ¬", "∧ ", 1), decisions, samples)

    graph_json = lawmap.export_json(lawmap.build_lawmap(eqs, ast))
    assert oracles.check_lawmap(oracles.graph_from_json(graph_json), decisions, samples) is None
    swapped = graph_json.replace('"guard": "yes"', '"guard": "tmp"').replace(
        '"guard": "no"', '"guard": "yes"').replace('"guard": "tmp"', '"guard": "no"')
    assert oracles.check_lawmap(oracles.graph_from_json(swapped), decisions, samples)

    evidence = {rule.inputs()[0]: True}
    want = oracles.expected_posteriors(rule, evidence)
    got = bayes_net.infer(bayes_net.build_bn(eqs, priors=rule.priors), evidence)
    got["X"] += 1e-6
    assert oracles.check_posteriors(got, want)


def test_matrix_oracle_reads_the_golden_matrix():
    golden = (HERE.parent / "tests" / "golden" / "capability_matrix.txt").read_text("utf-8")
    names, rows, ratings = oracles.parse_matrix(golden)
    assert names == ["Vauxhall Insignia", "Mitsubishi Shogun Sport", "BMW 740Li"]
    assert len(rows) == 27 and rows[0][0] == "99-100" and rows[-1][0] == "229"
    assert [r[0] for r in ratings] == ["99-100", "103-105", "113", "127-132", "137-138",
                                       "191-199", "229"]
