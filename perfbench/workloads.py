"""The three workloads: their set-up and the fixed operations of one pass.

Each set-up takes the freshly imported lexroad modules, the seed and a
scratch directory, writes the inputs lexroad will read, and returns a
:class:`Workload` listing the operations of one pass.  Every pass repeats
the same list.  An operation is a call into lexroad (the CLI in process, or
a library function) plus an oracle for its output.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracles
import synth

# Column order of the golden capability matrix.
PROFILES = ("vauxhall-insignia", "mitsubishi-shogun-sport", "bmw-740li")

# Every size, so the growth with the input count is visible.  Each operation
# is timed as its median over a run's passes, which needs many passes: at 12
# inputs and more a pass takes seconds.
BUILD_SIZES = {shape: tuple(range(6, 11)) for shape in synth.SHAPES}
# build_bn refuses nodes with more than 16 parents, so wide ORs stop there.
QUERY_SIZES = {
    "wide-or": (12, 14, 16),
    "nested-except": (12, 14, 16, 18, 20),
    "else-guards": (12, 14, 16, 18, 20),
}
# A 16-input Lawmap takes 1-4 s to build, which three set-ups per run
# cannot afford.
QUERY_LAWMAP_MAX_INPUTS = 14
# Observed share of a query's inputs: a uniform grid of this many points,
# so seeds move which inputs are observed and their values, not the mix of
# query costs (infer enumerates 2^unobserved).
EVIDENCE_GRID = 4
# Draws per grid point: every draw is evaluated and traced, the first few
# also inferred.  The cheap calls get more draws, so that their medians
# average over many evidence sets and do not follow the seed.
QUERY_DRAWS = 4
INFER_DRAWS = 2
CHECK_SAMPLES = 64
SCENARIOS_PER_RULE = 3  # pack-cli: traced, inferred and evaluated scenarios per rule


@dataclass
class Op:
    metric: str  # per-command metric the latency counts toward
    call: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right


@dataclass
class Workload:
    ops: list[Op]
    info: dict = field(default_factory=dict)


def run_cli(lx, argv: list[str]) -> tuple[int, str, str]:
    """``lexroad.cli.main(argv)`` in process, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lx.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_op(lx, metric: str, argv: list, check: Callable[[str], str | None]) -> Op:
    argv = [str(a) for a in argv]

    def verify(result) -> str | None:
        code, out, err = result
        if code != 0:
            return f"{' '.join(argv[:2])}: exit {code}: {err.strip()[:200]}"
        return check(out)

    return Op(metric, lambda: run_cli(lx, argv), verify)


def profile_paths(pack: Path) -> list[Path]:
    return [pack / "vehicles" / f"{p}.profile.json" for p in PROFILES]


def write_scenario(path: Path, rule_id: str, facts: dict[str, bool]) -> Path:
    path.write_text(json.dumps({"rule_id": rule_id, "facts": facts}), encoding="utf-8")
    return path


def draw_facts(rng: random.Random, inputs: list[str], k: int) -> dict[str, bool]:
    """Values for ``k`` of the inputs, kept in input order."""
    chosen = set(rng.sample(inputs, k))
    return {v: rng.random() < 0.5 for v in inputs if v in chosen}


def spread_facts(rng: random.Random, groups: list[list[str]], k: int) -> dict[str, bool]:
    """Values for ``k`` inputs, shared out over the groups in proportion to
    their size, so that where the evidence falls, and with it the cost of
    variable elimination, does not change with the seed."""
    n = sum(len(g) for g in groups)
    quotas = [k * len(g) // n for g in groups]
    by_remainder = sorted(range(len(groups)), key=lambda i: (-(k * len(groups[i]) % n), i))
    for i in by_remainder[:k - sum(quotas)]:
        quotas[i] += 1
    chosen = {v for g, q in zip(groups, quotas) for v in rng.sample(g, q)}
    return {v: rng.random() < 0.5 for g in groups for v in g if v in chosen}


def matrix_check(golden: str) -> Callable[[str], str | None]:
    return lambda out: None if out == golden else "check output differs from the golden matrix"


def read_golden_matrix(root: Path) -> str:
    return (root / "tests" / "golden" / "capability_matrix.txt").read_text(encoding="utf-8")


# --- pack-cli -------------------------------------------------------------------

@dataclass
class ShippedRule:
    path: Path
    rule_id: str
    decisions: dict[str, synth.Formula]  # from the hand-entered golden .beq
    inputs: list[str]


def shipped_rules(pack: Path) -> list[ShippedRule]:
    rules = []
    for path in sorted(pack.glob("*.rule")):
        header = [line for line in path.read_text(encoding="utf-8").splitlines()
                  if line.startswith("rule:")]
        golden = path.with_name(path.stem + ".golden.beq").read_text(encoding="utf-8")
        decisions = synth.parse_equations(golden)
        inputs = list(dict.fromkeys(v for f in decisions.values() for v in synth.variables(f)))
        rules.append(ShippedRule(path, header[0].split(":", 1)[1].strip(), decisions, inputs))
    return rules


def setup_pack_cli(lx, seed: int, work: Path, root: Path, pace: Callable[[], None]
                   ) -> Workload:
    """Every CLI command on the shipped pack, with seeded scenarios."""
    pack = root / "src" / "lexroad" / "data"
    golden = read_golden_matrix(root)
    profiles = profile_paths(pack)
    rng = random.Random(f"{seed}:pack-cli")
    rules = shipped_rules(pack)
    files = itertools.count()

    def scenario(rule: ShippedRule, facts: dict[str, bool]) -> Path:
        return write_scenario(work / f"scenario-{next(files)}.json", rule.rule_id, facts)

    def verdicts(rule: ShippedRule, facts: dict[str, bool]) -> dict[str, bool | None]:
        return {d: oracles.forced(f, facts, rule.inputs) for d, f in rule.decisions.items()}

    def check_with_scenario(rule: ShippedRule, facts: dict[str, bool]) -> Op:
        want = ", ".join(f"{d}={oracles.verdict_name(v)}" for d, v in verdicts(rule, facts).items())
        head = golden + "\nScenario outcomes\n\n"

        def check(out: str) -> str | None:
            if not out.startswith(head):
                return "check --scenario: matrix differs from the golden matrix"
            line = out[len(head):].rstrip("\n")
            rule_id, _, got = line.partition(": ")
            if rule_id.split(" (group ")[0] != rule.rule_id or got != want:
                return f"scenario line {line!r}, wanted verdicts {want!r}"
            return None

        return cli_op(lx, "check_ms", ["check", pack, *profiles, "--scenario", scenario(rule, facts)],
                      check)

    def validation(rule: ShippedRule) -> tuple[str, int, int]:
        satisfiable = sum(
            any(synth.evaluate(f, env) for env in oracles.assignments(rule.inputs))
            for f in rule.decisions.values()
        )
        return rule.rule_id, satisfiable, 2 ** len(rule.inputs)

    ops = [
        cli_op(lx, "check_ms", ["check", pack, *profiles], matrix_check(golden)),
        cli_op(lx, "check_ms", ["check", pack, *profiles, "--format", "json"],
               lambda out: oracles.check_matrix_json(out, golden)),
    ]
    for rule in rng.sample(rules, SCENARIOS_PER_RULE):
        ops.append(check_with_scenario(rule, draw_facts(rng, rule.inputs,
                                                        rng.randint(1, len(rule.inputs)))))
    ops.append(cli_op(lx, "bn_validate_ms", ["bn", *(r.path for r in rules)],
                      lambda out, w=[validation(r) for r in rules]: oracles.check_validation(out, w)))

    for rule in rules:
        pace()
        every = list(oracles.assignments(rule.inputs))
        n = len(rule.inputs)
        ops += [
            cli_op(lx, "bn_validate_ms", ["bn", rule.path],
                   lambda out, w=[validation(rule)]: oracles.check_validation(out, w)),
            cli_op(lx, "lawmap_ms", ["lawmap", rule.path, "-f", "json"],
                   lambda out, r=rule, e=every: oracles.check_lawmap(
                       oracles.graph_from_json(out), r.decisions, e)),
            cli_op(lx, "compile_ms", ["compile", rule.path],
                   lambda out, r=rule, e=every: oracles.check_equations(out, r.decisions, e)),
            cli_op(lx, "compile_ms", ["compile", rule.path, "--ascii"],
                   lambda out, r=rule, e=every: oracles.check_equations(
                       oracles.from_ascii(out), r.decisions, e)),
        ]
        for _ in range(SCENARIOS_PER_RULE):
            evidence = draw_facts(rng, rule.inputs, rng.randint(1, n))
            want = {d: oracles.posterior(f, evidence, rule.inputs)
                    for d, f in rule.decisions.items()}
            ev_text = ",".join(f"{v}={str(b).lower()}" for v, b in evidence.items())
            full = draw_facts(rng, rule.inputs, n)
            partial = draw_facts(rng, rule.inputs, rng.randint(0, n))
            ops += [
                cli_op(lx, "cli_infer_ms", ["bn", rule.path, "--infer", ev_text],
                       lambda out, w=want: oracles.check_posterior_listing(out, w)),
                cli_op(lx, "lawmap_ms", ["lawmap", rule.path, "--trace", scenario(rule, full)],
                       lambda out, r=rule, e=every, t=full: oracles.check_lawmap(
                           oracles.graph_from_dot(out), r.decisions, e, traced=t)),
                cli_op(lx, "cli_eval_ms", ["eval", rule.path, scenario(rule, partial)],
                       lambda out, w=verdicts(rule, partial): oracles.check_eval_listing(out, w)),
            ]
        partial = draw_facts(rng, rule.inputs, rng.randint(0, n))
        ops.append(cli_op(lx, "cli_eval_ms", ["eval", rule.path, scenario(rule, partial)],
                          lambda out, w=verdicts(rule, partial): oracles.check_eval_listing(out, w)))

    return Workload(ops, {
        "rules": [r.rule_id for r in rules],
        "inputs_per_rule": [len(r.inputs) for r in rules],
        "profiles": list(PROFILES),
    })


# --- synthetic family -------------------------------------------------------------

def check_samples(rng: random.Random, inputs: list[str]) -> list[dict[str, bool]]:
    samples = [{v: True for v in inputs}, {v: False for v in inputs}]
    samples += [{v: rng.random() < 0.5 for v in inputs} for _ in range(CHECK_SAMPLES)]
    return samples


def write_rules(rules: list[synth.SynthRule], directory: Path) -> dict[str, Path]:
    paths = {}
    for rule in rules:
        path = directory / f"{rule.stem}.rule"
        path.write_text(rule.text(), encoding="utf-8")
        path.with_name(f"{rule.stem}.golden.beq").write_text(rule.golden(), encoding="utf-8")
        paths[rule.stem] = path
    return paths


def compile_file(lx, path: Path):
    source = lx.rule_dsl.load_rule_file(path)
    ast = lx.rule_dsl.parse_rule(source)
    return ast, lx.boolean_core.compile_rule(ast, lx.rule_dsl.assign_variables(ast))


def setup_synth_build(lx, seed: int, work: Path, root: Path, pace: Callable[[], None]
                      ) -> Workload:
    """Build every artefact of the synthetic family, in a copy of the shipped pack."""
    golden = read_golden_matrix(root)
    pack = work / "pack"
    shutil.copytree(root / "src" / "lexroad" / "data", pack)
    rules = synth.family(BUILD_SIZES, seed)
    paths = write_rules(rules, pack)
    rng = random.Random(f"{seed}:synth-build")
    ops: list[Op] = []
    for rule in rules:
        pace()
        path = paths[rule.stem]
        decisions = rule.decisions()
        samples = check_samples(rng, rule.inputs())
        _, eqs = compile_file(lx, path)
        ops += [
            cli_op(lx, "compile_ms", ["compile", path],
                   lambda out, d=decisions, s=samples: oracles.check_equations(out, d, s)),
            cli_op(lx, "compile_ms", ["compile", path, "--ascii"],
                   lambda out, d=decisions, s=samples: oracles.check_equations(
                       oracles.from_ascii(out), d, s)),
            cli_op(lx, "bn_export_ms", ["bn", path, "--export"],
                   lambda out, r=rule, s=samples: oracles.check_net_export(out, r, s)),
            cli_op(lx, "lawmap_ms", ["lawmap", path, "-f", "json"],
                   lambda out, d=decisions, s=samples: oracles.check_lawmap(
                       oracles.graph_from_json(out), d, s)),
            cli_op(lx, "lawmap_ms", ["lawmap", path],
                   lambda out, d=decisions, s=samples: oracles.check_lawmap(
                       oracles.graph_from_dot(out), d, s)),
            cli_op(lx, "bn_validate_ms", ["bn", path],
                   lambda out, w=[(rule.rule_id, len(decisions), 2 ** rule.n)]:
                   oracles.check_validation(out, w)),
            Op("props_ms", lambda e=eqs: lx.boolean_core.check_properties(e),
               lambda report, r=rule: oracles.check_properties_report(report, r)),
        ]
    ops.append(cli_op(lx, "check_ms", ["check", pack, *profile_paths(pack)], matrix_check(golden)))
    return Workload(ops, {"rules": [f"{r.shape}/{r.n}" for r in rules]})


def setup_synth_query(lx, seed: int, work: Path, root: Path, pace: Callable[[], None]
                      ) -> Workload:
    """Nets, equations and Lawmaps built once; seeded queries in the loop."""
    rules = synth.family(QUERY_SIZES, seed)
    paths = write_rules(rules, work)
    rng = random.Random(f"{seed}:synth-query")
    ops: list[Op] = []
    observed_counts = {}
    for rule in rules:
        pace()
        ast, eqs = compile_file(lx, paths[rule.stem])
        net = lx.bayes_net.build_bn(eqs, priors=rule.priors)
        graph = None
        if rule.n <= QUERY_LAWMAP_MAX_INPUTS:
            pace()
            graph = lx.lawmap.build_lawmap(eqs, ast)
            outcome_of = {node.id: node.decisions for node in graph.nodes}
        inputs = rule.inputs()
        decisions = rule.decisions()
        counts = [round((i + 0.5) / EVIDENCE_GRID * rule.n) for i in range(EVIDENCE_GRID)]
        observed_counts[f"{rule.shape}/{rule.n}"] = counts
        for k in counts:
            for draw in range(QUERY_DRAWS):
                evidence = spread_facts(rng, rule.groups(), k)
                verdicts = {d: synth.kleene(f, evidence) for d, f in decisions.items()}
                if draw < INFER_DRAWS:
                    ops.append(Op("infer_ms", lambda n=net, e=evidence: lx.bayes_net.infer(n, e),
                                  lambda got, w=oracles.expected_posteriors(rule, evidence):
                                  oracles.check_posteriors(got, w)))
                ops.append(Op("eval_ms", lambda q=eqs, e=evidence: lx.boolean_core.evaluate(q, e),
                              lambda got, w=verdicts: None if got == w else f"{got} != {w}"))
                if graph is None:
                    continue
                full = draw_facts(rng, inputs, len(inputs))
                fired = oracles.fired(decisions, full)
                ops.append(Op(
                    "trace_ms", lambda g=graph, a=full: lx.lawmap.trace_path(g, a),
                    lambda path, o=outcome_of, w=fired: None
                    if path[0] == "start" and o[path[-1]] == w
                    else f"path ends at {path[-1]}, expected the outcome firing {w}",
                ))
    return Workload(ops, {
        "rules": [f"{r.shape}/{r.n}" for r in rules],
        "evidence_grid": [(i + 0.5) / EVIDENCE_GRID for i in range(EVIDENCE_GRID)],
        "observed_inputs": observed_counts,
        "draws_per_grid_point": {"evaluate": QUERY_DRAWS, "trace_path": QUERY_DRAWS,
                                 "infer": INFER_DRAWS},
        "lawmaps_up_to_inputs": QUERY_LAWMAP_MAX_INPUTS,
    })


SETUPS = {
    "pack-cli": setup_pack_cli,
    "synth-build": setup_synth_build,
    "synth-query": setup_synth_query,
}
