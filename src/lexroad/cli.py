"""Command-line front end.

Subcommands: ``compile``, ``eval``, ``lawmap``, ``bn``, ``check``.
Exit codes: 0 success; 1 the rule cannot be read (missing, not UTF-8) or
parsed; 2 it does not compile; 3 the scenario is unreadable, not a JSON
object, for another rule, names a variable the rule lacks or a decision, or
leaves out a fact ``lawmap --trace`` needs; 4 priors or evidence are
unusable, evidence is impossible, a decision is cyclic, an exhaustive step
gets too many inputs (``lawmap`` over 24 inputs, ``bn --validate`` over 24
roots) or a validated net diverges; 5 anything wrong in the rulepack or a
profile.  ``EXIT_CODES`` gives each lexroad error its code, and ``_exits``
gives errors raised while reading one input the code of that input.
``main`` alone reports a failure, as one stderr line: ``error: ...``, or
``file:line:col: error: ...`` for a rule syntax error.
Outputs are byte-stable for identical inputs; ``--timestamps`` opts into
wall-clock metadata on reports.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__, bayes_net, boolean_core, compliance, lawmap, rule_dsl, rulepack
from .boolean_core import RuleEquations, compile_rule, equations_to_text, evaluate
from .rule_dsl import assign_variables, load_rule_file, parse_rule

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_COMPILE = 2
EXIT_SCENARIO = 3
EXIT_INFERENCE = 4
EXIT_RULEPACK = 5

EXIT_CODES: dict[type[Exception], int] = {
    rule_dsl.RuleSyntaxError: EXIT_PARSE,
    rule_dsl.DuplicateLabelError: EXIT_PARSE,
    boolean_core.EquationSyntaxError: EXIT_PARSE,
    rule_dsl.NamingConflictError: EXIT_COMPILE,
    boolean_core.UnboundVariableError: EXIT_COMPILE,
    boolean_core.NoOutcomeError: EXIT_COMPILE,
    lawmap.InconsistentInputsError: EXIT_COMPILE,
    compliance.UnknownScenarioVariableError: EXIT_SCENARIO,
    lawmap.IncompleteAssignmentError: EXIT_SCENARIO,
    boolean_core.TooManyVariablesError: EXIT_INFERENCE,
    boolean_core.CyclicDefinitionError: EXIT_INFERENCE,
    bayes_net.ImpossibleEvidenceError: EXIT_INFERENCE,
    rulepack.GoldenMismatchError: EXIT_RULEPACK,
    rulepack.IncompleteProfileError: EXIT_RULEPACK,
}
# what reading a file, or a value in it that is not what it should be, raises
_INPUT_ERRORS = (OSError, ValueError, KeyError)


class _Failure(Exception):
    """``_Failure(code, error)``: ``error`` ends the command with exit ``code``."""


@contextmanager
def _exits(code: int, errors: tuple[type[Exception], ...] = _INPUT_ERRORS):
    """Any of ``errors`` raised in the block ends the command with ``code``."""
    try:
        yield
    except errors as exc:
        raise _Failure(code, exc) from exc


def _load_compiled(rule_path: str):
    with _exits(EXIT_PARSE):
        source = load_rule_file(rule_path)
    ast = parse_rule(source)
    table = assign_variables(ast)
    return source, ast, compile_rule(ast, table)


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_facts(path: str, eqs: RuleEquations) -> dict[str, bool]:
    with _exits(EXIT_SCENARIO):
        scenario = compliance.load_scenario(path)
        if scenario.rule_id != eqs.rule_id:
            raise ValueError(
                f"scenario targets rule {scenario.rule_id!r}, not {eqs.rule_id!r}"
            )
    compliance.check_facts(eqs, scenario)
    return scenario.facts


def cmd_compile(args: argparse.Namespace) -> int:
    _, _, eqs = _load_compiled(args.rule)
    _write(equations_to_text(eqs, ascii_ops=args.ascii), args.out)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    _, _, eqs = _load_compiled(args.rule)
    facts = _load_facts(args.scenario, eqs)
    if not facts:
        print("warning: scenario provides no facts; all decisions unknown",
              file=sys.stderr)
    results = evaluate(eqs, dict(facts))
    lines = [
        f"{decision}: {compliance.kleene_name(value)} ({eqs.table.describe(decision)})"
        for decision, value in results.items()
    ]
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_lawmap(args: argparse.Namespace) -> int:
    source, ast, eqs = _load_compiled(args.rule)
    meta = {"title": source.title} if source.title else {}
    for i, cite in enumerate(source.citations):
        meta[f"cites.{i}"] = cite
    graph = lawmap.build_lawmap(eqs, ast, meta=meta)
    highlight = None
    if args.trace:
        highlight = lawmap.trace_path(graph, _load_facts(args.trace, eqs))
    if args.format == "json":
        text = lawmap.export_json(graph)
    else:
        text = lawmap.export_dot(graph, highlight=highlight)
    _write(text, args.out)
    return EXIT_OK


def _parse_evidence(text: str) -> dict[str, bool]:
    evidence: dict[str, bool] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"evidence must be name=true|false, got {item!r}")
        name, _, raw = item.partition("=")
        raw = raw.strip().lower()
        if raw not in ("true", "false"):
            raise ValueError(f"evidence value for {name.strip()!r} must be true or false")
        evidence[name.strip()] = raw == "true"
    return evidence


def _load_priors(path: str) -> dict[str, float]:
    priors = rulepack.load_json_object(path)
    for name, value in priors.items():
        if not isinstance(value, (int, float, str)):
            raise ValueError(f"prior for {name} must be a number")
    return {name: float(value) for name, value in priors.items()}


def cmd_bn(args: argparse.Namespace) -> int:
    priors: dict[str, float] = {}
    if args.priors:
        with _exits(EXIT_INFERENCE):
            priors = _load_priors(args.priors)
    lines: list[str] = []
    total = passed = 0
    for rule_path in args.rules:
        _, _, eqs = _load_compiled(rule_path)
        with _exits(EXIT_INFERENCE):
            net = bayes_net.build_bn(eqs, priors={
                k: v for k, v in priors.items() if k in eqs.table.variables
            })
        if args.infer is not None:
            with _exits(EXIT_INFERENCE):
                posteriors = bayes_net.infer(net, _parse_evidence(args.infer))
            for decision in eqs.decision_ids():
                lines.append(f"P({decision}=true) = {posteriors[decision]:.9f}")
        elif args.export:
            lines.append(bayes_net.net_to_json(net).rstrip("\n"))
        else:
            report = bayes_net.validate_bn(net, eqs)
            total += report.equations_total
            passed += report.equations_passed
            status = "ok" if report.ok else "DIVERGED"
            lines.append(
                f"rule {eqs.rule_id}: {report.equations_passed}/{report.equations_total} "
                f"equations validated over {report.assignments_checked} assignments [{status}]"
            )
            for divergence in report.divergences:
                lines.append(
                    f"  divergence on {divergence.decision} at {divergence.evidence}: "
                    f"expected {divergence.expected}, posterior {divergence.posterior:.9f}"
                )
    if args.infer is None and not args.export:
        lines.append(f"{passed}/{total} equations validated")
    _write("\n".join(lines) + "\n", args.out)
    if args.infer is None and not args.export and passed != total:
        return EXIT_INFERENCE
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    pack_arg = args.rulepack
    profile_args = list(args.profiles)
    if pack_arg is not None and not Path(pack_arg).is_dir():
        # argparse cannot tell an omitted pack dir from the first profile
        profile_args.insert(0, pack_arg)
        pack_arg = None
    pack_dir = pack_arg or os.environ.get("LEXROAD_RULEPACK")
    if not pack_dir:
        pack_dir = str(rulepack.default_pack_dir())
    with _exits(EXIT_RULEPACK, (*_INPUT_ERRORS, *EXIT_CODES)):
        pack = rulepack.load_rulepack(pack_dir)
        profile_paths = [Path(p) for p in profile_args]
        profiles = [rulepack.load_profile(p) for p in profile_paths]
    with _exits(EXIT_SCENARIO):
        scenarios = [compliance.load_scenario(path) for path in args.scenario or []]
    # KeyError: a scenario for a rule the pack does not have
    with _exits(EXIT_SCENARIO, (KeyError,)):
        report = compliance.build_report(
            pack,
            profiles,
            profile_paths=profile_paths,
            scenarios=scenarios,
            timestamps=args.timestamps,
        )
    if args.format == "json":
        sys.stdout.write(compliance.report_to_json(report))
    else:
        sys.stdout.write(compliance.render_text(report))
    if args.out:
        Path(args.out).write_text(compliance.report_to_json(report), encoding="utf-8")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def main(argv: list[str] | None = None) -> int:
    # matrix marks and equation operators are non-ASCII; don't let a C
    # locale turn them into encode errors
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Failure as failure:
        code, error = failure.args
    except tuple(EXIT_CODES) as exc:
        code, error = EXIT_CODES[type(exc)], exc
    # a syntax error already reads "file:line:col: error: ..."
    print(error if isinstance(error, rule_dsl.RuleSyntaxError) else f"error: {error}",
          file=sys.stderr)
    return code


def entrypoint() -> None:
    raise SystemExit(main())
