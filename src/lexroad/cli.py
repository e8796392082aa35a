"""Command-line front end.

Subcommands: ``compile``, ``eval``, ``lawmap``, ``bn``, ``check``.
Exit codes: 0 success; 1 the command line is not valid, the rule cannot be
read (missing, not UTF-8) or parsed, or an ``--out`` file or stdout cannot
be written; 2 it does not compile; 3 the scenario is unreadable, not a JSON
object, gives a key twice or a key that is not a field, is for another
rule, names a variable the rule lacks or a decision, leaves out a fact
``lawmap --trace`` needs, or is a second one for its rule under ``check``;
4 priors or evidence are unusable (a prior that is not a JSON number or
not in (0, 1), on a decision or on a name the rules lack, a priors key or
an evidence name given twice included), evidence is impossible, a decision
is cyclic or a validated net diverges; 5 anything wrong in the rulepack or
a profile, a pack path that is missing or not a directory, a key given
twice or a key that is not a field in one of its JSON files or a second
profile with one ``vehicle_id`` included.
The decision-diagram walks recurse once per input, so Python's recursion
limit caps a one-level OR at about 985 facts for ``eval``.
``errors.EXIT_CODES`` gives each lexroad error its code, and ``_exits``
gives errors raised while reading one input the code of that input.
The module imports only what every subcommand runs (``errors``,
``rule_dsl`` and ``boolean_core``, which reads rules and scenarios); each
``cmd_*`` imports the other stages it runs: ``lawmap``, ``bayes_net``, or
``rulepack`` and ``compliance`` for ``check``.
``main`` alone reports a failure, as one stderr line: ``error: ...``, or
``file:line:col: error: ...`` for a rule syntax error. ``main`` may be
called any number of times in one process; the parser is built once.
Outputs are byte-stable for identical inputs; ``--timestamps`` opts into
wall-clock metadata on reports.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .boolean_core import (RuleEquations, check_facts, compile_rule, equations_to_text, evaluate,
                           load_scenario, verdict_name)
from .errors import (EXIT_CODES, EXIT_INFERENCE, EXIT_OK, EXIT_PARSE, EXIT_RULEPACK,
                     EXIT_SCENARIO, RuleSyntaxError, UnknownScenarioVariableError)
from .rule_dsl import assign_variables, load_rule_file, parse_rule

# what reading a file, or a value in it that is not what it should be, raises
_INPUT_ERRORS = (OSError, ValueError, KeyError)
# a name read from an input may hold a line break; the report escapes every
# character str.splitlines breaks at, so it stays one line
_ONE_LINE = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


class _Failure(Exception):
    """``_Failure(code, error)``: ``error`` ends the command with exit ``code``."""


class _Parser(argparse.ArgumentParser):
    """A usage error is one ``error:`` line and exit 1, not argparse's usage
    text and exit 2, which is the "does not compile" code."""

    def error(self, message: str):
        raise _Failure(EXIT_PARSE, message)


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
    """``text`` to the file ``out``, or to stdout and flushed; exit 1 naming
    the target if it cannot be written."""
    try:
        if out:
            Path(out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not out:  # shutdown would flush the stuck text again, and fail again
            sys.stdout = open(os.devnull, "w")
        raise _Failure(EXIT_PARSE, exc if exc.filename else f"{out or 'stdout'}: {exc}") from exc


def _load_facts(path: str, eqs: RuleEquations) -> dict[str, bool]:
    with _exits(EXIT_SCENARIO):
        scenario = load_scenario(path)
        if scenario.rule_id != eqs.rule_id:
            raise ValueError(
                f"scenario targets rule {scenario.rule_id!r}, not {eqs.rule_id!r}"
            )
    check_facts(eqs, scenario.facts)
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
        f"{decision}: {verdict_name(value)} ({eqs.table.describe(decision)})"
        for decision, value in results.items()
    ]
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_lawmap(args: argparse.Namespace) -> int:
    from . import lawmap

    source, ast, eqs = _load_compiled(args.rule)
    graph = lawmap.build_lawmap(eqs, ast, meta=lawmap.source_meta(source))
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
        name, raw = name.strip(), raw.strip().lower()
        if raw not in ("true", "false"):
            raise ValueError(f"evidence value for {name!r} must be true or false")
        if name in evidence:
            raise ValueError(f"evidence names {name} twice")
        evidence[name] = raw == "true"
    return evidence


def _load_priors(path: str) -> dict[str, float]:
    from . import strict_json

    priors = strict_json.load(path)
    for name, value in priors.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"prior for {name} must be a number")
    # float() of an integer too large for a float raises; float() of its digits is inf
    return {name: float(str(value)) for name, value in priors.items()}


def cmd_bn(args: argparse.Namespace) -> int:
    from . import bayes_net

    priors: dict[str, float] = {}
    if args.priors:
        with _exits(EXIT_INFERENCE):
            priors = _load_priors(args.priors)
    rules = [_load_compiled(rule_path)[2] for rule_path in args.rules]
    # a prior must name a fact of one of the rules: a name no rule has is
    # unknown to the first rule, and a decision is blamed on its rule
    facts = {v for eqs in rules for v in eqs.input_ids()}
    known = {v for eqs in rules for v in eqs.table.variables}
    with _exits(EXIT_INFERENCE, (UnknownScenarioVariableError,)):
        check_facts(rules[0], [k for k in priors if k not in known], "priors file")
        for eqs in rules:
            decisions = [k for k in priors if k in eqs.equations and k not in facts]
            check_facts(eqs, decisions, "priors file")
    lines: list[str] = []
    total = passed = 0
    for eqs in rules:
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
    from . import compliance, rulepack

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
        profiles = [rulepack.load_profile(Path(p)) for p in profile_args]
    with _exits(EXIT_SCENARIO):
        scenarios = [load_scenario(path) for path in args.scenario or []]
    # KeyError: a scenario for a rule the pack does not have; ValueError: a
    # second scenario for one rule
    with _exits(EXIT_SCENARIO, (KeyError, ValueError)):
        report = compliance.build_report(
            pack,
            profiles,
            scenarios=scenarios,
            timestamps=args.timestamps,
        )
    if args.out:
        _write(compliance.report_to_json(report), args.out)
    if args.format == "json":
        _write(compliance.report_to_json(report), None)
    else:
        _write(compliance.render_text(report), None)
    return EXIT_OK


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


def main(argv: list[str] | None = None) -> int:
    # matrix marks and equation operators are non-ASCII; don't let a C
    # locale turn them into encode errors
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8")
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _Failure as failure:
        code, error = failure.args
    except tuple(EXIT_CODES) as exc:
        code, error = EXIT_CODES[type(exc)], exc
    if isinstance(error, KeyError) and len(error.args) == 1:
        error = error.args[0]  # str() of a KeyError would quote its message
    # a syntax error already reads "file:line:col: error: ..."
    message = str(error) if isinstance(error, RuleSyntaxError) else f"error: {error}"
    del error  # its traceback holds this frame: a cycle that would keep every frame it holds
    print(message.translate(_ONE_LINE), file=sys.stderr)
    return code


def entrypoint() -> None:
    raise SystemExit(main())
