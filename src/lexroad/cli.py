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
``eval`` of an IF that is one OR has no width limit (6,000 facts read),
but the diagram kernel's ``ite`` recurses once per input where it joins two
wide functions, so Python's recursion limit fails ``eval`` and ``lawmap``
on an EXCEPT that is one OR of 985 facts, and ``bn`` validation on a
one-level OR of 991.
``errors.EXIT_CODES`` gives each lexroad error its code, and ``_exits``
gives errors raised while reading one input the code of that input.
The module imports only what every subcommand runs (``errors``,
``rule_dsl`` and ``boolean_core``, which reads rules and scenarios); each
``cmd_*`` imports the other stages it runs: ``lawmap``, ``bayes_net``, or
``rulepack`` and ``compliance`` for ``check``.
``main`` alone reports a failure, as one stderr line: ``error: ...``, or
``file:line:col: error: ...`` for a rule syntax error. ``main`` may be
called any number of times in one process. It reads the command line from
one table, ``_PARSERS``, with a reader that ``build_parser()`` builds on
first use and every later call reuses; ``-h`` and ``--version`` print their
text and return 0.
Outputs are byte-stable for identical inputs; ``--timestamps`` opts into
wall-clock metadata on reports.
"""

from __future__ import annotations

import functools
import os
import re
import sys
from contextlib import contextmanager, suppress
from pathlib import Path
from types import SimpleNamespace

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


class _Shown(Exception):
    """``_Shown(text)``: the command line asks for help or the version, ``text``."""


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
    """``text`` to stdout and flushed, or to ``out``: a file (or a symlink to
    one) whole or not at all, through a temporary file beside it that is then
    renamed over it; a device, pipe or directory as it is. Exit 1 naming the
    target if it cannot be written."""
    try:
        if out:
            direct = os.path.exists(out) and not os.path.isfile(out)
            real = os.path.realpath(out)
            part = out if direct else f"{real}.{os.getpid()}.part"
            with open(part, "w", encoding="utf-8") as file:
                file.write(text)
            if not direct:
                os.replace(part, real)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not out:  # shutdown flushes the stuck text once more: into the null device
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        elif not direct:
            with suppress(OSError):
                os.remove(part)
        # opening or renaming the temporary file names it, not the target
        raise _Failure(EXIT_PARSE, OSError(exc.errno, exc.strerror, out) if exc.filename
                       else f"{out or 'stdout'}: {exc}") from exc


def _load_facts(path: str, eqs: RuleEquations) -> dict[str, bool]:
    with _exits(EXIT_SCENARIO):
        scenario = load_scenario(path)
        if scenario.rule_id != eqs.rule_id:
            raise ValueError(
                f"scenario targets rule {scenario.rule_id!r}, not {eqs.rule_id!r}"
            )
    check_facts(eqs, scenario.facts)
    return scenario.facts


def cmd_compile(args: SimpleNamespace) -> int:
    _, _, eqs = _load_compiled(args.rule)
    _write(equations_to_text(eqs, ascii_ops=args.ascii), args.out)
    return EXIT_OK


def cmd_eval(args: SimpleNamespace) -> int:
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


def cmd_lawmap(args: SimpleNamespace) -> int:
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


def cmd_bn(args: SimpleNamespace) -> int:
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


def cmd_check(args: SimpleNamespace) -> int:
    from . import compliance, rulepack

    pack_arg = args.rulepack
    profile_args = list(args.profiles)
    if pack_arg is not None and not Path(pack_arg).is_dir():
        # the pack dir may be left out, and then the first profile fills its place
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


# The command line, one row per parser (None: lexroad before its command): the
# function that runs it, its help, usage, positionals as (dest, arity, help) with
# arity None (one argument), "?" (at most one), "+" (one or more) or "A..." (a
# command and all after it), and options by name as (kind, help) with kind "flag",
# "value", "append", "help", "version" or the choices, the first the default.
_HELP = {"-h/--help": ("help", "show this help message and exit")}
_PARSERS = {
    None: (None, "Compile structured-English road rules, draw their decision flow, validate\n"
           "the logic probabilistically and check vehicle capability profiles.",
           "[-h] [--version] COMMAND ...", [("command", "A...", None)],
           {**_HELP, "--version": ("version", "show program's version number and exit")}),
    "compile": (cmd_compile, "compile a .rule file to Boolean equations",
                "RULE [--ascii] [--out FILE]", [("rule", None, None)],
                {**_HELP, "--ascii": ("flag", "use & | ! instead of ∧ ∨ ¬"),
                 "--out": ("value", "write output to a file instead of stdout")}),
    "eval": (cmd_eval, "evaluate a scenario against a rule", "RULE SCENARIO [--out FILE]",
             [("rule", None, None), ("scenario", None, "JSON scenario file (absent facts "
                                     "are unknown)")], {**_HELP, "--out": ("value", None)}),
    "lawmap": (cmd_lawmap, "export a rule's decision-flow graph",
               "RULE [-f dot|json] [--trace SCENARIO] [--out FILE]", [("rule", None, None)],
               {**_HELP, "-f/--format": (("dot", "json"), None), "--out": ("value", None),
                "--trace": ("value", "scenario file; highlights the realized path")}),
    "bn": (cmd_bn, "build, validate or query the rule's Bayesian network",
           "RULE... [--validate | --infer EV | --export] [--priors FILE] [--out FILE]",
           [("rules", "+", None)],
           {**_HELP, "--validate": ("flag", "check the net against the Boolean semantics "
                                    "(default)"),
            "--infer": ("value", "comma-separated evidence, e.g. u=true,p=true"),
            "--export": ("flag", "emit the net as JSON"),
            "--priors": ("value", "JSON file of fact priors (default 0.5)"),
            "--out": ("value", None)}),
    "check": (cmd_check, "run capability profiles against the rulepack",
              "[PACKDIR] PROFILE... [--scenario S]... [--format text|json] [--out FILE] "
              "[--timestamps]",
              [("rulepack", "?", "rulepack directory (default: $LEXROAD_RULEPACK or the "
                "shipped pack)"), ("profiles", "+", "vehicle profile JSON files")],
              {**_HELP, "--scenario": ("append", "fact scenario to evaluate"),
               "--format": (("text", "json"), None),
               "--out": ("value", "also write the JSON report here"),
               "--timestamps": ("flag", "include generation time in the report")}),
}
_EXCLUSIVE = ("--validate", "--infer", "--export")  # bn's modes, one at a time
# the tokens a positional takes: A an argument, O an option, - the first "--"
_ARITY = {None: "(-*A-*)", "?": "(-*A?-*)", "+": "(-*A[A-]*)", "A...": "(-*A[-AO]*)"}
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _as_option(table: dict, token: str):
    """``token`` as an option of ``table``: ``(its entry, None if the table has
    none, and its explicit value)``; None if it is an argument: ``-``, a
    negative number or a token with a space."""
    if token[:1] != "-" or token == "-":
        return None
    name, eq, value = token.partition("=")
    if name not in table and token[1] == "-":  # a prefix of one long option
        if len(names := [s for s in table if s.startswith(name)]) > 1:
            raise _Failure(EXIT_PARSE, f"ambiguous option: {token} could match "
                           f"{', '.join(names)}")
        name = names[0] if names else name
    elif name not in table and token[:2] in table:  # a short option, its value run on
        name, eq, value = token[:2], "=", token[2:]
    if name in table:
        return table[name], value if eq else None
    return None if _NEGATIVE.match(token) or " " in token else (None, None)


def _help(command: str | None) -> str:
    """What ``lexroad [COMMAND] -h`` prints."""
    _, about, usage, positionals, options = _PARSERS[command]
    rows = [*((dest, text) for dest, _, text in positionals if text),
            *((name.replace("/", ", "), text) for name, (_, text) in options.items())]
    if command is None:
        rows += [(f"lexroad {c} {row[2]}", row[1]) for c, row in _PARSERS.items() if c]
        rows.append(("lexroad [COMMAND] -h", "show the options of lexroad or of one command"))
    return f"usage: lexroad {command + ' ' if command else ''}{usage}\n\n{about}\n\n" + "".join(
        f"  {name}\n" + (f"      {text}\n" if text else "") for name, text in rows)


def _show(args: SimpleNamespace) -> int:
    _write(args.text, None)
    return EXIT_OK


class _Reader:
    """Reads a command line into the fields the ``cmd_*`` functions read.
    Options stand anywhere after their command, spelt whole, as a prefix of
    a long option, with ``=value`` or, for ``-f``, with the value run on;
    each run of arguments between options goes to the positionals still
    empty, so a ``+`` positional takes one run; after the first ``--`` every
    token is an argument, a later ``--`` too."""

    def __init__(self):
        # parser → {spelling: (name in messages, dest, kind)}, and its fields' defaults
        self.tables = {command: {s: (name, name.split("/")[-1][2:], kind)
                                 for name, (kind, _) in row[4].items() for s in name.split("/")}
                       for command, row in _PARSERS.items()}
        self.defaults = {command: {"func": row[0], **dict.fromkeys(p[0] for p in row[3]), **{
            dest: False if kind == "flag" else kind[0] if isinstance(kind, tuple) else None
            for _, dest, kind in self.tables[command].values() if kind not in ("help", "version")}}
            for command, row in _PARSERS.items()}

    def read(self, argv: list[str] | None) -> SimpleNamespace:
        """The fields of ``argv`` (``sys.argv[1:]`` if None), ``func`` the
        ``cmd_*`` that runs them; a usage error raises ``_Failure``."""
        args, extras = SimpleNamespace(), []
        try:
            self._parse(None, sys.argv[1:] if argv is None else list(argv), args, extras)
        except _Shown as shown:
            return SimpleNamespace(func=_show, text=shown.args[0])
        if extras:
            raise _Failure(EXIT_PARSE, f"unrecognized arguments: {' '.join(extras)}")
        return args

    def _parse(self, command: str | None, argv: list[str], args, extras: list[str]) -> None:
        """``argv`` read by one parser into ``args``; what it cannot place goes to ``extras``."""
        vars(args).update(self.defaults[command])
        table, left = self.tables[command], list(_PARSERS[command][3])
        sep = argv.index("--") if "--" in argv else len(argv)
        found = {i: o for i, token in enumerate(argv[:sep]) if (o := _as_option(table, token))}
        kinds = "".join(["O" if i in found else "-" if i == sep else "A" for i in range(len(argv))])
        i = 0
        while i < len(argv):
            if i in found:
                i = self._take(command, argv, kinds, i, *found[i], args, extras)
                continue
            n = len(left)  # as many positionals as the run of arguments feeds
            while n and not (match := re.match("".join(_ARITY[p[1]] for p in left[:n]),
                                               kinds[i:])):
                n -= 1
            if not n:  # it feeds none: the run, up to the next option, is left over
                end = (kinds + "O").index("O", i)
                extras += argv[i:end]
                i = end
            for (dest, arity, _), group in zip(left[:n], match.groups() if n else ()):
                values, i = argv[i:i + len(group)], i + len(group)
                if arity == "A...":  # the command, which reads the rest
                    if values[0] not in _PARSERS:
                        raise _Failure(EXIT_PARSE, f"argument command: invalid choice: "
                                       f"{values[0]!r} (choose from "
                                       f"{', '.join(map(repr, filter(None, _PARSERS)))})")
                    args.command = values[0]
                    self._parse(values[0], values[1:], args, extras)
                else:
                    values = [v for k, v in enumerate(values, i - len(values)) if k != sep]
                    setattr(args, dest, values if arity == "+" else values[0] if values else None)
            del left[:n]
        if missing := [dest for dest, arity, _ in left if arity != "?"]:
            raise _Failure(EXIT_PARSE, f"the following arguments are required: "
                           f"{', '.join(missing)}")

    def _take(self, command, argv, kinds, i, entry, value, args, extras) -> int:
        """The option ``entry`` at ``argv[i]``, with its value, into ``args``;
        the index after them."""
        if entry is None:
            extras.append(argv[i])
            return i + 1
        name, dest, kind = entry
        flag = kind in ("flag", "help", "version")
        if flag and value is not None:
            raise _Failure(EXIT_PARSE, f"argument {name}: ignored explicit argument {value!r}")
        if not flag and value is None:
            if kinds[i + 1:i + 2] != "A":
                raise _Failure(EXIT_PARSE, f"argument {name}: expected one argument")
            i, value = i + 1, argv[i + 1]
        if kind in ("help", "version"):
            raise _Shown(_help(command) if kind == "help" else f"lexroad {__version__}\n")
        for other in _EXCLUSIVE if name in _EXCLUSIVE else ():
            if other != name and vars(args)[other[2:]] not in (None, False):
                raise _Failure(EXIT_PARSE, f"argument {name}: not allowed with argument {other}")
        if isinstance(kind, tuple) and value not in kind:
            raise _Failure(EXIT_PARSE, f"argument {name}: invalid choice: {value!r} "
                           f"(choose from {', '.join(map(repr, kind))})")
        setattr(args, dest, True if flag else
                [*(vars(args)[dest] or ()), value] if kind == "append" else value)
        return i + 1


@functools.cache
def build_parser() -> _Reader:
    """The command-line reader, built on first use and shared by every later
    ``main`` call in the process; it keeps no state between calls."""
    return _Reader()


def main(argv: list[str] | None = None) -> int:
    # matrix marks and equation operators are non-ASCII; don't let a C
    # locale turn them into encode errors
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8")
    try:
        args = build_parser().read(argv)
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
