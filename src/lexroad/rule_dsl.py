"""Parser and printer for the structured-English rule notation.

A rule body is a sequence of four sections::

    IF:
        [A] Vehicle occupant is:
            a. An adult; or,
            b. A minor over:
                i. 14 years of age; or,
                ii. 1.35 metres in height.
    EXCEPT:
        [C] Where seat belt is not fitted or available;
    THEN:
        [X] Seat belt cannot be worn.
    ELSE:
        [Y] Seat belt MUST be worn.

``IF`` and ``ELSE`` are mandatory; ``EXCEPT`` and ``THEN`` are optional.
Nesting is by indentation, at most 100 levels deep.  A clause line is an
optional marker (``[A]`` at the top of a section, ``a.`` / ``i.`` below),
free text, an optional ``@var(name)`` annotation, and a terminator.
``; or,`` and ``; and,`` terminators state the connective to the next
sibling; a bare ``;`` or ``.`` inherits the nearest explicit connective in
the same sibling list (preceding first, then following), defaulting to
AND.  A trailing ``:`` introduces children.

A ``@var`` annotation names the variable a clause compiles to.  On a clause
with children it also fixes the granularity of variabilisation: the clause
becomes a single variable and its children remain as descriptive detail
only.  Without an annotation, a leaf clause is one variable and a parent is
the connective-fold of its children.  Such a variable is named
``<rule id>.<SECTION>.<key>…`` by its clause path, one key per level: the
clause's label, or its 1-based position among all its siblings when it has
none (``R.IF.A.2``; ``R.ELSE.1.1`` for an unlabelled ``Where`` guard of an
unlabelled ELSE outcome).  :func:`keyed` alone builds clause paths.

Labels are unique among siblings, and an outcome label may not be given in
both THEN and ELSE; the error names the second clause that carries it.

``.rule`` files carry a small header before the body: ``rule: <id>``,
``title: <text>``, repeatable ``cites: <text>`` lines and an optional
``group: <rule group>`` line, then a blank line.  Lines starting with
``#`` are comments.  A ``rule:``, ``title:`` or ``group:`` header given
twice is an error, not a value the later line overrides.

The body is read in one pass that scans each line and nests it at once.
Scan errors are raised where they are met; an error in the nesting, or a
label repeated among siblings, is held until every line has scanned, so a
scan error further down is still the one reported.
"""

from __future__ import annotations

import os
import re
import unicodedata
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .errors import DuplicateLabelError, NamingConflictError, RuleSyntaxError


class Connective(Enum):
    AND = "and"
    OR = "or"


class VarKind(Enum):
    FACTUAL = "factual"
    SITUATION = "situation"
    DECISION = "decision"


SECTIONS = ("IF", "EXCEPT", "THEN", "ELSE")


class RuleSource(NamedTuple):
    """One rule as shipped: id, title, citation list, DSL body text and
    the rule group whose checklist it belongs to, if any."""

    rule_id: str
    title: str = ""
    text: str = ""
    citations: tuple[str, ...] = ()
    path: str | None = None
    line_offset: int = 1  # file line number of the first body line
    group: str | None = None


class Clause(NamedTuple):
    """A node of the condition/outcome tree.

    ``connective`` is the resolved relation to the next sibling (None for
    the last sibling in a list).  ``var`` is the explicit ``@var`` name, if
    any.
    """

    label: str | None
    text: str
    var: str | None = None
    connective: Connective | None = None
    children: tuple["Clause", ...] = ()


class RuleAst(NamedTuple):
    rule_id: str
    if_clauses: tuple[Clause, ...]
    except_clauses: tuple[Clause, ...] = ()
    then_outcomes: tuple[Clause, ...] = ()
    else_outcomes: tuple[Clause, ...] = ()


class Variable(NamedTuple):
    id: str
    kind: VarKind
    description: str


class Record:
    """A value that a NamedTuple cannot be: one filled in after it is made, or
    one keeping a ``cached_property``; unlike a dataclass, it generates no code.
    Its fields are the names annotated in the class body, given by position or
    keyword; a class attribute of a field's name is its default, a list or dict
    copied for each instance.  Equality compares the class and the fields."""

    def __init_subclass__(cls):
        cls._fields = tuple(vars(cls).get("__annotations__", ()))
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **kwargs):
        values = self.__dict__
        values.update(zip(self._fields, args), **kwargs)
        given_once = len(values) == len(args) + len(kwargs)  # no field twice, no extra argument
        for name, default in self._defaults.items():
            if name not in values:
                values[name] = default.copy() if type(default) in (list, dict) else default
        if not given_once or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(self._fields)}, "
                            "each once; a field without a default must be given")

    def _values(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._fields))

    def __eq__(self, other):
        return type(other) is type(self) and other._values() == self._values()

    def __repr__(self):
        fields = (f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({', '.join(fields)})"


class Frozen(Record):
    """A :class:`Record` whose fields cannot be assigned; it hashes by them."""

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field '{name}'")

    __delattr__ = __setattr__

    def __hash__(self):
        return hash(self._values())


class VariableTable(Record):
    """Variables of one rule plus the clause paths they came from.

    ``paths`` maps clause paths like ``IF.A.a``, ``IF.A.2`` or ``ELSE.1.1``
    (the section, then per level the clause's label or its 1-based position
    among all its siblings) to variable ids, ``<rule_id>.<path>`` for a
    clause without ``@var``; ``variables`` is insertion-ordered (conditions
    in document order, then decisions).
    """

    rule_id: str
    variables: dict[str, Variable] = {}
    paths: dict[str, str] = {}

    def __getitem__(self, var_id: str) -> Variable:
        return self.variables[var_id]

    def __contains__(self, var_id: str) -> bool:
        return var_id in self.variables

    def ids(self, kind: VarKind | None = None) -> tuple[str, ...]:
        if kind is None:
            return tuple(self.variables)
        return tuple(v.id for v in self.variables.values() if v.kind == kind)

    def condition_ids(self) -> tuple[str, ...]:
        return tuple(
            v.id for v in self.variables.values() if v.kind != VarKind.DECISION
        )

    def describe(self, var_id: str) -> str:
        var = self.variables.get(var_id)
        return var.description if var else var_id


# --- text preparation -------------------------------------------------------

_PUNCT_FOLD = str.maketrans(
    {
        "‘": "'",
        "’": "'",
        "“": '"',
        "”": '"',
        "–": "-",
        "—": "-",
        " ": " ",
        "\t": "    ",
    }
)


def _prepare(text: str) -> str:
    if text.isascii():  # NFC and the punctuation fold leave ASCII as it is
        return text.replace("\t", "    ")
    return unicodedata.normalize("NFC", text).translate(_PUNCT_FOLD)


_SECTION_HEADERS = {f"{name}:": name for name in SECTIONS}
_LABEL_RE = re.compile(r"(?:\[([A-Z])\]\s*|([a-z]+)\.\s+)?(.*)")
_VAR_RE = re.compile(r"@var\(([A-Za-z_][A-Za-z0-9_.\-]*)\)\s*$")
# what may follow the ";" of a "; or," or "; and," terminator
_CONNECTIVES = {
    "or": Connective.OR,
    "or,": Connective.OR,
    "and": Connective.AND,
    "and,": Connective.AND,
}
_HEADER_KEYS = ("rule", "title", "cites", "group")
_MAX_DEPTH = 100  # clause nesting levels; compiling and printing recurse per level


def _parse_body(body: str, offset: int, file: str) -> dict[str, tuple[Clause, ...]]:
    """Scan the body line by line, nesting each clause by its indentation.

    A clause line is held as ``[indent, label, text, var, explicit
    connective, lineno, children]`` (its column is indent + 1) in the open
    sibling list of its indent; a list is resolved into clauses when a
    shallower line or the end of the body closes it.  A scan error, or a
    clause past ``_MAX_DEPTH`` levels, is raised on the spot.  A line that
    breaks the nesting, or a label repeated among siblings, is held until
    every line has scanned clean: then the earliest section's tree error is
    raised, and in a section a line left of its first line goes before any
    other.
    """
    sections: dict[str, list[list]] = {}  # each section's open sibling lists, innermost last
    held = None  # the tree error to raise: (error, its section, whether a line left of the first)
    name = None  # the current section
    for lineno, raw in enumerate(body.splitlines(), offset):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        indent = len(raw) - len(raw.lstrip(" "))
        if indent == 0 and line in _SECTION_HEADERS:
            last, name = name, _SECTION_HEADERS[line]
            if name in sections:
                raise RuleSyntaxError(f"section {name} given twice", lineno, 1, file)
            if last and SECTIONS.index(name) < SECTIONS.index(last):
                raise RuleSyntaxError(
                    f"section {name} out of order (after {last})", lineno, 1, file
                )
            lists = sections[name] = []
            continue
        if name is None:
            raise RuleSyntaxError(
                "expected section header IF:/EXCEPT:/THEN:/ELSE:", lineno, 1, file
            )
        if indent == 0:
            raise RuleSyntaxError(
                "clause line must be indented under its section", lineno, 1, file
            )
        upper, lower, line = _LABEL_RE.match(line).groups()
        label = upper or lower
        var = None
        # only the last "@var(" can reach the end of the line
        at = line.rfind("@var(")
        m = _VAR_RE.match(line, at) if at >= 0 else None
        if m:
            var = m[1]
            line = line[:at].rstrip()
        # likewise only the last ";" can open a "; or," or "; and," terminator
        head, semicolon, tail = line.rpartition(";")
        explicit = _CONNECTIVES.get(tail.lstrip()) if semicolon else None
        if explicit is not None:
            line = head
        elif line.endswith((";", ".", ":", ",")):
            line = line[:-1]
        text = " ".join(line.split())
        if not text:
            raise RuleSyntaxError("empty clause", lineno, indent + 1, file)
        line = [indent, label, text, var, explicit, lineno, ()]
        if not lists:  # the section's first clause
            lists.append([line])
        elif held is None and indent == lists[-1][0][0]:  # a sibling of the clause above
            lists[-1].append(line)
        elif indent < lists[0][0][0]:  # left of the section's first clause
            if held is None or held[1] == name and not held[2]:
                held = (RuleSyntaxError("unbalanced nesting", lineno, indent + 1, file), name, True)
        elif held is None:
            if indent > lists[-1][0][0]:  # the first child of the clause above
                if len(lists) == _MAX_DEPTH:
                    raise RuleSyntaxError(f"clauses nest more than {_MAX_DEPTH} levels deep",
                                          lineno, indent + 1, file)
                lists.append([line])
                continue
            try:
                _close(lists, indent, file)
            except DuplicateLabelError as exc:
                held = (exc, name, False)
                continue
            if indent == lists[-1][0][0]:
                lists[-1].append(line)
            else:
                held = (RuleSyntaxError("unbalanced nesting", lineno, indent + 1, file), name, False)
    if not sections.get("IF"):
        raise RuleSyntaxError("missing IF section", offset, 1, file)
    if not sections.get("ELSE"):
        raise RuleSyntaxError("missing outcome: rule has no ELSE section", offset, 1, file)
    trees = {}
    for name, lists in sections.items():
        if held is not None and held[1] == name:
            raise held[0]
        if lists:
            _close(lists, lists[0][0][0], file)
        trees[name] = _resolve(lists[0], file) if lists else ()
    # an outcome label given in THEN and in ELSE is reported at its ELSE line
    else_at = {line[1]: line for line in sections["ELSE"][0]}
    for outcome in trees.get("THEN", ()):
        second = else_at.get(outcome.label)
        if outcome.label is not None and second is not None:
            raise DuplicateLabelError(outcome.label, second[5], second[0] + 1, file)
    return trees


def _close(lists: list[list], indent: int, file: str) -> None:
    """Resolve the open sibling lists deeper than ``indent`` into the
    children of the line each hangs from."""
    while indent < lists[-1][0][0]:
        lines = lists.pop()
        lists[-1][-1][6] = _resolve(lines, file)


def _resolve(lines: list[list], file: str) -> tuple[Clause, ...]:
    """Resolve bare connectives against the explicit ones in the list.

    A clause that opens children has no terminator position of its own
    (its line ends in ``:``), so any stray connective written there is
    ignored and the boundary inherits like a bare one.
    """
    if len(lines) == 1:  # most lists: no label to clash, no boundary to resolve
        _, label, text, var, _, _, children = lines[0]
        return (Clause(label, text, var, None, children),)
    seen: set[str] = set()
    for line in lines:
        if line[1] is not None:
            if line[1] in seen:
                raise DuplicateLabelError(line[1], line[5], line[0] + 1, file)
            seen.add(line[1])
    # a boundary takes the nearest explicit connective before it, or failing
    # that the first one in the list, or AND
    explicit = [line[4] for line in lines[:-1] if not line[6] and line[4] is not None]
    carry = explicit[0] if explicit else Connective.AND
    clauses = []
    for _, label, text, var, conn, _, children in lines[:-1]:
        if conn is not None and not children:
            carry = conn
        clauses.append(Clause(label, text, var, carry, children))
    _, label, text, var, _, _, children = lines[-1]
    clauses.append(Clause(label, text, var, None, children))
    return tuple(clauses)


def parse_rule(source: RuleSource) -> RuleAst:
    """Parse one rule body into its clause tree."""
    file = source.path or f"<rule:{source.rule_id}>"
    trees = _parse_body(_prepare(source.text), source.line_offset, file)
    return RuleAst(
        rule_id=source.rule_id,
        if_clauses=trees["IF"],
        except_clauses=trees.get("EXCEPT", ()),
        then_outcomes=trees.get("THEN", ()),
        else_outcomes=trees["ELSE"],
    )


def parse_rule_text(text: str, rule_id: str = "adhoc") -> RuleAst:
    return parse_rule(RuleSource(rule_id=rule_id, text=text))


def file_name(path: str | os.PathLike) -> str:
    """``str(Path(path))``, the spelling sources and error messages use."""
    path = os.fspath(path)
    # Path spells a str name differently only where normpath changes it
    if not isinstance(path, str) or os.path.normpath(path) != path:
        path = str(Path(path))
    return path


def read_bytes(name: str) -> bytes:
    """The bytes of the file ``name``, read unbuffered in one call."""
    with open(name, "rb", buffering=0) as f:
        return f.read()


def decode_text(data: bytes, name: str) -> str:
    """UTF-8 ``data`` as text mode reads it (``\\r\\n`` and ``\\r`` become
    ``\\n``), less one leading byte-order mark (U+FEFF): RFC 8259 lets a
    JSON reader ignore it, and in a rule it would hide the first header.
    Data that is not UTF-8 is a ValueError naming ``name`` and the line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start] + b".").splitlines())  # bytes break at \n, \r\n and \r
        raise ValueError(f"{name}: line {line}: can't decode byte 0x{data[exc.start]:02x} "
                         f"as UTF-8: {exc.reason}") from None
    if text.startswith("\ufeff"):
        text = text[1:]
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def load_rule_file(path: str | Path) -> RuleSource:
    """Read a ``.rule`` file: header lines, blank line, DSL body."""
    path = file_name(path)
    return rule_source(decode_text(read_bytes(path), path), path)


def rule_source(text: str, path: str) -> RuleSource:
    """The rule in ``text``, read from the ``.rule`` file ``path``: header
    lines, blank line, DSL body."""
    lines = _prepare(text).splitlines()
    header: dict[str, str] = {}
    citations: list[str] = []
    i = len(lines)
    for i, line in enumerate(lines):
        stripped = line.strip()
        if not stripped or stripped[0] == "#":
            continue
        key, colon, value = stripped.partition(":")
        if not colon or key not in _HEADER_KEYS:
            break
        if key == "cites":
            citations.append(value.strip())
        elif key in header:
            raise RuleSyntaxError(f"header '{key}' given twice", i + 1, 1, path)
        else:
            header[key] = value.strip()
    else:
        i = len(lines)
    if not header.get("rule"):
        raise RuleSyntaxError("missing 'rule:' header", 1, 1, path)
    return RuleSource(
        rule_id=header["rule"],
        title=header.get("title", ""),
        text="\n".join(lines[i:]),
        citations=tuple(citations),
        path=path,
        line_offset=i + 1,
        group=header.get("group"),
    )


# --- printing ---------------------------------------------------------------

_INDENT = "    "


def pretty_print(ast: RuleAst) -> str:
    """Emit canonical DSL text; ``parse_rule`` of the result reproduces ``ast``."""
    out: list[str] = []
    for name, clauses in (
        ("IF", ast.if_clauses),
        ("EXCEPT", ast.except_clauses),
        ("THEN", ast.then_outcomes),
        ("ELSE", ast.else_outcomes),
    ):
        if not clauses:
            continue
        out.append(f"{name}:")
        for i, clause in enumerate(clauses):
            _emit(out, clause, 1, i == len(clauses) - 1)
    return "\n".join(out) + "\n"


def _emit(out: list[str], clause: Clause, depth: int, last: bool) -> None:
    """Append the lines of ``clause`` and its children to ``out``."""
    marker = ""
    if clause.label is not None:
        marker = f"[{clause.label}] " if clause.label.isupper() else f"{clause.label}. "
    if clause.children:
        term = ":"
    elif last or clause.connective is None:
        term = "."
    else:
        term = "; or," if clause.connective == Connective.OR else "; and,"
    var = f" @var({clause.var})" if clause.var else ""
    out.append(f"{_INDENT * depth}{marker}{clause.text}{term}{var}")
    for i, child in enumerate(clause.children):
        _emit(out, child, depth + 1, i == len(clause.children) - 1)


# --- variable assignment ----------------------------------------------------

def is_guard(clause: Clause) -> bool:
    """Outcome children introduced by "Where" act as guard conditions."""
    head = clause.text.lower()
    return head == "where" or head.startswith("where ")


def keyed(path: str, clauses: tuple[Clause, ...]) -> list[tuple[Clause, str]]:
    """Each of ``clauses`` with its clause path: ``path``, a dot, then the
    clause's label, or its 1-based position among all its siblings when it
    has no label (``IF.A.a``, ``ELSE.1.1``)."""
    pairs = []
    position = 0  # a loop with a counter: cheaper than a comprehension over enumerate
    for clause in clauses:
        position += 1
        pairs.append((clause, f"{path}.{position if clause.label is None else clause.label}"))
    return pairs


def assign_variables(ast: RuleAst) -> VariableTable:
    """Name every condition unit and outcome of the rule.

    Explicit ``@var`` annotations take precedence over generated
    ``<rule_id>.<path>`` ids.  An annotated clause is variabilised as a
    single unit even if it has children.
    """
    table = VariableTable(rule_id=ast.rule_id)
    for clause, path in keyed("IF", ast.if_clauses):
        _assign_condition(table, clause, path, VarKind.FACTUAL)
    for clause, path in keyed("EXCEPT", ast.except_clauses):
        _assign_condition(table, clause, path, VarKind.SITUATION)
    outcomes = keyed("THEN", ast.then_outcomes) + keyed("ELSE", ast.else_outcomes)
    for outcome, path in outcomes:
        for child, child_path in keyed(path, outcome.children):
            if is_guard(child):
                _assign_condition(table, child, child_path, VarKind.SITUATION)
    for outcome, path in outcomes:
        _add_variable(table, outcome.var or f"{ast.rule_id}.{path}", VarKind.DECISION,
                      outcome.text, path)
    return table


def _assign_condition(table: VariableTable, clause: Clause, path: str, kind: VarKind) -> None:
    """Name the condition units of ``clause`` at ``path``, depth first."""
    if clause.var is not None or not clause.children:
        _add_variable(table, clause.var or f"{table.rule_id}.{path}", kind, clause.text, path)
        return
    for child, child_path in keyed(path, clause.children):
        _assign_condition(table, child, child_path, kind)


def _add_variable(table: VariableTable, var_id: str, kind: VarKind, description: str,
                  path: str) -> None:
    existing = table.variables.get(var_id)
    if existing is not None and existing.description != description:
        raise NamingConflictError(
            var_id, f"'{existing.description}' vs '{description}'"
        )
    if existing is None:
        table.variables[var_id] = Variable(var_id, kind, description)
    table.paths[path] = var_id
