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
Nesting is by indentation.  A clause line is an optional marker (``[A]`` at
the top of a section, ``a.`` / ``i.`` below), free text, an optional
``@var(name)`` annotation, and a terminator.  ``; or,`` and ``; and,``
terminators state the connective to the next sibling; a bare ``;`` or ``.``
inherits the nearest explicit connective in the same sibling list
(preceding first, then following), defaulting to AND.  A trailing ``:``
introduces children.

A ``@var`` annotation names the variable a clause compiles to.  On a clause
with children it also fixes the granularity of variabilisation: the clause
becomes a single variable and its children remain as descriptive detail
only.  Without an annotation, a leaf clause is one variable and a parent is
the connective-fold of its children.

``.rule`` files carry a small header before the body: ``rule: <id>``,
``title: <text>``, repeatable ``cites: <text>`` lines and an optional
``group: <rule group>`` line, then a blank line.  Lines starting with
``#`` are comments.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path


class Connective(Enum):
    AND = "and"
    OR = "or"


class VarKind(Enum):
    FACTUAL = "factual"
    SITUATION = "situation"
    DECISION = "decision"


SECTIONS = ("IF", "EXCEPT", "THEN", "ELSE")


class RuleSyntaxError(Exception):
    """Malformed rule text, with the position the parse failed at."""

    def __init__(self, message: str, line: int = 0, col: int = 0, file: str = "<rule>"):
        self.message = message
        self.line = line
        self.col = col
        self.file = file
        super().__init__(f"{file}:{line}:{col}: error: {message}")


class DuplicateLabelError(RuleSyntaxError):
    def __init__(self, label: str, line: int = 0, col: int = 0, file: str = "<rule>"):
        self.label = label
        super().__init__(f"duplicate label '{label}'", line, col, file)


class NamingConflictError(Exception):
    """Two clauses with different text were mapped to the same variable id."""

    def __init__(self, var_id: str, detail: str = ""):
        self.var_id = var_id
        super().__init__(f"naming conflict on '{var_id}'" + (f": {detail}" if detail else ""))


@dataclass(frozen=True)
class RuleSource:
    """One rule as shipped: id, title, citation list, DSL body text and
    the rule group whose checklist it belongs to, if any."""

    rule_id: str
    title: str = ""
    text: str = ""
    citations: tuple[str, ...] = ()
    path: str | None = None
    line_offset: int = 1  # file line number of the first body line
    group: str | None = None


@dataclass(frozen=True)
class Clause:
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


@dataclass(frozen=True)
class RuleAst:
    rule_id: str
    if_clauses: tuple[Clause, ...]
    except_clauses: tuple[Clause, ...] = ()
    then_outcomes: tuple[Clause, ...] = ()
    else_outcomes: tuple[Clause, ...] = ()


@dataclass(frozen=True)
class Variable:
    id: str
    kind: VarKind
    description: str


@dataclass
class VariableTable:
    """Variables of one rule plus the clause paths they came from.

    ``paths`` maps clause paths like ``IF.A.a`` or ``ELSE.Y`` to variable
    ids; ``variables`` is insertion-ordered (conditions in document order,
    then decisions).
    """

    rule_id: str
    variables: dict[str, Variable] = field(default_factory=dict)
    paths: dict[str, str] = field(default_factory=dict)

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
    return unicodedata.normalize("NFC", text).translate(_PUNCT_FOLD)


_SECTION_RE = re.compile(r"^(IF|EXCEPT|THEN|ELSE):\s*$")
_BRACKET_RE = re.compile(r"^\[([A-Z])\]\s*")
_MARKER_RE = re.compile(r"^([a-z]+)\.\s+")
_VAR_RE = re.compile(r"\s*@var\(([A-Za-z_][A-Za-z0-9_.\-]*)\)\s*$")
_TERM_RE = re.compile(r";\s*(or|and)\b,?\s*$")


@dataclass
class _Line:
    indent: int
    label: str | None
    text: str
    var: str | None
    explicit: Connective | None
    lineno: int
    col: int


def _scan_body(body: str, offset: int, file: str) -> dict[str, list[_Line]]:
    """Split the body into sections of clause lines (still flat)."""
    sections: dict[str, list[_Line]] = {}
    current: str | None = None
    for i, raw in enumerate(body.splitlines()):
        lineno = offset + i
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        indent = len(raw) - len(raw.lstrip(" "))
        line = raw.strip()
        m = _SECTION_RE.match(line)
        if m and indent == 0:
            name = m.group(1)
            if name in sections:
                raise RuleSyntaxError(f"section {name} given twice", lineno, 1, file)
            order = [s for s in SECTIONS if s in sections]
            if order and SECTIONS.index(name) < SECTIONS.index(order[-1]):
                raise RuleSyntaxError(
                    f"section {name} out of order (after {order[-1]})", lineno, 1, file
                )
            sections[name] = []
            current = name
            continue
        if current is None:
            raise RuleSyntaxError(
                "expected section header IF:/EXCEPT:/THEN:/ELSE:", lineno, 1, file
            )
        if indent == 0:
            raise RuleSyntaxError(
                "clause line must be indented under its section", lineno, 1, file
            )
        sections[current].append(_parse_line(line, indent, lineno, file))
    if "IF" not in sections or not sections["IF"]:
        raise RuleSyntaxError("missing IF section", offset, 1, file)
    if "ELSE" not in sections or not sections["ELSE"]:
        raise RuleSyntaxError("missing outcome: rule has no ELSE section", offset, 1, file)
    return sections


def _parse_line(line: str, indent: int, lineno: int, file: str) -> _Line:
    col = indent + 1
    label = None
    rest = line
    m = _BRACKET_RE.match(rest)
    if m:
        label = m.group(1)
        rest = rest[m.end():]
    else:
        m = _MARKER_RE.match(rest)
        if m:
            label = m.group(1)
            rest = rest[m.end():]
    var = None
    m = _VAR_RE.search(rest)
    if m:
        var = m.group(1)
        rest = rest[: m.start()]
    rest = rest.rstrip()
    explicit = None
    m = _TERM_RE.search(rest)
    if m:
        explicit = Connective.OR if m.group(1) == "or" else Connective.AND
        rest = rest[: m.start()]
    elif rest.endswith((";", ".", ":", ",")):
        rest = rest[:-1]
    text = re.sub(r"\s+", " ", rest).strip()
    if not text:
        raise RuleSyntaxError("empty clause", lineno, col, file)
    return _Line(indent, label, text, var, explicit, lineno, col)


def _build_tree(lines: list[_Line], file: str) -> tuple[Clause, ...]:
    pos = 0

    def parse_siblings(indent: int) -> tuple[Clause, ...]:
        nonlocal pos
        items: list[tuple[_Line, tuple[Clause, ...]]] = []
        while pos < len(lines) and lines[pos].indent == indent:
            line = lines[pos]
            pos += 1
            children: tuple[Clause, ...] = ()
            if pos < len(lines) and lines[pos].indent > indent:
                children = parse_siblings(lines[pos].indent)
            items.append((line, children))
        if pos < len(lines) and lines[pos].indent > indent:
            bad = lines[pos]
            raise RuleSyntaxError("unbalanced nesting", bad.lineno, bad.col, file)
        return _resolve(items, file)

    first = lines[0].indent
    if any(l.indent < first for l in lines):
        bad = next(l for l in lines if l.indent < first)
        raise RuleSyntaxError("unbalanced nesting", bad.lineno, bad.col, file)
    clauses = parse_siblings(first)
    if pos != len(lines):
        bad = lines[pos]
        raise RuleSyntaxError("unbalanced nesting", bad.lineno, bad.col, file)
    return clauses


def _resolve(items: list[tuple[_Line, tuple[Clause, ...]]], file: str) -> tuple[Clause, ...]:
    """Resolve bare connectives against the explicit ones in the list.

    A clause that opens children has no terminator position of its own
    (its line ends in ``:``), so any stray connective written there is
    ignored and the boundary inherits like a bare one.
    """
    seen: set[str] = set()
    for line, _ in items:
        if line.label is not None:
            if line.label in seen:
                raise DuplicateLabelError(line.label, line.lineno, line.col, file)
            seen.add(line.label)
    conns: list[Connective | None] = [
        None if children else line.explicit for line, children in items[:-1]
    ]
    carry: Connective | None = None
    for i, c in enumerate(conns):
        if c is None:
            conns[i] = carry
        else:
            carry = c
    carry = None
    for i in reversed(range(len(conns))):
        if conns[i] is None:
            conns[i] = carry
        else:
            carry = conns[i]
    conns = [c or Connective.AND for c in conns]
    out = []
    for i, (line, children) in enumerate(items):
        conn = conns[i] if i < len(items) - 1 else None
        out.append(Clause(line.label, line.text, line.var, conn, children))
    return tuple(out)


def parse_rule(source: RuleSource) -> RuleAst:
    """Parse one rule body into its clause tree."""
    file = source.path or f"<rule:{source.rule_id}>"
    body = _prepare(source.text)
    sections = _scan_body(body, source.line_offset, file)
    trees = {
        name: _build_tree(lines, file) if lines else ()
        for name, lines in sections.items()
    }
    outcomes = list(trees.get("THEN", ())) + list(trees.get("ELSE", ()))
    labels = [c.label for c in outcomes if c.label is not None]
    for label in labels:
        if labels.count(label) > 1:
            raise DuplicateLabelError(label, file=file)
    return RuleAst(
        rule_id=source.rule_id,
        if_clauses=trees["IF"],
        except_clauses=trees.get("EXCEPT", ()),
        then_outcomes=trees.get("THEN", ()),
        else_outcomes=trees["ELSE"],
    )


def parse_rule_text(text: str, rule_id: str = "adhoc") -> RuleAst:
    return parse_rule(RuleSource(rule_id=rule_id, text=text))


def load_rule_file(path: str | Path) -> RuleSource:
    """Read a ``.rule`` file: header lines, blank line, DSL body."""
    path = Path(path)
    raw = _prepare(path.read_text(encoding="utf-8"))
    rule_id = ""
    title = ""
    citations: list[str] = []
    group = None
    lines = raw.splitlines()
    i = len(lines)
    for i, line in enumerate(lines):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        m = re.match(r"^(rule|title|cites|group):\s*(.*)$", stripped)
        if not m:
            break
        key, value = m.group(1), m.group(2).strip()
        if key == "rule":
            rule_id = value
        elif key == "title":
            title = value
        elif key == "group":
            group = value
        else:
            citations.append(value)
    else:
        i = len(lines)
    if not rule_id:
        raise RuleSyntaxError("missing 'rule:' header", 1, 1, str(path))
    body = "\n".join(lines[i:])
    return RuleSource(
        rule_id=rule_id,
        title=title,
        text=body,
        citations=tuple(citations),
        path=str(path),
        line_offset=i + 1,
        group=group,
    )


# --- printing ---------------------------------------------------------------

_INDENT = "    "


def pretty_print(ast: RuleAst) -> str:
    """Emit canonical DSL text; ``parse_rule`` of the result reproduces ``ast``."""
    out: list[str] = []

    def emit(clause: Clause, depth: int, last: bool) -> None:
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
            emit(child, depth + 1, i == len(clause.children) - 1)

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
            emit(clause, 1, i == len(clauses) - 1)
    return "\n".join(out) + "\n"


# --- variable assignment ----------------------------------------------------

def is_guard(clause: Clause) -> bool:
    """Outcome children introduced by "Where" act as guard conditions."""
    head = clause.text.lower()
    return head == "where" or head.startswith("where ")


def clause_path(section: str, labels: tuple[str, ...]) -> str:
    return ".".join((section,) + labels)


def _child_key(clause: Clause, index: int) -> str:
    return clause.label if clause.label is not None else str(index + 1)


def assign_variables(ast: RuleAst) -> VariableTable:
    """Name every condition unit and outcome of the rule.

    Explicit ``@var`` annotations take precedence over generated
    ``<rule_id>.<path>`` ids.  An annotated clause is variabilised as a
    single unit even if it has children.
    """
    table = VariableTable(rule_id=ast.rule_id)

    def add(var_id: str, kind: VarKind, description: str, path: str) -> None:
        existing = table.variables.get(var_id)
        if existing is not None and existing.description != description:
            raise NamingConflictError(
                var_id, f"'{existing.description}' vs '{description}'"
            )
        if existing is None:
            table.variables[var_id] = Variable(var_id, kind, description)
        table.paths[path] = var_id

    def assign_condition(clause: Clause, path: str, kind: VarKind) -> None:
        if clause.var is not None or not clause.children:
            add(clause.var or f"{ast.rule_id}.{path}", kind, clause.text, path)
            return
        for i, child in enumerate(clause.children):
            assign_condition(child, f"{path}.{_child_key(child, i)}", kind)

    for i, clause in enumerate(ast.if_clauses):
        assign_condition(clause, clause_path("IF", (_child_key(clause, i),)), VarKind.FACTUAL)
    for i, clause in enumerate(ast.except_clauses):
        assign_condition(
            clause, clause_path("EXCEPT", (_child_key(clause, i),)), VarKind.SITUATION
        )
    for section, outcomes in (("THEN", ast.then_outcomes), ("ELSE", ast.else_outcomes)):
        for i, outcome in enumerate(outcomes):
            path = clause_path(section, (_child_key(outcome, i),))
            for j, child in enumerate(outcome.children):
                if is_guard(child):
                    assign_condition(
                        child, f"{path}.{_child_key(child, j)}", VarKind.SITUATION
                    )
    for section, outcomes in (("THEN", ast.then_outcomes), ("ELSE", ast.else_outcomes)):
        for i, outcome in enumerate(outcomes):
            path = clause_path(section, (_child_key(outcome, i),))
            add(outcome.var or f"{ast.rule_id}.{path}", VarKind.DECISION, outcome.text, path)
    return table
