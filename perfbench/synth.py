"""Seeded synthetic rule family and a small formula toolkit.

Everything here is independent of lexroad: the generator writes rule text
in the notation, derives the golden equations from its own formula, and
evaluates, Kleene-evaluates and prices (closed-form posterior) each decision
itself.  The benchmark uses these as oracles for lexroad's outputs.

Formulas are nested tuples: ``("var", name)``, ``("not", f)``,
``("and", (f, ...))`` and ``("or", (f, ...))``.

Three shapes, each a read-once formula over groups that share no inputs:

* ``wide-or``: one clause ``[A]`` that is the OR of every input.
* ``nested-except``: ``[A] ∧ [B]`` with AND/OR sub-lists nested inside,
  an exception ``[C]``, one THEN and one ELSE outcome.
* ``else-guards``: antecedent ``[A]`` (and ``[B]`` when wide), an
  exception ``[C]``, an unguarded THEN outcome and two or three ELSE
  outcomes, each with its own ``Where`` guard.

Group sizes and connectives depend only on the shape and the input count,
and input names ascend in clause order, so a seed changes the names and
priors of the inputs, but not the amount of work.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

SHAPES = ("wide-or", "nested-except", "else-guards")

Formula = tuple


def var(name: str) -> Formula:
    return ("var", name)


def neg(f: Formula) -> Formula:
    return ("not", f)


def join(op: str, parts: list[Formula]) -> Formula:
    return parts[0] if len(parts) == 1 else (op, tuple(parts))


def variables(f: Formula) -> list[str]:
    if f[0] == "var":
        return [f[1]]
    if f[0] == "not":
        return variables(f[1])
    return [v for part in f[1] for v in variables(part)]


def evaluate(f: Formula, env: dict[str, bool]) -> bool:
    kind = f[0]
    if kind == "var":
        return env[f[1]]
    if kind == "not":
        return not evaluate(f[1], env)
    if kind == "and":
        return all(evaluate(p, env) for p in f[1])
    return any(evaluate(p, env) for p in f[1])


def kleene(f: Formula, env: dict[str, bool]) -> bool | None:
    """Three-valued evaluation; exact forcing for read-once formulas."""
    kind = f[0]
    if kind == "var":
        return env.get(f[1])
    if kind == "not":
        value = kleene(f[1], env)
        return None if value is None else not value
    values = [kleene(p, env) for p in f[1]]
    absorbing = kind == "or"  # TRUE absorbs an OR, FALSE an AND
    if absorbing in values:
        return absorbing
    return None if None in values else not absorbing


def probability(f: Formula, p: dict[str, float]) -> float:
    """P(f) for a read-once formula over independent inputs."""
    kind = f[0]
    if kind == "var":
        return p[f[1]]
    if kind == "not":
        return 1.0 - probability(f[1], p)
    product = 1.0
    if kind == "and":
        for part in f[1]:
            product *= probability(part, p)
        return product
    for part in f[1]:
        product *= 1.0 - probability(part, p)
    return 1.0 - product


def to_text(f: Formula) -> str:
    def wrap(g: Formula) -> str:
        return f"({to_text(g)})" if g[0] in ("and", "or") else to_text(g)

    if f[0] == "var":
        return f[1]
    if f[0] == "not":
        return "¬" + wrap(f[1])
    op = " ∧ " if f[0] == "and" else " ∨ "
    return op.join(wrap(p) for p in f[1])


_TOKEN = re.compile(r"\s*(?:([()¬∧∨])|([A-Za-z_][A-Za-z0-9_.\-]*))")


def parse(text: str) -> Formula:
    """Parse one expression written with ∧ ∨ ¬ and parentheses."""
    tokens: list[str] = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad expression at {text[pos:]!r}")
        tokens.append(m.group(1) or m.group(2))
        pos = m.end()
    tokens.append("")
    i = 0

    def binary(op_char: str, op: str, inner) -> Formula:
        nonlocal i
        parts = [inner()]
        while tokens[i] == op_char:
            i += 1
            parts.append(inner())
        return join(op, parts)

    def unary() -> Formula:
        nonlocal i
        tok = tokens[i]
        i += 1
        if tok == "¬":
            return neg(unary())
        if tok == "(":
            inner = disjunction()
            if tokens[i] != ")":
                raise ValueError(f"missing ')' in {text!r}")
            i += 1
            return inner
        if not tok or tok in "()∧∨":
            raise ValueError(f"unexpected {tok or 'end'!r} in {text!r}")
        return var(tok)

    def conjunction() -> Formula:
        return binary("∧", "and", unary)

    def disjunction() -> Formula:
        return binary("∨", "or", conjunction)

    result = disjunction()
    if tokens[i]:
        raise ValueError(f"trailing {tokens[i]!r} in {text!r}")
    return result


def parse_equations(text: str) -> dict[str, Formula]:
    """``decision = expr`` lines; references to earlier decisions expanded."""
    equations: dict[str, Formula] = {}

    def expand(f: Formula) -> Formula:
        if f[0] == "var":
            return equations.get(f[1], f)
        if f[0] == "not":
            return neg(expand(f[1]))
        return (f[0], tuple(expand(p) for p in f[1]))

    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        lhs, sep, rhs = line.partition("=")
        if not sep:
            raise ValueError(f"expected 'decision = expression': {line!r}")
        equations[lhs.strip()] = expand(parse(rhs))
    return equations


# --- the rule family ------------------------------------------------------------

@dataclass
class SynthRule:
    """One generated rule: clause trees plus everything derived from them.

    A clause tree is an input name (a leaf) or ``(op, [subtrees])``.
    """

    shape: str
    n: int
    rule_id: str
    stem: str
    antecedent: list[tuple[str, object]]  # (label, tree), AND-joined
    exception: tuple[str, object] | None
    then: list[tuple[str, object | None]]  # (decision, guard tree)
    otherwise: list[tuple[str, object | None]]
    priors: dict[str, float] = field(default_factory=dict)

    def group(self, tree) -> Formula:
        if isinstance(tree, str):
            return var(tree)
        op, subtrees = tree
        return join(op, [self.group(t) for t in subtrees])

    def folds(self) -> dict[str, Formula]:
        """Bracket-labelled compound clauses, keyed by label."""
        labelled = list(self.antecedent) + ([self.exception] if self.exception else [])
        return {label: self.group(t) for label, t in labelled if not isinstance(t, str)}

    def antecedent_formula(self) -> Formula:
        return join("and", [self.group(t) for _, t in self.antecedent])

    def decisions(self) -> dict[str, Formula]:
        base = self.antecedent_formula()
        exc = self.group(self.exception[1]) if self.exception else None
        out: dict[str, Formula] = {}
        for section, branch in ((self.then, True), (self.otherwise, False)):
            for decision, guard in section:
                parts = [base]
                if exc is not None:
                    parts.append(exc if branch else neg(exc))
                if guard is not None:
                    parts.append(self.group(guard))
                out[decision] = join("and", parts)
        return out

    def groups(self) -> list[list[str]]:
        """Inputs of each clause group, in clause order."""
        trees = [t for _, t in self.antecedent]
        if self.exception:
            trees.append(self.exception[1])
        trees += [g for _, g in self.then + self.otherwise if g is not None]
        return [variables(self.group(tree)) for tree in trees]

    def inputs(self) -> list[str]:
        return [v for group in self.groups() for v in group]

    def expected_properties(self) -> tuple[dict[tuple[str, str], bool], bool]:
        """Pairwise exclusion and coverage of the antecedent, from structure.

        Groups are disjoint and each is satisfiable and falsifiable, so two
        decisions can fire together exactly when they sit on the same side
        of the exception, and the antecedent is covered exactly when each
        side that can occur has an unguarded outcome.
        """
        side = {d: True for d, _ in self.then}
        side.update({d: False for d, _ in self.otherwise})
        names = list(side)
        exclusive = {
            (a, b): side[a] != side[b]
            for i, a in enumerate(names) for b in names[i + 1:]
        }

        def covered(section) -> bool:
            return any(guard is None for _, guard in section)

        exhaustive = covered(self.otherwise) and (
            self.exception is None or covered(self.then)
        )
        return exclusive, exhaustive

    def golden(self) -> str:
        return "".join(
            f"{d} = {to_text(f)}\n" for d, f in self.decisions().items()
        )

    def text(self) -> str:
        lines = [
            f"# Synthetic {self.shape} rule with {self.n} inputs.",
            f"rule: {self.rule_id}",
            f"title: Synthetic {self.shape} rule over {self.n} inputs",
            "cites: Generated benchmark input",
            "",
            "IF:",
        ]
        for i, (label, tree) in enumerate(self.antecedent):
            last = i == len(self.antecedent) - 1
            lines += _clause(f"[{label}]", f"Condition group {label} holds", tree, 1,
                             None if last else "and")
        if self.exception:
            lines.append("EXCEPT:")
            label, tree = self.exception
            lines += _clause(f"[{label}]", "Where the exception applies", tree, 1, None)
        for section, outcomes in (("THEN", self.then), ("ELSE", self.otherwise)):
            if not outcomes:
                continue
            lines.append(f"{section}:")
            for decision, guard in outcomes:
                head = f"    [{_OUTCOME_LABELS[decision]}] Outcome {decision} applies"
                if guard is None:
                    lines.append(f"{head}. @var({decision})")
                    continue
                lines.append(f"{head}: @var({decision})")
                if isinstance(guard, str):
                    lines.append(f"        a. Where fact {guard} holds. @var({guard})")
                else:
                    lines.append("        a. Where:")
                    lines += _children(guard, 3)
        return "\n".join(lines) + "\n"


_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_ROMAN = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x",
          "xi", "xii", "xiii", "xiv", "xv", "xvi", "xvii", "xviii", "xix", "xx")


# Outcome labels must differ within THEN/ELSE; decisions keep their own names.
_OUTCOME_LABELS = {"X": "X", "Y": "Y", "Y1": "Y", "Y2": "Z", "Y3": "W"}


def _term(conn: str | None) -> str:
    return "." if conn is None else f"; {conn},"


def _clause(marker: str, text: str, tree, depth: int, conn: str | None) -> list[str]:
    pad = "    " * depth
    if isinstance(tree, str):
        return [f"{pad}{marker} Fact {tree} holds{_term(conn)} @var({tree})"]
    return [f"{pad}{marker} {text}:"] + _children(tree, depth + 1)


def _children(tree, depth: int) -> list[str]:
    op, subtrees = tree
    markers = _LETTERS if depth % 2 == 0 else _ROMAN
    lines: list[str] = []
    for i, sub in enumerate(subtrees):
        conn = None if i == len(subtrees) - 1 else op
        title = "Any of" if not isinstance(sub, str) and sub[0] == "or" else "All of"
        lines += _clause(f"{markers[i]}.", title, sub, depth, conn)
    return lines


def _group(names: list[str], op: str):
    """A clause tree over ``names``: a flat list, with a nested sub-list of
    the other connective placed last once the group has four inputs."""
    if len(names) == 1:
        return names[0]
    if len(names) < 4:
        return (op, list(names))
    inner = max(2, len(names) // 3)
    other = "or" if op == "and" else "and"
    return (op, list(names[:-inner]) + [(other, list(names[-inner:]))])


def _sizes(shape: str, n: int) -> dict:
    if shape == "wide-or":
        return {"groups": [n], "exception": 0, "guards": []}
    if shape == "nested-except":
        c = max(2, n // 4)
        rest = n - c
        return {"groups": [(rest + 1) // 2, rest // 2], "exception": c, "guards": []}
    m = 2 if n < 12 else 3
    g = 1 if n < 10 else 2
    c = max(1, n // 6)
    rest = n - m * g - c
    groups = [rest] if rest <= 8 else [(rest + 1) // 2, rest // 2]
    return {"groups": groups, "exception": c, "guards": [g] * m}


def generate(shape: str, n: int, rng: random.Random) -> SynthRule:
    """One rule of ``shape`` with ``n`` inputs, drawn from ``rng``."""
    if shape not in SHAPES:
        raise ValueError(f"unknown shape {shape!r}")
    sizes = _sizes(shape, n)
    # Names in ascending order: lexroad orders operands by their text, and
    # the order in which its evaluators meet the inputs sets their cost.
    names = [f"v{k:03d}" for k in sorted(rng.sample(range(1000), n))]
    take = iter(names)

    def draw(k: int) -> list[str]:
        return [next(take) for _ in range(k)]

    alternate = ("or", "and")
    antecedent = [
        ("ABD"[i], _group(draw(k), alternate[i % 2]))
        for i, k in enumerate(sizes["groups"])
    ]
    exception = ("C", _group(draw(sizes["exception"]), "or")) if sizes["exception"] else None
    if shape == "else-guards":
        then = [("X", None)]
        otherwise = [(f"Y{j + 1}", _group(draw(g), alternate[(j + 1) % 2]))
                     for j, g in enumerate(sizes["guards"])]
    elif shape == "nested-except":
        then, otherwise = [("X", None)], [("Y", None)]
    else:
        then, otherwise = [], [("Y", None)]
    tag = shape.split("-")[0].upper()
    return SynthRule(
        shape=shape,
        n=n,
        rule_id=f"SYN-{tag}-{n}",
        stem=f"syn-{shape}-{n}",
        antecedent=antecedent,
        exception=exception,
        then=then,
        otherwise=otherwise,
        priors={v: round(rng.uniform(0.2, 0.8), 3) for v in names},
    )


def family(sizes: dict[str, tuple[int, ...]], seed: int) -> list[SynthRule]:
    """Every (shape, size) pair, each rule drawn from its own seeded stream."""
    return [
        generate(shape, n, random.Random(f"{seed}:{shape}:{n}"))
        for shape, counts in sizes.items()
        for n in counts
    ]
