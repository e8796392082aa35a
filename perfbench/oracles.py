"""Output checks that do not rely on lexroad.

Each ``check_*`` function returns ``None`` when an output is right and a
one-line reason when it is not.  Expected values come from hand-entered
files of the repository (the golden capability matrix and golden ``.beq``
equations) or from the synthetic generator's own formulas.
"""

from __future__ import annotations

import itertools
import json
import re

import synth

MARKS = {"MET": "✓", "UNMET": "✗", "NOT_APPLICABLE": "N/A"}
POSTERIOR_TOLERANCE = 1e-9


# --- truth by brute force over small input sets --------------------------------

def assignments(inputs: list[str]):
    for values in itertools.product((True, False), repeat=len(inputs)):
        yield dict(zip(inputs, values))


def forced(f: synth.Formula, facts: dict[str, bool], inputs: list[str]) -> bool | None:
    """TRUE/FALSE when every completion of the facts agrees, else UNKNOWN."""
    free = [v for v in inputs if v not in facts]
    seen = {synth.evaluate(f, {**facts, **rest}) for rest in assignments(free)}
    return seen.pop() if len(seen) == 1 else None


def posterior(f: synth.Formula, evidence: dict[str, bool], inputs: list[str]) -> float:
    """P(f | evidence) with every input an independent fair coin."""
    free = [v for v in inputs if v not in evidence]
    hits = sum(synth.evaluate(f, {**evidence, **rest}) for rest in assignments(free))
    return hits / 2 ** len(free)


def verdict_name(value: bool | None) -> str:
    return "UNKNOWN" if value is None else ("TRUE" if value else "FALSE")


# --- capability matrix ------------------------------------------------------------

def _table(lines: list[str]) -> tuple[list[str], list[list[str]]]:
    """Header cells and rows of one fixed-width table (dash line second)."""
    spans = [m.span() for m in re.finditer(r"-+", lines[1])]

    def cells(line: str) -> list[str]:
        return [line[a:(spans[i + 1][0] if i + 1 < len(spans) else None)].strip()
                for i, (a, _) in enumerate(spans)]

    return cells(lines[0]), [cells(line) for line in lines[2:]]


def parse_matrix(text: str) -> tuple[list[str], list[tuple], list[tuple]]:
    """(vehicle names, requirement rows, rating rows) of the golden matrix."""
    lines = text.splitlines()
    start = lines.index("Capability evaluation matrix") + 2
    legend = next(i for i, line in enumerate(lines) if line.startswith("Legend:"))
    head, rows = _table(lines[start:legend - 1])
    ratings_at = lines.index("Traffic-light ratings") + 2
    end = next((i for i in range(ratings_at, len(lines)) if not lines[i]), len(lines))
    _, rating_rows = _table(lines[ratings_at:end])
    requirements, group = [], ""
    for row in rows:
        group = row[0] or group
        requirements.append((group, *row[1:]))
    return head[2:], requirements, [tuple(r) for r in rating_rows]


def check_matrix_json(text: str, golden: str) -> str | None:
    report = json.loads(text)
    names, rows, ratings = parse_matrix(golden)
    vehicles = [p["vehicle_id"] for p in report["inputs"]["profiles"]]
    got_names = [p["display_name"] for p in report["inputs"]["profiles"]]
    if got_names != names:
        return f"profiles {got_names} != {names}"
    got_rows = [
        (r["rule_group"], r["description"],
         *(MARKS[report["answers"][v][r["id"]]] for v in vehicles))
        for r in report["requirements"]
    ]
    if got_rows != rows:
        return "requirement rows differ from the golden matrix"
    groups = [r[0] for r in ratings]
    got_ratings = [
        (g, *(report["ratings"][v][g]["rating"] for v in vehicles)) for g in groups
    ]
    if got_ratings != ratings:
        return "traffic-light ratings differ from the golden matrix"
    return None


# --- rule outputs -----------------------------------------------------------------

def from_ascii(text: str) -> str:
    """Equations printed with ``--ascii`` in the ∧ ∨ ¬ operator set."""
    return text.translate(str.maketrans({"&": "∧", "|": "∨", "!": "¬"}))


def check_equations(text: str, expected: dict[str, synth.Formula], samples) -> str | None:
    """Compiled equations agree with the expected ones on every sample."""
    try:
        got = synth.parse_equations(text)
    except ValueError as exc:
        return f"unparsable equations: {exc}"
    if list(got) != list(expected):
        return f"decisions {list(got)} != {list(expected)}"
    for env in samples:
        for decision, f in expected.items():
            if synth.evaluate(got[decision], env) != synth.evaluate(f, env):
                return f"{decision} differs at {env}"
    return None


_VERDICT_RE = re.compile(r"^(\S+): (TRUE|FALSE|UNKNOWN) \(")


def check_eval_listing(text: str, expected: dict[str, bool | None]) -> str | None:
    got = {}
    for line in text.splitlines():
        m = _VERDICT_RE.match(line)
        if not m:
            return f"bad eval line {line!r}"
        got[m.group(1)] = m.group(2)
    want = {d: verdict_name(v) for d, v in expected.items()}
    return None if got == want else f"verdicts {got} != {want}"


_POSTERIOR_RE = re.compile(r"^P\((\S+)=true\) = ([0-9.]+)$")


def check_posterior_listing(text: str, expected: dict[str, float]) -> str | None:
    got = {}
    for line in text.splitlines():
        m = _POSTERIOR_RE.match(line)
        if not m:
            return f"bad posterior line {line!r}"
        got[m.group(1)] = float(m.group(2))
    if list(got) != list(expected):
        return f"decisions {list(got)} != {list(expected)}"
    for d, p in expected.items():
        # the CLI prints nine decimals, so allow its rounding on top
        if abs(got[d] - p) > POSTERIOR_TOLERANCE + 5e-10:
            return f"P({d}) = {got[d]} but closed form gives {p}"
    return None


_VALIDATED_RE = re.compile(
    r"^rule (\S+): (\d+)/(\d+) equations validated over (\d+) assignments \[(\w+)\]$"
)


def check_validation(text: str, expected: list[tuple[str, int, int]]) -> str | None:
    """``bn`` validation: per rule (rule id, equations, assignments), all ok."""
    lines = text.splitlines()
    if len(lines) != len(expected) + 1:
        return f"{len(lines)} lines for {len(expected)} rules"
    for line, (rule_id, equations, count) in zip(lines, expected):
        m = _VALIDATED_RE.match(line)
        want = (rule_id, str(equations), str(equations), str(count), "ok")
        if not m or m.groups() != want:
            return f"bad validation line {line!r}, wanted {want}"
    total = sum(e for _, e, _ in expected)
    if lines[-1] != f"{total}/{total} equations validated":
        return f"bad total line {lines[-1]!r}"
    return None


# --- Lawmaps ------------------------------------------------------------------------

class Graph:
    """START node, per-node (var, decisions) and per-node guard → successor."""

    def __init__(self):
        self.start: str | None = None
        self.var: dict[str, str | None] = {}
        self.decisions: dict[str, tuple[str, ...] | None] = {}  # None: not an outcome
        self.succ: dict[str, dict[str, str]] = {}
        self.red: set[tuple[str, str]] = set()

    def walk(self, env: dict[str, bool]) -> list[str]:
        path = [self.start]
        while self.decisions[path[-1]] is None:
            node = path[-1]
            guard = "always" if self.var[node] is None else ("yes" if env[self.var[node]] else "no")
            path.append(self.succ[node][guard])
            if len(path) > len(self.var) + 1:
                raise ValueError("cycle in Lawmap")
        return path


def graph_from_json(text: str) -> Graph:
    payload = json.loads(text)
    g = Graph()
    for node in payload["nodes"]:
        kind = node["kind"]
        if kind == "start":
            g.start = node["id"]
        g.var[node["id"]] = node["var"] if kind == "condition" else None
        g.decisions[node["id"]] = tuple(node["decisions"]) if kind == "outcome" else None
    for edge in payload["edges"]:
        g.succ.setdefault(edge["from"], {})[edge["guard"]] = edge["to"]
    return g


_DOT_NODE = re.compile(r'^  "([^"]+)" \[shape=(\w+), label="((?:[^"\\]|\\.)*)"\];$')
_DOT_EDGE = re.compile(r'^  "([^"]+)" -> "([^"]+)"(?: \[(.*)\])?;$')


def graph_from_dot(text: str) -> Graph:
    g = Graph()
    for line in text.splitlines():
        m = _DOT_NODE.match(line)
        if m:
            node, shape, label = m.groups()
            if shape == "circle":
                g.start = node
            g.var[node] = label.split(": ", 1)[0] if shape == "diamond" else None
            if shape == "box":
                g.decisions[node] = (
                    () if label == "Out of scope" else tuple(label.split(": ", 1)[0].split(", "))
                )
            else:
                g.decisions[node] = None
            continue
        m = _DOT_EDGE.match(line)
        if m:
            src, dst, attrs = m.groups()
            attrs = attrs or ""
            guard = re.search(r'label="(yes|no)"', attrs)
            g.succ.setdefault(src, {})[guard.group(1) if guard else "always"] = dst
            if "color=red" in attrs:
                g.red.add((src, dst))
    return g


def fired(decisions: dict[str, synth.Formula], env: dict[str, bool]) -> tuple[str, ...]:
    return tuple(d for d, f in decisions.items() if synth.evaluate(f, env))


def check_lawmap(g: Graph, decisions: dict[str, synth.Formula], samples,
                 traced: dict[str, bool] | None = None) -> str | None:
    """Every sampled assignment reaches the outcome the formulas predict,
    and a traced DOT highlights exactly the traced assignment's path."""
    if g.start is None:
        return "no START node"
    try:
        for env in samples:
            path = g.walk(env)
            if g.decisions[path[-1]] != fired(decisions, env):
                return f"{env} reaches {path[-1]}, expected {fired(decisions, env)}"
        if traced is not None:
            path = g.walk(traced)
            if g.red != set(zip(path, path[1:])):
                return "highlighted edges are not the traced path"
    except (KeyError, ValueError) as exc:
        return f"malformed Lawmap: {exc!r}"
    return None


def check_net_export(text: str, rule: synth.SynthRule, samples) -> str | None:
    """``bn --export``: fair-coin roots, 0/1 CPTs, and the folds and decisions
    the CPTs compute from each sampled input assignment match the formulas.

    CPT row ``i`` enumerates the parents True-first in parent order, so the
    first parent is the most significant bit and True is bit 0.
    """
    nodes = json.loads(text)["nodes"]
    expected = {**rule.folds(), **rule.decisions()}
    if sorted(n["id"] for n in nodes) != sorted(rule.inputs() + list(expected)):
        return f"nodes {[n['id'] for n in nodes]} differ from the rule's"
    for env in samples:
        state = dict(env)
        for node in nodes:
            if not node["parents"]:
                if node["cpt"] != [0.5]:
                    return f"root {node['id']} has prior {node['cpt']}"
                continue
            index = 0
            for parent in node["parents"]:
                index = index * 2 + (0 if state[parent] else 1)
            p = node["cpt"][index]
            if p not in (0.0, 1.0):
                return f"{node['id']} has a non-deterministic CPT entry {p}"
            state[node["id"]] = p == 1.0
        for name, f in expected.items():
            if state[name] != synth.evaluate(f, env):
                return f"{name} computes {state[name]} at {env}"
    return None


# --- library results ------------------------------------------------------------

def check_properties_report(report, rule: synth.SynthRule) -> str | None:
    exclusive, exhaustive = rule.expected_properties()
    if dict(report.mutually_exclusive) != exclusive:
        return f"exclusion {report.mutually_exclusive} != {exclusive}"
    if report.exhaustive_given_antecedent is not exhaustive:
        return f"exhaustive {report.exhaustive_given_antecedent} != {exhaustive}"
    decisions = rule.decisions()
    want_keys = {f"not_exclusive:{a},{b}" for (a, b), ok in exclusive.items() if not ok}
    if not exhaustive:
        want_keys.add("not_exhaustive")
    if set(report.witnesses) != want_keys:
        return f"witnesses {sorted(report.witnesses)} != {sorted(want_keys)}"
    for key, env in report.witnesses.items():
        if key == "not_exhaustive":
            ok = synth.evaluate(rule.antecedent_formula(), env) and not fired(decisions, env)
        else:
            a, b = key.split(":", 1)[1].split(",")
            ok = synth.evaluate(decisions[a], env) and synth.evaluate(decisions[b], env)
        if not ok:
            return f"witness {key} at {env} does not show it"
    return None


def expected_posteriors(rule: synth.SynthRule, evidence: dict[str, bool]) -> dict[str, float]:
    """Closed form for every node of the rule's net: inputs, folds, decisions."""
    p = {v: (1.0 if evidence[v] else 0.0) if v in evidence else rule.priors[v]
         for v in rule.inputs()}
    out = dict(p)
    for name, f in list(rule.folds().items()) + list(rule.decisions().items()):
        out[name] = synth.probability(f, p)
    return out


def check_posteriors(got: dict[str, float], want: dict[str, float]) -> str | None:
    if set(got) != set(want):
        return f"nodes {sorted(got)} != {sorted(want)}"
    for node, p in want.items():
        if abs(got[node] - p) > POSTERIOR_TOLERANCE:
            return f"P({node}) = {got[node]!r}, closed form {p!r}"
    return None
