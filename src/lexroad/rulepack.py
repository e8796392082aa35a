"""The shipped rule data: sources, golden equations, checklists, profiles.

A rulepack directory holds, all UTF-8 with sorted JSON keys:

* ``<name>.rule`` — structured-English source with inline ``@var`` names;
* ``<name>.golden.beq`` — the hand-entered equations the compiled result
  must stay logically equivalent to;
* ``<group>.checklist.json`` — capability requirements for one rule group
  (groups without structured sources are checklist-only);
* ``vehicles/<id>.profile.json`` — one vehicle's answers per requirement.

The traffic-light rating per group is mechanical: GREEN when every
applicable requirement is met, RED when a requirement flagged as needing
new hardware is unmet, AMBER for software-fixable gaps - and AMBER, never
GREEN, when a profile has no applicable evidence for the group at all.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path

from . import rule_dsl
from .boolean_core import (
    RuleEquations,
    compile_rule,
    equations_equivalent,
    parse_equations,
)
from .rule_dsl import RuleAst, RuleSource

RULE_GROUPS = ("99-100", "103-105", "113", "127-132", "137-138", "191-199", "229")

# Bundle key (rule_id up to any "/" suffix) → rule group.
_BUNDLE_GROUPS = {
    "UK-HC-99-100": "99-100",
    "UK-HC-103": "103-105",
    "UK-HC-137-138": "137-138",
    "UK-HC-191-199": "191-199",
}


class Answer(Enum):
    MET = "MET"
    UNMET = "UNMET"
    NOT_APPLICABLE = "NOT_APPLICABLE"


class Rag(Enum):
    GREEN = "GREEN"
    AMBER = "AMBER"
    RED = "RED"


MARKS = {Answer.MET: "✓", Answer.UNMET: "✗", Answer.NOT_APPLICABLE: "N/A"}


class GoldenMismatchError(Exception):
    def __init__(self, rule_id: str, decision: str | None, witness: dict[str, bool] | None):
        self.rule_id = rule_id
        self.decision = decision
        self.witness = witness
        detail = f" on {decision}" if decision else ""
        if witness:
            detail += f" at {witness}"
        super().__init__(f"compiled equations for {rule_id} diverge from golden set{detail}")


class IncompleteProfileError(Exception):
    def __init__(self, vehicle_id: str, missing: tuple[str, ...]):
        self.vehicle_id = vehicle_id
        self.missing = missing
        super().__init__(
            f"profile {vehicle_id} lacks answers for: {', '.join(missing)}"
        )


@dataclass(frozen=True)
class CapabilityRequirement:
    id: str
    description: str
    rule_group: str
    hardware_gap: bool = False


@dataclass(frozen=True)
class CapabilityProfile:
    vehicle_id: str
    display_name: str
    answers: tuple[tuple[str, Answer], ...]
    sae_level: int | None = None

    def answer(self, requirement_id: str) -> Answer | None:
        for key, value in self.answers:
            if key == requirement_id:
                return value
        return None


@dataclass(frozen=True)
class RagRating:
    rule_group: str
    rating: Rag
    rationale: str


@dataclass
class RulepackEntry:
    rule_id: str
    source: RuleSource | None = None
    golden_equations: str | None = None
    checklist: tuple[CapabilityRequirement, ...] = ()
    ast: RuleAst | None = None
    equations: RuleEquations | None = None

    @property
    def bundle(self) -> str:
        return self.rule_id.split("/", 1)[0]


@dataclass
class Rulepack:
    path: Path
    entries: list[RulepackEntry]

    def rules(self) -> list[RulepackEntry]:
        return [e for e in self.entries if e.source is not None]

    def bundles(self) -> dict[str, list[RulepackEntry]]:
        grouped: dict[str, list[RulepackEntry]] = {}
        for entry in self.rules():
            grouped.setdefault(entry.bundle, []).append(entry)
        return grouped

    def checklists(self) -> dict[str, tuple[CapabilityRequirement, ...]]:
        return {
            e.rule_id: e.checklist for e in self.entries if e.checklist and not e.source
        }

    def requirements_for(self, group: str) -> tuple[CapabilityRequirement, ...]:
        for entry in self.entries:
            if entry.checklist and entry.rule_id == group:
                return entry.checklist
        raise KeyError(f"no checklist for group '{group}'")

    def groups(self) -> tuple[str, ...]:
        return tuple(g for g in RULE_GROUPS if any(
            e.rule_id == g and e.checklist for e in self.entries
        ))

    def rate(self, group: str, profile: CapabilityProfile) -> RagRating:
        return rate(group, self.requirements_for(group), profile)


def group_for_rule(rule_id: str) -> str | None:
    return _BUNDLE_GROUPS.get(rule_id.split("/", 1)[0])


def rate(
    group: str,
    requirements: tuple[CapabilityRequirement, ...],
    profile: CapabilityProfile,
) -> RagRating:
    """Traffic-light verdict for one rule group under one profile."""
    missing = tuple(r.id for r in requirements if profile.answer(r.id) is None)
    if missing:
        raise IncompleteProfileError(profile.vehicle_id, missing)
    applicable = [
        r for r in requirements if profile.answer(r.id) != Answer.NOT_APPLICABLE
    ]
    if not applicable:
        return RagRating(group, Rag.AMBER, "no applicable evidence")
    unmet = sorted(
        r.id for r in applicable if profile.answer(r.id) == Answer.UNMET
    )
    if not unmet:
        return RagRating(group, Rag.GREEN, "all applicable requirements met")
    hardware = sorted(
        r.id
        for r in applicable
        if profile.answer(r.id) == Answer.UNMET and r.hardware_gap
    )
    if hardware:
        return RagRating(
            group, Rag.RED, "unmet requirements need new hardware: " + ", ".join(hardware)
        )
    return RagRating(group, Rag.AMBER, "software-fixable gaps: " + ", ".join(unmet))


# --- loading -----------------------------------------------------------------

def load_rulepack(path: str | Path) -> Rulepack:
    """Parse, compile and cross-check every rule and checklist in a directory."""
    path = Path(path)
    entries: list[RulepackEntry] = []
    for rule_file in sorted(path.glob("*.rule")):
        source = rule_dsl.load_rule_file(rule_file)
        ast = rule_dsl.parse_rule(source)
        table = rule_dsl.assign_variables(ast)
        eqs = compile_rule(ast, table)
        golden_file = rule_file.parent / (rule_file.stem + ".golden.beq")
        golden_text = None
        if golden_file.exists():
            golden_text = golden_file.read_text(encoding="utf-8")
            golden = parse_equations(golden_text, rule_id=source.rule_id)
            ok, decision, witness = equations_equivalent(eqs, golden)
            if not ok:
                raise GoldenMismatchError(source.rule_id, decision, witness)
        entries.append(
            RulepackEntry(
                rule_id=source.rule_id,
                source=source,
                golden_equations=golden_text,
                ast=ast,
                equations=eqs,
            )
        )
    for checklist_file in sorted(path.glob("*.checklist.json")):
        payload = load_json_object(checklist_file)
        group = payload["group"]
        if group not in RULE_GROUPS:
            raise ValueError(f"{checklist_file.name}: unknown rule group '{group}'")
        requirements = tuple(
            CapabilityRequirement(
                id=item["id"],
                description=item["description"],
                rule_group=group,
                hardware_gap=bool(item.get("hardware_gap", False)),
            )
            for item in payload["requirements"]
        )
        ids = [r.id for r in requirements]
        if len(ids) != len(set(ids)):
            raise ValueError(f"{checklist_file.name}: duplicate requirement ids")
        entries.append(RulepackEntry(rule_id=group, checklist=requirements))
    seen: set[str] = set()
    for entry in entries:
        if entry.rule_id in seen:
            raise ValueError(f"duplicate rule id '{entry.rule_id}' in pack")
        seen.add(entry.rule_id)
    return Rulepack(path=path, entries=entries)


_JSON_KINDS = {dict: "object", str: "string"}


def json_value(value, kind: type, what: str):
    """``value`` if it is a ``kind`` (dict or str); ValueError naming ``what`` if not."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a JSON {_JSON_KINDS[kind]}")
    return value


def load_json_object(path: str | Path) -> dict:
    """The JSON object in the file at ``path``."""
    return json_value(json.loads(Path(path).read_text(encoding="utf-8")), dict, str(path))


def load_profile(path: str | Path) -> CapabilityProfile:
    payload = load_json_object(path)
    answers = json_value(payload["answers"], dict, f"{path}: answers")
    vehicle_id = json_value(payload["vehicle_id"], str, f"{path}: vehicle_id")
    return CapabilityProfile(
        vehicle_id=vehicle_id,
        display_name=json_value(payload.get("display_name", vehicle_id), str,
                                f"{path}: display_name"),
        answers=tuple((key, Answer(value)) for key, value in sorted(answers.items())),
        sae_level=payload.get("sae_level"),
    )


def default_pack_dir() -> Path:
    return Path(str(resources.files("lexroad").joinpath("data")))


def default_profile_paths() -> list[Path]:
    return sorted(default_pack_dir().joinpath("vehicles").glob("*.profile.json"))


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def pack_digest(path: str | Path) -> str:
    """Digest of every pack file, keyed by relative path — order-independent."""
    path = Path(path)
    h = hashlib.sha256()
    for item in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(item.relative_to(path)).encode("utf-8"))
        h.update(b"\0")
        h.update(item.read_bytes())
        h.update(b"\0")
    return h.hexdigest()
