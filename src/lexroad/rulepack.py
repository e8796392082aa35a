"""The shipped rule data: sources, golden equations, checklists, profiles.

A rulepack directory holds, all UTF-8 with sorted JSON keys:

* ``<name>.rule`` — structured-English source with inline ``@var`` names
  and an optional ``group:`` header naming the rule group it belongs to;
* ``<name>.golden.beq`` — the hand-entered equations the compiled result
  must stay logically equivalent to;
* ``<group>.checklist.json`` — capability requirements for one rule group,
  which may be any group (groups no rule names are checklist-only);
* ``vehicles/<id>.profile.json`` — one vehicle's answers per requirement.

A loaded :class:`Rulepack` holds the compiled rules by id, in file order,
and the checklists by group, in natural order of the group names (numbers
compared by value, so ``99-100`` comes before ``103-105``).  A rule whose
group has no checklist, and two checklists for one group, are rejected, as
is a golden file that does not parse, with a ValueError naming the file.

Loading walks the pack directory once and reads each file under it once.
The pack's ``sha256`` (the ``pack_sha256`` of a compliance report) is the
:func:`pack_digest` of exactly the bytes loaded, so a file changed after
loading does not change it.  A pack path that is missing or not a
directory is refused with OSError, as is a ``.rule``, ``.golden.beq`` or
``.checklist.json`` entry that is not a regular file (a directory, a broken
symlink, a FIFO, a socket or a device), without opening it; an existing
empty directory is an empty pack.  A profile carries the ``sha256`` of the
bytes it was loaded from, which the report lists.

The traffic-light rating per group is mechanical: GREEN when every
applicable requirement is met, RED when a requirement flagged as needing
new hardware is unmet, AMBER for software-fixable gaps - and AMBER, never
GREEN, when a profile has no applicable evidence for the group at all.
"""

from __future__ import annotations

import errno
import hashlib
import os
import re
import stat
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from . import rule_dsl, strict_json
from .boolean_core import RuleEquations, compile_rule, equations_equivalent, parse_equations
from .errors import (CyclicDefinitionError, EquationSyntaxError, GoldenMismatchError,
                     IncompleteProfileError)
from .rule_dsl import RuleAst, RuleSource
from .strict_json import fields, json_value


class Answer(Enum):
    MET = "MET"
    UNMET = "UNMET"
    NOT_APPLICABLE = "NOT_APPLICABLE"


class Rag(Enum):
    GREEN = "GREEN"
    AMBER = "AMBER"
    RED = "RED"


MARKS = {Answer.MET: "✓", Answer.UNMET: "✗", Answer.NOT_APPLICABLE: "N/A"}


class CapabilityRequirement(NamedTuple):
    id: str
    description: str
    rule_group: str
    hardware_gap: bool = False


class CapabilityProfile(NamedTuple):
    vehicle_id: str
    display_name: str
    answers: dict[str, Answer]  # requirement id → answer
    sae_level: int | None = None
    sha256: str = ""  # of the bytes the profile was loaded from


class RagRating(NamedTuple):
    rule_group: str
    rating: Rag
    rationale: str


class PackRule(NamedTuple):
    """One compiled rule of a pack, with its golden text if it has one."""

    source: RuleSource
    ast: RuleAst
    equations: RuleEquations
    golden_equations: str | None = None

    @property
    def rule_id(self) -> str:
        return self.source.rule_id


class Rulepack(NamedTuple):
    path: Path
    rules_by_id: dict[str, PackRule]  # in file order
    checklists: dict[str, tuple[CapabilityRequirement, ...]]  # by group, natural order
    sha256: str  # pack_digest of the bytes the pack was loaded from

    def rules(self) -> list[PackRule]:
        return list(self.rules_by_id.values())

    def rate(self, group: str, profile: CapabilityProfile) -> RagRating:
        return rate(group, self.checklists[group], profile)


def _natural_key(name: str) -> list[str | int]:
    """Sort key comparing the runs of digits in ``name`` by value."""
    return [int(part) if part.isdecimal() else part for part in re.split(r"(\d+)", name)]


def rate(
    group: str,
    requirements: tuple[CapabilityRequirement, ...],
    profile: CapabilityProfile,
) -> RagRating:
    """Traffic-light verdict for one rule group under one profile."""
    answers = profile.answers
    missing = tuple(r.id for r in requirements if r.id not in answers)
    if missing:
        raise IncompleteProfileError(profile.vehicle_id, missing)
    applicable = [r for r in requirements if answers[r.id] != Answer.NOT_APPLICABLE]
    if not applicable:
        return RagRating(group, Rag.AMBER, "no applicable evidence")
    unmet = sorted(r.id for r in applicable if answers[r.id] == Answer.UNMET)
    if not unmet:
        return RagRating(group, Rag.GREEN, "all applicable requirements met")
    hardware = sorted(
        r.id for r in applicable if answers[r.id] == Answer.UNMET and r.hardware_gap
    )
    if hardware:
        return RagRating(
            group, Rag.RED, "unmet requirements need new hardware: " + ", ".join(hardware)
        )
    return RagRating(group, Rag.AMBER, "software-fixable gaps: " + ", ".join(unmet))


# --- loading -----------------------------------------------------------------

def load_rulepack(path: str | Path) -> Rulepack:
    """Parse, compile and cross-check every rule and checklist in a directory.

    The directory is walked once and each file in it read once; the pack's
    ``sha256`` is the digest of those bytes (see :func:`pack_digest`).
    """
    path = Path(path)
    names, files = _read_pack(path)

    def text(name: str) -> str:
        data = files.get(name)
        if data is None:
            raise _not_a_file(str(path / name))
        return rule_dsl.decode_text(data, str(path / name))

    rules: dict[str, PackRule] = {}
    for name in names:
        if not name.endswith(".rule"):
            continue
        rule_file = path / name
        source = rule_dsl.rule_source(text(name), str(rule_file))
        ast = rule_dsl.parse_rule(source)
        table = rule_dsl.assign_variables(ast)
        eqs = compile_rule(ast, table)
        golden_name = rule_file.stem + ".golden.beq"
        golden_text = None
        if golden_name in names:
            golden_text = text(golden_name)
            try:
                golden = parse_equations(golden_text, rule_id=source.rule_id)
            except (EquationSyntaxError, CyclicDefinitionError) as exc:
                raise ValueError(f"{path / golden_name}: {exc}") from None
            ok, decision, witness = equations_equivalent(eqs, golden)
            if not ok:
                raise GoldenMismatchError(source.rule_id, decision, witness)
        if source.rule_id in rules:
            raise ValueError(f"duplicate rule id '{source.rule_id}' in pack")
        rules[source.rule_id] = PackRule(source, ast, eqs, golden_text)
    checklists: dict[str, tuple[CapabilityRequirement, ...]] = {}
    for name in names:
        if not name.endswith(".checklist.json"):
            continue
        checklist_file = str(path / name)
        group, requirements = _checklist(text(name), checklist_file)
        if group in checklists:
            raise ValueError(f"{checklist_file}: a second checklist for group '{group}'")
        checklists[group] = requirements
    for rule in rules.values():
        group = rule.source.group
        if group is not None and group not in checklists:
            raise ValueError(f"{rule.source.path}: group '{group}' has no checklist")
    return Rulepack(path, rules, {g: checklists[g] for g in sorted(checklists, key=_natural_key)},
                    _digest(files))


def _checklist(text: str, path: str) -> tuple[str, tuple[CapabilityRequirement, ...]]:
    """The group the checklist ``text`` read from ``path`` names and its
    requirements, in file order."""
    group, items = fields(strict_json.load(path, text), f"{path}: ", group=str, requirements=list)
    requirements = []
    for item in items:
        id_, description, hardware_gap = fields(
            json_value(item, dict, f"{path}: each requirement"), f"{path}: requirement ",
            id=str, description=str, hardware_gap=(bool, False))
        requirements.append(CapabilityRequirement(id_, description, group, hardware_gap))
    ids = [r.id for r in requirements]
    if len(ids) != len(set(ids)):
        raise ValueError(f"{os.path.basename(path)}: duplicate requirement ids")
    return group, tuple(requirements)


def load_profile(path: str | Path) -> CapabilityProfile:
    """The profile in the file at ``path``, carrying the sha256 of the bytes
    it was parsed from.  Its ``display_name`` defaults to its ``vehicle_id``;
    its ``sae_level``, if given and not null, is an SAE J3016 level: an
    integer from 0 to 5."""
    data = rule_dsl.read_bytes(rule_dsl.file_name(path))
    payload = strict_json.load(path, rule_dsl.decode_text(data, str(path)))
    vehicle_id, display_name, answers, sae_level = fields(
        payload, f"{path}: ", vehicle_id=str, display_name=(str, payload.get("vehicle_id")),
        answers=dict, sae_level=(None, None))
    valid = {answer.value: answer for answer in Answer}
    for key, value in answers.items():
        if not isinstance(value, str) or value not in valid:
            raise ValueError(f"{path}: answer for {key} must be one of {', '.join(valid)}")
    if sae_level is not None and (type(sae_level) is not int or not 0 <= sae_level <= 5):
        raise ValueError(f"{path}: sae_level must be an integer from 0 to 5 or null, "
                         f"got {sae_level!r}")
    answers = {key: valid[value] for key, value in sorted(answers.items())}
    return CapabilityProfile(vehicle_id, display_name, answers, sae_level,
                             hashlib.sha256(data).hexdigest())


def default_pack_dir() -> Path:
    return Path(__file__).parent / "data"


def default_profile_paths() -> list[Path]:
    return sorted(default_pack_dir().joinpath("vehicles").glob("*.profile.json"))


def pack_digest(path: str | Path) -> str:
    """Digest of every file under the pack directory ``path``, keyed by
    relative path: what a loaded pack carries as its ``sha256``."""
    return _digest(_read_pack(Path(path))[1])


def _read_pack(path: Path) -> tuple[list[str], dict[str, bytes]]:
    """The names in the directory ``path``, sorted, and the bytes of every
    regular file under it by relative path, read once, in the order of their
    path components.  Symlinks to files are read; directories, symlinked
    ones included, are not files, and only real directories are entered.
    OSError if ``path`` is missing or not a directory."""
    names: list[str] = []
    found: list[tuple[tuple[str, ...], str]] = []
    directories: list[tuple[str, tuple[str, ...]]] = [(str(path), ())]
    while directories:
        directory, parts = directories.pop()
        with os.scandir(directory) as entries:
            for entry in entries:
                if not parts:
                    names.append(entry.name)
                if entry.is_dir(follow_symlinks=False):
                    directories.append((entry.path, (*parts, entry.name)))
                elif entry.is_file():
                    found.append(((*parts, entry.name), entry.path))
    found.sort()
    return sorted(names), {"/".join(parts): rule_dsl.read_bytes(file) for parts, file in found}


def _not_a_file(file: str) -> OSError:
    """The error refusing the pack entry ``file``, which the walk found not to
    be a regular file, told from its type without opening it: opening a FIFO
    would block."""
    try:
        mode = os.stat(file).st_mode
    except OSError as exc:  # a broken symlink
        return exc
    if stat.S_ISDIR(mode):
        return IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), file)
    return OSError(f"{file}: not a regular file")


def _digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name, data in files.items():
        h.update(name.encode("utf-8"))
        h.update(b"\0")
        h.update(data)
        h.update(b"\0")
    return h.hexdigest()
