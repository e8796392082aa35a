"""Desk-scale compliance checking: profiles and scenarios in, report out.

The report pairs the capability matrix (every requirement × every vehicle,
marked ✓ / ✗ / N/A) with the mechanical traffic-light rating per rule
group, and optionally the decision outcomes of fact scenarios evaluated
against the pack's compiled rules.  Identical inputs produce byte-identical
output; timestamps are added only on request.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .boolean_core import RuleEquations, evaluate
from .rulepack import (
    MARKS,
    Answer,
    CapabilityProfile,
    CapabilityRequirement,
    RagRating,
    Rulepack,
    file_digest,
    group_for_rule,
    json_value,
    load_json_object,
    pack_digest,
)


class UnknownScenarioVariableError(Exception):
    def __init__(self, rule_id: str, unknown: tuple[str, ...], kind: str = "unknown variables"):
        self.rule_id = rule_id
        self.unknown = unknown
        super().__init__(f"scenario for {rule_id} names {kind}: {', '.join(unknown)}")


@dataclass(frozen=True)
class Scenario:
    rule_id: str
    facts: dict[str, bool]
    description: str = ""


def load_scenario(path: str | Path) -> Scenario:
    payload = load_json_object(path)
    facts = json_value(payload.get("facts", {}), dict, f"{path}: facts")
    for key, value in facts.items():
        if not isinstance(value, bool):
            raise ValueError(f"scenario fact {key!r} must be true or false")
    return Scenario(
        rule_id=json_value(payload["rule_id"], str, f"{path}: rule_id"),
        facts=facts,
        description=payload.get("description", ""),
    )


def check_facts(eqs: RuleEquations, scenario: Scenario) -> None:
    """Refuse facts the rule cannot take: names it does not have, and its
    decisions, which ``evaluate`` derives and would silently overwrite."""
    unknown = tuple(v for v in scenario.facts if v not in eqs.table.variables)
    if unknown:
        raise UnknownScenarioVariableError(scenario.rule_id, unknown)
    decisions = tuple(v for v in scenario.facts if v in eqs.equations)
    if decisions:
        raise UnknownScenarioVariableError(scenario.rule_id, decisions, "decisions, not facts")


def kleene_name(value: bool | None) -> str:
    if value is None:
        return "UNKNOWN"
    return "TRUE" if value else "FALSE"


@dataclass
class ComplianceReport:
    tool_version: str
    pack_path: str
    pack_sha256: str
    profiles: list[dict]  # vehicle_id, display_name, sae_level, sha256
    requirements: list[CapabilityRequirement]
    answers: dict[str, dict[str, Answer]]  # vehicle_id → requirement → answer
    ratings: dict[str, dict[str, RagRating]]  # vehicle_id → group → rating
    rule_outcomes: dict[str, dict[str, str]] = field(default_factory=dict)
    generated_at: str | None = None


def build_report(
    pack: Rulepack,
    profiles: list[CapabilityProfile],
    profile_paths: list[Path] | None = None,
    scenarios: list[Scenario] = (),
    timestamps: bool = False,
) -> ComplianceReport:
    requirements = [
        req for group in pack.groups() for req in pack.requirements_for(group)
    ]
    answers: dict[str, dict[str, Answer]] = {}
    ratings: dict[str, dict[str, RagRating]] = {}
    for profile in profiles:
        answers[profile.vehicle_id] = {
            req.id: profile.answer(req.id) or Answer.NOT_APPLICABLE
            for req in requirements
        }
        ratings[profile.vehicle_id] = {
            group: pack.rate(group, profile) for group in pack.groups()
        }

    rule_outcomes: dict[str, dict[str, str]] = {}
    compiled = {entry.rule_id: entry for entry in pack.rules()}
    for scenario in scenarios:
        entry = compiled.get(scenario.rule_id)
        if entry is None or entry.equations is None:
            raise KeyError(f"scenario names unknown rule '{scenario.rule_id}'")
        check_facts(entry.equations, scenario)
        outcome = evaluate(entry.equations, dict(scenario.facts))
        rule_outcomes[scenario.rule_id] = {
            decision: kleene_name(value) for decision, value in outcome.items()
        }

    meta = []
    for i, profile in enumerate(profiles):
        digest = ""
        if profile_paths and i < len(profile_paths):
            digest = file_digest(profile_paths[i])
        meta.append(
            {
                "vehicle_id": profile.vehicle_id,
                "display_name": profile.display_name,
                "sae_level": profile.sae_level,
                "sha256": digest,
            }
        )
    return ComplianceReport(
        tool_version=__version__,
        pack_path=str(pack.path),
        pack_sha256=pack_digest(pack.path),
        profiles=meta,
        requirements=requirements,
        answers=answers,
        ratings=ratings,
        rule_outcomes=rule_outcomes,
        generated_at=(
            datetime.now(timezone.utc).isoformat(timespec="seconds")
            if timestamps
            else None
        ),
    )


def report_to_json(report: ComplianceReport) -> str:
    payload = {
        "tool_version": report.tool_version,
        "inputs": {
            "rulepack": {"path": report.pack_path, "sha256": report.pack_sha256},
            "profiles": report.profiles,
        },
        "requirements": [
            {
                "id": r.id,
                "rule_group": r.rule_group,
                "description": r.description,
                "hardware_gap": r.hardware_gap,
            }
            for r in report.requirements
        ],
        "answers": {
            vehicle: {rid: answer.value for rid, answer in by_req.items()}
            for vehicle, by_req in report.answers.items()
        },
        "ratings": {
            vehicle: {
                group: {"rating": rating.rating.value, "rationale": rating.rationale}
                for group, rating in by_group.items()
            }
            for vehicle, by_group in report.ratings.items()
        },
        "rule_outcomes": report.rule_outcomes,
    }
    if report.generated_at is not None:
        payload["generated_at"] = report.generated_at
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def _columns(widths: list[int], cells: list[str]) -> str:
    padded = [cell.ljust(width) for cell, width in zip(cells, widths)]
    return "  ".join(padded).rstrip()


def render_text(report: ComplianceReport) -> str:
    """The human-readable matrix: one row per requirement, one mark column
    per vehicle, then the traffic-light rating block."""
    vehicles = [p["vehicle_id"] for p in report.profiles]
    names = [p["display_name"] for p in report.profiles]

    head = ["Rule group", "Requirement"] + names
    rows = [
        [r.rule_group, r.description]
        + [MARKS[report.answers[v][r.id]] for v in vehicles]
        for r in report.requirements
    ]
    widths = [
        max(len(head[i]), *(len(row[i]) for row in rows)) if rows else len(head[i])
        for i in range(len(head))
    ]
    lines = ["Capability evaluation matrix", ""]
    lines.append(_columns(widths, head))
    lines.append(_columns(widths, ["-" * w for w in widths]))
    last_group = None
    for row in rows:
        group = row[0]
        shown = group if group != last_group else ""
        lines.append(_columns(widths, [shown] + row[1:]))
        last_group = group
    lines.append("")
    lines.append("Legend: ✓ met, ✗ unmet, N/A no relevant function fitted")
    lines.append("")

    groups = list(dict.fromkeys(r.rule_group for r in report.requirements))
    head = ["Rule group"] + names
    rating_rows = [
        [group] + [report.ratings[v][group].rating.value for v in vehicles]
        for group in groups
    ]
    widths = [
        max(len(head[i]), *(len(row[i]) for row in rating_rows))
        for i in range(len(head))
    ]
    lines.append("Traffic-light ratings")
    lines.append("")
    lines.append(_columns(widths, head))
    lines.append(_columns(widths, ["-" * w for w in widths]))
    for row in rating_rows:
        lines.append(_columns(widths, row))

    if report.rule_outcomes:
        lines.append("")
        lines.append("Scenario outcomes")
        lines.append("")
        for rule_id in sorted(report.rule_outcomes):
            outcomes = report.rule_outcomes[rule_id]
            verdicts = ", ".join(f"{d}={v}" for d, v in outcomes.items())
            group = group_for_rule(rule_id)
            origin = f" (group {group})" if group else ""
            lines.append(f"{rule_id}{origin}: {verdicts}")
    if report.generated_at is not None:
        lines.append("")
        lines.append(f"Generated at {report.generated_at}")
    return "\n".join(lines) + "\n"
