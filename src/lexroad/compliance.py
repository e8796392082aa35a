"""Desk-scale compliance checking: profiles and scenarios in, report out.

The report pairs the capability matrix (every requirement × every vehicle,
marked ✓ / ✗ / N/A) with the mechanical traffic-light rating per rule
group, and optionally the decision outcomes of fact scenarios evaluated
against the pack's compiled rules.  Identical inputs produce byte-identical
output; timestamps are added only on request.
"""

from __future__ import annotations

from datetime import datetime, timezone

from . import __version__, strict_json
# scenario reading lives next to evaluate; its names stay bound here too
from .boolean_core import Scenario, check_facts, evaluate, load_scenario, verdict_name  # noqa: F401
from .errors import DuplicateProfileError, UnknownScenarioVariableError  # noqa: F401
from .rule_dsl import Record
from .rulepack import MARKS, Answer, CapabilityProfile, CapabilityRequirement, RagRating, Rulepack


class ComplianceReport(Record):
    """The capability matrix, ratings and scenario outcomes of one ``check``."""

    tool_version: str
    pack_path: str
    pack_sha256: str
    profiles: list[dict]  # vehicle_id, display_name, sae_level, sha256
    requirements: list[CapabilityRequirement]
    answers: dict[str, dict[str, Answer]]  # vehicle_id → requirement → answer
    ratings: dict[str, dict[str, RagRating]]  # vehicle_id → group → rating
    rule_outcomes: dict[str, dict[str, str]] = {}
    generated_at: str | None = None
    rule_groups: dict[str, str | None] = {}  # rule id → group


def build_report(
    pack: Rulepack,
    profiles: list[CapabilityProfile],
    scenarios: list[Scenario] = (),
    timestamps: bool = False,
) -> ComplianceReport:
    requirements = [req for reqs in pack.checklists.values() for req in reqs]
    answers: dict[str, dict[str, Answer]] = {}
    ratings: dict[str, dict[str, RagRating]] = {}
    for profile in profiles:
        if profile.vehicle_id in answers:
            raise DuplicateProfileError(profile.vehicle_id)
        answers[profile.vehicle_id] = {
            req.id: profile.answers.get(req.id, Answer.NOT_APPLICABLE)
            for req in requirements
        }
        ratings[profile.vehicle_id] = {
            group: pack.rate(group, profile) for group in pack.checklists
        }

    rule_outcomes: dict[str, dict[str, str]] = {}
    rule_groups: dict[str, str | None] = {}
    for scenario in scenarios:
        rule = pack.rules_by_id.get(scenario.rule_id)
        if rule is None:
            raise KeyError(f"scenario names unknown rule '{scenario.rule_id}'")
        if scenario.rule_id in rule_outcomes:
            raise ValueError(f"two scenarios for rule '{scenario.rule_id}'")
        check_facts(rule.equations, scenario.facts)
        outcome = evaluate(rule.equations, dict(scenario.facts))
        rule_outcomes[scenario.rule_id] = {
            decision: verdict_name(value) for decision, value in outcome.items()
        }
        rule_groups[scenario.rule_id] = rule.source.group

    meta = [
        {
            "vehicle_id": profile.vehicle_id,
            "display_name": profile.display_name,
            "sae_level": profile.sae_level,
            "sha256": profile.sha256,
        }
        for profile in profiles
    ]
    return ComplianceReport(
        tool_version=__version__,
        pack_path=str(pack.path),
        pack_sha256=pack.sha256,
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
        rule_groups=rule_groups,
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
    return strict_json.encode(payload) + "\n"


def _columns(widths: list[int], cells: list[str]) -> str:
    padded = [cell.ljust(width) for cell, width in zip(cells, widths)]
    return "  ".join(padded).rstrip()


def _table(head: list[str], rows: list[list[str]]) -> list[str]:
    """Aligned lines: the head, a rule, then the rows with each group
    (first column) named on its first row only."""
    widths = [max(map(len, column)) for column in zip(head, *rows)]
    lines = [_columns(widths, head), _columns(widths, ["-" * w for w in widths])]
    for i, row in enumerate(rows):
        shown = "" if i and rows[i - 1][0] == row[0] else row[0]
        lines.append(_columns(widths, [shown] + row[1:]))
    return lines


def render_text(report: ComplianceReport) -> str:
    """The human-readable matrix: one row per requirement, one mark column
    per vehicle, then the traffic-light rating block."""
    vehicles = [p["vehicle_id"] for p in report.profiles]
    names = [p["display_name"] for p in report.profiles]

    lines = ["Capability evaluation matrix", ""]
    lines += _table(
        ["Rule group", "Requirement"] + names,
        [[r.rule_group, r.description] + [MARKS[report.answers[v][r.id]] for v in vehicles]
         for r in report.requirements],
    )
    lines += ["", "Legend: ✓ met, ✗ unmet, N/A no relevant function fitted", ""]
    lines += ["Traffic-light ratings", ""]
    groups = dict.fromkeys(r.rule_group for r in report.requirements)
    lines += _table(
        ["Rule group"] + names,
        [[group] + [report.ratings[v][group].rating.value for v in vehicles] for group in groups],
    )

    if report.rule_outcomes:
        lines.append("")
        lines.append("Scenario outcomes")
        lines.append("")
        for rule_id in sorted(report.rule_outcomes):
            outcomes = report.rule_outcomes[rule_id]
            verdicts = ", ".join(f"{d}={v}" for d, v in outcomes.items())
            group = report.rule_groups.get(rule_id)
            origin = f" (group {group})" if group else ""
            lines.append(f"{rule_id}{origin}: {verdicts}")
    if report.generated_at is not None:
        lines.append("")
        lines.append(f"Generated at {report.generated_at}")
    return "\n".join(lines) + "\n"
