"""Report assembly and rendering, independent of the CLI surface."""

import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexroad import compliance
from lexroad.compliance import (
    DuplicateProfileError,
    Scenario,
    UnknownScenarioVariableError,
    build_report,
    render_text,
    report_to_json,
)
from lexroad.rulepack import (
    Answer,
    CapabilityProfile,
    default_pack_dir,
    default_profile_paths,
    load_profile,
    load_rulepack,
)
from reference import report_to_json_by_dumps
from test_boolean_core import REPEATED_VAR_RULE
from test_lawmap import AWKWARD_TEXT, first_difference


@pytest.fixture(scope="module")
def profiles():
    return [load_profile(p) for p in default_profile_paths()]


def test_report_structure(pack, profiles):
    report = build_report(pack, profiles)
    assert len(report.requirements) == 27
    assert set(report.answers) == {p.vehicle_id for p in profiles}
    assert list(report.ratings[profiles[0].vehicle_id]) == list(pack.checklists)
    assert report.generated_at is None
    payload = json.loads(report_to_json(report))
    assert payload["tool_version"] == report.tool_version
    assert len(payload["inputs"]["profiles"]) == 3
    assert all(p["sha256"] for p in payload["inputs"]["profiles"])


def test_scenarios_fold_into_report(pack, profiles):
    scenario = Scenario("UK-HC-99-100/2", {"t": True, "z": False})
    report = build_report(pack, profiles[:1], scenarios=[scenario])
    assert report.rule_outcomes["UK-HC-99-100/2"] == {"A": "FALSE", "E": "TRUE"}
    text = render_text(report)
    assert "UK-HC-99-100/2 (group 99-100): A=FALSE, E=TRUE" in text


def test_partial_scenario_reports_unknown(pack, profiles):
    scenario = Scenario("UK-HC-99-100/1", {"q": True})
    report = build_report(pack, profiles[:1], scenarios=[scenario])
    assert report.rule_outcomes["UK-HC-99-100/1"] == {"B": "UNKNOWN", "D": "UNKNOWN"}


def test_a_second_scenario_for_one_rule_is_refused(pack, profiles):
    """It used to replace the first one's verdicts without a word."""
    scenarios = [Scenario("UK-HC-103", {"A": False}),
                 Scenario("UK-HC-103", {"A": True, "B": True, "C": True})]
    with pytest.raises(ValueError, match="^two scenarios for rule 'UK-HC-103'$"):
        build_report(pack, profiles[:1], scenarios=scenarios)


def test_a_second_profile_for_one_vehicle_is_refused(pack, profiles):
    """Answers and ratings are keyed by vehicle id: two profiles with one id
    used to share one column, showing the second profile's answers twice."""
    bmw = next(p for p in profiles if p.vehicle_id == "bmw-740li")
    other = bmw._replace(display_name="Other",
                         answers={**bmw.answers, "103-105.braking-alert": Answer.UNMET})
    with pytest.raises(DuplicateProfileError, match="^two profiles for vehicle 'bmw-740li'$"):
        build_report(pack, [bmw, other])


def test_scenario_reports_the_verdict_the_facts_force(tmp_path, profiles):
    """A repeated variable: Z = (a ∨ b) ∧ ¬a is FALSE once b is FALSE."""
    shutil.copytree(default_pack_dir(), tmp_path / "pack")
    (tmp_path / "pack" / "r.rule").write_text("rule: R\n\n" + REPEATED_VAR_RULE, encoding="utf-8")
    pack = load_rulepack(tmp_path / "pack")
    report = build_report(pack, profiles[:1], scenarios=[Scenario("R", {"b": False})])
    assert report.rule_outcomes["R"] == {"Y": "UNKNOWN", "Z": "FALSE"}
    assert json.loads(report_to_json(report))["rule_outcomes"]["R"] == report.rule_outcomes["R"]


def test_unknown_scenario_variable_is_rejected(pack, profiles):
    scenario = Scenario("UK-HC-103", {"bogus": True})
    with pytest.raises(UnknownScenarioVariableError):
        build_report(pack, profiles[:1], scenarios=[scenario])


def test_unknown_scenario_rule_is_rejected(pack, profiles):
    with pytest.raises(KeyError):
        build_report(pack, profiles[:1], scenarios=[Scenario("UK-HC-999", {})])


def test_matrix_groups_render_once(pack, profiles):
    text = render_text(build_report(pack, profiles))
    matrix = text.split("Traffic-light ratings")[0]
    assert matrix.count("99-100 ") == 1
    assert matrix.count("229 ") == 1


def test_text_and_json_agree_on_cells(pack, profiles):
    report = build_report(pack, profiles)
    payload = json.loads(report_to_json(report))
    text = render_text(report)
    for requirement in report.requirements:
        line = next(l for l in text.splitlines() if requirement.description in l)
        marks = tuple(line.split(requirement.description, 1)[1].split())
        from lexroad.rulepack import MARKS, Answer

        want = tuple(
            MARKS[Answer(payload["answers"][p.vehicle_id][requirement.id])]
            for p in profiles
        )
        assert marks == want


def test_scenario_loader_rejects_non_boolean_facts(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"rule_id": "UK-HC-103", "facts": {"A": "yes"}}))
    with pytest.raises(ValueError):
        compliance.load_scenario(path)


@pytest.mark.parametrize("description", [5, None, ["a"], {"text": "a"}, True])
def test_scenario_loader_rejects_a_description_that_is_not_text(tmp_path, description):
    path = tmp_path / "s.json"
    payload = {"rule_id": "UK-HC-103", "facts": {"A": True}}
    path.write_text(json.dumps(payload))
    assert compliance.load_scenario(path) == Scenario("UK-HC-103", {"A": True}, "")
    path.write_text(json.dumps(payload | {"description": "Turning left"}))
    assert compliance.load_scenario(path).description == "Turning left"
    path.write_text(json.dumps(payload | {"description": description}))
    with pytest.raises(ValueError, match=f"^{path}: description must be a JSON string$"):
        compliance.load_scenario(path)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_report_json_is_the_json_dumps_text(pack, data):
    """``report_to_json`` writes what ``json.dumps`` writes for the same
    payload, byte for byte: 0-3 drawn profiles over the shipped pack, with
    drawn vehicle ids, display names, digests and answers, an SAE level
    that is None or an integer, drawn requirement descriptions and rating
    rationales, with or without scenario outcomes and a timestamp."""
    requirements = [r.id for reqs in pack.checklists.values() for r in reqs]
    profiles = [
        CapabilityProfile(vehicle, data.draw(AWKWARD_TEXT),
                          {r: data.draw(st.sampled_from(Answer)) for r in requirements},
                          data.draw(st.none() | st.integers()), data.draw(AWKWARD_TEXT))
        for vehicle in data.draw(st.lists(AWKWARD_TEXT, max_size=3, unique=True))
    ]
    scenarios = [Scenario("UK-HC-103", {"A": True, "C": False})] * data.draw(st.integers(0, 1))
    report = build_report(pack, profiles, scenarios, timestamps=data.draw(st.booleans()))
    report.requirements = [r._replace(description=data.draw(AWKWARD_TEXT))
                           for r in report.requirements]
    report.ratings = {vehicle: {group: rating._replace(rationale=data.draw(AWKWARD_TEXT))
                                for group, rating in by_group.items()}
                      for vehicle, by_group in report.ratings.items()}
    assert first_difference(report_to_json(report), report_to_json_by_dumps(report)) is None
