"""The optional fields of lexroad's JSON inputs: an absent key reads as the
field's default, and a null is refused for every field but a profile's
``sae_level``, which reads it as its default."""

import json

import pytest

from lexroad import rulepack
from lexroad.boolean_core import load_scenario


def _write(d, name, payload):
    path = d / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


# input → its reader, given a scratch dir and a payload
READERS = {
    "scenario": lambda d, payload: load_scenario(_write(d, "s.json", payload)),
    "profile": lambda d, payload: rulepack.load_profile(_write(d, "v.json", payload)),
    "checklist": lambda d, payload: rulepack.load_rulepack(
        _write(d, "g.checklist.json", payload).parent).checklists["g"],
}


@pytest.fixture
def payloads():
    """A valid payload of each input."""
    return {
        "scenario": {"rule_id": "UK-HC-103", "facts": {"A": True}, "description": "d"},
        "profile": {"vehicle_id": "v", "display_name": "V", "sae_level": 2,
                    "answers": {"x": "MET"}},
        "checklist": {"group": "g", "requirements": [
            {"id": "x", "description": "d", "hardware_gap": True}]},
    }


def _target(payload, path):
    """The object holding the field at ``path``."""
    for key in path[:-1]:
        payload = payload[key]
    return payload


# (input, path to an optional field, the field read back, its default)
ABSENT = [
    ("scenario", ("description",), lambda s: s.description, ""),
    ("scenario", ("facts",), lambda s: s.facts, {}),
    ("checklist", ("requirements", 0, "hardware_gap"), lambda c: c[0].hardware_gap, False),
    ("profile", ("display_name",), lambda p: p.display_name, "v"),
    ("profile", ("sae_level",), lambda p: p.sae_level, None),
]


@pytest.mark.parametrize("name, path, read, default", ABSENT,
                         ids=[f"{row[0]}-{row[1][-1]}" for row in ABSENT])
def test_an_absent_optional_field_reads_as_its_default(tmp_path, payloads, name, path, read,
                                                       default):
    payload = payloads[name]
    assert read(READERS[name](tmp_path, payload)) != default
    del _target(payload, path)[path[-1]]
    assert read(READERS[name](tmp_path, payload)) == default


# every field of each input, and of the first object in each of its arrays
FIELDS = {
    "scenario": [("rule_id",), ("facts",), ("description",)],
    "profile": [("vehicle_id",), ("display_name",), ("sae_level",), ("answers",)],
    "checklist": [("group",), ("requirements",),
                  *[("requirements", 0, key) for key in ("id", "description", "hardware_gap")]],
}
NULLS = [(name, path) for name, paths in FIELDS.items() for path in paths]


@pytest.mark.parametrize("name, path", NULLS, ids=["-".join(map(str, [name, *path]))
                                                   for name, path in NULLS])
def test_null_is_refused_but_for_var_and_sae_level(tmp_path, payloads, name, path):
    payload = payloads[name]
    _target(payload, path)[path[-1]] = None
    if path[-1] == "sae_level":
        READERS[name](tmp_path, payload)
    else:
        with pytest.raises(ValueError, match=rf"\b{path[-1]} must be"):
            READERS[name](tmp_path, payload)
