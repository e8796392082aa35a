"""Pack loading, golden cross-checks and the traffic-light rating."""

import json
import shutil

import pytest

from lexroad import rulepack, strict_json
from lexroad.compliance import build_report
from lexroad.rulepack import (
    Answer,
    CapabilityProfile,
    GoldenMismatchError,
    IncompleteProfileError,
    Rag,
    default_pack_dir,
    load_profile,
    load_rulepack,
    rate,
)
import reference

def test_shipped_pack_shape(pack):
    # rules in file order, each with its group
    assert [(rule_id, rule.source.group) for rule_id, rule in pack.rules_by_id.items()] == [
        ("UK-HC-103/scenario", "103-105"), ("UK-HC-103", "103-105"),
        ("UK-HC-137-138", "137-138"), ("UK-HC-191-199", "191-199"),
        ("UK-HC-99-100/1", "99-100"), ("UK-HC-99-100/2", "99-100"), ("UK-HC-99-100/3", "99-100"),
    ]
    assert list(pack.checklists) == [
        "99-100", "103-105", "113", "127-132", "137-138", "191-199", "229",
    ]
    assert sum(len(reqs) for reqs in pack.checklists.values()) == 27


def test_checklist_only_groups_have_no_source(pack):
    ruled = {rule.source.group for rule in pack.rules()}
    assert [g for g in pack.checklists if g not in ruled] == ["113", "127-132", "229"]
    for group in ("113", "127-132", "229"):
        assert pack.checklists[group]


def test_every_rule_has_golden_equations(pack):
    for entry in pack.rules():
        assert entry.golden_equations
        assert entry.equations is not None


def test_empty_directory_loads_empty_pack(tmp_path):
    pack = load_rulepack(tmp_path)
    assert pack.rules_by_id == {}
    assert pack.checklists == {}


def test_tampered_golden_is_detected(tmp_path):
    shutil.copytree(default_pack_dir(), tmp_path / "pack", dirs_exist_ok=True)
    golden = tmp_path / "pack" / "99-100-r1.golden.beq"
    golden.write_text("B = (q ∨ (r ∨ s)) ∧ y\nD = (q ∨ r) ∧ ¬y\n", encoding="utf-8")
    with pytest.raises(GoldenMismatchError) as err:
        load_rulepack(tmp_path / "pack")
    assert err.value.rule_id == "UK-HC-99-100/1"
    assert err.value.decision == "D"
    witness = err.value.witness
    # the witness distinguishes the two forms: s true, q and r false
    assert witness["s"] and not witness["q"] and not witness["r"]


def test_shipped_profiles_cover_all_requirements(pack):
    for path in rulepack.default_profile_paths():
        profile = load_profile(path)
        for group in pack.checklists:
            rating = pack.rate(group, profile)
            assert rating.rating in (Rag.GREEN, Rag.AMBER, Rag.RED)


def test_shipped_profile_cells_match_transcription(pack):
    """Spot-check distinctive cells of the evaluation matrix fixture."""
    by_id = {p.vehicle_id: p for p in map(load_profile, rulepack.default_profile_paths())}
    vauxhall = by_id["vauxhall-insignia"]
    mitsubishi = by_id["mitsubishi-shogun-sport"]
    bmw = by_id["bmw-740li"]
    assert vauxhall.answers["103-105.speed-signs"] == Answer.MET
    assert mitsubishi.answers["103-105.speed-signs"] == Answer.NOT_APPLICABLE
    assert bmw.answers["103-105.give-way-signs"] == Answer.MET
    assert bmw.answers["191-199.pedestrian-detect"] == Answer.UNMET
    assert mitsubishi.answers["191-199.pedestrian-avoid"] == Answer.MET
    assert vauxhall.answers["99-100.unplug-detect"] == Answer.MET
    assert mitsubishi.answers["99-100.unplug-detect"] == Answer.UNMET


def test_all_lights_group_rates_green(pack):
    for path in rulepack.default_profile_paths():
        assert pack.rate("113", load_profile(path)).rating == Rag.GREEN


def test_restraint_group_rates_red_on_hardware_gap(pack):
    bmw = load_profile(default_pack_dir() / "vehicles" / "bmw-740li.profile.json")
    rating = pack.rate("99-100", bmw)
    assert rating.rating == Rag.RED
    assert "99-100.restraint-type" in rating.rationale


def test_software_gaps_rate_amber(pack):
    bmw = load_profile(default_pack_dir() / "vehicles" / "bmw-740li.profile.json")
    assert pack.rate("137-138", bmw).rating == Rag.AMBER


def test_vacuous_profile_rates_amber(pack):
    reqs = pack.checklists["127-132"]
    profile = CapabilityProfile(
        vehicle_id="bare",
        display_name="Bare",
        answers={r.id: Answer.NOT_APPLICABLE for r in reqs},
    )
    rating = pack.rate("127-132", profile)
    assert rating.rating == Rag.AMBER
    assert rating.rationale == "no applicable evidence"


def test_all_met_profile_rates_green(pack):
    for group, reqs in pack.checklists.items():
        profile = CapabilityProfile(
            vehicle_id="ideal",
            display_name="Ideal",
            answers={r.id: Answer.MET for r in reqs},
        )
        assert pack.rate(group, profile).rating == Rag.GREEN


def test_incomplete_profile_is_rejected(pack):
    profile = CapabilityProfile("partial", "Partial", {"113.low-light-lights": Answer.MET})
    with pytest.raises(IncompleteProfileError) as err:
        pack.rate("99-100", profile)
    assert "99-100.restraint-required" in err.value.missing


def test_profile_sae_level_is_a_j3016_level_or_null(tmp_path):
    path = tmp_path / "v.profile.json"

    def load(**extra):
        path.write_text(json.dumps({"vehicle_id": "v", "answers": {}, **extra}), encoding="utf-8")
        return load_profile(path)

    assert load().sae_level is None
    assert [load(sae_level=level).sae_level for level in (None, 0, 3, 5)] == [None, 0, 3, 5]
    for bad in ("three", "3", True, False, -1, 6, 2.0, [2]):
        with pytest.raises(ValueError, match=f"^{path}: sae_level must be an integer from 0 to 5"):
            load(sae_level=bad)


def test_rating_is_insensitive_to_answer_order(pack):
    reqs = pack.checklists["99-100"]
    answers = [(r.id, Answer.UNMET if r.hardware_gap else Answer.MET) for r in reqs]
    forward = CapabilityProfile("v", "V", dict(answers))
    backward = CapabilityProfile("v", "V", dict(reversed(answers)))
    assert rate("99-100", reqs, forward) == rate("99-100", reqs, backward)


def test_groups_sort_in_natural_order(tmp_path):
    for group in ("9-12", "10", "9"):
        (tmp_path / f"{group}.checklist.json").write_text(
            json.dumps({"group": group, "requirements": []}), encoding="utf-8"
        )
    assert list(load_rulepack(tmp_path).checklists) == ["9", "9-12", "10"]


def test_duplicate_rule_ids_rejected(tmp_path):
    body = "rule: SAME-1\n\nIF:\n    [A] p. @var(a)\nELSE:\n    [Y] q. @var(Y)\n"
    (tmp_path / "one.rule").write_text(body, encoding="utf-8")
    (tmp_path / "two.rule").write_text(body, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_rulepack(tmp_path)
    assert "duplicate rule id" in str(err.value)


def test_duplicate_requirement_ids_rejected(tmp_path):
    payload = {
        "group": "113",
        "requirements": [
            {"id": "x", "description": "a"},
            {"id": "x", "description": "b"},
        ],
    }
    (tmp_path / "113.checklist.json").write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError):
        load_rulepack(tmp_path)


def test_pack_digest_is_stable_and_content_sensitive(tmp_path):
    src = default_pack_dir()
    assert rulepack.pack_digest(src) == rulepack.pack_digest(src)
    shutil.copytree(src, tmp_path / "pack", dirs_exist_ok=True)
    assert rulepack.pack_digest(tmp_path / "pack") == rulepack.pack_digest(src)
    (tmp_path / "pack" / "99-100-r1.rule").write_text("rule: x\n\nIF:\n    [A] p.\nELSE:\n    [Y] q.\n")
    assert rulepack.pack_digest(tmp_path / "pack") != rulepack.pack_digest(src)


def _nested(pack):
    # "a/b" sorts before "a-c" by path component, after it as a string
    (pack / "a" / "deeper").mkdir(parents=True)
    (pack / "a" / "b").write_bytes(b"under a")
    (pack / "a" / "deeper" / "c.txt").write_bytes(b"two down")
    (pack / "a-c").write_bytes(b"beside a")


def _hidden(pack):
    (pack / ".hidden").write_bytes(b"dot file")
    (pack / "vehicles" / ".more").write_bytes(b"dot file below")


def _empty_subdirectory(pack):
    (pack / "empty" / "emptier").mkdir(parents=True)


def _symlinked_file(pack):
    (pack.parent / "outside.txt").write_bytes(b"kept outside the pack")
    (pack / "linked.txt").symlink_to(pack.parent / "outside.txt")
    (pack / "linked-dir").symlink_to(pack / "vehicles")


def _non_utf8_file(pack):
    (pack / "notes.latin1").write_bytes("café".encode("latin-1"))


@pytest.mark.parametrize("change", [None, _nested, _hidden, _empty_subdirectory,
                                    _symlinked_file, _non_utf8_file])
def test_pack_digest_matches_the_rglob_oracle(tmp_path, change):
    pack = tmp_path / "pack"
    shutil.copytree(default_pack_dir(), pack)
    if change is not None:
        change(pack)
    want = reference.pack_digest(pack)
    assert rulepack.pack_digest(pack) == want
    assert load_rulepack(pack).sha256 == want
    if change is None:
        assert rulepack.pack_digest(default_pack_dir()) == want


def test_report_digest_is_of_the_bytes_loaded(tmp_path):
    shutil.copytree(default_pack_dir(), tmp_path / "pack")
    pack = load_rulepack(tmp_path / "pack")
    loaded = rulepack.pack_digest(tmp_path / "pack")
    with open(tmp_path / "pack" / "113.checklist.json", "a", encoding="utf-8") as f:
        f.write("\n")
    report = build_report(pack, [])
    assert report.pack_sha256 == loaded != rulepack.pack_digest(tmp_path / "pack")


@pytest.mark.parametrize("read", [load_rulepack, rulepack.pack_digest])
def test_a_pack_that_is_not_a_directory_is_refused(tmp_path, read):
    with pytest.raises(FileNotFoundError):
        read(tmp_path / "no" / "such")
    (tmp_path / "file").write_text("{}", encoding="utf-8")
    with pytest.raises(NotADirectoryError):
        read(tmp_path / "file")


@pytest.mark.parametrize("data", [
    b'{"group": "113",\r\n "requirements": [],\r\n}',
    b'{"group": "113",\r "requirements": [] ]',
    b'{\r\n"a": 1,\r\n"a": 2}',
    b'{"a":\n"caf\xe9"}',
    b'\r\n{"a": "\r\n"}',
    b'{"a": "b"}\r\n',
])
def test_json_inputs_read_as_text_mode_reads_them(tmp_path, data):
    path = tmp_path / "in.json"
    path.write_bytes(data)

    def outcome(load):
        try:
            return load(str(path))
        except ValueError as exc:
            return type(exc), str(exc)

    assert outcome(strict_json.load) == outcome(reference.load_json_object)
