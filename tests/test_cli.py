"""End-to-end command behaviour: outputs, exit codes, determinism."""

import contextlib
import inspect
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lexroad import bayes_net, boolean_core, cli, compliance, lawmap, rule_dsl, rulepack
from lexroad.rulepack import default_pack_dir, default_profile_paths
from test_rule_dsl import _clause_lines, _rule_texts

PACK = default_pack_dir()
PROFILES = {p.name.split(".")[0]: p for p in default_profile_paths()}


def run(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "lexroad", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
    )


def run_main(argv):
    """``lexroad.cli.main(argv)`` in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def write_scenario(tmp_path, rule_id, facts, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"rule_id": rule_id, "facts": facts}), encoding="utf-8")
    return path


def test_compile_signalling_rule():
    result = run("compile", PACK / "103.rule")
    assert result.returncode == 0
    assert result.stdout == "X = (A ∧ B) ∧ C\nY = (A ∧ B) ∧ ¬C\n"


def test_compile_ascii_flag():
    result = run("compile", PACK / "99-100-r1.rule", "--ascii")
    assert result.returncode == 0
    assert "B = (q | (r | s)) & y" in result.stdout


def test_compile_malformed_file(tmp_path):
    bad = tmp_path / "bad.rule"
    bad.write_text("rule: broken\n\nIF:\nno indent here\nELSE:\n    [Y] q.\n")
    result = run("compile", bad)
    assert result.returncode == 1
    assert ":4:1: error:" in result.stderr


def test_compile_missing_file():
    result = run("compile", "/nonexistent/x.rule")
    assert result.returncode == 1


def test_eval_child_restraint(tmp_path):
    scenario = write_scenario(tmp_path, "UK-HC-99-100/2", {"t": True, "z": False})
    result = run("eval", PACK / "99-100-r2.rule", scenario)
    assert result.returncode == 0
    assert "E: TRUE (Correct child restraint MUST be used)" in result.stdout
    assert "A: FALSE" in result.stdout


def test_eval_seat_belt(tmp_path):
    scenario = write_scenario(tmp_path, "UK-HC-99-100/1", {"q": True, "y": True})
    result = run("eval", PACK / "99-100-r1.rule", scenario)
    assert "B: TRUE (Seat belt cannot be worn)" in result.stdout


def test_eval_empty_scenario_warns(tmp_path):
    scenario = write_scenario(tmp_path, "UK-HC-103", {})
    result = run("eval", PACK / "103.rule", scenario)
    assert result.returncode == 0
    assert "X: UNKNOWN" in result.stdout and "Y: UNKNOWN" in result.stdout
    assert "warning" in result.stderr


def test_eval_unknown_variable_exits_3(tmp_path):
    scenario = write_scenario(tmp_path, "UK-HC-103", {"nope": True})
    result = run("eval", PACK / "103.rule", scenario)
    assert result.returncode == 3


def test_eval_scenario_for_another_rule_exits_3(tmp_path):
    # the signalling rules share variable letters; a mismatched rule_id
    # must not evaluate silently
    scenario = write_scenario(tmp_path, "UK-HC-103/scenario", {"A": True})
    result = run("eval", PACK / "103.rule", scenario)
    assert result.returncode == 3
    assert "targets rule" in result.stderr


def test_lawmap_dot_output(tmp_path):
    result = run("lawmap", PACK / "191-199.rule", "-f", "dot")
    assert result.returncode == 0
    assert "proceed through the pedestrian crossing with caution" in result.stdout
    assert "shape=diamond" in result.stdout


def test_lawmap_json_output():
    result = run("lawmap", PACK / "103.rule", "-f", "json")
    payload = json.loads(result.stdout)
    assert payload["rule_id"] == "UK-HC-103"


def test_lawmap_trace_highlights_path(tmp_path):
    scenario = write_scenario(tmp_path, "UK-HC-137-138", {"A": True, "C": False})
    result = run("lawmap", PACK / "137-138.rule", "--trace", scenario)
    assert result.returncode == 0
    assert "color=red" in result.stdout


def test_lawmap_trace_incomplete_exits_3(tmp_path):
    scenario = write_scenario(tmp_path, "UK-HC-137-138", {"A": True})
    result = run("lawmap", PACK / "137-138.rule", "--trace", scenario)
    assert result.returncode == 3
    assert "C" in result.stderr


def test_bn_validate_bundle():
    result = run(
        "bn",
        PACK / "99-100-r1.rule", PACK / "99-100-r2.rule", PACK / "99-100-r3.rule",
        "--validate",
    )
    assert result.returncode == 0
    assert "6/6 equations validated" in result.stdout


def test_bn_infer_scenario():
    result = run("bn", PACK / "99-100-r3.rule", "--infer", "u=true,p=true")
    assert result.returncode == 0
    assert "P(C=true) = 1.000000000" in result.stdout


def test_bn_infer_impossible_evidence_exits_4():
    result = run("bn", PACK / "99-100-r2.rule", "--infer", "t=false,A=true")
    assert result.returncode == 4


def test_bn_priors_file(tmp_path):
    priors = tmp_path / "priors.json"
    priors.write_text(json.dumps({"q": 0.9, "r": 0.9, "s": 0.9, "y": 0.5}))
    result = run("bn", PACK / "99-100-r1.rule", "--infer", "", "--priors", priors)
    assert result.returncode == 0
    value = float(result.stdout.splitlines()[0].rsplit("=", 1)[1])
    assert value > 7 / 16  # raised priors raise the no-evidence posterior


def test_bn_export_net():
    result = run("bn", PACK / "103.rule", "--export")
    payload = json.loads(result.stdout)
    assert {n["id"] for n in payload["nodes"]} >= {"A", "B", "C", "X", "Y"}


def write_wide_or_rule(tmp_path, k):
    """A rule whose antecedent [A] is the OR of facts v0 .. v<k-1>."""
    lines = [f"rule: WIDE-{k}", "", "IF:", "    [A] Any of:"]
    for i, marker in enumerate("abcdefghijklmnopqrstuvwxyz"[:k]):
        term = "." if i == k - 1 else "; or,"
        lines.append(f"        {marker}. Fact v{i} holds{term} @var(v{i})")
    lines += ["ELSE:", "    [Y] Outcome Y applies. @var(Y)"]
    path = tmp_path / f"wide-{k}.rule"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_bn_wide_rules_exit_cleanly(tmp_path):
    for k in (17, 25):
        rule = write_wide_or_rule(tmp_path, k)
        exported = run("bn", rule, "--export")
        assert exported.returncode == 0
        nodes = json.loads(exported.stdout)["nodes"]
        assert max(len(n["parents"]) for n in nodes) <= 16
        # three facts left open: P(Y) = 1 - 0.5^3
        evidence = ",".join(f"v{i}=false" for i in range(3, k))
        inferred = run("bn", rule, "--infer", evidence)
        assert inferred.returncode == 0
        assert inferred.stdout == "P(Y=true) = 0.875000000\n"
        for result in (exported, inferred):
            assert "Traceback" not in result.stderr
    # 2^17 assignments would take seconds; only the refusal is run
    refused = run("bn", rule)
    assert refused.returncode == 4
    assert refused.stdout == ""
    assert refused.stderr == "error: 25 roots exceed the 24-root bound\n"


def test_check_matrix_and_report(tmp_path):
    out = tmp_path / "report.json"
    result = run(
        "check", PACK,
        PROFILES["vauxhall-insignia"], PROFILES["mitsubishi-shogun-sport"],
        PROFILES["bmw-740li"],
        "--out", out,
    )
    assert result.returncode == 0
    assert "Capability evaluation matrix" in result.stdout
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["tool_version"]
    assert payload["inputs"]["rulepack"]["sha256"]
    assert payload["ratings"]["bmw-740li"]["99-100"]["rating"] == "RED"
    assert "generated_at" not in payload


def test_check_single_profile_column():
    """The lone-vehicle rendering reproduces that vehicle's whole column."""
    from conftest import MATRIX_ROWS

    result = run("check", PACK, PROFILES["bmw-740li"])
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    for _, description, _, _, bmw_mark in MATRIX_ROWS:
        line = next(l for l in lines if description in l)
        assert line.split(description, 1)[1].split() == [bmw_mark], description


def test_check_mitsubishi_sign_rows_not_applicable():
    result = run("check", PACK, PROFILES["mitsubishi-shogun-sport"])
    assert result.returncode == 0
    for needle in ("reads most speed limit signs", "identifies most give way signs"):
        line = next(l for l in result.stdout.splitlines() if needle in l)
        assert line.rstrip().endswith("N/A")


def test_check_default_pack_from_env(tmp_path):
    import os

    env = dict(os.environ)
    env["LEXROAD_RULEPACK"] = str(PACK)
    result = run("check", PROFILES["bmw-740li"], env=env)
    assert result.returncode == 0
    assert "Capability evaluation matrix" in result.stdout


def test_check_scenarios_are_reported(tmp_path):
    scenario = write_scenario(tmp_path, "UK-HC-103", {"A": True, "B": True, "C": False})
    result = run(
        "check", PACK, PROFILES["bmw-740li"], "--scenario", scenario, "--format", "json",
    )
    payload = json.loads(result.stdout)
    assert payload["rule_outcomes"]["UK-HC-103"] == {"X": "FALSE", "Y": "TRUE"}


def test_check_tampered_pack_exits_5(tmp_path):
    import shutil

    shutil.copytree(PACK, tmp_path / "pack")
    golden = tmp_path / "pack" / "137-138.golden.beq"
    golden.write_text("X = A ∨ C\nY = A ∧ ¬C\n", encoding="utf-8")
    result = run("check", tmp_path / "pack", PROFILES["bmw-740li"])
    assert result.returncode == 5
    assert "diverge" in result.stderr


def test_outputs_are_byte_identical_across_runs(tmp_path):
    args = [
        ("compile", PACK / "99-100-r3.rule"),
        ("lawmap", PACK / "103.rule", "-f", "json"),
        ("lawmap", PACK / "103.rule", "-f", "dot"),
        ("check", PACK, PROFILES["bmw-740li"], "--format", "json"),
    ]
    for cmd in args:
        first = run(*cmd)
        second = run(*cmd)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0


def test_timestamps_flag_adds_generation_time():
    result = run("check", PACK, PROFILES["bmw-740li"], "--format", "json", "--timestamps")
    payload = json.loads(result.stdout)
    assert "generated_at" in payload


def test_version_flag():
    result = run("--version")
    assert result.returncode == 0
    assert "lexroad" in result.stdout


# --- the exit-code table -----------------------------------------------------

BMW = PROFILES["bmw-740li"]


def write_file(d, name, content):
    path = d / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content if isinstance(content, str) else json.dumps(content),
                        encoding="utf-8")
    return path


def copy_pack(d, name, text):
    """The shipped pack with file ``name`` written as ``text``."""
    shutil.copytree(PACK, d / "pack")
    (d / "pack" / name).write_text(text, encoding="utf-8")
    return d / "pack"


LATIN1_RULE = "rule: L\n\nIF:\n    [A] Café open.\nELSE:\n    [Y] q.\n".encode("latin-1")
DECISION_FACT = {"rule_id": "UK-HC-103", "facts": {"A": True, "B": True, "C": False, "X": True}}

# (id, argv in a scratch dir <d>, exit code, stderr with <d> for that dir)
EXIT_TABLE = [
    ("compile-non-utf8", lambda d: ["compile", write_file(d, "l.rule", LATIN1_RULE)], 1,
     "error: 'utf-8' codec can't decode byte 0xe9 in position 24: invalid continuation byte\n"),
    ("compile-naming-conflict", lambda d: ["compile", write_file(
        d, "c.rule", "rule: C\n\nIF:\n    [A] One; and, @var(p)\n    [B] Two. @var(p)\n"
        "ELSE:\n    [Y] q. @var(Y)\n")], 2,
     "error: naming conflict on 'p': 'One' vs 'Two'\n"),
    ("eval-non-object", lambda d: ["eval", PACK / "103.rule", write_file(d, "s.json", [1])], 3,
     "error: <d>/s.json must be a JSON object\n"),
    ("eval-facts-non-object", lambda d: ["eval", PACK / "103.rule", write_file(
        d, "s.json", {"rule_id": "UK-HC-103", "facts": [1]})], 3,
     "error: <d>/s.json: facts must be a JSON object\n"),
    ("eval-decision-fact", lambda d: ["eval", PACK / "103.rule",
                                      write_file(d, "s.json", DECISION_FACT)], 3,
     "error: scenario for UK-HC-103 names decisions, not facts: X\n"),
    ("lawmap-trace-decision-fact", lambda d: ["lawmap", PACK / "103.rule", "--trace",
                                              write_file(d, "s.json", DECISION_FACT)], 3,
     "error: scenario for UK-HC-103 names decisions, not facts: X\n"),
    ("lawmap-trace-unknown-fact", lambda d: ["lawmap", PACK / "103.rule", "--trace", write_file(
        d, "s.json", {"rule_id": "UK-HC-103", "facts": {"A": True, "nope": True}})], 3,
     "error: scenario for UK-HC-103 names unknown variables: nope\n"),
    ("lawmap-wide-25", lambda d: ["lawmap", write_wide_or_rule(d, 25)], 4,
     "error: 25 input variables exceed the 24-variable bound\n"),
    ("bn-priors-non-object", lambda d: ["bn", PACK / "103.rule", "--priors",
                                        write_file(d, "p.json", [0.5])], 4,
     "error: <d>/p.json must be a JSON object\n"),
    ("bn-priors-not-a-number", lambda d: ["bn", PACK / "103.rule", "--priors",
                                          write_file(d, "p.json", {"A": None})], 4,
     "error: prior for A must be a number\n"),
    ("bn-unknown-evidence", lambda d: ["bn", PACK / "103.rule", "--infer", "zz=true"], 4,
     "error: \"evidence on unknown node 'zz'\"\n"),
    ("check-cyclic-golden", lambda d: [
        "check", copy_pack(d, "103.golden.beq", "X = Y ∧ A\nY = A\n"), BMW], 5,
     "error: decision 'Y' is used before (or within) its own definition\n"),
    ("check-malformed-rule", lambda d: [
        "check", copy_pack(d, "zz.rule", "rule: ZZ\n\nIF:\nno indent\nELSE:\n    [Y] q.\n"), BMW], 5,
     "<d>/pack/zz.rule:4:1: error: clause line must be indented under its section\n"),
    ("check-profile-non-object", lambda d: ["check", PACK, write_file(d, "v.json", [])], 5,
     "error: <d>/v.json must be a JSON object\n"),
    ("check-answers-non-object", lambda d: ["check", PACK, write_file(
        d, "v.json", {"vehicle_id": "v", "answers": []})], 5,
     "error: <d>/v.json: answers must be a JSON object\n"),
    ("check-scenario-decision-fact", lambda d: ["check", PACK, BMW, "--scenario",
                                                write_file(d, "s.json", DECISION_FACT)], 3,
     "error: scenario for UK-HC-103 names decisions, not facts: X\n"),
    ("check-scenario-unknown-rule", lambda d: ["check", PACK, BMW, "--scenario", write_file(
        d, "s.json", {"rule_id": "UK-HC-999", "facts": {}})], 3,
     "error: \"scenario names unknown rule 'UK-HC-999'\"\n"),
]


@pytest.mark.parametrize(
    "make_argv, code, stderr", [row[1:] for row in EXIT_TABLE], ids=[row[0] for row in EXIT_TABLE]
)
def test_exit_code_table(tmp_path, make_argv, code, stderr):
    assert run_main(make_argv(tmp_path)) == (code, "", stderr.replace("<d>", str(tmp_path)))


def test_every_lexroad_error_has_an_exit_code():
    modules = (rule_dsl, boolean_core, lawmap, bayes_net, rulepack, compliance)
    errors = {
        cls for module in modules for _, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, Exception) and cls.__module__ == module.__name__
    }
    assert errors == set(cli.EXIT_CODES)
    assert set(cli.EXIT_CODES.values()) == {1, 2, 3, 4, 5}


# --- no input makes the CLI crash --------------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)
# ids of a generated rule (named GEN) and of UK-HC-103, decisions among them,
# and a stranger
_NAMES = st.sampled_from(
    ["GEN.IF.A", "GEN.IF.A.a", "GEN.IF.B.b", "GEN.EXCEPT.C", "GEN.ELSE.Y", "A", "B", "X", "nope"]
)


@st.composite
def _rule_files(draw):
    """A generated rule, small enough for exhaustive steps, maybe corrupted."""
    lines = ["rule: GEN", ""] + draw(_rule_texts().filter(lambda t: t.count("\n") <= 9)).splitlines()
    corruption = draw(st.sampled_from(["none", "none", "splice", "char", "drop", "latin-1"]))
    at = draw(st.integers(0, len(lines) - 1))
    if corruption == "splice":  # a clause of any depth anywhere, maybe a duplicate label
        lines[at:at] = draw(_clause_lines(draw(st.integers(1, 3)), draw(st.integers(0, 2))))
    elif corruption == "char":
        col = draw(st.integers(0, len(lines[at])))
        glyph = draw(st.sampled_from(list("[]().:;@\t #é\r") + ["@var(GEN.IF.A)", "EXCEPT:"]))
        lines[at] = lines[at][:col] + glyph + lines[at][col:]
    elif corruption == "drop":
        del lines[at]
    elif corruption == "latin-1":
        lines[at] += " café"
    text = "\n".join(lines) + "\n"
    return text.encode("latin-1" if corruption == "latin-1" else "utf-8")


def _corrupted(draw, valid: dict) -> object:
    """``valid``, or a copy with its whole value or one key replaced."""
    where = draw(st.sampled_from([None, "whole", *valid]))
    if where is None:
        return valid
    if where == "whole":
        return draw(_JSON)
    return {**valid, where: draw(_JSON)}


@st.composite
def _invocations(draw):
    """(files to write, argv with <d> for their directory)."""
    files = {"r.rule": draw(_rule_files())}
    facts = draw(st.dictionaries(_NAMES, st.booleans(), max_size=4))
    rule_id = draw(st.sampled_from(["GEN", "UK-HC-103"]))
    scenario = _corrupted(draw, {"rule_id": rule_id, "facts": facts})
    files["s.json"] = json.dumps(scenario).encode()
    profile = json.loads(BMW.read_text(encoding="utf-8"))
    files["v.json"] = json.dumps(_corrupted(draw, profile)).encode()
    files["p.json"] = json.dumps(_corrupted(draw, {"GEN.IF.A": 0.3})).encode()
    evidence = ",".join(
        f"{name}={draw(st.sampled_from(['true', 'false', 'maybe']))}"
        for name in draw(st.lists(_NAMES, max_size=3))
    )
    argv = draw(st.sampled_from([
        ["eval", "<d>/r.rule", "<d>/s.json"],
        ["lawmap", "<d>/r.rule", "--trace", "<d>/s.json"],
        ["check", str(PACK), str(BMW), "--scenario", "<d>/s.json"],
        ["check", str(PACK), "<d>/v.json"],
        ["bn", "<d>/r.rule", f"--infer={evidence}", "--priors", "<d>/p.json"],
        ["bn", "<d>/r.rule", "--export", "--priors", "<d>/p.json"],
        ["bn", "<d>/r.rule"],
        ["lawmap", "<d>/r.rule", "-f", "json"],
        ["compile", "<d>/r.rule"],
    ]))
    return files, argv


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_invocations())
def test_no_input_escapes_the_exit_code_table(invocation):
    files, argv = invocation
    with tempfile.TemporaryDirectory() as d:
        for name, content in files.items():
            (Path(d) / name).write_bytes(content)
        code, _, err = run_main([a.replace("<d>", d) for a in argv])
    assert code in range(6)
    if code:
        assert len(err.splitlines()) == 1, err
