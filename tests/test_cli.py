"""End-to-end command behaviour: outputs, exit codes, determinism."""

import contextlib
import hashlib
import importlib
import inspect
import io
import itertools
import json
import os
import pkgutil
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import lexroad
from lexroad import boolean_core, cli, lawmap, rule_dsl, rulepack
from lexroad.rulepack import default_pack_dir, default_profile_paths
import reference
from test_boolean_core import REPEATED_VAR_RULE
from test_rule_dsl import _rule_files

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
    """A rule whose antecedent [A] is the OR of facts v0 .. v<k-1>, marked
    a., b., ... when there are at most 26."""
    lines = [f"rule: WIDE-{k}", "", "IF:", "    [A] Any of:"]
    for i in range(k):
        marker = f"{'abcdefghijklmnopqrstuvwxyz'[i]}. " if k <= 26 else ""
        term = "." if i == k - 1 else "; or,"
        lines.append(f"        {marker}Fact v{i} holds{term} @var(v{i})")
    lines += ["ELSE:", "    [Y] Outcome Y applies. @var(Y)"]
    path = tmp_path / f"wide-{k}.rule"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_lawmap_of_a_wide_or_is_a_chain(tmp_path):
    code, out, err = run_main(["lawmap", write_wide_or_rule(tmp_path, 25), "-f", "json"])
    assert (code, err) == (0, "")
    graph = json.loads(out)
    conditions = [n for n in graph["nodes"] if n["kind"] == "condition"]
    assert [n["var"] for n in conditions] == [f"v{i}" for i in range(25)]
    edges = {(e["from"], e["guard"]): e["to"] for e in graph["edges"]}
    for node, after in zip(conditions, conditions[1:] + [{"id": "sink"}]):
        assert edges[(node["id"], "yes")] == "outcome_Y"
        assert edges[(node["id"], "no")] == after["id"]


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
    # all 2^25 assignments are covered on the decision diagram
    validated = run("bn", rule)
    assert validated.returncode == 0
    assert validated.stdout == (
        "rule WIDE-25: 1/1 equations validated over 33554432 assignments [ok]\n"
        "1/1 equations validated\n"
    )
    assert validated.stderr == ""


def test_bn_infer_leaves_22_of_25_inputs_open(tmp_path):
    argv = ["bn", write_wide_or_rule(tmp_path, 25), "--infer", "v0=false,v1=false,v2=false"]
    # P(Y) = 1 - 2^-22: Y is false only when all 22 open facts are
    assert run_main(argv) == (0, "P(Y=true) = 0.999999762\n", "")


def test_a_one_level_or_of_950_facts_runs_at_the_default_recursion_limit(tmp_path):
    """``ite`` still recurses once per input where it joins two wide
    functions: in ``bn`` validation, and in the negation of an EXCEPT that
    is one OR.  So a fresh process at the default recursion limit validates
    a one-level OR of up to 990 facts; every command still answers at 950."""
    k = 950
    rule = write_wide_or_rule(tmp_path, k)
    observed = {f"v{i}": False for i in range(k - 3)}
    with deadline(30.0):
        for facts in (observed, {**observed, f"v{k - 2}": True},
                      {f"v{i}": False for i in range(k)}):
            # Y = v0 ∨ ... ∨ v949 on every completion of the open facts
            values = {any(facts.values()) or any(bits)
                      for bits in itertools.product((False, True), repeat=k - len(facts))}
            want = "UNKNOWN" if len(values) == 2 else str(*values).upper()
            result = run("eval", rule, write_scenario(tmp_path, f"WIDE-{k}", facts))
            assert (result.returncode, result.stdout, result.stderr) == (
                0, f"Y: {want} (Outcome Y applies)\n", "")
        assert run("lawmap", rule, "-f", "json").returncode == 0
        # every observed fact false: Y is false only when all 10 open facts are
        evidence = ",".join(f"v{i}=false" for i in range(k - 10))
        result = run("bn", rule, "--infer", evidence)
        assert (result.returncode, result.stdout, result.stderr) == (
            0, f"P(Y=true) = {1 - 0.5 ** 10:.9f}\n", "")


def test_eval_reads_a_one_level_or_of_5000_facts_at_the_default_recursion_limit(tmp_path):
    """``settle`` searches with a stack of its own, so ``eval`` of an IF that
    is one OR no longer recurses once per fact: a fresh process at the
    default recursion limit gives the 950-fact test's verdicts at 5,000."""
    k = 5000
    rule = write_wide_or_rule(tmp_path, k)
    observed = {f"v{i}": False for i in range(k - 3)}
    with deadline(30.0):
        for facts, want in ((observed, "UNKNOWN"), ({**observed, f"v{k - 2}": True}, "TRUE"),
                            ({f"v{i}": False for i in range(k)}, "FALSE")):
            result = run("eval", rule, write_scenario(tmp_path, f"WIDE-{k}", facts))
            assert (result.returncode, result.stdout, result.stderr) == (
                0, f"Y: {want} (Outcome Y applies)\n", "")


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


def test_check_reads_each_profile_once(tmp_path, monkeypatch):
    """The report's profile sha256 is of the bytes the profile was parsed
    from, not of a second read of its file."""
    profile = shutil.copy(BMW, tmp_path / "bmw.profile.json")
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        opened.append(file if isinstance(file, int) else os.fspath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    code, out, _ = run_main(["check", PACK, profile, "--format", "json"])
    monkeypatch.undo()
    assert code == 0
    assert opened.count(str(profile)) == 1
    digest = hashlib.sha256(profile.read_bytes()).hexdigest()
    assert json.loads(out)["inputs"]["profiles"][0]["sha256"] == digest


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


def test_check_pack_adds_a_rule_group(tmp_path):
    """A pack can add a rule group with no code change: its checklist rates
    after 229 and its rules report under it."""
    pack = tmp_path / "pack"
    shutil.copytree(PACK, pack)
    write_file(pack, "300-301.checklist.json", {"group": "300-301", "requirements": [
        {"id": "300-301.queue-detect", "description": "Smart function detects queues ahead"},
    ]})
    write_file(pack, "300-301.rule", "rule: UK-HC-300\ngroup: 300-301\n\nIF:\n"
               "    [A] Traffic is queuing ahead. @var(q)\nELSE:\n    [Y] Slow down. @var(Y)\n")
    profile = json.loads(BMW.read_text(encoding="utf-8"))
    profile["answers"]["300-301.queue-detect"] = "MET"
    code, out, err = run_main([
        "check", pack, write_file(tmp_path, "v.json", profile), "--scenario",
        write_scenario(tmp_path, "UK-HC-300", {"q": True}),
    ])
    assert (code, err) == (0, "")
    # a group opens its first matrix row and its rating row
    groups = [line.split()[0] for line in out.splitlines() if line[:1].isdigit()]
    assert groups == 2 * ["99-100", "103-105", "113", "127-132", "137-138", "191-199", "229",
                          "300-301"]
    assert "Smart function detects queues ahead" in out
    assert out.endswith("UK-HC-300 (group 300-301): Y=TRUE\n")


def test_check_a_pack_with_no_checklists(tmp_path):
    """Empty matrix and rating tables, in text and JSON, not a traceback."""
    pack = tmp_path / "pack"
    pack.mkdir()
    rule = (PACK / "103.rule").read_text(encoding="utf-8")
    write_file(pack, "103.rule", "".join(
        line for line in rule.splitlines(keepends=True) if not line.startswith("group:")))
    shutil.copy(PACK / "103.golden.beq", pack)
    profile = write_file(tmp_path, "v.profile.json", {"vehicle_id": "v", "answers": {}})
    assert run_main(["check", pack, profile]) == (0, (
        "Capability evaluation matrix\n\n"
        "Rule group  Requirement  v\n"
        "----------  -----------  -\n\n"
        "Legend: ✓ met, ✗ unmet, N/A no relevant function fitted\n\n"
        "Traffic-light ratings\n\n"
        "Rule group  v\n"
        "----------  -\n"
    ), "")
    code, out, err = run_main(["check", pack, profile, "--format", "json"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["requirements"], payload["answers"], payload["ratings"]) == (
        [], {"v": {}}, {"v": {}})


def test_eval_and_check_give_the_forced_verdict_on_a_repeated_variable(tmp_path):
    """Z = (a ∨ b) ∧ ¬a is FALSE once b is FALSE, whatever a is."""
    pack = tmp_path / "pack"
    shutil.copytree(PACK, pack)
    rule = write_file(pack, "r.rule", "rule: R\n\n" + REPEATED_VAR_RULE)
    scenario = write_scenario(tmp_path, "R", {"b": False})
    assert run_main(["eval", rule, scenario]) == (0, "Y: UNKNOWN (y)\nZ: FALSE (z)\n", "")
    code, out, err = run_main(["check", pack, BMW, "--scenario", scenario])
    assert (code, err) == (0, "")
    assert out.endswith("R: Y=UNKNOWN, Z=FALSE\n")


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


# the total scripts/output_digest.py prints: a digest of every byte of 720 CLI
# calls on the shipped pack and the seeded synthetic family; it moves only
# when some command writes other bytes or exits with another code
OUTPUT_DIGEST_TOTAL = "1dbebc3cd8b7dc2a3dfc2baead78120345ad0604abd7225d891cb1f1e28c67a5"


def test_output_digest_total_is_unchanged():
    script = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"
    result = subprocess.run([sys.executable, str(script)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == f"{OUTPUT_DIGEST_TOTAL} total"


def test_timestamps_flag_adds_generation_time():
    result = run("check", PACK, PROFILES["bmw-740li"], "--format", "json", "--timestamps")
    payload = json.loads(result.stdout)
    assert "generated_at" in payload


def test_version_flag():
    """``--version`` prints exactly the version line; in process, ``main``
    returns 0 for it and for ``-h`` instead of raising ``SystemExit``."""
    version = f"lexroad {lexroad.__version__}\n"
    result = run("--version")
    assert (result.returncode, result.stdout, result.stderr) == (0, version, "")
    assert run_main(["--version"]) == (0, version, "")
    assert run_main(["-h"])[0] == 0


@pytest.mark.parametrize("command", [None, "compile", "eval", "lawmap", "bn", "check"])
def test_help_names_every_option_with_its_help(command):
    """``lexroad [COMMAND] -h`` names each option and positional of that
    parser, and each command of lexroad, with the help string it had."""
    result = run(*filter(None, [command, "-h"]))
    assert (result.returncode, result.stderr) == (0, "")
    parser = reference.build_parser()
    if command:
        parser = parser._subparsers._group_actions[0].choices[command]
    for action in parser._actions:
        for name in action.option_strings:
            assert name in result.stdout, name
        assert action.help is None or action.help in result.stdout, action.help
        for choice in getattr(action, "_choices_actions", ()):
            assert choice.dest in result.stdout and choice.help in result.stdout, choice.dest


def test_every_usage_line_of_the_readme_is_in_the_help():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    usage = [line.split("#")[0].strip() for line in block.splitlines()]
    assert len(usage) == 6
    help_text = run("-h").stdout
    assert [line for line in usage if line not in help_text] == []


# --- the command line reads as it did with argparse ----------------------------

_ARGUMENTS = ["r.rule", "s.json", "a b", "-a b", "-", "-1", "--", ""]
# every option of every command, with a prefix that no other option of its command has
_OPTIONS = [("--ascii", "--as"), ("--out", "--o"), ("-f", "-f"), ("--format", "--fo"),
            ("--trace", "--tr"), ("--validate", "--v"), ("--infer", "--i"), ("--export", "--e"),
            ("--priors", "--p"), ("--scenario", "--s"), ("--timestamps", "--ti")]


@st.composite
def _command_lines(draw):
    """A command (or none, or one that does not exist), then up to six
    arguments or options, an option spelt whole or as its prefix, alone,
    before a value, with ``=value`` or, for ``-f``, with the value run on."""
    argv = draw(st.sampled_from([[], ["compile"], ["eval"], ["lawmap"], ["bn"], ["check"],
                                 ["bogus"]]))
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            argv.append(draw(st.sampled_from(_ARGUMENTS)))
            continue
        spelling = draw(st.sampled_from(draw(st.sampled_from(_OPTIONS))))
        value = draw(st.sampled_from([*_ARGUMENTS, "json", "svg", "u=true"]))
        argv += draw(st.sampled_from([[spelling], [spelling, value], [f"{spelling}={value}"],
                                      *([[spelling + value]] if spelling == "-f" else [])]))
    return argv


def _argparse_reads(argv):
    """What the argparse definition ``tests/reference.py`` keeps made of
    ``argv``: ("fields", the namespace's fields), ("refused", its message)
    or ("shown", the help or version it printed)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return "fields", vars(reference.build_parser().parse_args(argv))
    except reference.UsageError as exc:
        return "refused", str(exc)
    except SystemExit:
        return "shown", out.getvalue()


@settings(max_examples=1000, deadline=None)
@given(_command_lines())
def test_the_command_line_reads_as_it_did_with_argparse(argv):
    """Where argparse gave fields the reader gives the same fields, where it
    refused the reader refuses with its message, and where it showed help
    or the version so does ``main``. argparse also dropped a literal ``--``
    from a value (``--infer=--`` read as an empty list, which crashed
    ``cmd_bn``); the reader keeps it, so those lines are left out here and
    pinned in the exit-code table."""
    first = argv.index("--") if "--" in argv else len(argv)
    assume("--" not in argv[first + 1:])
    assume(not any(token.endswith("=--") or token == "-f--" for token in argv[:first]))
    kind, oracle = _argparse_reads(argv)
    if kind == "fields":
        assert vars(cli.build_parser().read(argv)) == oracle
    elif kind == "refused":
        assert run_main(argv) == (1, "", f"error: {oracle}\n")
    else:
        code, out, err = run_main(argv)
        assert (code, err) == (0, "")
        # the same help, lexroad's or one command's ("usage: lexroad bn ..."), or the version
        assert out.split()[:3] == oracle.split()[:3]


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
    """The shipped pack with file ``name`` written as ``text`` (or bytes)."""
    shutil.copytree(PACK, d / "pack")
    write_file(d / "pack", name, text)
    return d / "pack"


def pack_with_entry(d, name, kind):
    """The shipped pack with an entry ``name``, in place of any file of that
    name, that is not a regular file: a directory, a FIFO, or a symlink to
    nothing."""
    shutil.copytree(PACK, d / "pack")
    (d / "pack" / name).unlink(missing_ok=True)
    if kind == "directory":
        (d / "pack" / name).mkdir()
    elif kind == "fifo":
        os.mkfifo(d / "pack" / name)
    else:
        (d / "pack" / name).symlink_to(d / "nowhere")
    return d / "pack"


def nested_rule(levels):
    """A rule whose IF nests one clause per level, ``levels`` levels deep,
    over the facts p0, p1, ...: the k-th level's line is line 4 + 2k."""
    lines = ["rule: DEEP", "", "IF:"]
    for k in range(levels):
        pad = "    " * (k + 1)
        if k == levels - 1:
            lines.append(f"{pad}a. p{k} holds. @var(p{k})")
        else:
            lines += [f"{pad}a. p{k} holds; or, @var(p{k})", f"{pad}b. Otherwise:"]
    return "\n".join([*lines, "ELSE:", "    [Y] q. @var(Y)", ""])


NESTED_JSON = "[" * 100_000 + "]" * 100_000
TOO_DEEP_JSON = f"JSON nests too deep to read (recursion limit {sys.getrecursionlimit()})"
MALFORMED_JSON = '{"group": "x",\n'
BAD_JSON = "Expecting property name enclosed in double quotes: line 2 column 1 (char 15)"
HUGE_INT = "9" * (sys.get_int_max_str_digits() + 1)
TOO_LONG_INT = f"an integer has more than {sys.get_int_max_str_digits()} digits"
LATIN1_RULE = "rule: L\n\nIF:\n    [A] Café open.\nELSE:\n    [Y] q.\n".encode("latin-1")
LATIN1_JSON = '{"rule_id": "UK-HC-103",\r\n "facts": {"Café": true}}'.encode("latin-1")
DECISION_FACT = {"rule_id": "UK-HC-103", "facts": {"A": True, "B": True, "C": False, "X": True}}
A_FALSE = {"rule_id": "UK-HC-103", "facts": {"A": False}}

# (id, argv in a scratch dir <d>, exit code, stderr with <d> for that dir)
EXIT_TABLE = [
    ("compile-non-utf8", lambda d: ["compile", write_file(d, "l.rule", LATIN1_RULE)], 1,
     "error: <d>/l.rule: line 4: can't decode byte 0xe9 as UTF-8: invalid continuation byte\n"),
    ("eval-scenario-non-utf8", lambda d: ["eval", PACK / "103.rule",
                                          write_file(d, "s.json", LATIN1_JSON)], 3,
     "error: <d>/s.json: line 2: can't decode byte 0xe9 as UTF-8: invalid continuation byte\n"),
    ("check-profile-non-utf8", lambda d: ["check", PACK, write_file(d, "v.json", LATIN1_JSON)],
     5, "error: <d>/v.json: line 2: can't decode byte 0xe9 as UTF-8: invalid continuation byte\n"),
    ("check-golden-non-utf8", lambda d: ["check", copy_pack(
        d, "103.golden.beq", b"X = A & B & C\r\nY = A & B & !C \xe9\n"), BMW], 5,
     "error: <d>/pack/103.golden.beq: line 2: can't decode byte 0xe9 as UTF-8: invalid "
     "continuation byte\n"),
    ("compile-naming-conflict", lambda d: ["compile", write_file(
        d, "c.rule", "rule: C\n\nIF:\n    [A] One; and, @var(p)\n    [B] Two. @var(p)\n"
        "ELSE:\n    [Y] q. @var(Y)\n")], 2,
     "error: naming conflict on 'p': 'One' vs 'Two'\n"),
    ("compile-duplicate-outcome-label", lambda d: ["compile", write_file(
        d, "dup.rule", "rule: D\n\nIF:\n    [A] p.\nTHEN:\n    [Y] t.\nELSE:\n    [Y] u.\n")], 1,
     "<d>/dup.rule:8:5: error: duplicate label 'Y'\n"),
    ("compile-header-rule-twice", lambda d: ["compile", write_file(
        d, "t.rule", "rule: A\nrule: B\n\nIF:\n    [A] p.\nELSE:\n    [Y] q.\n")], 1,
     "<d>/t.rule:2:1: error: header 'rule' given twice\n"),
    ("compile-header-title-twice", lambda d: ["compile", write_file(
        d, "t.rule", "rule: A\ntitle: One\n# note\ntitle: Two\n\nIF:\n    [A] p.\nELSE:\n    [Y] q.\n"
    )], 1, "<d>/t.rule:4:1: error: header 'title' given twice\n"),
    ("check-header-group-twice", lambda d: ["check", copy_pack(
        d, "zz.rule", "rule: ZZ\ngroup: 113\ngroup: 300\n\nIF:\n    [A] p. @var(a)\nELSE:\n"
        "    [Y] q. @var(Y)\n"), BMW], 5, "<d>/pack/zz.rule:3:1: error: header 'group' given twice\n"),
    ("check-rule-directory", lambda d: [
        "check", pack_with_entry(d, "zz.rule", "directory"), BMW], 5,
     "error: [Errno 21] Is a directory: '<d>/pack/zz.rule'\n"),
    ("check-rule-broken-symlink", lambda d: [
        "check", pack_with_entry(d, "zz.rule", "broken symlink"), BMW], 5,
     "error: [Errno 2] No such file or directory: '<d>/pack/zz.rule'\n"),
    ("check-golden-directory", lambda d: [
        "check", pack_with_entry(d, "103.golden.beq", "directory"), BMW], 5,
     "error: [Errno 21] Is a directory: '<d>/pack/103.golden.beq'\n"),
    ("check-golden-broken-symlink", lambda d: [
        "check", pack_with_entry(d, "103.golden.beq", "broken symlink"), BMW], 5,
     "error: [Errno 2] No such file or directory: '<d>/pack/103.golden.beq'\n"),
    ("check-checklist-directory", lambda d: [
        "check", pack_with_entry(d, "zz.checklist.json", "directory"), BMW], 5,
     "error: [Errno 21] Is a directory: '<d>/pack/zz.checklist.json'\n"),
    ("check-checklist-broken-symlink", lambda d: [
        "check", pack_with_entry(d, "zz.checklist.json", "broken symlink"), BMW], 5,
     "error: [Errno 2] No such file or directory: '<d>/pack/zz.checklist.json'\n"),
    # opening a FIFO waits for a writer: these rows hang if the entry is opened
    ("check-rule-fifo", lambda d: ["check", pack_with_entry(d, "zz.rule", "fifo"), BMW], 5,
     "error: <d>/pack/zz.rule: not a regular file\n"),
    ("check-golden-fifo", lambda d: [
        "check", pack_with_entry(d, "103.golden.beq", "fifo"), BMW], 5,
     "error: <d>/pack/103.golden.beq: not a regular file\n"),
    ("check-checklist-fifo", lambda d: [
        "check", pack_with_entry(d, "zz.checklist.json", "fifo"), BMW], 5,
     "error: <d>/pack/zz.checklist.json: not a regular file\n"),
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
    # A FALSE ends the path before B and C are tested; the trace still needs them
    ("lawmap-trace-fact-off-the-path", lambda d: ["lawmap", PACK / "103.rule", "--trace",
                                                  write_file(d, "s.json", A_FALSE)], 3,
     "error: assignment missing condition variables: B, C\n"),
    ("bn-priors-non-object", lambda d: ["bn", PACK / "103.rule", "--priors",
                                        write_file(d, "p.json", [0.5])], 4,
     "error: <d>/p.json must be a JSON object\n"),
    ("bn-priors-not-a-number", lambda d: ["bn", PACK / "103.rule", "--priors",
                                          write_file(d, "p.json", {"A": None})], 4,
     "error: prior for A must be a number\n"),
    ("bn-priors-numeric-string", lambda d: ["bn", PACK / "103.rule", "--priors",
                                            write_file(d, "p.json", {"A": "0.3"})], 4,
     "error: prior for A must be a number\n"),
    ("bn-priors-boolean", lambda d: ["bn", PACK / "103.rule", "--priors",
                                     write_file(d, "p.json", {"A": True})], 4,
     "error: prior for A must be a number\n"),
    ("bn-priors-text", lambda d: ["bn", PACK / "103.rule", "--priors",
                                  write_file(d, "p.json", {"A": "abc"})], 4,
     "error: prior for A must be a number\n"),
    ("bn-priors-name-with-line-break", lambda d: ["bn", PACK / "103.rule", "--priors",
                                                  write_file(d, "p.json", {"\r": None})], 4,
     "error: prior for \\r must be a number\n"),
    ("bn-priors-integer-too-large-for-a-float", lambda d: [
        "bn", PACK / "103.rule", "--priors", write_file(d, "p.json", '{"A": 1' + "0" * 400 + "}")],
     4, "error: prior for A must be in (0, 1), got inf\n"),
    ("bn-unknown-evidence", lambda d: ["bn", PACK / "103.rule", "--infer", "zz=true"], 4,
     "error: evidence on unknown node 'zz'\n"),
    ("bn-evidence-name-twice", lambda d: ["bn", PACK / "103.rule", "--infer", "A=true, A=false"],
     4, "error: evidence names A twice\n"),
    ("bn-priors-key-twice", lambda d: ["bn", PACK / "103.rule", "--infer", "", "--priors",
                                       write_file(d, "p.json", '{"A": 0.9, "A": 0.1}')], 4,
     "error: <d>/p.json: key 'A' appears twice\n"),
    ("bn-priors-unknown-name", lambda d: ["bn", PACK / "103.rule", "--infer", "", "--priors",
                                          write_file(d, "p.json", {"X": 0.9, "zzz": 0.3})], 4,
     "error: priors file for UK-HC-103 names unknown variables: zzz\n"),
    ("bn-priors-decision-of-second-rule", lambda d: [
        "bn", PACK / "99-100-r1.rule", PACK / "103.rule", "--priors",
        write_file(d, "p.json", {"Y": 0.3})], 4,
     "error: priors file for UK-HC-103 names decisions, not facts: Y\n"),
    ("bn-priors-name-no-rule-has", lambda d: [
        "bn", PACK / "99-100-r1.rule", PACK / "103.rule", "--priors",
        write_file(d, "p.json", {"Y": 0.3, "zzz": 0.3})], 4,
     "error: priors file for UK-HC-99-100/1 names unknown variables: zzz\n"),
    ("bn-priors-decision", lambda d: ["bn", PACK / "103.rule", "--priors",
                                      write_file(d, "p.json", {"A": 0.9, "X": 0.9})], 4,
     "error: priors file for UK-HC-103 names decisions, not facts: X\n"),
    ("check-cyclic-golden", lambda d: [
        "check", copy_pack(d, "103.golden.beq", "X = Y ∧ A\nY = A\n"), BMW], 5,
     "error: <d>/pack/103.golden.beq: line 1: decision 'Y' is used before (or within) its "
     "own definition\n"),
    ("check-golden-bad-token", lambda d: [
        "check", copy_pack(d, "103.golden.beq", "X = A ∧ B ∧ C\nY = A ∧ ) B\n"), BMW], 5,
     "error: <d>/pack/103.golden.beq: line 2: expected id, got rpar\n"),
    ("check-rule-group-without-checklist", lambda d: ["check", copy_pack(
        d, "zz.rule", "rule: ZZ\ngroup: 300\n\nIF:\n    [A] p. @var(a)\nELSE:\n    [Y] q. @var(Y)\n"
    ), BMW], 5, "error: <d>/pack/zz.rule: group '300' has no checklist\n"),
    ("check-second-checklist-for-group", lambda d: ["check", copy_pack(
        d, "zz.checklist.json", json.dumps({"group": "113", "requirements": []})), BMW], 5,
     "error: <d>/pack/zz.checklist.json: a second checklist for group '113'\n"),
    ("check-checklist-group-not-a-string", lambda d: ["check", copy_pack(
        d, "113.checklist.json", json.dumps({"group": 113, "requirements": []})), BMW], 5,
     "error: <d>/pack/113.checklist.json: group must be a JSON string\n"),
    ("check-checklist-requirements-object", lambda d: ["check", copy_pack(
        d, "113.checklist.json", json.dumps({"group": "113", "requirements": {"id": "x"}})),
        BMW], 5, "error: <d>/pack/113.checklist.json: requirements must be a JSON array\n"),
    ("check-checklist-requirement-string", lambda d: ["check", copy_pack(
        d, "113.checklist.json", json.dumps({"group": "113", "requirements": ["x"]})), BMW], 5,
     "error: <d>/pack/113.checklist.json: each requirement must be a JSON object\n"),
    ("check-checklist-requirement-no-description", lambda d: ["check", copy_pack(
        d, "113.checklist.json", json.dumps({"group": "113", "requirements": [{"id": "x"}]})),
        BMW], 5,
     "error: <d>/pack/113.checklist.json: requirement description must be a JSON string\n"),
    ("check-checklist-hardware-gap-string", lambda d: ["check", copy_pack(
        d, "113.checklist.json", json.dumps({"group": "113", "requirements": [
            {"id": "x", "description": "a", "hardware_gap": "no"}]})), BMW], 5,
     "error: <d>/pack/113.checklist.json: requirement hardware_gap must be a JSON boolean\n"),
    ("check-malformed-rule", lambda d: [
        "check", copy_pack(d, "zz.rule", "rule: ZZ\n\nIF:\nno indent\nELSE:\n    [Y] q.\n"), BMW], 5,
     "<d>/pack/zz.rule:4:1: error: clause line must be indented under its section\n"),
    ("check-profile-non-object", lambda d: ["check", PACK, write_file(d, "v.json", [])], 5,
     "error: <d>/v.json must be a JSON object\n"),
    ("check-answers-non-object", lambda d: ["check", PACK, write_file(
        d, "v.json", {"vehicle_id": "v", "answers": []})], 5,
     "error: <d>/v.json: answers must be a JSON object\n"),
    ("check-profile-no-vehicle-id", lambda d: ["check", PACK, write_file(
        d, "v.json", {"answers": {}})], 5, "error: <d>/v.json: vehicle_id must be a JSON string\n"),
    ("check-profile-answer-not-an-answer", lambda d: ["check", PACK, write_file(
        d, "v.json", {"vehicle_id": "v", "answers": {"x": "maybe"}})], 5,
     "error: <d>/v.json: answer for x must be one of MET, UNMET, NOT_APPLICABLE\n"),
    ("check-profile-sae-level-text", lambda d: ["check", PACK, write_file(
        d, "v.json", {"vehicle_id": "v", "answers": {}, "sae_level": "three"}), "--format",
        "json"], 5, "error: <d>/v.json: sae_level must be an integer from 0 to 5 or null, "
     "got 'three'\n"),
    ("eval-scenario-no-rule-id", lambda d: ["eval", PACK / "103.rule", write_file(
        d, "s.json", {"facts": {}})], 3, "error: <d>/s.json: rule_id must be a JSON string\n"),
    ("check-scenario-decision-fact", lambda d: ["check", PACK, BMW, "--scenario",
                                                write_file(d, "s.json", DECISION_FACT)], 3,
     "error: scenario for UK-HC-103 names decisions, not facts: X\n"),
    ("check-scenario-unknown-rule", lambda d: ["check", PACK, BMW, "--scenario", write_file(
        d, "s.json", {"rule_id": "UK-HC-999", "facts": {}})], 3,
     "error: scenario names unknown rule 'UK-HC-999'\n"),
    ("check-two-scenarios-for-one-rule", lambda d: [
        "check", PACK, BMW,
        "--scenario", write_scenario(d, "UK-HC-103", {"A": False}, "s1.json"),
        "--scenario", write_scenario(d, "UK-HC-103", {"A": True, "B": True, "C": True}, "s2.json"),
    ], 3, "error: two scenarios for rule 'UK-HC-103'\n"),
    ("eval-scenario-description-number", lambda d: ["eval", PACK / "103.rule", write_file(
        d, "s.json", {"rule_id": "UK-HC-103", "facts": {}, "description": 5})], 3,
     "error: <d>/s.json: description must be a JSON string\n"),
    ("eval-scenario-fact-not-a-boolean", lambda d: ["eval", PACK / "103.rule", write_file(
        d, "s.json", {"rule_id": "UK-HC-103", "facts": {"A": "yes"}})], 3,
     "error: <d>/s.json: scenario fact 'A' must be true or false\n"),
    ("eval-scenario-unknown-field", lambda d: ["eval", PACK / "103.rule", write_file(
        d, "s.json", {"rule_id": "UK-HC-103", "facts": {}, "fact": {"A": True}})], 3,
     "error: <d>/s.json: fact is not a field (fields: rule_id, facts, description)\n"),
    ("eval-scenario-fact-twice", lambda d: ["eval", PACK / "103.rule", write_file(
        d, "s.json", '{"rule_id": "UK-HC-103", "facts": {"C": true, "C": false}}')], 3,
     "error: <d>/s.json: key 'C' appears twice\n"),
    ("check-two-profiles-for-one-vehicle", lambda d: ["check", PACK, BMW, write_file(
        d, "b2.json", {**json.loads(BMW.read_text(encoding="utf-8")), "display_name": "Other"})],
     5, "error: two profiles for vehicle 'bmw-740li'\n"),
    ("check-profile-unknown-field", lambda d: ["check", PACK, write_file(
        d, "v.json", {"vehicle_id": "v", "answers": {}, "sae": 3})], 5,
     "error: <d>/v.json: sae is not a field (fields: vehicle_id, display_name, answers, "
     "sae_level)\n"),
    ("check-checklist-unknown-field", lambda d: ["check", copy_pack(
        d, "113.checklist.json", json.dumps({"group": "113", "requirement": []})), BMW], 5,
     "error: <d>/pack/113.checklist.json: requirement is not a field (fields: group, "
     "requirements)\n"),
    # the misspelt key once read as hardware_gap's default, false: group
    # 99-100 rated AMBER for all three vehicles instead of RED
    ("check-requirement-misspelt-hardware-gap", lambda d: ["check", copy_pack(
        d, "99-100.checklist.json", (PACK / "99-100.checklist.json").read_text(
            encoding="utf-8").replace('"hardware_gap": true', '"hardware_gapp": true')), BMW], 5,
     "error: <d>/pack/99-100.checklist.json: requirement hardware_gapp is not a field (fields: "
     "id, description, hardware_gap)\n"),
    ("check-profile-key-twice", lambda d: ["check", PACK, write_file(
        d, "v.json", '{"vehicle_id": "v", "answers": {}, "vehicle_id": "w"}')], 5,
     "error: <d>/v.json: key 'vehicle_id' appears twice\n"),
    ("check-checklist-key-twice", lambda d: ["check", copy_pack(
        d, "113.checklist.json", '{"group": "113", "requirements": [], "group": "113"}'), BMW], 5,
     "error: <d>/pack/113.checklist.json: key 'group' appears twice\n"),
    ("compile-clauses-nested-too-deep", lambda d: [
        "compile", write_file(d, "deep.rule", nested_rule(101))], 1,
     "<d>/deep.rule:204:405: error: clauses nest more than 100 levels deep\n"),
    ("check-rule-clauses-nested-too-deep", lambda d: [
        "check", copy_pack(d, "zz.rule", nested_rule(101)), BMW], 5,
     "<d>/pack/zz.rule:204:405: error: clauses nest more than 100 levels deep\n"),
    ("check-golden-parentheses-nested-too-deep", lambda d: ["check", copy_pack(
        d, "103.golden.beq", "X = A ∧ B ∧ C\nY = " + "(" * 101 + "A ∧ B" + ")" * 101 + " ∧ ¬C\n"),
        BMW], 5, "error: <d>/pack/103.golden.beq: line 2: parentheses and negations nest more "
                 "than 100 deep\n"),
    ("check-golden-negations-nested-too-deep", lambda d: ["check", copy_pack(
        d, "103.golden.beq", "X = " + "¬" * 102 + "A ∧ B ∧ C\nY = A ∧ B ∧ ¬C\n"), BMW], 5,
     "error: <d>/pack/103.golden.beq: line 1: parentheses and negations nest more than 100 "
     "deep\n"),
    ("eval-scenario-nested-too-deep", lambda d: [
        "eval", PACK / "103.rule", write_file(d, "s.json", NESTED_JSON)], 3,
     f"error: <d>/s.json: {TOO_DEEP_JSON}\n"),
    ("bn-priors-nested-too-deep", lambda d: [
        "bn", PACK / "103.rule", "--priors", write_file(d, "p.json", NESTED_JSON)], 4,
     f"error: <d>/p.json: {TOO_DEEP_JSON}\n"),
    ("check-profile-nested-too-deep", lambda d: [
        "check", PACK, write_file(d, "v.json", NESTED_JSON)], 5,
     f"error: <d>/v.json: {TOO_DEEP_JSON}\n"),
    ("check-checklist-nested-too-deep", lambda d: [
        "check", copy_pack(d, "113.checklist.json", NESTED_JSON), BMW], 5,
     f"error: <d>/pack/113.checklist.json: {TOO_DEEP_JSON}\n"),
    ("eval-scenario-malformed-json", lambda d: [
        "eval", PACK / "103.rule", write_file(d, "s.json", MALFORMED_JSON)], 3,
     f"error: <d>/s.json: {BAD_JSON}\n"),
    ("bn-priors-malformed-json", lambda d: [
        "bn", PACK / "103.rule", "--priors", write_file(d, "p.json", MALFORMED_JSON)], 4,
     f"error: <d>/p.json: {BAD_JSON}\n"),
    ("check-profile-malformed-json", lambda d: [
        "check", PACK, write_file(d, "v.json", MALFORMED_JSON)], 5,
     f"error: <d>/v.json: {BAD_JSON}\n"),
    ("check-checklist-malformed-json", lambda d: [
        "check", copy_pack(d, "113.checklist.json", MALFORMED_JSON), BMW], 5,
     f"error: <d>/pack/113.checklist.json: {BAD_JSON}\n"),
    ("eval-scenario-integer-too-long", lambda d: ["eval", PACK / "103.rule", write_file(
        d, "s.json", f'{{"rule_id": "UK-HC-103", "facts": {{"A": {HUGE_INT}}}}}')], 3,
     f"error: <d>/s.json: {TOO_LONG_INT}\n"),
    ("bn-priors-integer-too-long", lambda d: ["bn", PACK / "103.rule", "--infer", "", "--priors",
                                              write_file(d, "p.json", f'{{"A": -{HUGE_INT}}}')],
     4, f"error: <d>/p.json: {TOO_LONG_INT}\n"),
    ("check-profile-integer-too-long", lambda d: [
        "check", PACK, write_file(d, "v.json", f'{{"vehicle_id": {HUGE_INT}}}')], 5,
     f"error: <d>/v.json: {TOO_LONG_INT}\n"),
    ("compile-out-unwritable", lambda d: ["compile", PACK / "103.rule", "--out", d / "no" / "x"], 1,
     "error: [Errno 2] No such file or directory: '<d>/no/x'\n"),
    ("check-out-unwritable", lambda d: ["check", PACK, BMW, "--out", d / "no" / "x.json"], 1,
     "error: [Errno 2] No such file or directory: '<d>/no/x.json'\n"),
    ("compile-out-device-full", lambda d: ["compile", PACK / "103.rule", "--out", "/dev/full"], 1,
     "error: /dev/full: [Errno 28] No space left on device\n"),
    ("usage-no-command", lambda d: [], 1,
     "error: the following arguments are required: command\n"),
    ("usage-compile-no-rule", lambda d: ["compile"], 1,
     "error: the following arguments are required: rule\n"),
    ("usage-bn-export-and-infer", lambda d: ["bn", PACK / "103.rule", "--export", "--infer", ""], 1,
     "error: argument --infer: not allowed with argument --export\n"),
    ("usage-unknown-command", lambda d: ["bogus"], 1,
     "error: argument command: invalid choice: 'bogus' (choose from 'compile', 'eval', "
     "'lawmap', 'bn', 'check')\n"),
    ("usage-unknown-option", lambda d: ["compile", PACK / "103.rule", "--bogus"], 1,
     "error: unrecognized arguments: --bogus\n"),
    ("usage-out-without-value", lambda d: ["compile", PACK / "103.rule", "--out"], 1,
     "error: argument --out: expected one argument\n"),
    ("usage-unknown-format", lambda d: ["lawmap", PACK / "103.rule", "-f", "svg"], 1,
     "error: argument -f/--format: invalid choice: 'svg' (choose from 'dot', 'json')\n"),
    ("usage-bn-rules-split-by-an-option",
     lambda d: ["bn", PACK / "103.rule", "--export", PACK / "99-100-r1.rule"], 1,
     f"error: unrecognized arguments: {PACK / '99-100-r1.rule'}\n"),
    ("usage-flag-with-value", lambda d: ["compile", PACK / "103.rule", "--ascii=x"], 1,
     "error: argument --ascii: ignored explicit argument 'x'\n"),
    ("usage-eval-no-scenario", lambda d: ["eval", PACK / "103.rule"], 1,
     "error: the following arguments are required: scenario\n"),
    ("usage-check-no-profile", lambda d: ["check"], 1,
     "error: the following arguments are required: profiles\n"),
    # a "--" after the first one, or given as an option's value, is that value
    ("bn-infer-dashes", lambda d: ["bn", PACK / "103.rule", "--infer=--"], 4,
     "error: evidence must be name=true|false, got '--'\n"),
    ("eval-scenario-dashes", lambda d: ["eval", PACK / "103.rule", "--", "--"], 3,
     "error: [Errno 2] No such file or directory: '--'\n"),
    ("check-scenario-dashes", lambda d: ["check", PACK, BMW, "--scenario=--"], 3,
     "error: [Errno 2] No such file or directory: '--'\n"),
]


def test_a_byte_order_mark_is_ignored(tmp_path, pack):
    """A copy of the shipped pack, profiles and scenarios with a UTF-8
    byte-order mark before every file's text reads as the plain copy does:
    the same ``check`` text, ``compile`` and ``eval`` output and exit
    codes."""
    files = {f"pack/{path.relative_to(PACK)}": path.read_bytes()
             for path in PACK.rglob("*") if path.is_file()}
    profiles = [f"<d>/pack/{path.relative_to(PACK)}" for path in PROFILES.values()]
    argvs = [["check", "<d>/pack", *profiles]]
    for i, entry in enumerate(pack.rules()):
        facts = {entry.equations.input_ids()[0]: True}
        files[f"s{i}.json"] = json.dumps({"rule_id": entry.source.rule_id, "facts": facts}).encode()
        rule = f"<d>/pack/{Path(entry.source.path).name}"
        argvs += [["compile", rule], ["eval", rule, f"<d>/s{i}.json"],
                  ["check", "<d>/pack", *profiles, "--scenario", f"<d>/s{i}.json"]]
    outputs = {}
    for name, mark in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        d = tmp_path / name
        for file, data in files.items():
            (d / file).parent.mkdir(parents=True, exist_ok=True)
            (d / file).write_bytes(mark + data)
        outputs[name] = [run_main([a.replace("<d>", str(d)) for a in argv]) for argv in argvs]
    assert [code for code, _, _ in outputs["plain"]] == [0] * len(argvs)
    assert outputs["bom"] == outputs["plain"]


def test_a_golden_may_read_a_variable_the_rule_lacks(tmp_path):
    """A golden equation over an irrelevant variable the rule lacks passes
    ``check``; it adds that variable to the compiled rule's cached diagram,
    and what the rule prints does not change."""
    extra = "X = A ∧ B ∧ C ∧ (Z ∨ ¬Z)\nY = (A ∧ B) ∧ ¬C\n"
    scenario = write_scenario(tmp_path, "UK-HC-103", {"A": True, "C": False})
    outputs, names = {}, {}
    for name, golden in (("shipped", (PACK / "103.golden.beq").read_text(encoding="utf-8")),
                         ("extra", extra)):
        pack = copy_pack(tmp_path / name, "103.golden.beq", golden)
        rule = pack / "103.rule"
        outputs[name] = [run_main(argv) for argv in (
            ["check", pack, BMW], ["check", pack, BMW, "--scenario", scenario],
            ["eval", rule, scenario], ["lawmap", rule], ["lawmap", rule, "-f", "json"])]
        entry = next(e for e in rulepack.load_rulepack(pack).rules() if e.rule_id == "UK-HC-103")
        graph = lawmap.build_lawmap(entry.equations, entry.ast)
        outputs[name] += [boolean_core.evaluate(entry.equations, {"A": True, "C": False}),
                          lawmap.export_dot(graph), lawmap.export_json(graph)]
        names[name] = tuple(entry.equations.diagram[0].names)
    assert [code for code, _, _ in outputs["extra"][:5]] == [0] * 5
    assert outputs["extra"] == outputs["shipped"]
    assert names["extra"] == (*names["shipped"], "Z")


def test_the_cli_imports_no_importlib_resources(tmp_path):
    """The shipped pack is found next to the package's own file, no lexroad
    class is a dataclass, and the CLI imports each stage only in the command
    that runs it, so importing the CLI without ``site`` and compiling or
    evaluating a shipped rule leaves ``importlib.resources``,
    ``dataclasses``, ``inspect``, ``argparse``, ``gettext`` and the stages it
    does not run unimported."""
    scenario = write_scenario(tmp_path, "UK-HC-103", {"A": True, "C": False})
    src = Path(cli.__file__).resolve().parents[1]
    unused = ("lexroad.bayes_net", "lexroad.lawmap", "lexroad.rulepack", "lexroad.compliance",
              "importlib.resources", "dataclasses", "inspect", "argparse", "gettext")
    for argv in (["compile", str(PACK / "103.rule")],
                 ["eval", str(PACK / "103.rule"), str(scenario)]):
        script = ("import sys, lexroad.cli\n"
                  f"code = lexroad.cli.main({argv!r})\n"
                  f"loaded = [m for m in {unused!r} if m in sys.modules]\n"
                  "print(code, loaded, file=sys.stderr)\n")
        result = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                                text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert (result.returncode, result.stderr) == (0, "0 []\n"), argv
        assert result.stdout == run_main(argv)[1]


class DeadlinePassed(Exception):
    """Not an input error: ``main`` lets it through."""


@contextlib.contextmanager
def deadline(seconds):
    """Raise :class:`DeadlinePassed` in the block once it has run ``seconds``;
    the alarm signal interrupts a blocking ``open`` too."""
    def expire(signum, frame):
        raise DeadlinePassed(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "make_argv, code, stderr", [row[1:] for row in EXIT_TABLE], ids=[row[0] for row in EXIT_TABLE]
)
def test_exit_code_table(tmp_path, make_argv, code, stderr):
    with deadline(10.0):
        assert run_main(make_argv(tmp_path)) == (code, "", stderr.replace("<d>", str(tmp_path)))


def _file_size_limit():
    """In the child only: a file it writes stops at 1,000 bytes, and the
    write past that fails with EFBIG instead of killing it with SIGXFSZ."""
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (1000, 1000))


# (id, argv, the child's stdout: /dev/full, a pipe whose read end is closed
# or a pipe read here, whether its files stop at 1,000 bytes, its one stderr
# line); ``check --out`` writes the report file, then the text to stdout
WRITE_FAILURES = [
    ("compile-stdout-full", lambda d: ["compile", PACK / "103.rule"], "full", False,
     "error: stdout: [Errno 28] No space left on device\n"),
    ("lawmap-stdout-closed-pipe", lambda d: ["lawmap", PACK / "103.rule", "-f", "json"],
     "closed", False, "error: stdout: [Errno 32] Broken pipe\n"),
    ("check-out-then-stdout-full", lambda d: ["check", BMW, "--out", d / "r.json"], "full", False,
     "error: stdout: [Errno 28] No space left on device\n"),
    ("lawmap-out-past-file-size-limit",
     lambda d: ["lawmap", PACK / "103.rule", "-f", "json", "--out", d / "f.json"], "read", True,
     "error: <d>/f.json: [Errno 27] File too large\n"),
    ("check-out-past-file-size-limit", lambda d: ["check", BMW, "--out", d / "r.json"], "read",
     True, "error: <d>/r.json: [Errno 27] File too large\n"),
]


@pytest.mark.parametrize("make_argv, stdout, limited, stderr", [row[1:] for row in WRITE_FAILURES],
                         ids=[row[0] for row in WRITE_FAILURES])
def test_an_output_that_cannot_be_written_is_one_line(tmp_path, make_argv, stdout, limited,
                                                      stderr):
    """In a fresh process, so that interpreter shutdown, which flushes
    stdout once more, is part of what is checked: with stdout buffered, as
    it is by default, and unbuffered (``PYTHONUNBUFFERED``), and under
    ``-X dev``, which reports a file left open. An ``--out`` file that an
    earlier run wrote is left as it was when the write fails, and is
    written whole when only stdout fails; no temporary file is left."""
    argv = [str(a) for a in make_argv(tmp_path)]
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    if out:
        assert run_main(argv)[0] == 0
        earlier = out.read_bytes()
    for unbuffered, dev in itertools.product(("", "1"), ([], ["-X", "dev"])):
        with contextlib.ExitStack() as stack:
            if stdout == "full":
                target = stack.enter_context(open("/dev/full", "wb"))
            elif stdout == "closed":
                read, target = os.pipe()
                os.close(read)
                stack.callback(os.close, target)
            else:
                target = subprocess.PIPE
            result = subprocess.run(
                [sys.executable, *dev, "-m", "lexroad", *argv],
                stdout=target, stderr=subprocess.PIPE, text=True, timeout=30,
                env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
                preexec_fn=_file_size_limit if limited else None)
        assert (result.returncode, result.stderr) == (1, stderr.replace("<d>", str(tmp_path)))
        assert result.stdout in (None, "")
        if out:
            assert out.read_bytes() == earlier
            assert os.listdir(tmp_path) == [out.name]


def test_out_through_a_symlink_or_into_a_device(tmp_path):
    """``--out`` through a symlink replaces the file the link names and keeps
    the link; the null device is written as it is, not replaced."""
    (tmp_path / "real").mkdir()
    (tmp_path / "real" / "t.txt").write_text("earlier\n", encoding="utf-8")
    (tmp_path / "link").symlink_to(Path("real") / "t.txt")
    rule = PACK / "103.rule"
    assert run_main(["compile", rule, "--out", tmp_path / "link"]) == (0, "", "")
    assert run_main(["compile", rule, "--out", os.devnull]) == (0, "", "")
    assert (tmp_path / "link").is_symlink()
    written = (tmp_path / "real" / "t.txt").read_text(encoding="utf-8")
    assert written == run_main(["compile", rule])[1]
    assert sorted(os.listdir(tmp_path)) == ["link", "real"]
    assert os.listdir(tmp_path / "real") == ["t.txt"]


def test_nesting_at_the_bounds_is_read(tmp_path):
    """A rule nested 100 levels deep, the most a rule may nest, and goldens
    with 100 nested parentheses or negations, the most an equation may
    nest, go through every subcommand in process, on top of pytest's own
    stack; printing the rule and its equation reproduces both."""
    text = nested_rule(100)
    ast = rule_dsl.parse_rule(rule_dsl.rule_source(text, "deep.rule"))
    eqs = boolean_core.compile_rule(ast, rule_dsl.assign_variables(ast))
    assert rule_dsl.parse_rule_text(rule_dsl.pretty_print(ast), "DEEP") == ast
    equation = boolean_core.to_text(eqs.equations["Y"])
    assert equation.count("(") == 98
    assert boolean_core.parse_expr("((" + equation + "))") == eqs.equations["Y"]

    rule = write_file(tmp_path, "deep.rule", text)
    pack = copy_pack(tmp_path, "deep.rule", text)
    write_file(pack, "deep.golden.beq", f"Y = (({equation}))\n")
    write_file(pack, "103.golden.beq",
               "X = " + "¬" * 100 + "A ∧ B ∧ C\nY = " + "(" * 100 + "A ∧ B" + ")" * 100 + " ∧ ¬C\n")
    full = write_scenario(tmp_path, "DEEP", {f"p{k}": k == 99 for k in range(100)})
    partial = write_scenario(tmp_path, "DEEP", {"p0": False}, "partial.json")
    priors = write_file(tmp_path, "priors.json", {"p99": 0.25})
    for argv in (["compile", rule], ["compile", rule, "--ascii"], ["eval", rule, partial],
                 ["lawmap", rule], ["lawmap", rule, "-f", "json"], ["lawmap", rule, "--trace", full],
                 ["bn", rule], ["bn", rule, "--export"],
                 ["bn", rule, "--infer", "p0=false", "--priors", priors],
                 ["check", pack, BMW, "--scenario", partial],
                 ["check", pack, BMW, "--format", "json"]):
        code, _, err = run_main(argv)
        assert (code, err) == (0, ""), argv


# (id, $LEXROAD_RULEPACK in a scratch dir <d>, stderr of ``check`` on one profile)
PACK_ENV_TABLE = [
    ("missing", lambda d: d / "no" / "such",
     "error: [Errno 2] No such file or directory: '<d>/no/such'\n"),
    ("a-file", lambda d: write_file(d, "pack.json", {}),
     "error: [Errno 20] Not a directory: '<d>/pack.json'\n"),
]


@pytest.mark.parametrize(
    "make_pack, stderr", [row[1:] for row in PACK_ENV_TABLE], ids=[row[0] for row in PACK_ENV_TABLE]
)
def test_a_pack_from_the_environment_must_be_a_directory(tmp_path, monkeypatch, make_pack,
                                                         stderr):
    monkeypatch.setenv("LEXROAD_RULEPACK", str(make_pack(tmp_path)))
    assert run_main(["check", BMW]) == (5, "", stderr.replace("<d>", str(tmp_path)))


def test_main_is_repeatable_in_one_process(tmp_path):
    """``main`` shares one parser across calls: a usage error or a failed
    command leaves nothing behind that changes a later call's output."""
    scenario = write_scenario(tmp_path, "UK-HC-103/scenario", {"A": True})
    argvs = [
        ["bn", PACK / "103.rule", "--export", "--infer", ""],
        ["eval", PACK / "103.rule", scenario],
        ["compile", PACK / "103.rule"],
        ["lawmap", PACK / "103.rule", "-f", "json"],
        ["bn", PACK / "99-100-r3.rule", "--infer", "u=true,p=true"],
        ["check", PACK, BMW],
    ]
    outputs = [run_main(argv) for argv in argvs]
    assert [code for code, _, _ in outputs] == [1, 3, 0, 0, 0, 0]
    for argv, output in zip(argvs, outputs):
        result = run(*argv)
        assert output == (result.returncode, result.stdout, result.stderr), argv
    assert cli.build_parser() is cli.build_parser()


def test_every_lexroad_error_has_an_exit_code():
    """Every public exception class any lexroad module defines, found module
    by module as ``test_records`` finds the records."""
    modules = [importlib.import_module(f"lexroad.{info.name}")
               for info in pkgutil.iter_modules(lexroad.__path__) if info.name != "__main__"]
    errors = {
        cls for module in modules for name, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, Exception) and cls.__module__ == module.__name__
        and not name.startswith("_")
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


def _corrupted(draw, valid: dict) -> object:
    """``valid``, or a copy with its whole value or one key replaced, or with
    one key added that it lacks."""
    where = draw(st.sampled_from([None, "whole", "added", *valid]))
    if where is None:
        return valid
    if where == "whole":
        return draw(_JSON)
    if where == "added":
        return {**valid, "unknown": draw(_JSON)}
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
