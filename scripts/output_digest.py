#!/usr/bin/env python3
"""Digest of every byte the CLI writes, to show that a change keeps outputs.

Runs ``lexroad.cli.main`` in process on the shipped pack and on the
benchmark's synthetic rule family (``perfbench/synth.py``, seeds 1-3, every
shape at 6, 11, 16 and 24 inputs): ``compile`` (Unicode and ``--ascii``),
``eval`` (partial facts), ``lawmap`` (DOT, JSON and ``--trace`` on full
facts), ``bn`` (validate, ``--export``, ``--infer``) and ``check`` (text and
JSON, with one scenario per rule).  The inputs are fixed, so totals from two
trees are always comparable.  For each invocation it prints the sha256 of its exit code,
stdout and stderr, the exit code and the command, then the sha256 of all
the digests as ``total``.  Two trees that print the same total wrote the
same bytes on every command.

Inputs are written to a fresh temporary directory and named by relative
paths, so the digests do not depend on where that directory is.  lexroad
is imported from this checkout's ``src``; scenarios are drawn from a seeded
``random.Random`` over each rule's inputs.

Usage: python scripts/output_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
SEEDS = (1, 2, 3)
SIZES = (6, 11, 16, 24)  # input counts of the synthetic rules

import synth  # noqa: E402
from lexroad import cli, rulepack  # noqa: E402
from lexroad.boolean_core import compile_rule  # noqa: E402
from lexroad.rule_dsl import assign_variables, load_rule_file, parse_rule  # noqa: E402


def run(argv: list[str]) -> tuple[str, int]:
    """sha256 of one ``main`` call's exit code, stdout and stderr, and the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(text.encode()).hexdigest(), code


def inputs_of(path: Path) -> tuple[str, tuple[str, ...]]:
    ast = parse_rule(load_rule_file(path))
    eqs = compile_rule(ast, assign_variables(ast))
    return eqs.rule_id, eqs.input_ids()


def rule_commands(path: Path, rng: random.Random) -> tuple[list[list[str]], Path]:
    """The per-rule invocations, and the partial-facts scenario they use."""
    rule_id, inputs = inputs_of(path)
    full = {name: rng.random() < 0.5 for name in inputs}
    partial = {name: value for name, value in full.items() if rng.random() < 0.5}
    some = ",".join(f"{name}={str(value).lower()}" for name, value in list(partial.items())[:3])
    scenarios = []
    for kind, facts in (("partial", partial), ("full", full)):
        scenario = path.with_name(f"{path.stem}.{kind}.json")
        scenario.write_text(json.dumps({"rule_id": rule_id, "facts": facts}), encoding="utf-8")
        scenarios.append(str(scenario))
    rule = str(path)
    return [
        ["compile", rule],
        ["compile", rule, "--ascii"],
        ["eval", rule, scenarios[0]],
        ["lawmap", rule],
        ["lawmap", rule, "-f", "json"],
        ["lawmap", rule, "--trace", scenarios[1]],
        ["lawmap", rule, "-f", "json", "--trace", scenarios[1]],
        ["bn", rule],
        ["bn", rule, "--export"],
        ["bn", rule, "--infer", ""],
        ["bn", rule, "--infer", some],
    ], Path(scenarios[0])


def pack_commands(pack: Path, seed: str) -> list[list[str]]:
    rules = sorted(pack.glob("*.rule"))
    commands, scenarios = [], []
    for path in rules:
        per_rule, scenario = rule_commands(path, random.Random(f"{seed}:{path.name}"))
        commands += per_rule
        scenarios += ["--scenario", str(scenario)]
    profiles = [str(p) for p in sorted((pack / "vehicles").glob("*.profile.json"))]
    commands += [
        ["check", str(pack), *profiles],
        ["check", str(pack), *profiles, "--format", "json"],
        ["check", str(pack), *profiles, *scenarios],
        ["check", str(pack), *profiles, *scenarios, "--format", "json"],
    ]
    return commands


def main() -> None:
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as work:
        home = os.getcwd()
        os.chdir(work)
        try:
            shutil.copytree(rulepack.default_pack_dir(), "shipped")
            packs = [(Path("shipped"), "shipped")]
            for seed in SEEDS:
                pack = Path(f"synth-{seed}")
                shutil.copytree(rulepack.default_pack_dir(), pack)
                rules = synth.family({shape: SIZES for shape in synth.SHAPES}, seed)
                for rule in rules:
                    (pack / f"{rule.stem}.rule").write_text(rule.text(), encoding="utf-8")
                    (pack / f"{rule.stem}.golden.beq").write_text(rule.golden(),
                                                                   encoding="utf-8")
                packs.append((pack, str(seed)))
            for pack, seed in packs:
                for argv in pack_commands(pack, seed):
                    digest, code = run(argv)
                    total.update(digest.encode())
                    print(digest, code, " ".join(argv))
        finally:
            os.chdir(home)
    print(total.hexdigest(), "total")


if __name__ == "__main__":
    main()
