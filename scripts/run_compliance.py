#!/usr/bin/env python3
"""Reproduce the full desk evaluation from the shipped data.

Compiles the rulepack, validates every rule's Bayesian network against its
Boolean semantics, then runs the three shipped vehicle profiles through the
compliance harness.  Writes the matrix, the JSON report and one net per
rule under the output directory.

Usage: python scripts/run_compliance.py [outdir]   (default: out/compliance)
"""

import sys
from pathlib import Path

from lexroad.bayes_net import build_bn, net_to_json, validate_bn
from lexroad.compliance import build_report, render_text, report_to_json
from lexroad.rulepack import (
    default_pack_dir,
    default_profile_paths,
    load_profile,
    load_rulepack,
)

PROFILE_ORDER = ("vauxhall-insignia", "mitsubishi-shogun-sport", "bmw-740li")


def main() -> None:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/compliance")
    outdir.mkdir(parents=True, exist_ok=True)
    pack = load_rulepack(default_pack_dir())

    total = passed = 0
    for entry in pack.rules():
        net = build_bn(entry.equations)
        report = validate_bn(net, entry.equations)
        total += report.equations_total
        passed += report.equations_passed
        stem = entry.rule_id.replace("/", "-")
        (outdir / f"{stem}.bn.json").write_text(net_to_json(net), encoding="utf-8")
        status = "ok" if report.ok else "DIVERGED"
        print(f"{entry.rule_id}: {report.equations_passed}/{report.equations_total} "
              f"equations validated [{status}]")
    print(f"{passed}/{total} equations validated")

    by_id = {p.name.split(".")[0]: p for p in default_profile_paths()}
    profiles = [load_profile(by_id[vid]) for vid in PROFILE_ORDER]
    report = build_report(pack, profiles)
    (outdir / "capability_matrix.txt").write_text(render_text(report), encoding="utf-8")
    (outdir / "report.json").write_text(report_to_json(report), encoding="utf-8")
    print(f"matrix -> {outdir / 'capability_matrix.txt'}")
    print(f"report -> {outdir / 'report.json'}")
    for vehicle, ratings in report.ratings.items():
        colors = ", ".join(f"{g}={r.rating.value}" for g, r in ratings.items())
        print(f"{vehicle}: {colors}")


if __name__ == "__main__":
    main()
