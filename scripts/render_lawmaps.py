#!/usr/bin/env python3
"""Render every shipped rule as a Lawmap: .dot and .lawmap.json per rule.

Usage: python scripts/render_lawmaps.py [outdir]   (default: out/lawmaps)
Pipe any .dot through graphviz to get the figures, e.g.:
    dot -Tpng out/lawmaps/UK-HC-103.dot -o 103.png
"""

import sys
from pathlib import Path

from lexroad.lawmap import build_lawmap, export_dot, export_json, source_meta
from lexroad.rulepack import default_pack_dir, load_rulepack


def main() -> None:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/lawmaps")
    outdir.mkdir(parents=True, exist_ok=True)
    pack = load_rulepack(default_pack_dir())
    for entry in pack.rules():
        graph = build_lawmap(entry.equations, entry.ast, meta=source_meta(entry.source))
        stem = entry.rule_id.replace("/", "-")
        (outdir / f"{stem}.dot").write_text(export_dot(graph), encoding="utf-8")
        (outdir / f"{stem}.lawmap.json").write_text(export_json(graph), encoding="utf-8")
        conditions = sum(1 for n in graph.nodes if n.kind.value == "condition")
        print(f"{entry.rule_id}: {conditions} condition nodes -> {outdir / stem}.dot")


if __name__ == "__main__":
    main()
