"""lexroad's modules use each other only through public names: a name with a
leading underscore is the business of the module that defines it."""

import ast
from pathlib import Path

import lexroad

SOURCES = sorted(Path(lexroad.__file__).parent.glob("*.py"))


def test_no_module_imports_a_private_name():
    imported = []
    for source in SOURCES:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                imported += [f"{source.name}: from {'.' * node.level}{node.module or ''} "
                             f"import {alias.name}"
                             for alias in node.names
                             if alias.name.startswith("_") and alias.name != "__version__"]
    assert len(SOURCES) > 5
    assert imported == []
