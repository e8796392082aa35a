"""lexroad's modules use each other only through public names: a name with a
leading underscore is the business of the module that defines it.  The
package and the benchmark reach them through names too."""

import ast
import importlib
from pathlib import Path

import pytest

import lexroad

SOURCES = sorted(Path(lexroad.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]


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


def test_every_package_name_is_its_modules_object():
    """``lexroad`` reads each name it gives from its module on first use, and
    ``from lexroad import NAME`` gives the object that module defines."""
    assert len(lexroad._HOME) == 52
    for name, module in lexroad._HOME.items():
        scope = {}
        exec(f"from lexroad import {name}", scope)
        assert scope[name] is getattr(importlib.import_module(f"lexroad.{module}"), name)
    assert lexroad.lawmap is importlib.import_module("lexroad.lawmap")
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        lexroad.nothing


def test_every_function_a_traced_benchmark_run_wraps_is_bound_in_its_module():
    """``perfbench/spans.py`` wraps each function ``LAYERS`` names in the
    module it names, ``compliance.load_scenario`` included, so moving a
    function must leave it bound there."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign) and node.targets[0].id == "LAYERS")
    missing = [f"{layer}.{fn}" for layer, functions in layers.items() for fn in functions
               if not callable(getattr(importlib.import_module(f"lexroad.{layer}"), fn, None))]
    assert "load_scenario" in layers["compliance"]
    assert missing == []


def _nested_defs(node, outer=None):
    """``(outer.name, def)`` for every ``def`` under ``node`` inside a function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = child.name if outer is None else f"{outer}.{child.name}"
            if outer is not None:
                yield name, child
            yield from _nested_defs(child, name)
        else:
            yield from _nested_defs(child, outer)


def test_no_nested_function_calls_itself():
    """A nested function that names itself holds itself through its closure
    cell, a function-to-cell cycle that keeps what its call made alive until
    the cyclic collector runs; recursive helpers are module-level functions
    or methods that take their memo as an argument."""
    nested = [(f"{source.name}: {name}", fn) for source in SOURCES
              for name, fn in _nested_defs(ast.parse(source.read_text(encoding="utf-8")))]
    recursive = [name for name, fn in nested
                 if any(isinstance(node, ast.Name) and node.id == fn.name for node in ast.walk(fn))]
    assert nested  # non-recursive nested helpers, such as load_rulepack's text, stay allowed
    assert recursive == []
