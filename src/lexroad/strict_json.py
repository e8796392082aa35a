"""JSON in and out: ``loads`` refuses an object that gives a key twice,
``load`` reads the JSON object of an input file (every JSON file lexroad
reads: scenarios, priors, profiles and checklists), ``fields`` reads the
fields of an object, ``json_value`` refuses a value of the wrong JSON
type, and ``array`` lays out a list as ``json.dumps(..., indent=2)`` does,
for the writers that build their text directly (``json`` has a C encoder
only for output without ``indent``).  ``encode`` is such a writer for
plain values.

``json.loads`` keeps the last of two equal keys, so a second ``"rule_id"``
in a file would silently win over the first; and a reader that took only
the keys it knows would read a misspelt optional key as the default of the
field it meant.  ``fields`` refuses a key its table does not name.
"""

from __future__ import annotations

import json
import os
import sys
from json.encoder import encode_basestring as _quote

from . import rule_dsl


def loads(text: str, where: str) -> object:
    """``json.loads(text)``; ValueError naming the key if any object in the
    text gives a key twice, the digit limit if an integer is too long for
    ``int``, the recursion limit if the text nests too deep for ``json``, or
    where ``json`` found it malformed, prefixed with ``where``."""
    try:
        if text.startswith("\ufeff"):  # json.loads's message; decode's would be "Expecting value"
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except RecursionError:
        raise ValueError(f"{where}: JSON nests too deep to read "
                         f"(recursion limit {sys.getrecursionlimit()})") from None
    except ValueError as exc:  # json.JSONDecodeError, or a refusal of the hooks below
        raise ValueError(f"{where}: {exc}") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} appears twice")
        obj[key] = value
    return obj


def _integer(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # JSON's grammar leaves only the digit limit to refuse
        raise ValueError(f"an integer has more than {sys.get_int_max_str_digits()} digits") from None


# one decoder for every read: json.loads given hooks builds one per call
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys, parse_int=_integer)


def load(path: str | os.PathLike, text: str | None = None) -> dict:
    """The JSON object in the file at ``path``, or in ``text`` if it was read
    already; ValueError naming the file if it is not UTF-8, not JSON or not
    an object, or gives a key twice."""
    where = str(path)
    if text is None:
        text = rule_dsl.decode_text(rule_dsl.read_bytes(rule_dsl.file_name(path)), where)
    return json_value(loads(text, where), dict, where)


_JSON_KINDS = {dict: "object", list: "array", str: "string", bool: "boolean"}


def json_value(value, kind: type, what: str):
    """``value`` if it is a ``kind`` (dict, list, str or bool); ValueError
    naming ``what`` if not."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a JSON {_JSON_KINDS[kind]}")
    return value


def fields(obj: dict, where: str, /, **table) -> list:
    """The values in the JSON object ``obj`` of the fields ``table`` names,
    in table order.  Each entry is the field's kind, or a pair of its kind
    and the default of an absent field: a kind :func:`json_value` reads, or
    None for a value the caller checks, null included.  ValueError,
    prefixed with ``where``, naming a field of the wrong kind, or a key the
    table does not name and the fields it does."""
    for key in obj:
        if key not in table:
            raise ValueError(f"{where}{key} is not a field (fields: {', '.join(table)})")
    values = []
    for name, kind in table.items():
        kind, *default = kind if isinstance(kind, tuple) else (kind,)
        value = obj.get(name, *default)
        if kind is not None:
            value = json_value(value, kind, f"{where}{name}")
        values.append(value)
    return values


def array(items: list[str], indent: str) -> str:
    """The JSON array of the already encoded ``items`` as ``json.dumps(...,
    indent=2)`` writes it when its opening line is indented by ``indent``."""
    inner = indent + "  "
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]" if items else "[]"


def encode(value, indent: str = "") -> str:
    """``value``, nested dicts with string keys, lists, strings, integers,
    booleans and None, as ``json.dumps(value, sort_keys=True,
    ensure_ascii=False, indent=2)`` writes it when its opening line is
    indented by ``indent``.  A plain recursive function: the pure-Python
    encoder that ``json`` runs for ``indent`` leaves a reference cycle of
    closures on every call, and this leaves none."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, list):
        return array([encode(item, inner) for item in value], indent)
    if isinstance(value, dict):
        items = [f"{_quote(key)}: {encode(item, inner)}" for key, item in sorted(value.items())]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}" if items else "{}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
