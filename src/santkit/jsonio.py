"""The instance codec: concrete SANs to JSON and back.

The schema is fully numeric, carries a version tag and is read back by
``json_to_san`` with typed, path-reporting checks.  It writes each distinct
gate place list once, in a table that gates index; files of the earlier
schema, which list a gate's places inline, are still read.  ``dumps``
writes any JSON document, an instance or a template, as one line, encoded
item by item so that a large instance is never held as one list of tokens.
Template JSON is built by ``modelfile``: this module imports no template
code.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from typing import Any, Callable, Iterator

from .errors import ParseError, SantError, parse_file
from .sancore import (Activity, ActivityKind, ConcreteSan, Dist, InputGate,
                      OutputGate, PredAnd, PredLeaf, PredNot, PredOr,
                      Predicate, Update)

INSTANCE_SCHEMA = "santkit-instance/2"
# The earlier instance schema: no place-list table, every gate's places inline.
INLINE_PLACES_SCHEMA = "santkit-instance/1"


def _pred_json(pred: Predicate) -> Any:
    if isinstance(pred, PredLeaf):
        return {"place": pred.place, "cmp": pred.cmp, "value": pred.value}
    if isinstance(pred, PredAnd):
        return {"and": [_pred_json(p) for p in pred.args]}
    if isinstance(pred, PredOr):
        return {"or": [_pred_json(p) for p in pred.args]}
    return {"not": _pred_json(pred.arg)}


# JSON type names, as the decoder reports them, and their Python types.
_JSON_TYPES: dict[str, type | tuple[type, ...]] = {
    "object": dict, "list": list, "string": str, "int": int,
    "number": (int, float), "bool": bool}
# The exact types ``json.loads`` gives for each, which pass without a
# closer look (``type(True)`` is ``bool``, so a bool is not an int here).
_EXACT_TYPES: dict[str, frozenset[type]] = {
    name: frozenset(kinds if isinstance(kinds, tuple) else (kinds,))
    for name, kinds in _JSON_TYPES.items()}


def _typed(value: Any, expected: str, path: str,
           nullable: bool = False) -> Any:
    """``value`` when it has the JSON type ``expected`` (a bool is not a
    number); otherwise a ``SantError`` that names ``path``."""
    if nullable and value is None:
        return None
    if not isinstance(value, _JSON_TYPES[expected]) or \
            (expected != "bool" and isinstance(value, bool)):
        raise SantError(f"{path}: expected {expected}"
                        + (" or null" if nullable else ""))
    return value


def _field(doc: dict[str, Any], key: str, expected: str, path: str,
           nullable: bool = False) -> Any:
    if key not in doc:
        raise SantError(f"{path}.{key}: missing")
    return _typed(doc[key], expected, f"{path}.{key}", nullable)


def _list(items: list[Any], expected: str, path: str) -> tuple[Any, ...]:
    """``items`` typed in one pass; each item's path is built only when the
    pass finds one that needs a closer look."""
    if not _EXACT_TYPES[expected].issuperset(map(type, items)):
        for i, item in enumerate(items):
            _typed(item, expected, f"{path}[{i}]")
    return tuple(items)


def _values(doc: dict[str, Any], key: str, expected: str,
            path: str) -> tuple[Any, ...]:
    """The items of the list field ``key``, each of JSON type ``expected``."""
    return _list(_field(doc, key, "list", path), expected, f"{path}.{key}")


def _items(doc: dict[str, Any], key: str,
           path: str) -> list[tuple[dict[str, Any], str]]:
    """The objects of the list field ``key``, with their paths."""
    return [(item, f"{path}.{key}[{i}]")
            for i, item in enumerate(_values(doc, key, "object", path))]


def _json_pred(doc: dict[str, Any], path: str) -> Predicate:
    if "const" in doc:
        # Earlier writers spelled constant truth as ``{"const": b}``.
        return (PredAnd if _field(doc, "const", "bool", path) else PredOr)(())
    if "and" in doc:
        return PredAnd(tuple(_json_pred(p, at)
                             for p, at in _items(doc, "and", path)))
    if "or" in doc:
        return PredOr(tuple(_json_pred(p, at)
                            for p, at in _items(doc, "or", path)))
    if "not" in doc:
        return PredNot(_json_pred(_field(doc, "not", "object", path),
                                  f"{path}.not"))
    return PredLeaf(_field(doc, "place", "string", path),
                    _field(doc, "cmp", "string", path),
                    _field(doc, "value", "int", path))


def _effect_json(updates: tuple[Update, ...]) -> list[dict[str, Any]]:
    """A gate's ``effect``: one object per update, in order."""
    return [{"place": u.place, "action": u.action, "amount": u.amount,
             "when": None if u.when is None else list(u.when)}
            for u in updates]


def _json_update(doc: dict[str, Any], path: str) -> Update:
    when = _field(doc, "when", "list", path, nullable=True)
    if when is not None:
        if len(when) != 2:
            raise SantError(f"{path}.when: expected [cmp, int]")
        when = (_typed(when[0], "string", f"{path}.when[0]"),
                _typed(when[1], "int", f"{path}.when[1]"))
    return Update(_field(doc, "place", "string", path),
                  _field(doc, "action", "string", path),
                  _field(doc, "amount", "int", path), when)


def san_to_json(san: ConcreteSan) -> dict[str, Any]:
    """The instance document.  Each distinct place tuple is written once, in
    ``place_lists`` (numbered in first-use order: input gates, then output
    gates), and a gate's ``places`` is its index there."""
    place_lists: list[list[str]] = []
    by_value: dict[tuple[str, ...], int] = {}
    # A place tuple object already seen is found without hashing its items;
    # ``san`` keeps every tuple alive, so no id is reused meanwhile.
    by_id: dict[int, int] = {}

    def places(gate: InputGate | OutputGate) -> int:
        index = by_id.get(id(gate.places))
        if index is None:
            index = by_value.setdefault(gate.places, len(place_lists))
            if index == len(place_lists):
                place_lists.append(list(gate.places))
            by_id[id(gate.places)] = index
        return index

    input_gates = [{
        "name": g.name, "activity": g.activity, "places": places(g),
        "enabled": _pred_json(g.predicate),
        "effect": _effect_json(g.updates),
    } for g in san.input_gates]
    output_gates = [{
        "name": g.name, "activity": g.activity, "case": g.case,
        "places": places(g),
        "effect": _effect_json(g.updates),
    } for g in san.output_gates]
    return {
        "schema": INSTANCE_SCHEMA,
        "name": san.name,
        "places": list(san.places),
        "activities": [{
            "name": a.name, "kind": a.kind.value, "cases": a.cases,
            "probs": list(a.case_probs),
            "time": None if a.distribution is None else {
                "family": a.distribution.family,
                "params": list(a.distribution.params)},
            "reactivation": a.reactivation,
        } for a in san.activities],
        "place_lists": place_lists,
        "input_gates": input_gates,
        "output_gates": output_gates,
        "marking": {name: tokens for name, tokens in san.initial_marking},
    }


_KINDS = {kind.value: kind for kind in ActivityKind}


def _json_activity(doc: dict[str, Any], path: str) -> Activity:
    kind = _field(doc, "kind", "string", path)
    if kind not in _KINDS:
        raise SantError(f"{path}.kind: expected one of {', '.join(_KINDS)}")
    time = _field(doc, "time", "object", path, nullable=True)
    if time is not None:
        at = f"{path}.time"
        time = Dist(_field(time, "family", "string", at),
                    _values(time, "params", "number", at))
    return Activity(_field(doc, "name", "string", path), _KINDS[kind],
                    _field(doc, "cases", "int", path),
                    _values(doc, "probs", "number", path),
                    time, _field(doc, "reactivation", "string", path))


# Reads one gate's place tuple, given the gate object and its JSON path.
_GatePlaces = Callable[[dict[str, Any], str], tuple[str, ...]]


def _gate_places(doc: dict[str, Any]) -> _GatePlaces:
    """The reader of a gate's place tuple: an index into the document's
    ``place_lists`` table, or an inline list, as the earlier schema writes
    every gate's.  Equal inline lists map to one tuple, as the gates that
    index one table entry share its tuple."""
    table: tuple[tuple[str, ...], ...] | None = None
    if doc["schema"] == INSTANCE_SCHEMA:
        table = tuple(_list(entry, "string", f"$.place_lists[{i}]")
                      for i, entry in enumerate(
                          _values(doc, "place_lists", "list", "$")))
    interned: dict[tuple[str, ...], tuple[str, ...]] = {}

    def places(gate: dict[str, Any], path: str) -> tuple[str, ...]:
        if table is not None and not isinstance(gate.get("places"), list):
            index = _field(gate, "places", "int", path)
            if not 0 <= index < len(table):
                raise SantError(f"{path}.places: index {index} outside "
                                f"$.place_lists ({len(table)} entries)")
            return table[index]
        inline = _values(gate, "places", "string", path)
        return interned.setdefault(inline, inline)

    return places


def _json_gate(doc: dict[str, Any], path: str, is_input: bool,
               gate_places: _GatePlaces) -> InputGate | OutputGate:
    name = _field(doc, "name", "string", path)
    activity = _field(doc, "activity", "string", path)
    places = gate_places(doc, path)
    updates = tuple(_json_update(u, at)
                    for u, at in _items(doc, "effect", path))
    if is_input:
        return InputGate(name, activity, places, _json_pred(
            _field(doc, "enabled", "object", path), f"{path}.enabled"),
            updates)
    return OutputGate(name, activity, _field(doc, "case", "int", path),
                      places, updates)


def json_to_san(doc: Any) -> ConcreteSan:
    """Decode an instance document of either schema; a malformed one raises
    ``SantError`` naming the JSON path of the first fault."""
    _typed(doc, "object", "$")
    if doc.get("schema") not in (INSTANCE_SCHEMA, INLINE_PLACES_SCHEMA):
        raise SantError(f"unsupported instance schema {doc.get('schema')!r}")
    marking = _field(doc, "marking", "object", "$")
    gate_places = _gate_places(doc)
    return ConcreteSan(
        name=_field(doc, "name", "string", "$"),
        places=_values(doc, "places", "string", "$"),
        activities=tuple(_json_activity(a, at) for a, at in
                         _items(doc, "activities", "$")),
        input_gates=tuple(_json_gate(g, at, True, gate_places) for g, at in
                          _items(doc, "input_gates", "$")),
        output_gates=tuple(_json_gate(g, at, False, gate_places) for g, at in
                           _items(doc, "output_gates", "$")),
        initial_marking=tuple(
            (place, _typed(tokens, "int", f"$.marking.{place}"))
            for place, tokens in marking.items()))


# ``json.dumps``'s own encoding: default separators, ASCII only.
_encode = json.JSONEncoder().encode


def dumps(doc: Any) -> list[str]:
    """``doc`` as one line of JSON plus a newline, in pieces whose
    concatenation is exactly ``json.dumps(doc) + "\\n"``; an int too large
    to write is a ``SantError`` naming its path.

    Before Python 3.12, ``json``'s C encoder holds one small string per
    token until it joins them.  So it is called once per value of a
    top-level object, and once per item of such a value that is a list of
    objects or lists (gates, activities, place lists): only one item's
    tokens are held at a time.  The punctuation between them is a piece of
    its own, and every piece is built before any is written."""
    try:
        pieces = _pieces(doc)
    except ValueError:
        # The encoder refuses an int past Python's integer string conversion
        # limit; the largest int in ``doc`` is one such.
        path, _ = max(_ints(doc, "$"), key=lambda pair: abs(pair[1]))
        raise SantError(f"{path}: integer too large to write") from None
    pieces.append("\n")
    return pieces


def _pieces(doc: Any) -> list[str]:
    if not (isinstance(doc, dict) and all(isinstance(key, str)
                                          for key in doc)):
        # Encoded whole: ``json`` spells or refuses a non-str key itself.
        return [_encode(doc)]
    pieces = ["{"]
    for key, value in doc.items():
        pieces += (_encode(key), ": ")
        if isinstance(value, list) and value and \
                isinstance(value[0], (dict, list)):
            pieces.append("[")
            for item in value:
                pieces += (_encode(item), ", ")
            pieces[-1] = "]"
        else:
            pieces.append(_encode(value))
        pieces.append(", ")
    # The last separator closes the object; an empty one is "{}".
    pieces[-1] = "}" if doc else "{}"
    return pieces


def _ints(value: Any, path: str) -> Iterator[tuple[str, int]]:
    """Each int in the JSON document ``value``, with its path."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _ints(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _ints(item, f"{path}[{i}]")
    elif isinstance(value, int):
        yield path, value


# A JSON string, or a number whose match ends with its integer digits
# (group 1) exactly when it is an int literal.  Compiled on first use only:
# compiling it on import would add to every run's peak memory.
_JSON_NUMBER = r'"(?:[^"\\]|\\.)*"|-?(\d+)(?:\.\d+)?(?:[eE][+-]?\d+)?'


def _decode_json(text: str, path: str) -> Any:
    """``text`` as JSON.  An object that repeats a key is a ``SantError``
    naming ``path`` and the key, where ``json`` would keep the last value."""

    def unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        doc = dict(pairs)
        if len(doc) < len(pairs):
            key = Counter(key for key, _ in pairs).most_common(1)[0][0]
            raise SantError(f"{path}: repeated key '{key}'")
        return doc

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    except ValueError:
        # int() refuses an int literal past Python's integer string
        # conversion limit, and json.loads gives no position; the longest
        # int literal is one such.
        literal = max((m for m in re.finditer(_JSON_NUMBER, text)
                       if m.end(1) == m.end()), key=lambda m: len(m[1]))
        start = literal.start(1)
        raise ParseError(f"integer literal of {len(literal[1])} digits is "
                         f"too long", text.count("\n", 0, start) + 1,
                         start - text.rfind("\n", 0, start)) from None


def load_json_file(path: str) -> Any:
    return parse_file(path, lambda text: _decode_json(text, path))
