"""JSON interchange: instances both ways, templates as an export only.

The instance schema is fully numeric and is read back by ``json_to_san``
with typed, path-reporting checks.  It writes each distinct gate place list
once, in a table that gates index; files of the earlier schema, which list
a gate's places inline, are still read.  The template schema stores terms,
predicates, rules and marking functions as their canonical surface text;
like DOT, it is written but never read (the ``.sant`` text is the template
format that is read back).  Both schemas carry a version tag.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode_str
from math import isfinite
from typing import Any, Callable

from .errors import ParseError, SantError
from .modelfile import (marking_fn_to_text, parse_file, pred_to_text,
                        rule_to_text)
from .sancore import (Activity, ActivityKind, ConcreteSan, Dist, InputGate,
                      OutputGate, PredAnd, PredConst, PredLeaf, PredNot,
                      PredOr, Predicate, Update)
from .template import SanTemplate
from .terms import print_term

TEMPLATE_SCHEMA = "santkit-template/1"
INSTANCE_SCHEMA = "santkit-instance/2"
# The earlier instance schema: no place-list table, every gate's places inline.
INLINE_PLACES_SCHEMA = "santkit-instance/1"


def template_to_json(template: SanTemplate) -> dict[str, Any]:
    def gate_json(gate, is_input: bool) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "name": gate.name,
            "activity": gate.activity,
            "places": list(gate.places),
        }
        if gate.arc_label is not None:
            doc["arc_label"] = gate.arc_label
            return doc
        if is_input:
            doc["enabled"] = pred_to_text(gate.predicate)
        doc["effect"] = [
            {"when": None if r.when is None else print_term(r.when),
             "rule": rule_to_text(r)}
            for r in gate.rules]
        return doc

    return {
        "schema": TEMPLATE_SCHEMA,
        "name": template.name,
        "params": [{"name": n, "sort": s.value} for n, s in template.parameters],
        "places": [{"name": p.name, "multiplicity": print_term(p.multiplicity)}
                   for p in template.places],
        "activities": [{
            "name": a.name,
            "kind": a.kind.value,
            "cases": print_term(a.cases),
            "prob": [{"when": None if e.guard is None else print_term(e.guard),
                      "value": print_term(e.prob)}
                     for e in a.case_distribution],
            "time": None if a.time_distribution is None else {
                "family": a.time_distribution.family,
                "params": [print_term(p) for p in a.time_distribution.params]},
            # Templates have no reactivation syntax; the key keeps the layout.
            "reactivation": {"kind": "empty", "description": ""},
        } for a in template.activities],
        "input_gates": [gate_json(g, True) for g in template.input_gates],
        "output_gates": [gate_json(g, False) for g in template.output_gates],
        "marking": {name: marking_fn_to_text(fn)
                    for name, fn in template.initial_marking},
    }


def _pred_json(pred: Predicate) -> Any:
    if isinstance(pred, PredConst):
        return {"const": pred.value}
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
        return PredConst(_field(doc, "const", "bool", path))
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


def _update_json(update: Update) -> dict[str, Any]:
    return {"place": update.place, "action": update.action,
            "amount": update.amount,
            "when": None if update.when is None else list(update.when)}


def _json_update(doc: dict[str, Any], path: str) -> Update:
    when = _field(doc, "when", "list", path, nullable=True)
    if when is not None:
        if len(when) != 2:
            raise SantError(f"{path}.when: expected [cmp, int]")
        when = (_typed(when[0], "string", f"{path}.when[0]"),
                _typed(when[1], "int", f"{path}.when[1]"))
    return Update(_field(doc, "place", "string", path),
                  _field(doc, "action", "string", path),
                  _field(doc, "amount", "int", path), when=when)


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
        "effect": [_update_json(u) for u in g.updates],
    } for g in san.input_gates]
    output_gates = [{
        "name": g.name, "activity": g.activity, "case": g.case,
        "places": places(g),
        "effect": [_update_json(u) for u in g.updates],
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


def dumps(doc: Any) -> str:
    """``json.dumps(doc, indent=2) + "\\n"``, byte for byte, at a fraction of
    its cost.

    Any ``indent`` sends ``json`` to its pure-Python encoder, which yields
    one small string per token.  Here strings go through the C escaper,
    ints, finite floats, bools and ``None`` are formatted as that encoder
    formats them, and only NaN, the infinities, non-str keys and other
    types go through ``json.dumps``.  A list of strings is joined in one
    step.
    """
    chunks: list[str] = []

    def write(value: Any, indent: str) -> None:
        if isinstance(value, str):
            chunks.append(_encode_str(value))
        elif value is None:
            chunks.append("null")
        elif value is True:
            chunks.append("true")
        elif value is False:
            chunks.append("false")
        elif isinstance(value, int):
            chunks.append(int.__repr__(value))
        elif isinstance(value, float) and isfinite(value):
            chunks.append(float.__repr__(value))
        elif isinstance(value, dict):
            if not value:
                chunks.append("{}")
                return
            inner = indent + "  "
            sep = "{" + inner
            for key, item in value.items():
                chunks.append(sep + (_encode_str(key) if isinstance(key, str)
                                     else json.dumps({key: 0})[1:-4]) + ": ")
                write(item, inner)
                sep = "," + inner
            chunks.append(indent + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                chunks.append("[]")
                return
            inner = indent + "  "
            if all(isinstance(v, str) for v in value):
                chunks.append("".join((
                    "[", inner, ("," + inner).join(map(_encode_str, value)),
                    indent, "]")))
                return
            sep = "[" + inner
            for item in value:
                chunks.append(sep)
                write(item, inner)
                sep = "," + inner
            chunks.append(indent + "]")
        else:
            chunks.append(json.dumps(value))

    write(doc, "\n")
    chunks.append("\n")
    return "".join(chunks)


def _decode_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None


def load_json_file(path: str) -> Any:
    return parse_file(path, _decode_json)
