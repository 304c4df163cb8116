"""Lossless JSON interchange for templates and instances.

Terms, predicates, rules and marking functions serialize as their canonical
surface text; instance-level structures are fully numeric.  Both schemas
carry a version tag.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import ParseError, SantError
from .modelfile import (marking_fn_to_text, parse_marking_fn_text,
                        parse_pred_text, parse_rule_text, pred_to_text,
                        rule_to_text)
from .sancore import (Activity, ActivityKind, ConcreteSan, Dist, InputGate,
                      OutputGate, PredAnd, PredConst, PredLeaf, PredNot,
                      PredOr, Predicate, Update)
from .arclabel import (desugar_input_arc, desugar_output_arc,
                       parse_input_label, parse_output_label)
from .template import (ActivityTemplate, CaseDistribution, CaseEntry,
                       DistributionSpec, InputGateTemplate,
                       OutputGateTemplate, PlaceTemplate, ReactivationSpec,
                       SanTemplate)
from .terms import Sort, parse_term, print_term

TEMPLATE_SCHEMA = "santkit-template/1"
INSTANCE_SCHEMA = "santkit-instance/1"


def template_to_json(template: SanTemplate) -> dict[str, Any]:
    params = template.param_sorts()

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
                     for e in a.case_distribution.entries],
            "time": None if a.time_distribution is None else {
                "family": a.time_distribution.family,
                "params": [print_term(p) for p in a.time_distribution.params]},
            "reactivation": {"kind": a.reactivation.kind,
                             "description": a.reactivation.description},
        } for a in template.activities],
        "input_gates": [gate_json(g, True) for g in template.input_gates],
        "output_gates": [gate_json(g, False) for g in template.output_gates],
        "marking": {name: marking_fn_to_text(fn)
                    for name, fn in template.initial_marking},
    }


def json_to_template(doc: dict[str, Any]) -> SanTemplate:
    if doc.get("schema") != TEMPLATE_SCHEMA:
        raise SantError(f"unsupported template schema {doc.get('schema')!r}")
    params = {p["name"]: Sort(p["sort"]) for p in doc["params"]}

    def term(text, expected=None, allow_case=False, allow_place=False):
        return parse_term(text, params, expected=expected,
                          allow_case=allow_case, allow_place=allow_place)

    places = {p["name"]: PlaceTemplate(p["name"],
                                       term(p["multiplicity"], Sort.SET_INT))
              for p in doc["places"]}

    activities = []
    for a in doc["activities"]:
        entries = tuple(
            CaseEntry(None if e["when"] is None
                      else term(e["when"], Sort.BOOL, allow_case=True),
                      term(e["value"], Sort.REAL, allow_case=True))
            for e in a["prob"])
        time = None
        if a["time"] is not None:
            time = DistributionSpec(
                a["time"]["family"],
                tuple(term(p, Sort.REAL) for p in a["time"]["params"]))
        activities.append(ActivityTemplate(
            name=a["name"], kind=ActivityKind(a["kind"]),
            cases=term(a["cases"], Sort.INT),
            case_distribution=CaseDistribution(entries),
            time_distribution=time,
            reactivation=ReactivationSpec(**a["reactivation"])))
    act_by_name = {a.name: a for a in activities}

    def load_gate(g, is_input: bool):
        if "arc_label" in g:
            label = g["arc_label"]
            place = places[g["places"][0]]
            activity = act_by_name[g["activity"]]
            if is_input:
                return desugar_input_arc(parse_input_label(label, params),
                                         place, activity, g["name"], params,
                                         label=label)
            return desugar_output_arc(parse_output_label(label, params),
                                      place, activity, g["name"], params,
                                      label=label)
        rules = tuple(
            parse_rule_text(r["rule"], params, is_output=not is_input,
                            when=None if r["when"] is None
                            else term(r["when"], Sort.BOOL,
                                      allow_case=not is_input))
            for r in g["effect"])
        if is_input:
            return InputGateTemplate(
                g["name"], g["activity"], tuple(g["places"]),
                parse_pred_text(g["enabled"], params), rules)
        return OutputGateTemplate(
            g["name"], g["activity"], tuple(g["places"]), rules)

    return SanTemplate(
        name=doc["name"],
        parameters=tuple((p["name"], Sort(p["sort"]))
                         for p in doc["params"]),
        places=tuple(places.values()),
        activities=tuple(activities),
        input_gates=tuple(load_gate(g, True) for g in doc["input_gates"]),
        output_gates=tuple(load_gate(g, False) for g in doc["output_gates"]),
        initial_marking=tuple(
            (name, parse_marking_fn_text(text, params))
            for name, text in doc["marking"].items()))


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


def _json_pred(doc: Any) -> Predicate:
    if "const" in doc:
        return PredConst(doc["const"])
    if "and" in doc:
        return PredAnd(tuple(_json_pred(p) for p in doc["and"]))
    if "or" in doc:
        return PredOr(tuple(_json_pred(p) for p in doc["or"]))
    if "not" in doc:
        return PredNot(_json_pred(doc["not"]))
    return PredLeaf(doc["place"], doc["cmp"], doc["value"])


def _update_json(update: Update) -> dict[str, Any]:
    return {"place": update.place, "action": update.action,
            "amount": update.amount,
            "when": None if update.when is None else list(update.when)}


def _json_update(doc: dict[str, Any]) -> Update:
    when = doc["when"]
    return Update(doc["place"], doc["action"], doc["amount"],
                  when=None if when is None else (when[0], when[1]))


def san_to_json(san: ConcreteSan) -> dict[str, Any]:
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
        "input_gates": [{
            "name": g.name, "activity": g.activity, "places": list(g.places),
            "enabled": _pred_json(g.predicate),
            "effect": [_update_json(u) for u in g.updates],
        } for g in san.input_gates],
        "output_gates": [{
            "name": g.name, "activity": g.activity, "case": g.case,
            "places": list(g.places),
            "effect": [_update_json(u) for u in g.updates],
        } for g in san.output_gates],
        "marking": {name: tokens for name, tokens in san.initial_marking},
    }


def json_to_san(doc: dict[str, Any]) -> ConcreteSan:
    if doc.get("schema") != INSTANCE_SCHEMA:
        raise SantError(f"unsupported instance schema {doc.get('schema')!r}")
    return ConcreteSan(
        name=doc["name"],
        places=tuple(doc["places"]),
        activities=tuple(
            Activity(a["name"], ActivityKind(a["kind"]), a["cases"],
                     tuple(a["probs"]),
                     None if a["time"] is None else
                     Dist(a["time"]["family"], tuple(a["time"]["params"])),
                     a["reactivation"])
            for a in doc["activities"]),
        input_gates=tuple(
            InputGate(g["name"], g["activity"], tuple(g["places"]),
                      _json_pred(g["enabled"]),
                      tuple(_json_update(u) for u in g["effect"]))
            for g in doc["input_gates"]),
        output_gates=tuple(
            OutputGate(g["name"], g["activity"], g["case"], tuple(g["places"]),
                       tuple(_json_update(u) for u in g["effect"]))
            for g in doc["output_gates"]),
        initial_marking=tuple(doc["marking"].items()))


def dumps(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2) + "\n"


def load_json_file(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.msg, exc.lineno, exc.colno) from None
