"""Deriving a concrete SAN from a template and a parameter assignment.

Place templates expand to one place per index in their evaluated
multiplicity; input gate templates translate to exactly one input gate;
output gate templates expand to one output gate per case of their activity.
Every term is evaluated under the assignment (with the case index bound on
the output side and the instance index bound per expanded element), so the
resulting instance is fully numeric.
"""

from __future__ import annotations

from typing import Mapping

from .errors import (EvalError, IndexOutOfRange, SortMismatch,
                     UnboundParameter, UnknownParameter, ValidationError,
                     has_errors)
from .record import Record
from .sancore import (Activity, ConcreteSan, Dist, InputGate, Marking,
                      OutputGate, PredAnd, PredConst, PredLeaf, PredNot,
                      PredOr, Predicate, Update)
from .template import (GateAtom, InputGateTemplate, MTable,
                       OutputGateTemplate, PlaceTemplate, SAt, SanTemplate,
                       TemplateMarking, marking_tokens_at,
                       place_index_values, validate_template,
                       where_condition)
from .terms import Value, eval_term, matches_sort

SEPARATOR = "_"


def concrete_place_name(template_name: str, index: int) -> str:
    return f"{template_name}{SEPARATOR}{index}"


class PlaceIndexMap(Record):
    """Bijection between (place template, position) and concrete places.

    ``names`` and ``indices`` list each template's concrete places and
    index values in expansion order; ``offsets`` maps each template's index
    values to their 0-based offset in those lists.
    """

    indices: dict[str, tuple[int, ...]]
    names: dict[str, tuple[str, ...]]
    offsets: dict[str, dict[int, int]]


def expand_place(pt: PlaceTemplate,
                 assignment: Mapping[str, Value]) -> list[str]:
    """Concrete places of one template, in multiplicity order."""
    return [concrete_place_name(pt.name, i)
            for i in place_index_values(pt, assignment)]


def build_index_map(template: SanTemplate,
                    assignment: Mapping[str, Value]) -> PlaceIndexMap:
    """Index map of every place template.  Precondition: place template
    names are unique (``concretize`` refuses a ``duplicate-name``); as
    ``<i>`` prints with no ``_``, no two places then share ``<P>_<i>``."""
    indices: dict[str, tuple[int, ...]] = {}
    names: dict[str, tuple[str, ...]] = {}
    offsets: dict[str, dict[int, int]] = {}
    for pt in template.places:
        values = tuple(place_index_values(pt, assignment))
        indices[pt.name] = values
        names[pt.name] = tuple(concrete_place_name(pt.name, index)
                               for index in values)
        offsets[pt.name] = {index: i for i, index in enumerate(values)}
    return PlaceIndexMap(indices, names, offsets)


def check_assignment(template: SanTemplate,
                     assignment: Mapping[str, Value]) -> None:
    declared = template.param_sorts()
    for name, sort in declared.items():
        if name not in assignment:
            raise UnboundParameter(f"parameter '{name}' is not bound")
        if not matches_sort(assignment[name], sort):
            raise SortMismatch(
                f"parameter '{name}' expects {sort}, bound to "
                f"{assignment[name]!r}")
    for name in assignment:
        if name not in declared:
            raise UnknownParameter(f"'{name}' is not a template parameter")


def project_marking(template: SanTemplate, marking: TemplateMarking,
                    assignment: Mapping[str, Value],
                    index_map: PlaceIndexMap | None = None) -> Marking:
    """Concrete marking: each place's tokens are its template's marking
    function applied to the place's index."""
    imap = index_map or build_index_map(template, assignment)
    result: Marking = {}
    for pt in template.places:
        fn = marking.get(pt.name)
        if fn is None:
            raise EvalError(f"marking does not cover place '{pt.name}'")
        for name, index in zip(imap.names[pt.name], imap.indices[pt.name]):
            result[name] = marking_tokens_at(fn, index, assignment)
    return result


def lift_marking(template: SanTemplate, marking: Marking,
                 assignment: Mapping[str, Value],
                 index_map: PlaceIndexMap | None = None) -> TemplateMarking:
    """Template marking reproducing a concrete one on the expanded indices
    (a token table per place; zero elsewhere)."""
    imap = index_map or build_index_map(template, assignment)
    lifted: TemplateMarking = {}
    for pt in template.places:
        table = {}
        for name, index in zip(imap.names[pt.name], imap.indices[pt.name]):
            table[index] = marking[name]
        lifted[pt.name] = MTable.of(table)
    return lifted


def _fold_predicate(template: SanTemplate, pred, assignment,
                    imap: PlaceIndexMap) -> Predicate:
    if isinstance(pred, PredAnd):
        return PredAnd(tuple(_fold_predicate(template, a, assignment, imap)
                             for a in pred.args))
    if isinstance(pred, PredOr):
        return PredOr(tuple(_fold_predicate(template, a, assignment, imap)
                            for a in pred.args))
    if isinstance(pred, PredNot):
        return PredNot(_fold_predicate(template, pred.arg, assignment, imap))
    return _fold_atom(pred, assignment, imap)


def _fold_atom(atom: GateAtom, assignment, imap: PlaceIndexMap) -> Predicate:
    indices = imap.indices[atom.place]
    names = imap.names[atom.place]

    def leaf(position: int) -> PredLeaf:
        index = indices[position]
        rhs = eval_term(atom.value, assignment, place_index=index)
        return PredLeaf(names[position], atom.cmp, rhs)

    if atom.quantifier == "all":
        if not indices:
            return PredConst(True)
        return PredAnd(tuple(leaf(i) for i in range(len(indices))))
    if atom.quantifier == "exists":
        if not indices:
            return PredConst(False)
        return PredOr(tuple(leaf(i) for i in range(len(indices))))
    offset = imap.offsets[atom.place].get(
        eval_term(atom.quantifier.index, assignment))
    if offset is None:
        # Out-of-range index atoms are never satisfiable.
        return PredConst(False)
    return leaf(offset)


def _fold_rules(template: SanTemplate, gate, assignment,
                imap: PlaceIndexMap,
                case_index: int | None = None) -> tuple[Update, ...]:
    updates: list[Update] = []
    for rule in gate.rules:
        if rule.when is not None and not eval_term(
                rule.when, assignment, case_index=case_index):
            continue
        indices = imap.indices[rule.place]
        names = imap.names[rule.place]

        def amount(index: int) -> int:
            return eval_term(rule.value, assignment,
                             case_index=case_index, place_index=index)

        sel = rule.selector
        if sel == "all":
            chosen = list(range(len(indices)))
            guard_for = None
        elif sel == "sat":
            cmp, value = where_condition(gate, rule.place)

            def guard_for(index: int) -> tuple[str, int]:
                return (cmp, eval_term(value, assignment, place_index=index))

            chosen = list(range(len(indices)))
        else:
            target = eval_term(sel.index, assignment, case_index=case_index)
            if isinstance(sel, SAt):
                offset = imap.offsets[rule.place].get(target)
                chosen = [] if offset is None else [offset]
            else:
                chosen = [i for i, v in enumerate(indices) if v != target]
            guard_for = None
        for position in chosen:
            index = indices[position]
            updates.append(Update(
                names[position], rule.action, amount(index),
                guard_for(index) if guard_for else None))
    return tuple(updates)


def _gate_places(gate, imap: PlaceIndexMap) -> tuple[str, ...]:
    out: list[str] = []
    for pname in gate.places:
        out.extend(imap.names[pname])
    return tuple(out)


def concretize_input_gate(template: SanTemplate, gate: InputGateTemplate,
                          assignment: Mapping[str, Value],
                          index_map: PlaceIndexMap | None = None) -> InputGate:
    """One concrete input gate: expanded place set, folded predicate and
    folded update list."""
    imap = index_map or build_index_map(template, assignment)
    return InputGate(
        gate.name, gate.activity, _gate_places(gate, imap),
        _fold_predicate(template, gate.predicate, assignment, imap),
        _fold_rules(template, gate, assignment, imap))


def concretize_output_gate(template: SanTemplate, gate: OutputGateTemplate,
                           case: int, assignment: Mapping[str, Value],
                           index_map: PlaceIndexMap | None = None,
                           places: tuple[str, ...] | None = None,
                           cases: int | None = None) -> OutputGate:
    """The case-th concrete output gate generated from a template gate.

    It is named ``<gate>_<case>`` when its activity has several cases.
    ``places``, when given, is the gate's expanded place tuple, which
    ``concretize`` builds once and shares across the gate's cases; ``cases``
    is the activity's case count, which ``concretize`` has evaluated once.
    Called without it, the gate evaluates the count itself."""
    imap = index_map or build_index_map(template, assignment)
    if cases is None:
        cases = eval_term(template.activity(gate.activity).cases, assignment)
    if not 1 <= case <= cases:
        raise IndexOutOfRange(
            f"case {case} out of range for '{gate.activity}' ({cases} cases)")
    return OutputGate(
        gate.name if cases == 1 else f"{gate.name}_{case}",
        gate.activity, case,
        _gate_places(gate, imap) if places is None else places,
        _fold_rules(template, gate, assignment, imap, case_index=case))


def concretize(template: SanTemplate, assignment: Mapping[str, Value],
               name: str | None = None) -> ConcreteSan:
    """Generate the concrete SAN for (template, assignment).

    The template must validate cleanly and the assignment must bind every
    parameter at its declared sort.  The instance is returned without
    being validated: ``validate_san`` checks it, and ``simulate`` and
    ``sant instantiate`` refuse an instance with validation errors.
    """
    template_diags = validate_template(template)
    if has_errors(template_diags):
        raise ValidationError(template_diags)
    check_assignment(template, assignment)
    imap = build_index_map(template, assignment)

    places: list[str] = []
    for pt in template.places:
        places.extend(imap.names[pt.name])

    activities: list[Activity] = []
    for at in template.activities:
        cases = eval_term(at.cases, assignment)
        if cases < 1:
            raise EvalError(
                f"activity '{at.name}': case count is {cases!r}, must be >= 1")
        probs = tuple(_case_prob(at, i, assignment) for i in range(1, cases + 1))
        dist = None
        if at.time_distribution is not None:
            dist = Dist(at.time_distribution.family,
                        tuple(float(eval_term(p, assignment))
                              for p in at.time_distribution.params))
        activities.append(Activity(
            name=at.name, kind=at.kind, cases=cases, case_probs=probs,
            distribution=dist))

    input_gates = tuple(
        concretize_input_gate(template, gate, assignment, imap)
        for gate in template.input_gates)

    case_counts = {a.name: a.cases for a in activities}
    output_gates: list[OutputGate] = []
    for gate in template.output_gates:
        cases = case_counts[gate.activity]
        gate_places = _gate_places(gate, imap)
        for case in range(1, cases + 1):
            output_gates.append(concretize_output_gate(
                template, gate, case, assignment, imap, places=gate_places,
                cases=cases))

    initial = project_marking(template, template.initial_marking_map(),
                              assignment, imap)

    return ConcreteSan(
        name=name or template.name,
        places=tuple(places),
        activities=tuple(activities),
        input_gates=input_gates,
        output_gates=tuple(output_gates),
        initial_marking=tuple((p, initial[p]) for p in places))


def _case_prob(at, case: int, assignment) -> float:
    for entry in at.case_distribution:
        if entry.guard is None or eval_term(entry.guard, assignment,
                                            case_index=case):
            return float(eval_term(entry.prob, assignment, case_index=case))
    return 0.0


def instance_summary(san: ConcreteSan) -> str:
    total_cases = sum(a.cases for a in san.activities)
    return (f"{san.name}: |P|={len(san.places)} |A|={len(san.activities)} "
            f"|I|={len(san.input_gates)} |O|={len(san.output_gates)} "
            f"sum(cases)={total_cases}")
