"""Deriving a concrete SAN from a template and a parameter assignment.

Place templates expand to one place per index in their evaluated
multiplicity; input gate templates translate to exactly one input gate;
output gate templates expand to one output gate per case of their activity.
Every term is evaluated under the assignment (with the case index bound on
the output side and the instance index bound per expanded element), so the
resulting instance is fully numeric.

``concretize`` only builds.  It refuses what it cannot build: an assignment
that does not bind the template, place indices that are not positive,
repeat or are too long to write (they name places), and an instance above
``MAX_INSTANCE_SIZE``.
Every other rule of a well-formed instance (case counts, probabilities,
distribution parameters, token counts) is ``validate_san``'s, which each
consumer of the instance runs.
"""

from __future__ import annotations

from typing import Mapping

from .errors import (Diagnostic, EvalError, SortMismatch, UnboundParameter,
                     UnknownParameter, ValidationError, has_errors, int_text)
from .record import Record
from .sancore import (MAX_INSTANCE_SIZE, Activity, ConcreteSan, Dist,
                      InputGate, Marking, OutputGate, PredAnd, PredLeaf,
                      PredNot, PredOr, Predicate, Update)
from .template import (GateAtom, InputGateTemplate, MTable,
                       OutputGateTemplate, SanTemplate, SExcept,
                       TemplateMarking, marking_tokens_at, place_index_values,
                       validate_template, where_condition)
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
                    imap: PlaceIndexMap) -> Marking:
    """Concrete marking: each place's tokens are its template's marking
    function applied to the place's index."""
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
                 imap: PlaceIndexMap) -> TemplateMarking:
    """Template marking reproducing a concrete one on the expanded indices
    (a token table per place; zero elsewhere).  ``assignment`` is the one
    ``imap`` was built under; the map alone decides the result."""
    lifted: TemplateMarking = {}
    for pt in template.places:
        table = {}
        for name, index in zip(imap.names[pt.name], imap.indices[pt.name]):
            table[index] = marking[name]
        lifted[pt.name] = MTable.of(table)
    return lifted


def _fold_predicate(pred, assignment, imap: PlaceIndexMap) -> Predicate:
    if isinstance(pred, PredAnd):
        return PredAnd(tuple(_fold_predicate(a, assignment, imap)
                             for a in pred.args))
    if isinstance(pred, PredOr):
        return PredOr(tuple(_fold_predicate(a, assignment, imap)
                            for a in pred.args))
    if isinstance(pred, PredNot):
        return PredNot(_fold_predicate(pred.arg, assignment, imap))
    return _fold_atom(pred, assignment, imap)


def _positions(choice, place: str, assignment, imap: PlaceIndexMap,
               case_index: int | None = None):
    """Positions of ``place``'s instances that a quantifier or selector
    picks: all of them for a keyword (``all``, ``exists``, ``sat``), those
    whose index differs from an ``SExcept``'s, and the one at an ``At``'s
    index, or none when that index is out of range."""
    if isinstance(choice, str):
        return range(len(imap.indices[place]))
    target = eval_term(choice.index, assignment, case_index=case_index)
    if isinstance(choice, SExcept):
        return [i for i, index in enumerate(imap.indices[place])
                if index != target]
    offset = imap.offsets[place].get(target)
    return () if offset is None else (offset,)


def _fold_atom(atom: GateAtom, assignment, imap: PlaceIndexMap) -> Predicate:
    indices = imap.indices[atom.place]
    names = imap.names[atom.place]
    found = tuple(
        PredLeaf(names[i], atom.cmp,
                 eval_term(atom.value, assignment, place_index=indices[i]))
        for i in _positions(atom.quantifier, atom.place, assignment, imap))
    if atom.quantifier == "all":
        return PredAnd(found)
    if atom.quantifier == "exists":
        return PredOr(found)
    # Out-of-range index atoms are never satisfiable.
    return found[0] if found else PredOr(())


def _fold_rules(gate, assignment, imap: PlaceIndexMap,
                case_index: int | None = None) -> tuple[Update, ...]:
    updates: list[Update] = []
    for rule in gate.rules:
        if rule.when is not None and not eval_term(
                rule.when, assignment, case_index=case_index):
            continue
        indices = imap.indices[rule.place]
        names = imap.names[rule.place]
        where = (where_condition(gate, rule.place)
                 if rule.selector == "sat" else None)
        for i in _positions(rule.selector, rule.place, assignment, imap,
                            case_index):
            updates.append(Update(
                names[i], rule.action,
                eval_term(rule.value, assignment, case_index=case_index,
                          place_index=indices[i]),
                None if where is None else (where[0], eval_term(
                    where[1], assignment, place_index=indices[i]))))
    return tuple(updates)


def _gate_places(gate, imap: PlaceIndexMap) -> tuple[str, ...]:
    out: list[str] = []
    for pname in gate.places:
        out.extend(imap.names[pname])
    return tuple(out)


def concretize_input_gate(gate: InputGateTemplate, places: tuple[str, ...],
                          assignment: Mapping[str, Value],
                          imap: PlaceIndexMap) -> InputGate:
    """One concrete input gate: the gate's expanded place tuple ``places``,
    its folded predicate and its folded update list."""
    return InputGate(
        gate.name, gate.activity, places,
        _fold_predicate(gate.predicate, assignment, imap),
        _fold_rules(gate, assignment, imap))


def concretize_output_gate(gate: OutputGateTemplate, case: int, cases: int,
                           places: tuple[str, ...],
                           assignment: Mapping[str, Value],
                           imap: PlaceIndexMap) -> OutputGate:
    """The case-th of the ``cases`` concrete output gates generated from a
    template gate, named ``<gate>_<case>`` when ``cases`` is not 1.  The
    gates of one template gate share its expanded place tuple ``places``."""
    return OutputGate(
        gate.name if cases == 1 else f"{gate.name}_{case}",
        gate.activity, case, places,
        _fold_rules(gate, assignment, imap, case_index=case))


def _check_size(template: SanTemplate, imap: PlaceIndexMap,
                cases: dict[str, int],
                gate_places: dict[str, tuple[str, ...]]) -> None:
    """Refuse an instance above ``MAX_INSTANCE_SIZE`` before building it,
    naming its largest element."""
    parts = [(len(imap.names[pt.name]), f"place {pt.name}")
             for pt in template.places]
    parts += [(max(cases[at.name], 0), f"activity {at.name}")
              for at in template.activities]
    parts += [(len(gate_places[g.name]), f"gate {g.name}")
              for g in template.input_gates]
    parts += [(len(gate_places[g.name]) * max(cases[g.activity], 0),
               f"gate {g.name}") for g in template.output_gates]
    total = sum(size for size, _ in parts)
    if total > MAX_INSTANCE_SIZE:
        size, element = max(parts)
        raise ValidationError([Diagnostic(
            "instance-size",
            f"instance size {int_text(total)} exceeds the ceiling "
            f"{MAX_INSTANCE_SIZE}; the largest part counts {int_text(size)}",
            element=element)])


def concretize(template: SanTemplate, assignment: Mapping[str, Value],
               name: str | None = None) -> ConcreteSan:
    """Generate the concrete SAN for (template, assignment).

    The template must validate cleanly, the assignment must bind every
    parameter at its declared sort, and the instance must not exceed
    ``MAX_INSTANCE_SIZE``.  The instance is returned without being
    validated: ``validate_san`` checks it, and ``simulate`` and
    ``sant instantiate`` refuse an instance with validation errors.
    """
    template_diags = validate_template(template)
    if has_errors(template_diags):
        raise ValidationError(template_diags)
    check_assignment(template, assignment)
    imap = build_index_map(template, assignment)
    cases = {at.name: eval_term(at.cases, assignment)
             for at in template.activities}
    gate_places = {gate.name: _gate_places(gate, imap) for gate in
                   template.input_gates + template.output_gates}
    _check_size(template, imap, cases, gate_places)

    places: list[str] = []
    for pt in template.places:
        places.extend(imap.names[pt.name])

    activities: list[Activity] = []
    for at in template.activities:
        count = cases[at.name]
        probs = tuple(_case_prob(at, i, assignment) for i in range(1, count + 1))
        dist = None
        if at.time_distribution is not None:
            dist = Dist(at.time_distribution.family,
                        tuple(float(eval_term(p, assignment))
                              for p in at.time_distribution.params))
        activities.append(Activity(
            name=at.name, kind=at.kind, cases=count, case_probs=probs,
            distribution=dist))

    input_gates = tuple(
        concretize_input_gate(gate, gate_places[gate.name], assignment, imap)
        for gate in template.input_gates)

    output_gates: list[OutputGate] = []
    for gate in template.output_gates:
        count = cases[gate.activity]
        for case in range(1, count + 1):
            output_gates.append(concretize_output_gate(
                gate, case, count, gate_places[gate.name], assignment, imap))

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
