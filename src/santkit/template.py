"""Template-level model: parametric places, activities, gates and markings.

A template marking maps each place template to a token function over its
(eventual) instance indices.  Gate behavior is a closed rule language:
predicates combine quantified comparisons on instance markings with
sancore's connectives, and update rules address instances through a
selector and apply an action of ``sancore.ACTIONS``.  Rules may carry a
case guard so that an output gate can behave differently per case of its
activity.  Firing-time distributions are ``sancore.Dist`` records whose
parameters are Real terms.

Everything here evaluates directly against template markings and a
parameter assignment; the concretize module separately compiles the same
structures down to instance level.
"""

from __future__ import annotations

from typing import Mapping, Union

from .errors import (Diagnostic, DuplicateIndex, EvalError, NegativeMarking,
                     NotEnabled, SantError)
from . import terms
from .record import Record
from .sancore import (ACTIONS, COMPARISONS, ActivityKind, Dist, PredAnd,
                      PredNot, PredOr, check_gate, check_timing, check_unique,
                      leaves)
from .terms import (CaseIndex, Const, PlaceIndex, Sort, Term, Value,
                    eval_term, infer_sort)


class PlaceTemplate(Record):
    """A named place with a multiplicity term of sort set<int>."""

    name: str
    multiplicity: Term


class CaseEntry(Record):
    """One row of a case distribution: optional Bool guard over the case
    index, and a Real probability term."""

    guard: Term | None
    prob: Term


class ActivityTemplate(Record):
    """Case ``i`` takes the probability of the first ``case_distribution``
    entry whose guard holds at ``i``, and 0 when none does."""

    name: str
    kind: ActivityKind
    cases: Term
    case_distribution: tuple[CaseEntry, ...]
    time_distribution: Dist | None = None


# -- gate predicates ---------------------------------------------------------

# The quantifiers over all of a place's instances, spelled as in ``.sant``.
QUANTIFIERS = ("all", "exists")


class QAt(Record):
    index: Term


Quantifier = Union[str, QAt]         # a QUANTIFIERS keyword, or one index


class GateAtom(Record):
    """Quantified comparison on the marking of one place template.

    The comparison value may use <PLACE> for the instance index under test.
    """

    quantifier: Quantifier
    place: str
    cmp: str                     # a key of sancore.COMPARISONS
    value: Term


# A gate predicate combines atoms with sancore's connectives.
GatePredicate = Union[GateAtom, PredAnd, PredOr, PredNot]


# -- gate update rules -------------------------------------------------------

# The selectors that need no index, spelled as in ``.sant``: "sat" takes the
# instances that satisfy the owning gate's condition on the rule's place
# (input gates only).
SELECTORS = ("all", "sat")


class SAt(Record):
    index: Term


class SExcept(Record):
    index: Term


Selector = Union[str, SAt, SExcept]  # a SELECTORS keyword, or an index


class GateRule(Record):
    place: str
    selector: Selector
    action: str                  # a key of sancore.ACTIONS
    value: Term
    when: Term | None = None     # Bool guard over <CASE> (output gates)


class InputGateTemplate(Record):
    name: str
    activity: str
    places: tuple[str, ...]
    predicate: GatePredicate
    rules: tuple[GateRule, ...]
    arc_label: str | None = None


class OutputGateTemplate(Record):
    name: str
    activity: str
    places: tuple[str, ...]
    rules: tuple[GateRule, ...]
    arc_label: str | None = None


# -- marking templates -------------------------------------------------------


class MExpr(Record):
    value: Term               # Int term; may use <PLACE> for the index


class MSetOn(Record):
    """``value`` tokens on the listed indices, 0 elsewhere."""

    indices: Term
    value: Term


class MTable(Record):
    entries: tuple[tuple[int, int], ...]   # (index, tokens), unlisted -> 0

    @staticmethod
    def of(mapping: Mapping[int, int]) -> "MTable":
        return MTable(tuple(sorted(mapping.items())))


MarkingFn = Union[MExpr, MSetOn, MTable]

# A template marking assigns a token function to every place template name.
TemplateMarking = dict[str, MarkingFn]


def marking_tokens_at(fn: MarkingFn, index: int,
                      assignment: Mapping[str, Value]) -> int:
    """Token count the marking function yields at one instance index."""
    if isinstance(fn, MExpr):
        return _as_count(eval_term(fn.value, assignment, place_index=index))
    if isinstance(fn, MSetOn):
        if index in eval_term(fn.indices, assignment):
            return _as_count(eval_term(fn.value, assignment))
        return 0
    if isinstance(fn, MTable):
        for i, tokens in fn.entries:
            if i == index:
                return tokens
        return 0
    raise SantError(f"not a marking function: {fn!r}")


def _as_count(value: Value) -> int:
    if value < 0:
        raise NegativeMarking(f"marking value {value} is negative")
    return value


# -- the template tuple ------------------------------------------------------


class SanTemplate(Record):
    """The full parametric net: parameters, place/activity/gate templates,
    and the initial marking template."""

    name: str
    parameters: tuple[tuple[str, Sort], ...]
    places: tuple[PlaceTemplate, ...]
    activities: tuple[ActivityTemplate, ...]
    input_gates: tuple[InputGateTemplate, ...]
    output_gates: tuple[OutputGateTemplate, ...]
    initial_marking: tuple[tuple[str, MarkingFn], ...]

    def param_sorts(self) -> dict[str, Sort]:
        return dict(self.parameters)

    def place(self, name: str) -> PlaceTemplate:
        for p in self.places:
            if p.name == name:
                return p
        raise KeyError(name)

    def activity(self, name: str) -> ActivityTemplate:
        for a in self.activities:
            if a.name == name:
                return a
        raise KeyError(name)

    def initial_marking_map(self) -> TemplateMarking:
        return dict(self.initial_marking)

    def input_gates_of(self, activity: str) -> tuple[InputGateTemplate, ...]:
        return tuple(g for g in self.input_gates if g.activity == activity)

    def output_gates_of(self, activity: str) -> tuple[OutputGateTemplate, ...]:
        return tuple(g for g in self.output_gates if g.activity == activity)


def place_index_values(pt: PlaceTemplate,
                       assignment: Mapping[str, Value]) -> list[int]:
    """Instance indices of a place template under an assignment.

    The order of the evaluated multiplicity value is kept.  Indices must be
    distinct and strictly positive (their sort is checked at binding).
    """
    indices = list(eval_term(pt.multiplicity, assignment))
    seen = set()
    for i in indices:
        if i < 1:
            raise EvalError(f"index {i} of place '{pt.name}' is not positive")
        if i in seen:
            raise DuplicateIndex(f"duplicate index {i} for place '{pt.name}'")
        seen.add(i)
    return indices


def is_unary_multiplicity(pt: PlaceTemplate) -> bool:
    """Structurally the constant multiplicity ``{1}``."""
    return pt.multiplicity == Const((1,))


def has_variable_cases(at: ActivityTemplate) -> bool:
    return not terms.is_closed(at.cases)


def where_condition(gate: InputGateTemplate, place: str) -> tuple[str, Term]:
    """Condition a where-selector on ``place`` refers to: the unique
    predicate atom about that place."""
    atoms = [a for a in leaves(gate.predicate) if a.place == place]
    if len(atoms) != 1:
        raise SantError(
            f"gate '{gate.name}': where-selector on '{place}' needs exactly "
            f"one predicate atom about it, found {len(atoms)}")
    return atoms[0].cmp, atoms[0].value


# -- template-level evaluation ------------------------------------------------


def eval_gate_predicate(template: SanTemplate, pred: GatePredicate,
                        marking: TemplateMarking,
                        assignment: Mapping[str, Value]) -> bool:
    """Truth of a gate predicate on a template marking.

    Universal quantification over an empty instance set is true, existential
    is false, and an at-index atom whose index is outside the instance set
    is false.
    """
    if isinstance(pred, PredAnd):
        return all(eval_gate_predicate(template, a, marking, assignment)
                   for a in pred.args)
    if isinstance(pred, PredOr):
        return any(eval_gate_predicate(template, a, marking, assignment)
                   for a in pred.args)
    if isinstance(pred, PredNot):
        return not eval_gate_predicate(template, pred.arg, marking, assignment)
    atom = pred
    indices = place_index_values(template.place(atom.place), assignment)

    def holds(i: int) -> bool:
        rhs = eval_term(atom.value, assignment, place_index=i)
        return COMPARISONS[atom.cmp](
            marking_tokens_at(marking[atom.place], i, assignment), rhs)

    if atom.quantifier == "all":
        return all(holds(i) for i in indices)
    if atom.quantifier == "exists":
        return any(holds(i) for i in indices)
    target = eval_term(atom.quantifier.index, assignment)
    if target not in indices:
        return False
    return holds(target)


def apply_gate_rules(template: SanTemplate, gate, marking: TemplateMarking,
                     assignment: Mapping[str, Value],
                     case_index: int | None = None) -> TemplateMarking:
    """Apply a gate's update rules, returning a new template marking.

    Rules run in declaration order on a live working marking; where-selector
    conditions are judged against the marking as it was when the gate
    started executing.
    """
    result = dict(marking)
    entry = dict(marking)
    for rule in gate.rules:
        if rule.when is not None:
            if not eval_term(rule.when, assignment, case_index=case_index):
                continue
        pt = template.place(rule.place)
        indices = place_index_values(pt, assignment)
        current = {i: marking_tokens_at(result[rule.place], i, assignment)
                   for i in indices}
        selected = _select(template, gate, rule, indices, entry, assignment,
                           case_index)
        for i in selected:
            amount = eval_term(rule.value, assignment,
                               case_index=case_index, place_index=i)
            tokens = ACTIONS[rule.action](current[i], amount)
            if tokens < 0:
                raise NegativeMarking(
                    f"gate '{gate.name}' drives '{rule.place}' index {i} "
                    f"to {tokens}")
            current[i] = tokens
        result[rule.place] = MTable.of(current)
    return result


def _select(template: SanTemplate, gate, rule: GateRule, indices: list[int],
            entry: TemplateMarking, assignment: Mapping[str, Value],
            case_index: int | None) -> list[int]:
    sel = rule.selector
    if sel == "all":
        return indices
    if isinstance(sel, SAt):
        i = eval_term(sel.index, assignment, case_index=case_index)
        return [i] if i in indices else []
    if isinstance(sel, SExcept):
        i = eval_term(sel.index, assignment, case_index=case_index)
        return [j for j in indices if j != i]
    cmp, value = where_condition(gate, rule.place)
    chosen = []
    for i in indices:
        rhs = eval_term(value, assignment, place_index=i)
        if COMPARISONS[cmp](marking_tokens_at(entry[rule.place], i, assignment),
                            rhs):
            chosen.append(i)
    return chosen


def template_enabled(template: SanTemplate, marking: TemplateMarking,
                     activity: str,
                     assignment: Mapping[str, Value]) -> bool:
    return all(eval_gate_predicate(template, g.predicate, marking, assignment)
               for g in template.input_gates_of(activity))


def template_fire(template: SanTemplate, marking: TemplateMarking,
                  activity: str, case: int,
                  assignment: Mapping[str, Value]) -> TemplateMarking:
    """Fire an activity at template level: all input gate functions first,
    then the output gate functions bound to the selected case."""
    if not template_enabled(template, marking, activity, assignment):
        raise NotEnabled(f"activity '{activity}' is not enabled")
    for gate in template.input_gates_of(activity):
        marking = apply_gate_rules(template, gate, marking, assignment)
    for gate in template.output_gates_of(activity):
        marking = apply_gate_rules(template, gate, marking, assignment,
                                   case_index=case)
    return marking


# -- validation ---------------------------------------------------------------


def validate_template(template: SanTemplate) -> list[Diagnostic]:
    """Static checks; returns diagnostics, never raises.

    Covers sort errors of every term slot, dangling gate-to-activity maps,
    gates touching places outside their declared place set, case-index
    placeholders on the input side, and timed/instantaneous versus
    distribution mismatches.
    """
    diags: list[Diagnostic] = []
    declared = template.param_sorts()

    def err(code: str, message: str, element: str | None = None) -> None:
        diags.append(Diagnostic(code, message, element=element))

    def check_term(term: Term | None, expected: Sort, element: str,
                   allow_case: bool = False, allow_place: bool = False) -> None:
        if term is None:
            return
        try:
            got = infer_sort(term, declared)
        except SantError as exc:
            err("sort-mismatch", str(exc), element)
            return
        if got != expected:
            err("sort-mismatch", f"term has sort {got}, expected {expected}",
                element)
        if not allow_case and terms.contains_node(term, CaseIndex):
            err("case-placeholder", "<CASE> is not allowed here", element)
        if not allow_place and terms.contains_node(term, PlaceIndex):
            err("place-placeholder", "<PLACE> is not allowed here", element)

    place_names, activity_names = _check_names(template, err)

    for pt in template.places:
        check_term(pt.multiplicity, Sort.SET_INT, f"place {pt.name}")

    for at in template.activities:
        el = f"activity {at.name}"
        check_term(at.cases, Sort.INT, el)
        if not at.case_distribution:
            err("empty-case-distribution", "no case probability entries", el)
        for entry in at.case_distribution:
            check_term(entry.guard, Sort.BOOL, el, allow_case=True)
            check_term(entry.prob, Sort.REAL, el, allow_case=True)
        check_timing(at.kind, at.time_distribution, el, err)
        if at.time_distribution is not None:
            for p in at.time_distribution.params:
                check_term(p, Sort.REAL, el)

    known_places: set[int] = set()
    for gate in template.input_gates + template.output_gates:
        is_input = isinstance(gate, InputGateTemplate)
        el = f"gate {gate.name}"
        atoms = tuple(leaves(gate.predicate)) if is_input else ()
        check_gate(gate, atoms, gate.rules, activity_names, place_names,
                   known_places, el, err)
        for atom in atoms:
            if atom.place not in gate.places:
                err("place-outside-gate",
                    f"predicate tests place '{atom.place}' outside the "
                    f"gate's place set", el)
            check_term(atom.value, Sort.INT, el, allow_place=True)
            if isinstance(atom.quantifier, QAt):
                check_term(atom.quantifier.index, Sort.INT, el)
            elif atom.quantifier not in QUANTIFIERS:
                err("bad-quantifier", f"quantifier '{atom.quantifier}'", el)
        for rule in gate.rules:
            if rule.place not in gate.places:
                err("place-outside-gate",
                    f"rule updates place '{rule.place}' outside the gate's "
                    f"place set", el)
            check_term(rule.value, Sort.INT, el,
                       allow_case=not is_input, allow_place=True)
            if isinstance(rule.selector, (SAt, SExcept)):
                check_term(rule.selector.index, Sort.INT, el,
                           allow_case=not is_input)
            elif rule.selector not in SELECTORS:
                err("bad-selector", f"selector '{rule.selector}'", el)
            elif rule.selector == "sat":
                if not is_input:
                    err("where-in-output",
                        "where-selector needs a gate predicate; output gates "
                        "have none", el)
                else:
                    try:
                        where_condition(gate, rule.place)
                    except SantError as exc:
                        err("ambiguous-where", str(exc), el)
            check_term(rule.when, Sort.BOOL, el, allow_case=not is_input)

    init = template.initial_marking_map()
    for pt in template.places:
        fn = init.get(pt.name)
        if fn is None:
            err("marking-incomplete",
                f"initial marking does not cover place '{pt.name}'",
                f"place {pt.name}")
            continue
        _check_marking_fn(fn, f"marking {pt.name}", check_term, err)
    for name in init:
        if name not in place_names:
            err("unknown-place",
                f"initial marking mentions unknown place '{name}'",
                f"marking {name}")
    return diags


def _check_marking_fn(fn: MarkingFn, element: str, check_term, err) -> None:
    if isinstance(fn, MExpr):
        check_term(fn.value, Sort.INT, element, allow_place=True)
    elif isinstance(fn, MSetOn):
        check_term(fn.indices, Sort.SET_INT, element)
        check_term(fn.value, Sort.INT, element)
    elif not isinstance(fn, MTable):
        err("bad-marking", f"not a marking function: {fn!r}", element)


def _check_names(template: SanTemplate, err) -> tuple[set[str], set[str]]:
    """Names are unique within each kind, and no name serves two kinds;
    returns the place names and the activity names."""
    classes = (
        ("parameter", [n for n, _ in template.parameters]),
        ("place", [p.name for p in template.places]),
        ("activity", [a.name for a in template.activities]),
        ("gate", [g.name for g in
                  template.input_gates + template.output_gates]),
    )
    unique: dict[str, set[str]] = {}
    seen_all: dict[str, str] = {}
    for kind, names in classes:
        unique[kind] = check_unique(kind, names, err)
        for name in names:
            if seen_all.setdefault(name, kind) != kind:
                err("name-collision",
                    f"'{name}' is used as both a {seen_all[name]} and a "
                    f"{kind}", f"{kind} {name}")
    return unique["place"], unique["activity"]
