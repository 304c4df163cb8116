"""Template-level model: parametric places, activities, gates and markings.

A template marking maps each place template to a token function over its
(eventual) instance indices.  Gate behavior is a closed rule language:
predicates are boolean combinations of quantified comparisons on instance
markings, and update rules address instances through a selector and apply
a set/add/subtract action.  Rules may carry a case guard so that an output
gate can behave differently per case of its activity.

Everything here evaluates directly against template markings and a
parameter assignment; the concretize module separately compiles the same
structures down to instance level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union

from .errors import (Diagnostic, DuplicateIndex, EvalError, NegativeMarking,
                     NotEnabled, SantError)
from . import terms
from .sancore import COMPARISONS, FAMILIES, ActivityKind
from .terms import (CaseIndex, Const, PlaceIndex, Sort, Term, Value,
                    eval_term, infer_sort)


@dataclass(frozen=True)
class PlaceTemplate:
    """A named place with a multiplicity term of sort set<int>."""

    name: str
    multiplicity: Term


@dataclass(frozen=True)
class DistributionSpec:
    """Firing-time distribution; params are Real terms.

    ``family`` names an entry of ``sancore.FAMILIES``: ``exponential(rate)``,
    ``uniform(low, high)`` or ``deterministic(delay)``.
    """

    family: str
    params: tuple[Term, ...]


@dataclass(frozen=True)
class CaseEntry:
    """One row of a case distribution: optional Bool guard over the case
    index, and a Real probability term."""

    guard: Term | None
    prob: Term


@dataclass(frozen=True)
class CaseDistribution:
    entries: tuple[CaseEntry, ...]


@dataclass(frozen=True)
class ReactivationSpec:
    """Only the empty reactivation set is executable; a non-empty set can be
    represented (with a description) but the simulator rejects it."""

    kind: str = "empty"          # "empty" | "unsupported"
    description: str = ""

    @property
    def is_empty(self) -> bool:
        return self.kind == "empty"


@dataclass(frozen=True)
class ActivityTemplate:
    name: str
    kind: ActivityKind
    cases: Term
    case_distribution: CaseDistribution
    time_distribution: DistributionSpec | None = None
    reactivation: ReactivationSpec = field(default_factory=ReactivationSpec)


# -- gate predicates ---------------------------------------------------------


@dataclass(frozen=True)
class QAll:
    pass


@dataclass(frozen=True)
class QExists:
    pass


@dataclass(frozen=True)
class QAt:
    index: Term


Quantifier = Union[QAll, QExists, QAt]

@dataclass(frozen=True)
class GateAtom:
    """Quantified comparison on the marking of one place template.

    The comparison value may use <PLACE> for the instance index under test.
    """

    quantifier: Quantifier
    place: str
    cmp: str                     # a key of sancore.COMPARISONS
    value: Term


@dataclass(frozen=True)
class PAtom:
    atom: GateAtom


@dataclass(frozen=True)
class PAnd:
    args: tuple["GatePredicate", ...]


@dataclass(frozen=True)
class POr:
    args: tuple["GatePredicate", ...]


@dataclass(frozen=True)
class PNot:
    arg: "GatePredicate"


GatePredicate = Union[PAtom, PAnd, POr, PNot]


# -- gate update rules -------------------------------------------------------


@dataclass(frozen=True)
class SAll:
    pass


@dataclass(frozen=True)
class SAt:
    index: Term


@dataclass(frozen=True)
class SExcept:
    index: Term


@dataclass(frozen=True)
class SWhere:
    """Select the instances satisfying the owning gate's condition on this
    place (input gates only)."""


Selector = Union[SAll, SAt, SExcept, SWhere]


@dataclass(frozen=True)
class ASet:
    value: Term


@dataclass(frozen=True)
class AAdd:
    value: Term


@dataclass(frozen=True)
class ASub:
    value: Term


Action = Union[ASet, AAdd, ASub]


@dataclass(frozen=True)
class GateRule:
    place: str
    selector: Selector
    action: Action
    when: Term | None = None     # Bool guard over <CASE> (output gates)


@dataclass(frozen=True)
class InputGateTemplate:
    name: str
    activity: str
    places: tuple[str, ...]
    predicate: GatePredicate
    rules: tuple[GateRule, ...]
    arc_label: str | None = None


@dataclass(frozen=True)
class OutputGateTemplate:
    name: str
    activity: str
    places: tuple[str, ...]
    rules: tuple[GateRule, ...]
    arc_label: str | None = None


# -- marking templates -------------------------------------------------------


@dataclass(frozen=True)
class MConst:
    value: Term


@dataclass(frozen=True)
class MSetAt:
    index: Term
    value: Term


@dataclass(frozen=True)
class MSetOn:
    indices: Term
    value: Term


@dataclass(frozen=True)
class MIdentity:
    pass


@dataclass(frozen=True)
class MExpr:
    value: Term               # Int term; may use <PLACE> for the index


@dataclass(frozen=True)
class MTable:
    entries: tuple[tuple[int, int], ...]   # (index, tokens), unlisted -> 0

    @staticmethod
    def of(mapping: Mapping[int, int]) -> "MTable":
        return MTable(tuple(sorted(mapping.items())))


MarkingFn = Union[MConst, MSetAt, MSetOn, MIdentity, MExpr, MTable]

# A template marking assigns a token function to every place template name.
TemplateMarking = dict[str, MarkingFn]


def marking_tokens_at(fn: MarkingFn, index: int,
                      assignment: Mapping[str, Value], prior: int = 0) -> int:
    """Token count the marking function yields at one instance index.

    Non-addressed indices keep ``prior`` (0 for a freshly projected
    marking), matching how the set-at/set-on forms behave in gate updates.
    """
    if isinstance(fn, MConst):
        return _as_count(eval_term(fn.value, assignment))
    if isinstance(fn, MSetAt):
        if eval_term(fn.index, assignment) == index:
            return _as_count(eval_term(fn.value, assignment))
        return prior
    if isinstance(fn, MSetOn):
        members = eval_term(fn.indices, assignment)
        if index in members:
            return _as_count(eval_term(fn.value, assignment))
        return prior
    if isinstance(fn, MIdentity):
        return prior
    if isinstance(fn, MExpr):
        return _as_count(eval_term(fn.value, assignment, place_index=index))
    if isinstance(fn, MTable):
        for i, tokens in fn.entries:
            if i == index:
                return tokens
        return 0
    raise SantError(f"not a marking function: {fn!r}")


def _as_count(value: Value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise EvalError(f"marking value {value!r} is not an integer")
    if value < 0:
        raise NegativeMarking(f"marking value {value} is negative")
    return value


# -- the template tuple ------------------------------------------------------


@dataclass(frozen=True)
class SanTemplate:
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
    distinct, strictly positive integers.
    """
    value = eval_term(pt.multiplicity, assignment)
    if not isinstance(value, tuple):
        raise EvalError(f"multiplicity of '{pt.name}' is not a set: {value!r}")
    indices = list(value)
    seen = set()
    for i in indices:
        if not isinstance(i, int) or isinstance(i, bool):
            raise EvalError(f"index {i!r} of place '{pt.name}' is not an integer")
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
    atoms = [a for a in _predicate_atoms(gate.predicate) if a.place == place]
    if len(atoms) != 1:
        raise SantError(
            f"gate '{gate.name}': where-selector on '{place}' needs exactly "
            f"one predicate atom about it, found {len(atoms)}")
    return atoms[0].cmp, atoms[0].value


def _predicate_atoms(pred: GatePredicate) -> Iterable[GateAtom]:
    if isinstance(pred, PAtom):
        yield pred.atom
    elif isinstance(pred, (PAnd, POr)):
        for arg in pred.args:
            yield from _predicate_atoms(arg)
    elif isinstance(pred, PNot):
        yield from _predicate_atoms(pred.arg)


# -- template-level evaluation ------------------------------------------------


def eval_gate_predicate(template: SanTemplate, pred: GatePredicate,
                        marking: TemplateMarking,
                        assignment: Mapping[str, Value]) -> bool:
    """Truth of a gate predicate on a template marking.

    Universal quantification over an empty instance set is true, existential
    is false, and an at-index atom whose index is outside the instance set
    is false.
    """
    if isinstance(pred, PAnd):
        return all(eval_gate_predicate(template, a, marking, assignment)
                   for a in pred.args)
    if isinstance(pred, POr):
        return any(eval_gate_predicate(template, a, marking, assignment)
                   for a in pred.args)
    if isinstance(pred, PNot):
        return not eval_gate_predicate(template, pred.arg, marking, assignment)
    atom = pred.atom
    indices = place_index_values(template.place(atom.place), assignment)

    def holds(i: int) -> bool:
        rhs = eval_term(atom.value, assignment, place_index=i)
        return COMPARISONS[atom.cmp](
            marking_tokens_at(marking[atom.place], i, assignment), rhs)

    if isinstance(atom.quantifier, QAll):
        return all(holds(i) for i in indices)
    if isinstance(atom.quantifier, QExists):
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
            amount = eval_term(rule.action.value, assignment,
                               case_index=case_index, place_index=i)
            if isinstance(rule.action, ASet):
                tokens = amount
            elif isinstance(rule.action, AAdd):
                tokens = current[i] + amount
            else:
                tokens = current[i] - amount
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
    if isinstance(sel, SAll):
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
    place_names = [p.name for p in template.places]
    activity_names = [a.name for a in template.activities]

    def err(code: str, message: str, element: str | None = None,
            severity: str = "error") -> None:
        diags.append(Diagnostic(code, message, severity, element))

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

    _check_names(template, diags, err)

    for pt in template.places:
        check_term(pt.multiplicity, Sort.SET_INT, f"place {pt.name}")

    for at in template.activities:
        el = f"activity {at.name}"
        check_term(at.cases, Sort.INT, el)
        if not at.case_distribution.entries:
            err("empty-case-distribution", "no case probability entries", el)
        for entry in at.case_distribution.entries:
            check_term(entry.guard, Sort.BOOL, el, allow_case=True)
            check_term(entry.prob, Sort.REAL, el, allow_case=True)
        if at.kind == ActivityKind.TIMED:
            if at.time_distribution is None:
                err("missing-distribution",
                    "timed activity has no firing-time distribution", el)
        elif at.time_distribution is not None:
            err("unexpected-distribution",
                "instantaneous activity has a firing-time distribution", el)
        if at.time_distribution is not None:
            dist = at.time_distribution
            family = FAMILIES.get(dist.family)
            if family is None:
                err("unknown-distribution", f"unknown family '{dist.family}'", el)
            elif len(dist.params) != family.arity:
                err("distribution-arity",
                    f"'{dist.family}' takes {family.arity} parameter(s)", el)
            for p in dist.params:
                check_term(p, Sort.REAL, el)
        if at.reactivation.kind == "unsupported":
            err("reactivation-unsupported",
                "non-empty reactivation sets are not executable", el,
                severity="warning")

    for gate in template.input_gates + template.output_gates:
        is_input = isinstance(gate, InputGateTemplate)
        el = f"gate {gate.name}"
        if gate.activity not in activity_names:
            err("dangling-gate",
                f"gate is mapped to unknown activity '{gate.activity}'", el)
        for pname in gate.places:
            if pname not in place_names:
                err("unknown-place", f"gate lists unknown place '{pname}'", el)
        if is_input:
            for atom in _predicate_atoms(gate.predicate):
                if atom.place not in gate.places:
                    err("place-outside-gate",
                        f"predicate tests place '{atom.place}' outside the "
                        f"gate's place set", el)
                if atom.cmp not in COMPARISONS:
                    err("bad-comparison", f"comparison '{atom.cmp}'", el)
                check_term(atom.value, Sort.INT, el, allow_place=True)
                if isinstance(atom.quantifier, QAt):
                    check_term(atom.quantifier.index, Sort.INT, el)
        for rule in gate.rules:
            if rule.place not in gate.places:
                err("place-outside-gate",
                    f"rule updates place '{rule.place}' outside the gate's "
                    f"place set", el)
            check_term(rule.action.value, Sort.INT, el,
                       allow_case=not is_input, allow_place=True)
            if isinstance(rule.selector, (SAt, SExcept)):
                check_term(rule.selector.index, Sort.INT, el,
                           allow_case=not is_input)
            if isinstance(rule.selector, SWhere):
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
        _check_marking_fn(fn, f"marking {pt.name}", check_term)
    for name in init:
        if name not in place_names:
            err("unknown-place",
                f"initial marking mentions unknown place '{name}'",
                f"marking {name}")
    return diags


def _check_marking_fn(fn: MarkingFn, element: str, check_term) -> None:
    if isinstance(fn, MConst):
        check_term(fn.value, Sort.INT, element)
    elif isinstance(fn, MSetAt):
        check_term(fn.index, Sort.INT, element)
        check_term(fn.value, Sort.INT, element)
    elif isinstance(fn, MSetOn):
        check_term(fn.indices, Sort.SET_INT, element)
        check_term(fn.value, Sort.INT, element)
    elif isinstance(fn, MExpr):
        check_term(fn.value, Sort.INT, element, allow_place=True)


def _check_names(template: SanTemplate, diags: list[Diagnostic], err) -> None:
    classes = (
        ("parameter", [n for n, _ in template.parameters]),
        ("place", [p.name for p in template.places]),
        ("activity", [a.name for a in template.activities]),
        ("gate", [g.name for g in
                  template.input_gates + template.output_gates]),
    )
    seen_all: dict[str, str] = {}
    for kind, names in classes:
        seen = set()
        for name in names:
            if name in seen:
                err("duplicate-name", f"duplicate {kind} name '{name}'",
                    f"{kind} {name}")
            seen.add(name)
            if name in seen_all and seen_all[name] != kind:
                err("name-collision",
                    f"'{name}' is used as both a {seen_all[name]} and a "
                    f"{kind}", f"{kind} {name}")
            seen_all.setdefault(name, kind)
