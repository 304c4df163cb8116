"""Concrete (instance-level) stochastic activity networks.

An instance is fully folded: gate predicates are boolean trees over
comparisons on individual places, and gate functions are flat update lists
with integer amounts.  Case probabilities are plain vectors and firing-time
distributions carry numeric parameters, so instances serialize losslessly
and execute without any term evaluation.
"""

from __future__ import annotations

import enum
import math
import operator
import random
from collections import deque
from functools import cached_property
from typing import Callable, Collection, Iterable, Iterator, Union

from .errors import (Diagnostic, NegativeMarking, NotEnabled, SantError,
                     int_text)
from .record import Record

PROB_TOLERANCE = 1e-9

# The largest instance ``concretize`` builds, in |P| + sum of case counts +
# sum over generated gates of their place-list lengths.  User at |s| = 4000
# measures 16,016,010 (the |s| output gates of its Request activity each
# list the |s| Req places); an instance past the ceiling would take
# gigabytes and minutes to build.  A case count above it alone is refused
# by ``check_case_count``.
MAX_INSTANCE_SIZE = 20_000_000

Marking = dict[str, int]


class ActivityKind(enum.Enum):
    TIMED = "timed"
    INSTANTANEOUS = "instantaneous"

    def __str__(self) -> str:
        return self.value


# The comparisons a gate predicate or an update guard may use.
COMPARISONS: dict[str, Callable[[int, int], bool]] = {
    "=": operator.eq, ">": operator.gt, ">=": operator.ge}

# The marking updates an output or input gate function may apply, each as
# (tokens, amount) -> new tokens.
ACTIONS: dict[str, Callable[[int, int], int]] = {
    "set": lambda tokens, amount: amount, "add": operator.add,
    "sub": operator.sub}


class Family(Record):
    """A firing-time distribution family.

    ``invalid`` takes the ``arity`` parameters and is true when they are out
    of range; ``requirement`` then heads the ``invalid-parameter`` message.
    ``sample`` draws one delay by inverse transform.  ``draw`` is the same
    draw as an expression for the simulator's generated loop: over the
    parameters ``{0}``, ``{1}``, …, the generator's ``random()`` and
    ``log`` (``math.log``), with the operations of ``sample`` in its order,
    so that both give bit-identical delays.
    """

    arity: int
    invalid: Callable[..., bool]
    requirement: str
    sample: Callable[[tuple[float, ...], random.Random], float]
    draw: str


FAMILIES: dict[str, Family] = {
    "exponential": Family(
        1, lambda rate: not 0.0 < rate < math.inf,
        "exponential rate must be positive and finite",
        lambda p, rng: -math.log(1.0 - rng.random()) / p[0],
        "-log(1.0 - random()) / {0}"),
    "uniform": Family(
        2, lambda low, high: not 0.0 <= low <= high < math.inf,
        "uniform bounds must satisfy 0 <= low <= high < inf",
        lambda p, rng: p[0] + (p[1] - p[0]) * rng.random(),
        "{0} + ({1} - {0}) * random()"),
    "deterministic": Family(
        1, lambda delay: not 0.0 <= delay < math.inf,
        "deterministic delay must be nonnegative and finite",
        lambda p, rng: p[0], "{0}"),
}


# A template activity's distribution (``template.ActivityTemplate``) is a
# Dist too, with Real terms as its parameters.
class Dist(Record):
    family: str                  # a key of FAMILIES
    params: tuple[float, ...]


class Activity(Record):
    name: str
    kind: ActivityKind
    cases: int
    case_probs: tuple[float, ...]
    distribution: Dist | None = None
    reactivation: str = "empty"


class PredLeaf(Record):
    place: str
    cmp: str                     # a key of COMPARISONS
    value: int


# The connectives also combine the quantified atoms of template gates
# (``template.GatePredicate``); ``leaves`` walks either kind of tree.  The
# empty ``PredAnd`` is true and the empty ``PredOr`` false.
class PredAnd(Record):
    args: tuple["Predicate", ...]


class PredOr(Record):
    args: tuple["Predicate", ...]


class PredNot(Record):
    arg: "Predicate"


Predicate = Union[PredLeaf, PredAnd, PredOr, PredNot]


class Update(Record):
    """One marking update: set/add/sub ``amount`` tokens on ``place``.

    ``when`` guards the update on the place's own token count as it was
    when the gate started executing (the folded where-selector).
    """

    place: str
    action: str                  # a key of ACTIONS
    amount: int
    when: tuple[str, int] | None = None


class InputGate(Record):
    name: str
    activity: str
    places: tuple[str, ...]
    predicate: Predicate
    updates: tuple[Update, ...]


class OutputGate(Record):
    name: str
    activity: str
    case: int
    places: tuple[str, ...]
    updates: tuple[Update, ...]


class ConcreteSan(Record):
    name: str
    places: tuple[str, ...]
    activities: tuple[Activity, ...]
    input_gates: tuple[InputGate, ...]
    output_gates: tuple[OutputGate, ...]
    initial_marking: tuple[tuple[str, int], ...]

    @cached_property
    def _activity_by_name(self) -> dict[str, Activity]:
        # Reversed: a duplicated name resolves to its first declaration.
        return {a.name: a for a in reversed(self.activities)}

    def activity(self, name: str) -> Activity:
        return self._activity_by_name[name]

    @cached_property
    def _inputs_by_activity(self) -> dict[str, tuple[InputGate, ...]]:
        table: dict[str, list[InputGate]] = {a.name: [] for a in self.activities}
        for gate in self.input_gates:
            table.setdefault(gate.activity, []).append(gate)
        return {k: tuple(v) for k, v in table.items()}

    @cached_property
    def _outputs_by_activity_case(self) -> dict[tuple[str, int], tuple[OutputGate, ...]]:
        table: dict[tuple[str, int], list[OutputGate]] = {}
        for gate in self.output_gates:
            table.setdefault((gate.activity, gate.case), []).append(gate)
        return {k: tuple(v) for k, v in table.items()}

    def inputs_of(self, activity: str) -> tuple[InputGate, ...]:
        return self._inputs_by_activity.get(activity, ())

    def outputs_of(self, activity: str, case: int) -> tuple[OutputGate, ...]:
        return self._outputs_by_activity_case.get((activity, case), ())

    def initial_marking_dict(self) -> Marking:
        return dict(self.initial_marking)

    def marking_key(self, marking: Marking) -> tuple[int, ...]:
        return tuple(marking[p] for p in self.places)


def eval_predicate(pred: Predicate, marking: Marking) -> bool:
    if isinstance(pred, PredLeaf):
        return COMPARISONS[pred.cmp](marking[pred.place], pred.value)
    if isinstance(pred, PredAnd):
        return all(eval_predicate(p, marking) for p in pred.args)
    if isinstance(pred, PredOr):
        return any(eval_predicate(p, marking) for p in pred.args)
    return not eval_predicate(pred.arg, marking)


def is_enabled(san: ConcreteSan, marking: Marking, activity: str) -> bool:
    """An activity is enabled when every input gate mapped to it holds."""
    return all(eval_predicate(g.predicate, marking)
               for g in san.inputs_of(activity))


def apply_updates(gate_name: str, updates: tuple[Update, ...],
                  marking: Marking) -> Marking:
    """Run one gate's updates; ``when`` guards see the entry marking."""
    entry = marking
    result = dict(marking)
    for u in updates:
        if u.when is not None and \
                not COMPARISONS[u.when[0]](entry[u.place], u.when[1]):
            continue
        tokens = ACTIONS[u.action](result[u.place], u.amount)
        if tokens < 0:
            raise NegativeMarking(
                f"gate '{gate_name}' drives place '{u.place}' to "
                f"{int_text(tokens)}")
        result[u.place] = tokens
    return result


def fire(san: ConcreteSan, marking: Marking, activity: str,
         case: int) -> Marking:
    """New marking after firing ``case`` of ``activity``.

    Input gate functions run first, then the output gates of the selected
    case; within each group, gates run in declaration order.
    """
    act = san.activity(activity)
    if not 1 <= case <= act.cases:
        raise NotEnabled(f"activity '{activity}' has no case {case}")
    if not is_enabled(san, marking, activity):
        raise NotEnabled(f"activity '{activity}' is not enabled")
    for gate in san.inputs_of(activity):
        marking = apply_updates(gate.name, gate.updates, marking)
    for gate in san.outputs_of(activity, case):
        marking = apply_updates(gate.name, gate.updates, marking)
    return marking


def case_probability(san: ConcreteSan, activity: str, marking: Marking,
                     case: int) -> float:
    """Probability of selecting ``case``; zero beyond the case count."""
    act = san.activity(activity)
    if case < 1 or case > act.cases:
        return 0.0
    return act.case_probs[case - 1]


def enabled_activities(san: ConcreteSan, marking: Marking) -> list[Activity]:
    return [a for a in san.activities if is_enabled(san, marking, a.name)]


def under_priority(enabled: list[Activity]) -> tuple[list[Activity], bool]:
    """The SAN priority rule on one ``enabled_activities`` result: the
    activities that may fire and whether they are instantaneous (then the
    marking is unstable and timed activities wait)."""
    instantaneous = [a for a in enabled
                     if a.kind == ActivityKind.INSTANTANEOUS]
    return (instantaneous, True) if instantaneous else (enabled, False)


def is_stable(san: ConcreteSan, marking: Marking) -> bool:
    """Stable: no instantaneous activity is enabled."""
    return not under_priority(enabled_activities(san, marking))[1]


def _successors(san: ConcreteSan, marking: Marking,
                instantaneous_only: bool = False
                ) -> Iterator[tuple[str, int, Marking]]:
    """The positive-probability (activity, case, marking) steps out of
    ``marking`` under the priority rule, fired lazily; none from a stable
    marking when ``instantaneous_only``."""
    fireable, instantaneous = under_priority(enabled_activities(san, marking))
    if instantaneous_only and not instantaneous:
        fireable = []
    return ((act.name, case, fire(san, marking, act.name, case))
            for act in fireable for case in range(1, act.cases + 1)
            if act.case_probs[case - 1] > 0.0)


class InstabilityReport(Record):
    """Witness of a (potentially) non-stabilizing net.

    ``kind`` is "cycle" when an instantaneous firing chain revisits a
    marking, or "depth-exhausted" when the bounded search gave up; the
    chain lists the (activity, case) steps taken.
    """

    kind: str
    chain: tuple[tuple[str, int], ...]


def find_instability(san: ConcreteSan, marking: Marking,
                     depth: int = 10_000) -> InstabilityReport | None:
    """Bounded search for an unbounded instantaneous firing chain.

    Explores instantaneous-only chains from ``marking``; reports a cycle
    witness when a chain revisits a marking, a depth-exhausted flag when a
    chain reaches ``depth`` steps, and None when every chain terminates.
    """
    safe: set[tuple[int, ...]] = set()
    key0 = san.marking_key(marking)
    stack = [(key0, _successors(san, marking, instantaneous_only=True))]
    on_path = {key0: 0}
    edges: list[tuple[str, int]] = []
    while stack:
        key, successors = stack[-1]
        step = next(successors, None)
        if step is None:
            stack.pop()
            safe.add(key)
            del on_path[key]
            if edges:
                edges.pop()
            continue
        name, case, succ = step
        succ_key = san.marking_key(succ)
        if succ_key in on_path:
            start = on_path[succ_key]
            return InstabilityReport("cycle", tuple(edges[start:] + [(name, case)]))
        if succ_key in safe:
            continue
        edges.append((name, case))
        if len(edges) >= depth:
            return InstabilityReport("depth-exhausted", tuple(edges))
        on_path[succ_key] = len(stack)
        stack.append((succ_key,
                      _successors(san, succ, instantaneous_only=True)))
    return None


def reachable_markings(san: ConcreteSan, max_states: int = 10_000,
                       start: Marking | None = None) -> tuple[list[Marking], bool]:
    """Breadth-first reachable markings under the priority rule (when any
    instantaneous activity is enabled, only instantaneous activities fire).
    Returns (markings, truncated)."""
    start = dict(san.initial_marking) if start is None else dict(start)
    seen = {san.marking_key(start)}
    queue = deque([start])
    out = [start]
    truncated = False
    while queue:
        for _, _, succ in _successors(san, queue.popleft()):
            key = san.marking_key(succ)
            if key in seen:
                continue
            if len(out) >= max_states:
                truncated = True
                continue
            seen.add(key)
            queue.append(succ)
            out.append(succ)
    return out, truncated


def validate_san(san: ConcreteSan) -> list[Diagnostic]:
    """Well-formedness of a concrete SAN; diagnostics, never raises."""
    diags: list[Diagnostic] = []

    def err(code: str, message: str, element: str | None = None,
            severity: str = "error") -> None:
        diags.append(Diagnostic(code, message, severity, element))

    gates = san.input_gates + san.output_gates
    # The slice drops the set of gate names at once.
    place_set, activity_names = check_names((
        ("place", san.places),
        ("activity", [a.name for a in san.activities]),
        ("gate", [g.name for g in gates])), err)[:2]

    for act in san.activities:
        el = f"activity {act.name}"
        check_case_count(act.cases, el, err)
        if len(act.case_probs) != act.cases:
            err("case-count",
                f"{len(act.case_probs)} probabilities for "
                f"{int_text(act.cases)} cases", el)
        check_case_probs(act.case_probs, el, err)
        total = sum(act.case_probs)
        if not abs(total - 1.0) <= PROB_TOLERANCE:
            err("normalization",
                f"case probabilities sum to {total!r}, not 1", el)
        family = check_timing(act.kind, act.distribution, el, err)
        if family is not None:
            check_parameters(family, act.distribution.params, el, err)
        if act.reactivation != "empty":
            err("reactivation-unsupported",
                "non-empty reactivation sets are not executable", el,
                severity="warning")

    known: dict[int, set[str]] = {}
    for gate in gates:
        el = f"gate {gate.name}"
        is_input = isinstance(gate, InputGate)
        atoms = tuple(leaves(gate.predicate)) if is_input else ()
        check_gate(gate, atoms, gate.updates, activity_names, place_set,
                   known, el, err)
        if not is_input and gate.activity in activity_names:
            cases = san.activity(gate.activity).cases
            if not 1 <= gate.case <= cases:
                err("case-out-of-range",
                    f"gate is mapped to case {int_text(gate.case)} of "
                    f"'{gate.activity}' ({int_text(cases)} cases)", el)
        for u in gate.updates:
            if u.when is not None and u.when[0] not in COMPARISONS:
                err("bad-comparison", f"comparison '{u.when[0]}'", el)
            if u.action == "set" and u.amount < 0:
                negative_set(u.place, u.amount, el, err)

    check_coverage(san.places, place_set, dict(san.initial_marking), err)
    check_marking(san.initial_marking, None, err)

    if not any(d.severity == "error" for d in diags):
        try:
            report = find_instability(san, san.initial_marking_dict())
        except SantError as exc:
            err("instability-check", f"instability search failed: {exc}",
                severity="warning")
        else:
            if report is not None:
                chain = ", ".join(f"{a}({c})" for a, c in report.chain[:8])
                err("non-stabilizing",
                    f"instantaneous chain does not stabilize ({report.kind}: "
                    f"{chain}...)", severity="warning")
    return diags


# -- rules shared with template.validate_template ------------------------------
# ``err(code, message, element)`` records one diagnostic.


def check_names(classes: tuple[tuple[str, Collection[str]], ...],
                err) -> list[set[str]]:
    """Names are unique within each kind of ``classes``, (kind, names) pairs,
    and no name serves two kinds; returns each kind's set of names."""
    sets: list[set[str]] = []
    for kind, names in classes:
        unique: set[str] = set()
        for name in names:
            if name in unique:
                err("duplicate-name", f"duplicate {kind} name '{name}'",
                    f"{kind} {name}")
            unique.add(name)
        for (other, _), used in zip(classes, sets):
            for name in names:
                if name in used:
                    err("name-collision", f"'{name}' is used as both "
                        f"{other} name and {kind} name", f"{kind} {name}")
        sets.append(unique)
    return sets


def check_timing(kind: ActivityKind, dist: Dist | None, element: str,
                 err) -> Family | None:
    """A timed activity has a distribution of a known family with its
    arity, and an instantaneous one has none; returns the family when
    ``dist`` names a known one with the right number of parameters."""
    if kind == ActivityKind.TIMED and dist is None:
        err("missing-distribution",
            "timed activity has no firing-time distribution", element)
    elif kind != ActivityKind.TIMED and dist is not None:
        err("unexpected-distribution",
            "instantaneous activity has a firing-time distribution", element)
    if dist is None:
        return None
    family = FAMILIES.get(dist.family)
    if family is None:
        err("unknown-distribution", f"unknown family '{dist.family}'", element)
    elif len(dist.params) != family.arity:
        err("distribution-arity",
            f"'{dist.family}' takes {family.arity} parameter(s)", element)
        return None
    return family


def check_case_count(cases: int, element: str, err) -> None:
    """An activity has at least one case, and no more than
    ``MAX_INSTANCE_SIZE``."""
    if cases < 1:
        err("case-count", f"activity has {int_text(cases)} cases", element)
    elif cases > MAX_INSTANCE_SIZE:
        err("instance-size", f"activity has {int_text(cases)} cases, above "
            f"the ceiling {MAX_INSTANCE_SIZE}", element)


def check_case_probs(probs: Iterable[float], element: str, err) -> None:
    """Each case probability lies in [0, 1]."""
    if any(not 0.0 <= p <= 1.0 for p in probs):
        err("normalization", "case probability outside [0, 1]", element)


def check_parameters(family: Family, params: tuple[float, ...],
                     element: str, err) -> None:
    """The parameters are in the family's range."""
    if family.invalid(*params):
        err("invalid-parameter", f"{family.requirement}, got {params}",
            element)


def check_marking(marking: Iterable[tuple[str, int]], element: str | None,
                  err) -> None:
    """No place of an initial marking, given as (place, tokens) pairs,
    holds a negative token count."""
    for place, tokens in marking:
        if tokens < 0:
            err("negative-marking",
                f"initial marking of '{place}' is {int_text(tokens)}",
                element)


def check_gate(gate, atoms, updates, activities: set[str], places: set[str],
               known: dict[int, set[str]], element: str, err) -> None:
    """A gate names a known activity and known places, each once, and its
    ``atoms`` and ``updates`` use known comparisons and actions on its places.
    ``known`` maps the id of the last place tuple found clean to its set:
    gates generated from one template gate share one tuple, checked once."""
    if gate.activity not in activities:
        err("dangling-gate",
            f"gate is mapped to unknown activity '{gate.activity}'", element)
    listed = known.get(id(gate.places))
    if listed is None:
        known.clear()
        listed = set(gate.places)
        if len(listed) == len(gate.places) and places.issuperset(listed):
            known[id(gate.places)] = listed
        else:
            seen: set[str] = set()
            for pname in gate.places:
                if pname not in places:
                    err("unknown-place", f"gate lists unknown place '{pname}'",
                        element)
                if pname in seen:
                    err("duplicate-place",
                        f"gate lists place '{pname}' more than once", element)
                seen.add(pname)
    for atom in atoms:
        if atom.cmp not in COMPARISONS:
            err("bad-comparison", f"comparison '{atom.cmp}'", element)
        if atom.place not in listed:
            err("place-outside-gate", f"predicate tests place "
                f"'{atom.place}' outside the gate's place set", element)
    for update in updates:
        if update.action not in ACTIONS:
            err("bad-action", f"update action '{update.action}'", element)
        if update.place not in listed:
            err("place-outside-gate", f"rule updates place "
                f"'{update.place}' outside the gate's place set", element)


def negative_set(place: str, amount: int, element: str, err) -> None:
    """A ``set`` update writes a negative ``amount``, as its caller found."""
    err("negative-marking", f"update sets '{place}' to {int_text(amount)}",
        element)


def check_coverage(places: Iterable[str], known: set[str],
                   marked: Collection[str], err) -> None:
    """The initial marking's entries, ``marked``, cover ``places`` (their set
    is ``known``) and name no other place."""
    for place in places:
        if place not in marked:
            err("marking-incomplete",
                f"initial marking does not cover place '{place}'",
                f"place {place}")
    for name in marked:
        if name not in known:
            err("unknown-place",
                f"initial marking mentions unknown place '{name}'",
                f"marking {name}")


def leaves(pred) -> Iterator:
    """The comparisons under a predicate's connectives, in order:
    ``PredLeaf`` nodes of an instance predicate or ``template.GateAtom``
    nodes of a template gate predicate."""
    if isinstance(pred, (PredAnd, PredOr)):
        for arg in pred.args:
            yield from leaves(arg)
    elif isinstance(pred, PredNot):
        yield from leaves(pred.arg)
    else:
        yield pred
