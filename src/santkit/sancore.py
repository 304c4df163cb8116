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
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Union

from .errors import (Diagnostic, NegativeMarking, NotEnabled, SantError)

PROB_TOLERANCE = 1e-9

Marking = dict[str, int]


class ActivityKind(enum.Enum):
    TIMED = "timed"
    INSTANTANEOUS = "instantaneous"

    def __str__(self) -> str:
        return self.value


# The comparisons a gate predicate or an update guard may use.
COMPARISONS: dict[str, Callable[[int, int], bool]] = {
    "=": operator.eq, ">": operator.gt, ">=": operator.ge}

# The marking updates an output or input gate function may apply.
ACTIONS = ("set", "add", "sub")


@dataclass(frozen=True)
class Family:
    """A firing-time distribution family.

    ``invalid`` takes the ``arity`` parameters and is true when they are out
    of range; ``requirement`` then heads the ``invalid-parameter`` message.
    ``sample`` draws one delay by inverse transform.
    """

    arity: int
    invalid: Callable[..., bool]
    requirement: str
    sample: Callable[[tuple[float, ...], random.Random], float]


FAMILIES: dict[str, Family] = {
    "exponential": Family(
        1, lambda rate: rate <= 0.0, "exponential rate must be positive",
        lambda p, rng: -math.log(1.0 - rng.random()) / p[0]),
    "uniform": Family(
        2, lambda low, high: low > high,
        "uniform bounds must satisfy low <= high",
        lambda p, rng: p[0] + (p[1] - p[0]) * rng.random()),
    "deterministic": Family(
        1, lambda delay: delay < 0.0, "deterministic delay must be nonnegative",
        lambda p, rng: p[0]),
}


@dataclass(frozen=True)
class Dist:
    family: str                  # a key of FAMILIES
    params: tuple[float, ...]


@dataclass(frozen=True)
class Activity:
    name: str
    kind: ActivityKind
    cases: int
    case_probs: tuple[float, ...]
    distribution: Dist | None = None
    reactivation: str = "empty"


@dataclass(frozen=True)
class PredConst:
    value: bool


@dataclass(frozen=True)
class PredLeaf:
    place: str
    cmp: str                     # a key of COMPARISONS
    value: int


@dataclass(frozen=True)
class PredAnd:
    args: tuple["Predicate", ...]


@dataclass(frozen=True)
class PredOr:
    args: tuple["Predicate", ...]


@dataclass(frozen=True)
class PredNot:
    arg: "Predicate"


Predicate = Union[PredConst, PredLeaf, PredAnd, PredOr, PredNot]


@dataclass(frozen=True)
class Update:
    """One marking update: set/add/sub ``amount`` tokens on ``place``.

    ``when`` guards the update on the place's own token count as it was
    when the gate started executing (the folded where-selector).
    """

    place: str
    action: str                  # one of ACTIONS
    amount: int
    when: tuple[str, int] | None = None


@dataclass(frozen=True)
class InputGate:
    name: str
    activity: str
    places: tuple[str, ...]
    predicate: Predicate
    updates: tuple[Update, ...]


@dataclass(frozen=True)
class OutputGate:
    name: str
    activity: str
    case: int
    places: tuple[str, ...]
    updates: tuple[Update, ...]


@dataclass(frozen=True)
class ConcreteSan:
    name: str
    places: tuple[str, ...]
    activities: tuple[Activity, ...]
    input_gates: tuple[InputGate, ...]
    output_gates: tuple[OutputGate, ...]
    initial_marking: tuple[tuple[str, int], ...]

    def activity(self, name: str) -> Activity:
        for a in self.activities:
            if a.name == name:
                return a
        raise KeyError(name)

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
    if isinstance(pred, PredConst):
        return pred.value
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
        if u.action == "set":
            tokens = u.amount
        elif u.action == "add":
            tokens = result[u.place] + u.amount
        else:
            tokens = result[u.place] - u.amount
        if tokens < 0:
            raise NegativeMarking(
                f"gate '{gate_name}' drives place '{u.place}' to {tokens}")
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


def is_stable(san: ConcreteSan, marking: Marking) -> bool:
    """Stable: no instantaneous activity is enabled."""
    return not any(a.kind == ActivityKind.INSTANTANEOUS
                   for a in enabled_activities(san, marking))


@dataclass(frozen=True)
class InstabilityReport:
    """Witness of a (potentially) non-stabilizing net.

    ``kind`` is "cycle" when an instantaneous firing chain revisits a
    marking, or "depth-exhausted" when the bounded search gave up; the
    chain lists the (activity, case) steps taken.
    """

    kind: str
    chain: tuple[tuple[str, int], ...]


def _instantaneous_successors(san: ConcreteSan,
                              marking: Marking) -> Iterator[tuple[str, int, Marking]]:
    for act in san.activities:
        if act.kind != ActivityKind.INSTANTANEOUS:
            continue
        if not is_enabled(san, marking, act.name):
            continue
        for case in range(1, act.cases + 1):
            if act.case_probs[case - 1] > 0.0:
                yield act.name, case, fire(san, marking, act.name, case)


def find_instability(san: ConcreteSan, marking: Marking,
                     depth: int = 10_000) -> InstabilityReport | None:
    """Bounded search for an unbounded instantaneous firing chain.

    Explores instantaneous-only chains from ``marking``; reports a cycle
    witness when a chain revisits a marking, a depth-exhausted flag when a
    chain reaches ``depth`` steps, and None when every chain terminates.
    """
    safe: set[tuple[int, ...]] = set()
    key0 = san.marking_key(marking)
    stack = [(key0, _instantaneous_successors(san, marking))]
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
        stack.append((succ_key, _instantaneous_successors(san, succ)))
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
        marking = queue.popleft()
        fireable = [a for a in enabled_activities(san, marking)
                    if a.kind == ActivityKind.INSTANTANEOUS]
        if not fireable:
            fireable = [a for a in enabled_activities(san, marking)
                        if a.kind == ActivityKind.TIMED]
        for act in fireable:
            for case in range(1, act.cases + 1):
                if act.case_probs[case - 1] <= 0.0:
                    continue
                succ = fire(san, marking, act.name, case)
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


def validate_san(san: ConcreteSan,
                 instability_depth: int = 10_000) -> list[Diagnostic]:
    """Well-formedness of a concrete SAN; diagnostics, never raises."""
    diags: list[Diagnostic] = []

    def err(code: str, message: str, element: str | None = None,
            severity: str = "error") -> None:
        diags.append(Diagnostic(code, message, severity, element))

    place_set = set(san.places)
    if len(place_set) != len(san.places):
        err("duplicate-name", "duplicate concrete place names")
    activity_names = {a.name for a in san.activities}

    for act in san.activities:
        el = f"activity {act.name}"
        if act.cases < 1:
            err("case-count", f"activity has {act.cases} cases", el)
        if len(act.case_probs) != act.cases:
            err("case-count",
                f"{len(act.case_probs)} probabilities for {act.cases} cases", el)
        if any(p < 0.0 or p > 1.0 for p in act.case_probs):
            err("normalization", "case probability outside [0, 1]", el)
        total = sum(act.case_probs)
        if abs(total - 1.0) > PROB_TOLERANCE:
            err("normalization",
                f"case probabilities sum to {total!r}, not 1", el)
        if act.kind == ActivityKind.TIMED:
            if act.distribution is None:
                err("missing-distribution", "timed activity has no "
                    "firing-time distribution", el)
            else:
                _check_dist(act.distribution, el, err)
        elif act.distribution is not None:
            err("unexpected-distribution",
                "instantaneous activity has a firing-time distribution", el)
        if act.reactivation != "empty":
            err("reactivation-unsupported",
                "non-empty reactivation sets are not executable", el,
                severity="warning")

    for gate in san.input_gates + san.output_gates:
        el = f"gate {gate.name}"
        if gate.activity not in activity_names:
            err("dangling-gate",
                f"gate is mapped to unknown activity '{gate.activity}'", el)
        elif isinstance(gate, OutputGate):
            cases = san.activity(gate.activity).cases
            if not 1 <= gate.case <= cases:
                err("case-out-of-range",
                    f"gate is mapped to case {gate.case} of "
                    f"'{gate.activity}' ({cases} cases)", el)
        for pname in gate.places:
            if pname not in place_set:
                err("unknown-place", f"gate lists unknown place '{pname}'", el)
        if isinstance(gate, InputGate):
            for leaf in _leaves(gate.predicate):
                if leaf.place not in place_set:
                    err("unknown-place",
                        f"predicate tests unknown place '{leaf.place}'", el)
                if leaf.cmp not in COMPARISONS:
                    err("bad-comparison", f"comparison '{leaf.cmp}'", el)
        for u in gate.updates:
            if u.place not in place_set:
                err("unknown-place", f"update on unknown place '{u.place}'", el)
            if u.action not in ACTIONS:
                err("bad-action", f"update action '{u.action}'", el)
            if u.when is not None and u.when[0] not in COMPARISONS:
                err("bad-comparison", f"comparison '{u.when[0]}'", el)
            if u.action == "set" and u.amount < 0:
                err("negative-marking",
                    f"update sets '{u.place}' to {u.amount}", el)

    init = dict(san.initial_marking)
    for pname in san.places:
        tokens = init.get(pname)
        if tokens is None:
            err("marking-incomplete",
                f"initial marking does not cover place '{pname}'")
        elif tokens < 0:
            err("negative-marking",
                f"initial marking of '{pname}' is {tokens}")

    if not any(d.severity == "error" for d in diags):
        try:
            report = find_instability(san, san.initial_marking_dict(),
                                      depth=instability_depth)
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


def _check_dist(dist: Dist, element: str, err) -> None:
    family = FAMILIES.get(dist.family)
    if family is None:
        err("unknown-distribution", f"unknown family '{dist.family}'", element)
    elif len(dist.params) != family.arity or family.invalid(*dist.params):
        err("invalid-parameter", f"{family.requirement}, got {dist.params}",
            element)


def _leaves(pred: Predicate) -> Iterator[PredLeaf]:
    if isinstance(pred, PredLeaf):
        yield pred
    elif isinstance(pred, (PredAnd, PredOr)):
        for arg in pred.args:
            yield from _leaves(arg)
    elif isinstance(pred, PredNot):
        yield from _leaves(pred.arg)
