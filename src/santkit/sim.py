"""Discrete-event simulation of concrete SANs with reward estimation.

Execution policy: at each stable marking, newly enabled timed activities
get a firing time sampled from their distribution; the earliest event
fires, its case is selected from the case distribution, and enabled
instantaneous activities are then exhausted (choosing uniformly at random
among them) before time advances again.  A timed activity that becomes
disabled loses its scheduled firing and is resampled if it is enabled
again later (enabling memory).  Equal timestamps resolve in scheduling
order.  This is the priority rule of ``sancore.under_priority``.

``simulate`` compiles the validated instance to Python source, as Möbius
compiles a model to C++ before it simulates it.  Each place gets a slot
and the marking is a list of token counts.  Each activity's enabling test
is one expression over slots, and each case's gates are statements that
update the marking in place.  Each simulation is one generated
replication function.  Its loop inlines the enabling expressions, the
gates of every single-case activity and every delay draw, and keeps each
timed activity's due time and scheduling sequence number in locals, so
that firing a single-case activity calls no function.  A case of a
multi-case activity is a function of its own, compiled on its first
firing.  Every gate statement is written one way, for a marking that
holds no negative count: an add of a nonnegative int literal is unchecked.
An enabling test that some firing need not run again lives in a
flag local: each firing branch leaves it alone when it writes none of the
test's places, sets it to ``True`` or ``False`` when it sets all of them
to constants (folded through ``sancore.is_enabled`` when the loop is
compiled), and re-tests it otherwise.  So GEO's common-cause test over
all of ``Working_S`` runs once per replication, not once per event.
``sancore.fire`` and ``sancore.is_enabled`` stay the reference: the
tests compile each enabling expression and case program from the same
sources as the loop and check them against it.

Replications are independent: replication ``r`` runs on its own generator
seeded with ``seed * 2**32 + r``.  Identical configurations reproduce
bit-identical results.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
import math
import operator
import random
from typing import Callable

from .errors import (InvalidConfig, MaxEventsExceeded, NegativeMarking,
                     NonStabilizingDetected, UnsupportedReactivation,
                     ValidationError, has_errors, int_text)
from .record import Record
from .sancore import (COMPARISONS, FAMILIES, ConcreteSan, Dist, InputGate,
                      OutputGate, PredAnd, PredLeaf, PredNot, Predicate,
                      is_enabled, leaves, validate_san)
# The reference's names, called by no code here: ``perfbench/shim.py``
# wraps ``enabled_activities`` and ``fire`` by name in this module.
from .sancore import enabled_activities, fire  # noqa: F401


STABILIZATION_LIMIT = 10_000  # instantaneous firings per time point


class SimConfig(Record):
    seed: int
    horizon: float
    replications: int = 1
    max_events: int = 1_000_000        # per replication

    def validate(self) -> None:
        # ``random.Random`` seeds with the absolute value of an int, so a
        # negative seed would repeat the run of its positive twin.
        if self.seed < 0:
            raise InvalidConfig(f"seed must be nonnegative, got {self.seed}")
        if not 0 < self.horizon < math.inf:
            raise InvalidConfig(
                f"horizon must be positive and finite, got {self.horizon}")
        if self.replications < 1:
            raise InvalidConfig("at least one replication is required")
        if self.max_events < 1:
            raise InvalidConfig("max_events must be positive")


class RewardKind(Record):
    """One reward kind.  ``rate(tokens, threshold)`` is what the target
    place's marking accrues per unit time; a kind without a rate counts the
    target activity's firings instead."""

    target: str                  # "place" | "activity"
    spellings: tuple[str, ...]   # CLI prefixes
    arity: int                   # CLI fields after the prefix
    label: str                   # format of the estimate's name
    rate: Callable[[int, int], float] | None


REWARDS: dict[str, RewardKind] = {
    "time_avg_tokens": RewardKind(
        "place", ("tokens", "time_avg_tokens"), 1, "{kind}({target})",
        lambda tokens, threshold: float(tokens)),
    "throughput": RewardKind(
        "activity", ("throughput",), 1, "{kind}({target})", None),
    "prob_tokens_at_least": RewardKind(
        "place", ("atleast",), 2, "{kind}({target},{threshold})",
        lambda tokens, threshold: 1.0 if tokens >= threshold else 0.0),
}


class RewardSpec(Record):
    """What to estimate: a ``REWARDS`` kind, its target and, for kinds
    that take one, a token threshold."""

    kind: str
    target: str
    threshold: int = 0

    def label(self) -> str:
        return REWARDS[self.kind].label.format(
            kind=self.kind, target=self.target, threshold=self.threshold)

    def validate(self, san: ConcreteSan) -> None:
        entry = REWARDS.get(self.kind)
        if entry is None:
            raise InvalidConfig(f"unknown reward kind '{self.kind}'")
        known = san.places if entry.target == "place" \
            else [a.name for a in san.activities]
        if self.target not in known:
            raise InvalidConfig(f"unknown {entry.target} '{self.target}'")


class RewardEstimate(Record):
    name: str
    estimate: float
    std: float                   # sample std across replications
    replications: int


class SimResult(Record):
    rewards: tuple[RewardEstimate, ...]
    events: tuple[int, ...]      # per replication
    case_counts: tuple[tuple[str, tuple[int, ...]], ...]  # per activity, total

    def case_frequencies(self, activity: str) -> tuple[float, ...]:
        counts = dict(self.case_counts)[activity]
        total = sum(counts)
        if total == 0:
            return tuple(0.0 for _ in counts)
        return tuple(c / total for c in counts)


def sample_firing_time(dist: Dist, rng: random.Random) -> float:
    """Draw a firing delay by inverse transform; deterministic draws do not
    consume randomness.  The parameters must pass ``validate_san``'s check
    of the family; ``simulate``'s loop draws the same delay from the
    family's ``draw`` source."""
    return FAMILIES[dist.family].sample(dist.params, rng)


def select_case(case_probs: tuple[float, ...], rng: random.Random) -> int:
    """Pick a 1-based case index by inverse transform over the case
    probabilities."""
    if len(case_probs) == 1:
        return 1
    u = rng.random()
    acc = 0.0
    last_positive = 1
    for i, p in enumerate(case_probs, start=1):
        if p > 0.0:
            last_positive = i
        acc += p
        if u < acc:
            return i
    return last_positive


def replication_seed(seed: int, replication: int) -> int:
    """Sub-seed of one replication (documented so streams are auditable)."""
    return seed * 2**32 + replication


# -- execution plan ----------------------------------------------------------
#
# The plan is Python source, compiled with ``compile``.  Only ints (slots,
# token counts, indices) and the package's own text, such as a family's
# ``draw``, are written into that source.  Every other value it needs, such
# as a float, a list of amounts or the head of an error message, is bound to
# a generated name in the plan's namespace, so no text of the model (a place
# name read from a ``.sanx``, say) is compiled.

# A marking as the plan runs it: token counts indexed by ``_Plan.slot``.
Slots = list[int]
Program = Callable[[Slots], None]
# One replication: the reward values, event count and per-activity case
# counts of a run on the given generator.
Replication = Callable[[random.Random],
                       tuple[list[float], int, list[list[int]]]]

# The operator that spells each ``COMPARISONS`` function in source.
_INFIX = {operator.eq: "==", operator.gt: ">", operator.ge: ">="}


def _bind(namespace: dict[str, object], value: object) -> str:
    """A fresh name for ``value`` in ``namespace``."""
    name = f"_k{len(namespace)}"
    namespace[name] = value
    return name


def _literal(namespace: dict[str, object], value: object) -> str:
    """``value`` in source: an int as itself, anything else by name, as is
    an int past Python's integer string conversion limit (``str`` refuses
    it)."""
    if type(value) is int:
        try:
            return str(value)
        except ValueError:
            pass
    return _bind(namespace, value)


def _define(namespace: dict[str, object], source: str, name: str):
    """Run ``source`` in ``namespace`` and return what it defines as
    ``name``."""
    exec(compile(source, "<santkit plan>", "exec"), namespace)
    return namespace[name]


def _check(namespace: dict[str, object],
           expr: str) -> Callable[[Slots], bool]:
    """``expr``, an expression over the marking ``m``, compiled as a
    function of ``m``."""
    return _define(namespace, f"check = lambda m: {expr}", "check")


def _comparison(left: str, cmp: str, value: object,
                namespace: dict[str, object]) -> str:
    return f"{left} {_INFIX[COMPARISONS[cmp]]} {_literal(namespace, value)}"


# Connectives nested this deep in one expression are compiled as a function
# of their own, because Python's parser refuses 200 nested parentheses.
_NESTING = 50


def _predicate_source(pred: Predicate, slot: dict[str, int],
                      namespace: dict[str, object], depth: int = 0) -> str:
    """An expression over the marking ``m`` with the truth value of
    ``sancore.eval_predicate``; nested connectives of one kind are
    flattened first."""
    if isinstance(pred, PredLeaf):
        return _comparison(f"m[{slot[pred.place]}]", pred.cmp, pred.value,
                           namespace)
    if depth == _NESTING:
        check = _check(namespace, _predicate_source(pred, slot, namespace))
        return f"{_bind(namespace, check)}(m)"
    if isinstance(pred, PredNot):
        arg = _predicate_source(pred.arg, slot, namespace, depth + 1)
        return f"not ({arg})"
    conjunction = isinstance(pred, PredAnd)
    args: list[Predicate] = []
    pending = list(reversed(pred.args))
    while pending:
        arg = pending.pop()
        if type(arg) is type(pred):
            pending.extend(reversed(arg.args))
        else:
            args.append(arg)
    if len(args) > 1 and all(isinstance(a, PredLeaf) for a in args) and \
            len({(a.cmp, a.value) for a in args}) == 1 and \
            args[0].cmp in (">", ">="):
        # Lower bounds sharing one value: one C-level pass over their slots,
        # read as one slice when they are consecutive (``concretize`` lays a
        # place template's instances out that way).  All of them hold iff
        # the least count passes, and any of them iff the greatest does.  A
        # bound that fails at 0 and holds at 1 (``> 0``, ``>= 1``) holds for
        # all iff no slot is 0, because a plan marking is never negative:
        # ``validate_san`` refuses negative initial tokens and ``set``
        # amounts, and a program raises ``NegativeMarking`` before it writes
        # a negative count.
        cmp, value = args[0].cmp, args[0].value
        slots = sorted({slot[a.place] for a in args})
        lo, hi = slots[0], slots[-1] + 1
        scan = f"m[{lo}:{hi}]" if hi - lo == len(slots) else \
            "(" + "".join(f"m[{i}], " for i in slots) + ")"
        if not conjunction:
            return _comparison(f"max({scan})", cmp, value, namespace)
        if not COMPARISONS[cmp](0, value) and COMPARISONS[cmp](1, value):
            return f"0 not in {scan}"
        return _comparison(f"min({scan})", cmp, value, namespace)
    parts = [f"({_predicate_source(a, slot, namespace, depth + 1)})"
             for a in args]
    if conjunction:
        return " and ".join(parts) or "True"
    return " or ".join(parts) or "False"


def _gate_source(gate: InputGate | OutputGate, slot: dict[str, int],
                 namespace: dict[str, object]) -> list[str]:
    """Statements that run ``gate``'s updates on a plan marking ``m`` in
    place, as ``sancore.apply_updates`` does: a guard reads its place's
    count as the gate found it, and an add or sub raises
    ``NegativeMarking`` before it would write a negative count.  A plan
    marking holds no negative count, so an add of a nonnegative int
    literal cannot drive it negative and is written unchecked.  A run of
    unguarded sets on consecutive slots is one slice assignment."""
    lines = [f"e{i} = m[{i}]" for i in
             sorted({slot[u.place] for u in gate.updates
                     if u.when is not None})]
    run: list[int] = []          # amounts of unguarded sets from ``start``
    start = 0

    def close_run() -> None:
        if len(run) > 1:
            lines.append(f"m[{start}:{start + len(run)}] = "
                         f"{_bind(namespace, tuple(run))}")
        elif run:
            lines.append(f"m[{start}] = {_literal(namespace, run[0])}")
        run.clear()

    for u in gate.updates:
        i = slot[u.place]
        if u.action == "set" and u.when is None:
            if run and i != start + len(run):
                close_run()
            if not run:
                start = i
            run.append(u.amount)
            continue
        close_run()
        indent = ""
        if u.when is not None:
            lines.append(f"if {_comparison(f'e{i}', *u.when, namespace)}:")
            indent = "    "
        amount = _literal(namespace, u.amount)
        if u.action == "set":
            lines.append(f"{indent}m[{i}] = {amount}")
            continue
        # Only a nonnegative int written as itself is all digits.
        if u.action == "add" and amount.isdigit():
            lines.append(f"{indent}m[{i}] += {amount}")
            continue
        head = _bind(namespace,
                     f"gate '{gate.name}' drives place '{u.place}' to")
        lines += [f"{indent}v = m[{i}] {'+' if u.action == 'add' else '-'} "
                  f"{amount}",
                  f"{indent}if v < 0:",
                  f"{indent}    raise NegativeMarking("
                  f"f'{{{head}}} {{int_text(v)}}')",
                  f"{indent}m[{i}] = v"]
    close_run()
    return lines


class _Plan(Record):
    """A validated instance compiled for the event loop: each place's slot
    in the marking and, per activity in declaration order, its enabling
    test as an expression over the marking ``m``.  ``namespace`` binds
    every name the source uses."""

    san: ConcreteSan
    slot: dict[str, int]
    enabling: tuple[str, ...]
    namespace: dict[str, object]


def _build_plan(san: ConcreteSan) -> _Plan:
    """Compile an instance that ``validate_san`` accepts."""
    slot = {place: i for i, place in enumerate(san.places)}
    namespace: dict[str, object] = {"NegativeMarking": NegativeMarking,
                                    "int_text": int_text}
    enabling = tuple(_predicate_source(
        PredAnd(tuple(g.predicate for g in san.inputs_of(act.name))),
        slot, namespace) for act in san.activities)
    return _Plan(san=san, slot=slot, enabling=enabling, namespace=namespace)


def _program_source(plan: _Plan, index: int, case: int) -> list[str]:
    """Statements that fire ``case`` of the ``index``-th activity on ``m``:
    its input gates, then the case's output gates, in declaration order."""
    san = plan.san
    name = san.activities[index].name
    return [line for gate in san.inputs_of(name) + san.outputs_of(name, case)
            for line in _gate_source(gate, plan.slot, plan.namespace)]


def _compile_program(plan: _Plan, index: int, case: int) -> Program:
    """The program of ``case`` of the ``index``-th activity, compiled."""
    return _define(plan.namespace, "def program(m):\n" + "".join(
        f"    {line}\n" for line in _program_source(plan, index, case)
        or ["pass"]), "program")


def _first_run(plan: _Plan, index: int, case: int,
               programs: list[Program]) -> Program:
    """A stand-in for a program not yet compiled: its first call compiles
    the program, puts it in its place in ``programs`` and runs it."""
    def compile_and_run(marking: Slots) -> None:
        program = programs[case - 1] = _compile_program(plan, index, case)
        program(marking)
    return compile_and_run


def _case_table(probs: tuple[float, ...]) -> tuple[tuple[float, ...],
                                                   tuple[int, ...]]:
    """``select_case`` as a table ``(sums, pick)``: for a draw ``u``, the
    0-based case is ``pick[bisect_right(sums, u)]``.  ``sums`` are the
    running sums of ``probs``, added in order as ``select_case`` adds them,
    so the first sum above ``u`` names the same case; ``pick``'s extra last
    entry is the last case of positive probability, for a ``u`` at or
    above the total when rounding leaves it below 1."""
    sums: list[float] = []
    acc, last_positive = 0.0, 0
    for i, p in enumerate(probs):
        if p > 0.0:
            last_positive = i
        acc += p
        sums.append(acc)
    return tuple(sums), tuple(range(len(probs))) + (last_positive,)


def _delay_source(dist: Dist, params: list[str]) -> str:
    """The firing time of a delay of ``dist`` drawn at ``now``, as an
    expression over the parameter names ``params``, ``random`` and ``log``.
    The draw is parenthesised so that ``now`` is added last, as in ``now +
    sample_firing_time(dist, rng)``."""
    return f"now + ({FAMILIES[dist.family].draw.format(*params)})"


def _flag_ends(plan: _Plan) -> tuple[list[int], list[dict[int, str]]]:
    """The activities whose enabling test the loop keeps in a flag and, per
    activity's firing branch, the new value of each test the branch
    decides or re-tests, by the test's activity.

    A branch leaves a test's flag as it is when it writes none of the places
    the test reads.  It sets the flag to ``True`` or ``False`` when every
    place the test reads ends the branch with a known count: the place's
    last write in a single-case firing is an unguarded set.  The value is
    ``sancore.is_enabled`` (``eval_predicate`` over the input gates) on
    those counts.  Otherwise the branch re-tests the enabling expression.
    A multi-case branch writes the union of its cases' places, none of them
    known.  A test that every branch re-tests gets no flag."""
    san = plan.san
    activities = san.activities
    reads = [{leaf.place for gate in san.inputs_of(act.name)
              for leaf in leaves(gate.predicate)} for act in activities]
    gates = san.input_gates + san.output_gates
    decided: list[dict[int, str]] = []
    retests = [0] * len(activities)
    for act in activities:
        single = act.cases == 1
        known: dict[str, int | None] = {}  # written place: count or None
        for gate in gates:
            if gate.activity == act.name:
                for u in gate.updates:
                    known[u.place] = u.amount if single and \
                        u.action == "set" and u.when is None else None
        ends: dict[int, str] = {}
        for a, places in enumerate(reads):
            written = fixed = 0
            for place in places:
                if place in known:
                    written += 1
                    fixed += known[place] is not None
            if not written:
                continue
            if fixed == len(places):
                ends[a] = str(is_enabled(san, known, activities[a].name))
            else:
                ends[a] = plan.enabling[a]
                retests[a] += 1
        decided.append(ends)
    flagged = [a for a, count in enumerate(retests)
               if count < len(activities)]
    return flagged, decided


def _compile_loop(plan: _Plan, cfg: SimConfig,
                  rewards: tuple[RewardSpec, ...],
                  observer: Callable[[float, float, dict[str, int]], object]
                  | None) -> Replication:
    """One replication of ``plan`` as one compiled function.

    The replication starts from its own copy of the initial marking, a
    plan marking, so every gate statement adds a nonnegative literal
    unchecked.  Each timed activity ``i`` keeps its schedule in two
    locals: its due time ``t{i}`` and its scheduling sequence number
    ``s{i}``, 0 when it is not scheduled.  Each turn fires the chosen
    activity: a single-case activity's gate statements are written into
    its branch, and a multi-case activity draws its case through
    ``_case_table`` and calls that case's program from a list of its own,
    each compiled on its first run by ``_first_run``.

    An enabling test that some firing need not run again is kept in a flag
    ``on{a}`` (apart from the guard temporaries ``e{slot}`` of the gate
    statements), set on the initial marking before the loop.  Each branch
    ends, per flag, with one of three outcomes from ``_flag_ends``: nothing
    when it writes none of the test's places, ``True`` or ``False`` when
    it sets all of them to constants, and the enabling expression
    otherwise.  GEO's common-cause test over all of ``Working_S`` is so
    decided by both firings and runs once per replication.  A test that
    every branch re-tests stays inline, as TmiPair's two do: each of its
    firings writes a place of each test by an add, a sub, or a set in one
    of SW_F's two cases.

    The turn then tests each enabling expression or flag at most once on
    the marking reached: the instantaneous activities' first and, when none
    holds, the timed ones', which are scheduled, with the delay drawn
    inline from the family's ``draw``, or unscheduled.  An
    enabled instantaneous activity is picked uniformly to fire next;
    otherwise an unrolled scan picks the least ``(t{i}, s{i})`` due by the
    horizon, the order of ``sancore.under_priority``'s policy with ties in
    scheduling order, and time advances to it, accruing the rated rewards
    and calling the observer for the interval.  The code for instantaneous
    activities, rated rewards and the observer is generated only when there
    are some."""
    namespace = plan.namespace
    namespace.update(bisect_right=bisect_right,
                     MaxEventsExceeded=MaxEventsExceeded,
                     NonStabilizingDetected=NonStabilizingDetected)
    bind, lit = partial(_bind, namespace), partial(_literal, namespace)
    activities = plan.san.activities
    names = [act.name for act in activities]
    timed = [i for i, act in enumerate(activities)
             if act.distribution is not None]
    rated = [(r, spec) for r, spec in enumerate(rewards)
             if REWARDS[spec.kind].rate is not None]
    initial = bind(plan.san.marking_key(plan.san.initial_marking_dict()))
    head = ["def replicate(rng):",
            "    random = rng.random",
            f"    log = {bind(math.log)}",
            f"    horizon = {bind(cfg.horizon)}",
            f"    m = list({initial})",
            *(f"    c{i} = [0] * {act.cases}"
              for i, act in enumerate(activities)),
            *(f"    d{i}_{j} = {bind(param)}" for i in timed
              for j, param in enumerate(activities[i].distribution.params)),
            *(f"    s{i} = 0" for i in timed),
            *(f"    a{r} = 0.0" for r, _ in rated),
            "    now = 0.0",
            "    events = seq = chain = best = 0",
            "    index = -1"]
    flagged, ends = _flag_ends(plan)
    test = list(plan.enabling)
    for a in flagged:
        head.append(f"    on{a} = {test[a]}")
        test[a] = f"on{a}"
    head.append("    while True:")
    body = []
    if activities:
        # Only an activity just found enabled fires, with a case from its
        # own range, so the loop needs none of ``sancore.fire``'s refusals.
        too_many = f"more than {cfg.max_events} events in one replication"
        body += ["if index >= 0:",
                 "    events += 1",
                 f"    if events > {lit(cfg.max_events)}:",
                 f"        raise MaxEventsExceeded({bind(too_many)})"]
        for i, act in enumerate(activities):
            body.append(f"    {'if' if i == 0 else 'elif'} index == {i}:")
            if i in timed:
                body.append(f"        s{i} = 0")
            if act.cases > 1:
                sums, pick = _case_table(act.case_probs)
                programs: list[Program] = []
                programs += [_first_run(plan, i, case, programs)
                             for case in range(1, act.cases + 1)]
                body += [f"        case = {bind(pick)}"
                         f"[bisect_right({bind(sums)}, random())]",
                         f"        c{i}[case] += 1",
                         f"        {bind(programs)}[case](m)"]
            else:
                body += [f"        c{i}[0] += 1",
                         *(f"        {line}" for line in
                           _program_source(plan, i, 1))]
            for a in flagged:
                if a in ends[i]:
                    body.append(f"        on{a} = {ends[i][a]}")
    instantaneous = [i for i, act in enumerate(activities)
                     if act.distribution is None]
    if instantaneous:
        body.append("ready = []")
        for i in instantaneous:
            body += [f"if {test[i]}:",
                     f"    ready.append({i})"]
        body += ["if ready:",
                 "    chain += 1",
                 f"    if chain > {lit(STABILIZATION_LIMIT)}:",
                 "        raise NonStabilizingDetected(f'{chain} consecutive "
                 "instantaneous firings at time {now}')",
                 "    index = ready[0] if len(ready) == 1 else \\",
                 "        ready[rng.randrange(len(ready))]",
                 "    continue",
                 "chain = 0"]
    # Stable: schedule newly enabled timed activities in declaration order,
    # and drop disabled ones (resampled when enabled again).
    for i in timed:
        dist = activities[i].distribution
        params = [f"d{i}_{j}" for j in range(len(dist.params))]
        body += [f"if {test[i]}:",
                 f"    if not s{i}:",
                 "        seq += 1",
                 f"        s{i} = seq",
                 f"        t{i} = {_delay_source(dist, params)}",
                 "else:",
                 f"    s{i} = 0"]
    # The earliest scheduled activity due by the horizon; of two due at
    # once, the one scheduled first.
    body += ["index = -1",
             "time = horizon"]
    for n, i in enumerate(timed):
        body += [f"if s{i} and (t{i} < time or t{i} == time and "
                 f"(index < 0 or s{i} < best)):" if n else
                 f"if s{i} and t{i} <= time:",
                 f"    index = {i}",
                 f"    time = t{i}"]
        if n < len(timed) - 1:
            body.append(f"    best = s{i}")
    if rated or observer is not None:
        body += ["dt = time - now",
                 "if dt > 0:"]
        for r, spec in rated:
            body.append(f"    a{r} += {bind(REWARDS[spec.kind].rate)}"
                        f"(m[{plan.slot[spec.target]}], "
                        f"{lit(spec.threshold)}) * dt")
        if observer is not None:
            body.append(f"    {bind(observer)}(now, time, "
                        f"dict(zip({bind(plan.san.places)}, m)))")
    body += ["now = time",
             "if index < 0:",
             "    break"]
    # A rated reward is its accrual over the horizon, and a throughput its
    # activity's firings over the horizon.
    values = ", ".join(
        f"a{r} / horizon" if REWARDS[spec.kind].rate is not None else
        f"sum(c{names.index(spec.target)}) / horizon"
        for r, spec in enumerate(rewards))
    tail = [f"    return [{values}], events, "
            f"[{''.join(f'c{i}, ' for i in range(len(activities)))}]"]
    return _define(namespace, "".join(
        line + "\n" for line in head + [f"        {line}" for line in body]
        + tail), "replicate")


def _mean_std(samples: list[float]) -> tuple[float, float]:
    """The mean and the sample standard deviation, each correctly rounded,
    as ``statistics.fmean`` and (from Python 3.11) ``statistics.stdev`` give
    them.  One sample has deviation 0; samples whose mean is not finite,
    such as a throughput over a subnormal horizon, have deviation NaN.

    A finite float is an integer over a power of two, so the samples scale
    to integers and the variance is an exact ratio of integers.  Its square
    root is taken in integers to 109 bits, rounded to odd, so that the one
    division into a float rounds it correctly.
    """
    n = len(samples)
    mean = math.fsum(samples) / n
    if n == 1 or not math.isfinite(mean):
        return mean, 0.0 if n == 1 else math.nan
    ratios = [x.as_integer_ratio() for x in samples]
    scale = max(den for _, den in ratios)
    scaled = [num * (scale // den) for num, den in ratios]
    total = sum(scaled)
    num = n * sum(k * k for k in scaled) - total * total
    den = n * (n - 1) * scale * scale
    q = (num.bit_length() - den.bit_length() - 109) // 2
    num, den = num << max(-2 * q, 0), den << max(2 * q, 0)
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return mean, (root << max(q, 0)) / (1 << max(-q, 0))


def simulate(san: ConcreteSan, cfg: SimConfig,
             rewards: list[RewardSpec] | tuple[RewardSpec, ...] = (),
             observer=None) -> SimResult:
    """Estimate rewards over ``cfg.replications`` independent replications.

    ``observer(t0, t1, marking)``, when given, is called for every interval
    during which the marking was left to age (all such markings are stable).
    """
    cfg.validate()
    diagnostics = validate_san(san)
    if has_errors(diagnostics):
        raise ValidationError(diagnostics)
    rewards = tuple(rewards)
    for spec in rewards:
        spec.validate(san)
    for act in san.activities:
        if act.reactivation != "empty":
            raise UnsupportedReactivation(
                f"activity '{act.name}' declares reactivation markings; "
                f"only the empty reactivation set is executable")

    replicate = _compile_loop(_build_plan(san), cfg, rewards, observer)
    per_rep: list[list[float]] = []
    events: list[int] = []
    totals = {a.name: [0] * a.cases for a in san.activities}
    for rep in range(cfg.replications):
        values, n_events, case_counts = replicate(
            random.Random(replication_seed(cfg.seed, rep)))
        per_rep.append(values)
        events.append(n_events)
        for act, counts in zip(san.activities, case_counts):
            totals[act.name] = [t + c for t, c in
                                zip(totals[act.name], counts)]

    estimates = []
    for i, spec in enumerate(rewards):
        samples = [values[i] for values in per_rep]
        mean, std = _mean_std(samples)
        estimates.append(RewardEstimate(spec.label(), mean, std,
                                        cfg.replications))
    return SimResult(
        rewards=tuple(estimates),
        events=tuple(events),
        case_counts=tuple((name, tuple(counts))
                          for name, counts in totals.items()))
