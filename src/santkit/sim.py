"""Discrete-event simulation of concrete SANs with reward estimation.

Execution policy: at each stable marking, newly enabled timed activities
get a firing time sampled from their distribution; the earliest event
fires, its case is selected from the case distribution, and enabled
instantaneous activities are then exhausted (choosing uniformly at random
among them) before time advances again.  A timed activity that becomes
disabled loses its scheduled firing and is resampled if it is enabled
again later (enabling memory).  Equal timestamps resolve in scheduling
order.  This is the priority rule of ``sancore.under_priority``.

``simulate`` compiles the validated instance once into an execution plan.
Each place gets a slot and the marking is a list of token counts; each
activity's enabling is one closure over slots, and each gate is a flat list
of marking updates applied in place.  A conjunction of lower bounds that
share one value, such as GEO's ``all Working_S > 0`` over |n| places, is one
C-level scan of its slots: a slice when they are consecutive, and a test for
a zero count when the bound is one token.  ``sancore.fire`` and
``sancore.is_enabled`` stay the reference the plan is tested against,
through the module-level ``enabled_activities`` and ``fire``.

A replication is one loop that runs the plan directly.  Each turn fires
the chosen activity (drawing a case only when it has several) by running
its case's gate program, then evaluates each enabling closure at most once
on the marking reached: the instantaneous activities first and, when none
is enabled, the timed ones, which it schedules and cancels.  An enabled
instantaneous activity is picked uniformly to fire next; otherwise time
advances to the earliest pending firing, accruing the rated rewards and
calling the observer (if any) for the interval.

Replications are independent: replication ``r`` runs on its own generator
seeded with ``seed * 2**32 + r``.  Identical configurations reproduce
bit-identical results.
"""

from __future__ import annotations

from heapq import heappop, heappush
import math
import random
from operator import itemgetter
from typing import Callable

from .errors import (InvalidConfig, MaxEventsExceeded, NegativeMarking,
                     NonStabilizingDetected, NotEnabled,
                     UnsupportedReactivation, ValidationError, has_errors)
from .record import Record
from .sancore import (COMPARISONS, FAMILIES, Activity, ConcreteSan, Dist,
                      PredAnd, PredConst, PredLeaf, PredNot, Predicate,
                      Update, validate_san)


STABILIZATION_LIMIT = 10_000  # instantaneous firings per time point


class SimConfig(Record):
    seed: int
    horizon: float
    replications: int = 1
    max_events: int = 1_000_000        # per replication

    def validate(self) -> None:
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
    of the family; ``simulate`` draws through the same ``FAMILIES``
    sampler."""
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

# A marking as the plan runs it: token counts indexed by ``_Plan.slot``.
Slots = list[int]
Check = Callable[[Slots], bool]


def _compile_predicate(pred: Predicate, slot: dict[str, int]) -> Check:
    """One closure over slots that agrees with ``sancore.eval_predicate``;
    nested connectives of one kind are flattened first."""
    if isinstance(pred, PredConst):
        value = pred.value
        return lambda m: value
    if isinstance(pred, PredLeaf):
        i, op, value = slot[pred.place], COMPARISONS[pred.cmp], pred.value
        return lambda m: op(m[i], value)
    if isinstance(pred, PredNot):
        arg = _compile_predicate(pred.arg, slot)
        return lambda m: not arg(m)
    conjunction = isinstance(pred, PredAnd)
    args: list[Predicate] = []
    pending = list(reversed(pred.args))
    while pending:
        arg = pending.pop()
        if type(arg) is type(pred):
            pending.extend(reversed(arg.args))
        else:
            args.append(arg)
    if len(args) == 1:
        return _compile_predicate(args[0], slot)
    if conjunction and all(isinstance(a, PredLeaf) for a in args) and \
            len({(a.cmp, a.value) for a in args}) == 1 and \
            args[0].cmp in (">", ">="):
        # Lower bounds sharing one value: one C-level pass over their slots,
        # read as one slice when they are consecutive (``concretize`` lays a
        # place template's instances out that way).  A bound that fails at 0
        # and holds at 1 (``> 0``, ``>= 1``) holds iff no slot is 0, because
        # a plan marking is never negative: ``validate_san`` refuses negative
        # initial tokens and ``set`` amounts, and ``fire`` raises
        # ``NegativeMarking`` before it writes a negative count.
        op, value = COMPARISONS[args[0].cmp], args[0].value
        slots = sorted({slot[a.place] for a in args})
        lo, hi = slots[0], slots[-1] + 1
        get = itemgetter(slice(lo, hi)) if hi - lo == len(slots) \
            else itemgetter(*slots)
        if not op(0, value) and op(1, value):
            return lambda m: 0 not in get(m)
        return lambda m: op(min(get(m)), value)
    checks = [_compile_predicate(a, slot) for a in args]
    if conjunction:
        return lambda m: all(check(m) for check in checks)
    return lambda m: any(check(m) for check in checks)


# One marking update: (adds, key, value, when, overdraw).  An update that
# adds stores its signed amount in ``value`` and, in ``overdraw``, the head
# of the error raised when it drives the place negative.  One that sets
# assigns ``value`` to ``m[key]``, where ``key`` is a slot or, for a run of
# sets on consecutive slots, a slice.  ``when`` is (comparison, value) or
# None.  A gate is (whether any of its updates is guarded, its ops).
Op = tuple
Gate = tuple[bool, tuple[Op, ...]]
Program = tuple[Gate, ...]
# A timed activity's delay sampler and parameters, as ``FAMILIES`` gives them.
Sampler = tuple[Callable[[tuple[float, ...], random.Random], float],
                tuple[float, ...]]


def _compile_gate(name: str, updates: tuple[Update, ...],
                  slot: dict[str, int]) -> Gate:
    """A gate whose ops, run in order on the marking in place, agree with
    ``sancore.apply_updates``."""
    ops: list[Op] = []
    run: list[int] = []          # amounts of unguarded sets from run_start
    run_start = 0

    def close_run() -> None:
        if len(run) == 1:
            ops.append((False, run_start, run[0], None, None))
        elif run:
            ops.append((False, slice(run_start, run_start + len(run)),
                        list(run), None, None))
        run.clear()

    for u in updates:
        i = slot[u.place]
        if u.action == "set" and u.when is None:
            if run and i != run_start + len(run):
                close_run()
            if not run:
                run_start = i
            run.append(u.amount)
            continue
        close_run()
        when = None if u.when is None else (COMPARISONS[u.when[0]], u.when[1])
        if u.action == "set":
            ops.append((False, i, u.amount, when, None))
        else:
            delta = u.amount if u.action == "add" else -u.amount
            ops.append((True, i, delta, when,
                        f"gate '{name}' drives place '{u.place}' to"))
    close_run()
    return any(u.when is not None for u in updates), tuple(ops)


class _Plan(Record):
    """A validated instance compiled for the event loop: per activity (in
    declaration order) its enabling check, its sampler (None for an
    instantaneous activity) and, per case, the program of its input gates
    then of the case's output gates, in declaration order."""

    places: tuple[str, ...]
    slot: dict[str, int]
    initial: tuple[int, ...]
    activities: tuple[Activity, ...]
    index: dict[str, int]
    enabling: tuple[Check, ...]
    samplers: tuple[Sampler | None, ...]
    programs: tuple[tuple[Program, ...], ...]


def _build_plan(san: ConcreteSan) -> _Plan:
    """Compile an instance that ``validate_san`` accepts."""
    slot = {place: i for i, place in enumerate(san.places)}
    initial = dict(san.initial_marking)
    enabling = []
    programs = []
    for act in san.activities:
        inputs = san.inputs_of(act.name)
        enabling.append(_compile_predicate(
            PredAnd(tuple(g.predicate for g in inputs)), slot))
        head = tuple(_compile_gate(g.name, g.updates, slot) for g in inputs)
        programs.append(tuple(
            head + tuple(_compile_gate(g.name, g.updates, slot)
                         for g in san.outputs_of(act.name, case))
            for case in range(1, act.cases + 1)))
    return _Plan(
        places=san.places, slot=slot,
        initial=tuple(initial[p] for p in san.places),
        activities=san.activities,
        index={act.name: i for i, act in enumerate(san.activities)},
        enabling=tuple(enabling),
        samplers=tuple(
            None if act.distribution is None else
            (FAMILIES[act.distribution.family].sample, act.distribution.params)
            for act in san.activities),
        programs=tuple(programs))


def enabled_activities(plan: _Plan, marking: Slots) -> list[Activity]:
    """The enabled activities, in declaration order."""
    return [act for act, holds in zip(plan.activities, plan.enabling)
            if holds(marking)]


def fire(plan: _Plan, marking: Slots, index: int, case: int) -> None:
    """Fire ``case`` of the ``index``-th activity on ``marking`` in place,
    with the checks and errors of ``sancore.fire``."""
    act = plan.activities[index]
    if not 1 <= case <= act.cases:
        raise NotEnabled(f"activity '{act.name}' has no case {case}")
    if not plan.enabling[index](marking):
        raise NotEnabled(f"activity '{act.name}' is not enabled")
    _run_program(plan.programs[index][case - 1], marking)


def _run_program(program: Program, marking: Slots) -> None:
    """Apply one firing's gate program to ``marking`` in place."""
    for guarded, ops in program:
        entry = marking[:] if guarded else marking
        for adds, key, value, when, overdraw in ops:
            if when is not None and not when[0](entry[key], when[1]):
                continue
            if adds:
                value += marking[key]
                if value < 0:
                    raise NegativeMarking(f"{overdraw} {value}")
            marking[key] = value


def _replicate(
        plan: _Plan, cfg: SimConfig, rewards: tuple[RewardSpec, ...],
        rng: random.Random,
        observer: Callable[[float, float, dict[str, int]], object] | None,
) -> tuple[list[float], int, list[list[int]]]:
    """The reward values, event count and per-activity case counts."""
    horizon, max_events = cfg.horizon, cfg.max_events
    programs = plan.programs
    counts = [[0] * a.cases for a in plan.activities]
    probs_of = [a.case_probs if a.cases > 1 else None
                for a in plan.activities]
    instantaneous = [(i, holds) for i, (holds, sampler) in
                     enumerate(zip(plan.enabling, plan.samplers))
                     if sampler is None]
    timed = [(i, holds, *sampler) for i, (holds, sampler) in
             enumerate(zip(plan.enabling, plan.samplers))
             if sampler is not None]
    kinds = [REWARDS[spec.kind] for spec in rewards]
    accum = [0.0] * len(kinds)
    # (reward, rate, slot, threshold) of each reward accrued over time.
    rated = [(i, kind.rate, plan.slot[spec.target], spec.threshold)
             for i, (spec, kind) in enumerate(zip(rewards, kinds))
             if kind.rate is not None]
    marking: Slots = list(plan.initial)
    # Event list: (time, sequence, activity index). A stale entry is one
    # whose sequence no longer matches ``active`` for its activity.
    queue: list[tuple[float, int, int]] = []
    active: list[int | None] = [None] * len(plan.activities)
    now, events, seq, chain = 0.0, 0, 0, 0
    index = -1                       # the activity to fire, if any
    while True:
        if index >= 0:
            # Only an activity just found enabled fires, with a case from
            # its own range, so ``fire``'s checks would always pass.
            events += 1
            if events > max_events:
                raise MaxEventsExceeded(
                    f"more than {max_events} events in one replication")
            probs = probs_of[index]
            case = 1 if probs is None else select_case(probs, rng)
            counts[index][case - 1] += 1
            _run_program(programs[index][case - 1], marking)
        ready = []                   # a loop: no comprehension call
        for i, holds in instantaneous:
            if holds(marking):
                ready.append(i)
        if ready:
            chain += 1
            if chain > STABILIZATION_LIMIT:
                raise NonStabilizingDetected(
                    f"{chain} consecutive instantaneous firings at "
                    f"time {now}")
            index = ready[0] if len(ready) == 1 else \
                ready[rng.randrange(len(ready))]
            continue
        chain = 0
        # Stable: schedule newly enabled timed activities in declaration
        # order, and drop disabled ones (resampled when enabled again).
        for i, holds, sample, params in timed:
            if holds(marking):
                if active[i] is None:
                    seq += 1
                    active[i] = seq
                    heappush(queue, (now + sample(params, rng), seq, i))
            elif active[i] is not None:
                active[i] = None
        index, time = -1, horizon
        while queue:
            t, s, i = heappop(queue)
            if active[i] == s:       # not cancelled by a state change
                if t <= horizon:
                    index, time = i, t
                break
        dt = time - now
        if dt > 0:
            for r, rate, slot, threshold in rated:
                accum[r] += rate(marking[slot], threshold) * dt
            if observer is not None:
                observer(now, time, dict(zip(plan.places, marking)))
        now = time
        if index < 0:
            break
        active[index] = None
    return [(accum[i] if kind.rate else
             sum(counts[plan.index[spec.target]])) / horizon
            for i, (spec, kind) in enumerate(zip(rewards, kinds))], \
        events, counts


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

    plan = _build_plan(san)
    per_rep: list[list[float]] = []
    events: list[int] = []
    totals = {a.name: [0] * a.cases for a in san.activities}
    for rep in range(cfg.replications):
        rng = random.Random(replication_seed(cfg.seed, rep))
        values, n_events, case_counts = _replicate(
            plan, cfg, rewards, rng, observer)
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
