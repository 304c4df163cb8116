"""Discrete-event simulation of concrete SANs with reward estimation.

Execution policy: at each stable marking, newly enabled timed activities
get a firing time sampled from their distribution; the earliest event
fires, its case is selected from the case distribution, and enabled
instantaneous activities are then exhausted (choosing uniformly at random
among them) before time advances again.  A timed activity that becomes
disabled loses its scheduled firing and is resampled if it is enabled
again later (enabling memory).  Equal timestamps resolve in scheduling
order.

Replications are independent: replication ``r`` runs on its own generator
seeded with ``seed * 2**32 + r``.  Identical configurations reproduce
bit-identical results.
"""

from __future__ import annotations

import heapq
import math
import random
import statistics
from dataclasses import dataclass

from .errors import (InvalidConfig, MaxEventsExceeded, NonStabilizingDetected,
                     UnsupportedReactivation, ValidationError, has_errors)
from .sancore import (FAMILIES, ActivityKind, ConcreteSan, Dist, Marking,
                      enabled_activities, fire, is_enabled, validate_san)


@dataclass(frozen=True)
class SimConfig:
    seed: int
    horizon: float
    replications: int = 1
    max_events: int = 1_000_000        # per replication
    stabilization_limit: int = 10_000  # instantaneous firings per time point

    def validate(self) -> None:
        if not 0 < self.horizon < math.inf:
            raise InvalidConfig(
                f"horizon must be positive and finite, got {self.horizon}")
        if self.replications < 1:
            raise InvalidConfig("at least one replication is required")
        if self.max_events < 1:
            raise InvalidConfig("max_events must be positive")


@dataclass(frozen=True)
class RewardSpec:
    """What to estimate: time-averaged tokens of a place, firing throughput
    of an activity, or the time fraction a place holds at least n tokens."""

    kind: str                    # "time_avg_tokens" | "throughput" | "prob_tokens_at_least"
    target: str
    threshold: int = 0
    name: str = ""

    def label(self) -> str:
        if self.name:
            return self.name
        if self.kind == "prob_tokens_at_least":
            return f"{self.kind}({self.target},{self.threshold})"
        return f"{self.kind}({self.target})"

    def validate(self, san: ConcreteSan) -> None:
        if self.kind in ("time_avg_tokens", "prob_tokens_at_least"):
            if self.target not in san.places:
                raise InvalidConfig(f"unknown place '{self.target}'")
        elif self.kind == "throughput":
            if all(a.name != self.target for a in san.activities):
                raise InvalidConfig(f"unknown activity '{self.target}'")
        else:
            raise InvalidConfig(f"unknown reward kind '{self.kind}'")


@dataclass(frozen=True)
class RewardEstimate:
    name: str
    estimate: float
    std: float                   # sample std across replications
    replications: int


@dataclass(frozen=True)
class SimResult:
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
    consume randomness.  ``simulate`` has checked the parameters through
    ``validate_san``."""
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


class _Replication:
    def __init__(self, san: ConcreteSan, cfg: SimConfig,
                 rewards: tuple[RewardSpec, ...], rng: random.Random,
                 observer=None):
        self.san = san
        self.cfg = cfg
        self.rewards = rewards
        self.rng = rng
        self.observer = observer
        self.marking: Marking = san.initial_marking_dict()
        self.now = 0.0
        self.events = 0
        self.accum = [0.0] * len(rewards)
        self.case_counts = {a.name: [0] * a.cases for a in san.activities}
        # Event list: (time, sequence, activity). A stale entry is one whose
        # sequence no longer matches self.active for its activity.
        self.queue: list[tuple[float, int, str]] = []
        self.active: dict[str, int | None] = {a.name: None
                                              for a in san.activities}
        self.seq = 0

    def run(self) -> tuple[list[float], int]:
        self._stabilize()
        self._sync_schedule()
        horizon = self.cfg.horizon
        while self.queue:
            time, seq, name = heapq.heappop(self.queue)
            if self.active[name] != seq:
                continue                      # cancelled by a state change
            if time > horizon:
                break
            self._advance_to(time)
            self.active[name] = None
            self._fire(name)
            self._stabilize()
            self._sync_schedule()
        self._advance_to(horizon)
        return self._reward_values(), self.events

    # -- internals ---------------------------------------------------------

    def _advance_to(self, time: float) -> None:
        dt = time - self.now
        if dt > 0:
            for i, spec in enumerate(self.rewards):
                self.accum[i] += self._rate(spec) * dt
            if self.observer is not None:
                self.observer(self.now, time, self.marking)
        self.now = time

    def _rate(self, spec: RewardSpec) -> float:
        if spec.kind == "time_avg_tokens":
            return float(self.marking[spec.target])
        if spec.kind == "prob_tokens_at_least":
            return 1.0 if self.marking[spec.target] >= spec.threshold else 0.0
        return 0.0

    def _fire(self, name: str) -> None:
        self.events += 1
        if self.events > self.cfg.max_events:
            raise MaxEventsExceeded(
                f"more than {self.cfg.max_events} events in one replication")
        act = self.san.activity(name)
        case = select_case(act.case_probs, self.rng)
        self.case_counts[name][case - 1] += 1
        self.marking = fire(self.san, self.marking, name, case)

    def _stabilize(self) -> None:
        chain = 0
        while True:
            ready = [a for a in enabled_activities(self.san, self.marking)
                     if a.kind == ActivityKind.INSTANTANEOUS]
            if not ready:
                return
            chain += 1
            if chain > self.cfg.stabilization_limit:
                raise NonStabilizingDetected(
                    f"{chain} consecutive instantaneous firings at time "
                    f"{self.now}")
            choice = ready[0] if len(ready) == 1 else \
                ready[self.rng.randrange(len(ready))]
            self._fire(choice.name)

    def _sync_schedule(self) -> None:
        for act in self.san.activities:
            if act.kind != ActivityKind.TIMED:
                continue
            enabled = is_enabled(self.san, self.marking, act.name)
            scheduled = self.active[act.name] is not None
            if enabled and not scheduled:
                delay = sample_firing_time(act.distribution, self.rng)
                self.seq += 1
                self.active[act.name] = self.seq
                heapq.heappush(self.queue, (self.now + delay, self.seq,
                                            act.name))
            elif not enabled and scheduled:
                self.active[act.name] = None   # enabling memory: resample later

    def _reward_values(self) -> list[float]:
        values = []
        for i, spec in enumerate(self.rewards):
            if spec.kind == "throughput":
                firings = sum(self.case_counts[spec.target])
                values.append(firings / self.cfg.horizon)
            else:
                values.append(self.accum[i] / self.cfg.horizon)
        return values


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

    per_rep: list[list[float]] = []
    events: list[int] = []
    totals = {a.name: [0] * a.cases for a in san.activities}
    for rep in range(cfg.replications):
        rng = random.Random(replication_seed(cfg.seed, rep))
        run = _Replication(san, cfg, rewards, rng, observer)
        values, n_events = run.run()
        per_rep.append(values)
        events.append(n_events)
        for name, counts in run.case_counts.items():
            for i, c in enumerate(counts):
                totals[name][i] += c

    estimates = []
    for i, spec in enumerate(rewards):
        samples = [values[i] for values in per_rep]
        mean = statistics.fmean(samples)
        std = statistics.stdev(samples) if len(samples) > 1 else 0.0
        estimates.append(RewardEstimate(spec.label(), mean, std,
                                        cfg.replications))
    return SimResult(
        rewards=tuple(estimates),
        events=tuple(events),
        case_counts=tuple((name, tuple(counts))
                          for name, counts in totals.items()))
