"""Simulator: sampling primitives, execution policy, rewards, and
reproducibility."""

from __future__ import annotations

import math
import random
import statistics
import sys
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from santkit.concretize import concretize
from santkit.errors import (InvalidConfig, MaxEventsExceeded,
                            NonStabilizingDetected, UnsupportedReactivation)
from santkit.fixtures import (USER_INTERNAL, build_geo_template,
                              build_tmi_template, build_user_template)
from santkit.modelfile import (coerce_assignment, load_assignments,
                               load_template)
from santkit.record import replace
from santkit.sancore import (Activity, ConcreteSan, Dist, InputGate,
                             OutputGate, PredLeaf, Update, is_enabled,
                             is_stable, under_priority)
from santkit.sancore import fire as sancore_fire
from santkit.sim import (REWARDS, STABILIZATION_LIMIT, RewardEstimate,
                         RewardSpec, SimConfig, SimResult, _mean_std,
                         replication_seed, sample_firing_time, select_case,
                         simulate)
from santkit.template import ActivityKind


def _single_activity(dist: Dist) -> ConcreteSan:
    return ConcreteSan(
        name="single", places=("P_1",),
        activities=(Activity("Tick", ActivityKind.TIMED, 1, (1.0,), dist),),
        input_gates=(), output_gates=(), initial_marking=(("P_1", 0),))


# -- sampling -----------------------------------------------------------------

def test_exponential_sample_mean():
    rng = random.Random(11)
    dist = Dist("exponential", (4.0,))
    n = 1_000_000
    total = sum(sample_firing_time(dist, rng) for _ in range(n))
    assert abs(total / n - 0.25) < 0.0025


def test_uniform_sample_range_and_mean():
    rng = random.Random(12)
    dist = Dist("uniform", (1.0, 2.0))
    draws = [sample_firing_time(dist, rng) for _ in range(100_000)]
    assert all(1.0 <= d <= 2.0 for d in draws)
    assert abs(sum(draws) / len(draws) - 1.5) < 0.01


def test_deterministic_returns_delay():
    rng = random.Random(13)
    dist = Dist("deterministic", (3.5,))
    assert [sample_firing_time(dist, rng) for _ in range(5)] == [3.5] * 5


def test_select_case_single():
    rng = random.Random(14)
    assert all(select_case((1.0,), rng) == 1 for _ in range(10))


def test_select_case_frequencies():
    rng = random.Random(15)
    probs = (0.7, 0.2, 0.1)
    counts = [0, 0, 0]
    n = 100_000
    for _ in range(n):
        counts[select_case(probs, rng) - 1] += 1
    for count, p in zip(counts, probs):
        assert abs(count / n - p) < 0.01


def test_select_case_skips_zero_probability():
    rng = random.Random(16)
    assert all(select_case((0.0, 1.0), rng) == 2 for _ in range(100))


class _LastDraw:
    """A generator whose every draw is the largest ``random()`` returns."""

    def random(self) -> float:
        return 1.0 - 2.0 ** -53


def test_select_case_falls_back_to_last_positive_case():
    # Case probabilities that round to just under 1 leave the largest draw
    # past their running sum; the last case with positive probability wins.
    probs = (0.5, 0.5 - 1e-12, 0.0)
    assert math.fsum(probs) < 1.0 - 2.0 ** -53
    assert select_case(probs, _LastDraw()) == 2


# -- estimates ----------------------------------------------------------------

@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="statistics.stdev rounds correctly from 3.11 on")
@given(st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=20))
def test_estimates_match_statistics(samples):
    from santkit import sim
    assert sim._mean_std(samples) == (statistics.fmean(samples),
                                      statistics.stdev(samples))


def test_estimate_of_one_or_a_non_finite_sample():
    from santkit import sim
    assert sim._mean_std([2.5]) == (2.5, 0.0)
    mean, std = sim._mean_std([math.inf, 1.0])
    assert mean == math.inf and math.isnan(std)


# -- configuration -------------------------------------------------------------

def test_config_validation():
    with pytest.raises(InvalidConfig):
        simulate(_single_activity(Dist("exponential", (1.0,))),
                 SimConfig(seed=1, horizon=0.0), [])
    with pytest.raises(InvalidConfig):
        simulate(_single_activity(Dist("exponential", (1.0,))),
                 SimConfig(seed=1, horizon=1.0, replications=0), [])
    with pytest.raises(InvalidConfig, match="max_events must be positive"):
        simulate(_single_activity(Dist("exponential", (1.0,))),
                 SimConfig(seed=1, horizon=1.0, max_events=0), [])


def test_unknown_reward_target():
    san = _single_activity(Dist("exponential", (1.0,)))
    for spec in (RewardSpec("throughput", "Nope"),
                 RewardSpec("mean_tokens", "P_1"),       # unknown kind
                 RewardSpec("throughput", "P_1"),        # a place
                 RewardSpec("time_avg_tokens", "Tick")):  # an activity
        with pytest.raises(InvalidConfig):
            simulate(san, SimConfig(seed=1, horizon=1.0), [spec])


@pytest.mark.parametrize("spec, label", [
    (RewardSpec("time_avg_tokens", "P_1"), "time_avg_tokens(P_1)"),
    (RewardSpec("throughput", "A"), "throughput(A)"),
    (RewardSpec("prob_tokens_at_least", "P_1", 3),
     "prob_tokens_at_least(P_1,3)"),
])
def test_reward_labels(spec, label):
    # perfbench finds its result rows by these labels.
    assert spec.label() == label


def test_default_threshold_is_zero():
    spec = RewardSpec("prob_tokens_at_least", "P_1")
    assert spec.label() == "prob_tokens_at_least(P_1,0)"
    # P_1 stays at 0 tokens, which meets threshold 0 and misses 1.
    san = _single_activity(Dist("exponential", (1.0,)))
    result = simulate(san, SimConfig(seed=1, horizon=5.0),
                      [spec, RewardSpec("prob_tokens_at_least", "P_1", 1)])
    assert [r.estimate for r in result.rewards] == [1.0, 0.0]


def test_one_event_is_a_valid_bound():
    SimConfig(seed=1, horizon=1.0, max_events=1).validate()
    once = simulate(_single_activity(Dist("deterministic", (0.6,))),
                    SimConfig(seed=1, horizon=1.0, max_events=1), [])
    assert once.events == (1,)
    with pytest.raises(MaxEventsExceeded,
                       match="^more than 1 events in one replication$"):
        simulate(_single_activity(Dist("deterministic", (0.4,))),
                 SimConfig(seed=1, horizon=1.0, max_events=1), [])


def test_reactivation_rejected():
    san = _single_activity(Dist("exponential", (1.0,)))
    marked = replace(
        san, activities=(replace(san.activities[0],
                                 reactivation="unsupported"),))
    with pytest.raises(UnsupportedReactivation):
        simulate(marked, SimConfig(seed=1, horizon=1.0), [])


def test_max_events_guard():
    # The 101st firing raises, after time has advanced to it: the observer
    # has seen 101 contiguous intervals, the last one ending at that firing.
    san = _single_activity(Dist("exponential", (100.0,)))
    seen = []
    with pytest.raises(MaxEventsExceeded,
                       match="^more than 100 events in one replication$"):
        simulate(san, SimConfig(seed=1, horizon=1000.0, max_events=100), [],
                 observer=lambda t0, t1, m: seen.append((t0, t1, m)))
    assert len(seen) == 101
    assert seen[0] == (0.0, 0.0011990387161581845, {"P_1": 0})
    assert seen[-1] == (0.9290024228097185, 0.9402582179911438, {"P_1": 0})
    assert all(a[1] == b[0] for a, b in zip(seen, seen[1:]))


def test_nonstabilizing_guard():
    san = ConcreteSan(
        name="pingpong", places=("A_1", "B_1"),
        activities=(Activity("AtoB", ActivityKind.INSTANTANEOUS, 1, (1.0,)),
                    Activity("BtoA", ActivityKind.INSTANTANEOUS, 1, (1.0,))),
        input_gates=(
            InputGate("ga", "AtoB", ("A_1",), PredLeaf("A_1", ">=", 1),
                      (Update("A_1", "sub", 1),)),
            InputGate("gb", "BtoA", ("B_1",), PredLeaf("B_1", ">=", 1),
                      (Update("B_1", "sub", 1),))),
        output_gates=(
            OutputGate("oa", "AtoB", 1, ("B_1",), (Update("B_1", "add", 1),)),
            OutputGate("ob", "BtoA", 1, ("A_1",), (Update("A_1", "add", 1),))),
        initial_marking=(("A_1", 1), ("B_1", 0)))
    seen = []
    with pytest.raises(NonStabilizingDetected, match=r"^10001 consecutive "
                       r"instantaneous firings at time 0\.0$"):
        simulate(san, SimConfig(seed=1, horizon=1.0), [],
                 observer=lambda t0, t1, m: seen.append((t0, t1, m)))
    assert seen == []
    # The same loop started by a timed firing: one interval is observed
    # first, and the limit counts only the instantaneous chain, while every
    # firing (the timed one included) counts against max_events.
    go = Activity("Go", ActivityKind.TIMED, 1, (1.0,),
                  Dist("exponential", (1.0,)))
    delayed = replace(
        san, places=san.places + ("S_1",),
        activities=san.activities + (go,),
        input_gates=san.input_gates + (
            InputGate("gs", "Go", ("S_1",), PredLeaf("S_1", ">=", 1),
                      (Update("S_1", "sub", 1),)),),
        output_gates=san.output_gates + (
            OutputGate("os", "Go", 1, ("A_1",), (Update("A_1", "add", 1),)),),
        initial_marking=(("A_1", 0), ("B_1", 0), ("S_1", 1)))
    start = 0.11990387161581845
    first = [(0.0, start, {"A_1": 0, "B_1": 0, "S_1": 1})]
    for max_events in (10_001, 1_000_000):
        seen = []
        with pytest.raises(NonStabilizingDetected, match=rf"^10001 consecutive "
                           rf"instantaneous firings at time {start}$"):
            simulate(delayed, SimConfig(seed=1, horizon=10.0,
                                        max_events=max_events), [],
                     observer=lambda t0, t1, m: seen.append((t0, t1, m)))
        assert seen == first
    seen = []
    with pytest.raises(MaxEventsExceeded,
                       match="^more than 10000 events in one replication$"):
        simulate(delayed, SimConfig(seed=1, horizon=10.0, max_events=10_000),
                 [], observer=lambda t0, t1, m: seen.append((t0, t1, m)))
    assert seen == first


def test_first_stabilization_boundary():
    # Chain k is counted before the k-th firing, so the first stabilization
    # reaches STABILIZATION_LIMIT + 1 on the event max_events = LIMIT allows.
    loop = ConcreteSan(
        name="selfloop", places=("P_1",),
        activities=(Activity("Loop", ActivityKind.INSTANTANEOUS, 1, (1.0,)),),
        input_gates=(InputGate("g", "Loop", ("P_1",),
                               PredLeaf("P_1", ">=", 0), ()),),
        output_gates=(), initial_marking=(("P_1", 0),))
    with pytest.raises(MaxEventsExceeded, match=rf"^more than "
                       rf"{STABILIZATION_LIMIT - 1} events in one"):
        simulate(loop, SimConfig(seed=1, horizon=1.0,
                                 max_events=STABILIZATION_LIMIT - 1), [])
    with pytest.raises(NonStabilizingDetected, match=r"^10001 consecutive "
                       r"instantaneous firings at time 0\.0$"):
        simulate(loop, SimConfig(seed=1, horizon=1.0,
                                 max_events=STABILIZATION_LIMIT), [])


# -- execution ------------------------------------------------------------------

def test_python_calls_per_event():
    # Interpreter overhead per event, counted rather than timed: Python-level
    # calls (``sys.setprofile`` "call" events: functions, closures and
    # comprehensions, set-up included) per firing on TmiPair.  Two enabling
    # closures, one gate program, one draw and, on half the firings, one
    # case selection come to about 4.6 on Python 3.10 to 3.13; the loop
    # must add no per-event helper calls of its own.
    san = concretize(build_tmi_template(), {
        "k": 1, "J": (2,), "p_TMI": 0.5, "lambda_f": 1.0, "lambda_r": 2.0})
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        result = simulate(san, SimConfig(seed=7, horizon=2000.0),
                          [RewardSpec("throughput", "SW_F")])
    finally:
        sys.setprofile(None)
    assert sum(result.events) > 2000
    assert calls / sum(result.events) <= 5

def test_truly_dead_net_keeps_initial_reward_values():
    san = ConcreteSan(name="dead", places=("P_1",), activities=(),
                      input_gates=(), output_gates=(),
                      initial_marking=(("P_1", 3),))
    result = simulate(san, SimConfig(seed=1, horizon=10.0),
                      [RewardSpec("time_avg_tokens", "P_1"),
                       RewardSpec("prob_tokens_at_least", "P_1", 2)])
    assert result.events == (0,)
    assert result.rewards[0].estimate == 3.0
    assert result.rewards[1].estimate == 1.0


def test_simulate_rejects_invalid_instance():
    from santkit.errors import ValidationError
    san = _single_activity(Dist("exponential", (1.0,)))
    broken = replace(
        san, activities=(replace(san.activities[0],
                                 case_probs=(0.5,)),))
    with pytest.raises(ValidationError):
        simulate(broken, SimConfig(seed=1, horizon=1.0), [])


@pytest.mark.parametrize("dist", [
    Dist("exponential", (0.0,)),
    Dist("exponential", (-1.0,)),
    Dist("uniform", (2.0, 1.0)),
    Dist("deterministic", (-0.5,)),
    Dist("exponential", (1.0, 2.0)),
    Dist("uniform", (1.0,)),
    Dist("gamma", (1.0,)),
    Dist("exponential", (math.nan,)),
    Dist("uniform", (math.nan, 1.0)),
    Dist("deterministic", (math.nan,)),
    Dist("uniform", (-1.0, 1.0)),
], ids=["rate-zero", "rate-negative", "uniform-inverted",
        "delay-negative", "arity-over", "arity-under", "unknown-family",
        "rate-nan", "uniform-nan", "delay-nan", "uniform-negative"])
def test_simulate_refuses_bad_distribution_before_any_draw(dist, monkeypatch):
    # Neither compiled into a plan nor sampled: validation refuses it first.
    from santkit import sim
    from santkit.errors import ValidationError
    from santkit.sancore import FAMILIES

    def unreachable(*args):
        raise AssertionError("compiled or sampled a distribution validation "
                             "refuses")

    monkeypatch.setattr(sim, "_build_plan", unreachable)
    for name, family in list(FAMILIES.items()):
        monkeypatch.setitem(FAMILIES, name,
                            replace(family, sample=unreachable))
    with pytest.raises(ValidationError):
        simulate(_single_activity(dist), SimConfig(seed=1, horizon=1.0), [])


def test_dead_net_reports_initial_state():
    san = concretize(build_user_template(), USER_INTERNAL)
    dead = replace(
        san, initial_marking=tuple((p, 0) for p in san.places))
    result = simulate(dead, SimConfig(seed=5, horizon=50.0),
                      [RewardSpec("time_avg_tokens", "Idle_1"),
                       RewardSpec("throughput", "Request")])
    assert result.events == (0,)
    assert result.rewards[0].estimate == 0.0
    assert result.rewards[1].estimate == 0.0


def test_time_average_of_constant_marking():
    san = _single_activity(Dist("deterministic", (1e9,)))
    result = simulate(san, SimConfig(seed=3, horizon=10.0),
                      [RewardSpec("time_avg_tokens", "P_1")])
    assert result.rewards[0].estimate == 0.0


def test_reproducibility_bit_identical():
    san = concretize(build_geo_template(),
                     {"n": (1, 2), "lambda_f": 1.0, "lambda_r": 10.0})
    cfg = SimConfig(seed=77, horizon=300.0, replications=4)
    rewards = [RewardSpec("prob_tokens_at_least", "GEO_1", 1),
               RewardSpec("throughput", "GEO_F")]
    first = simulate(san, cfg, rewards)
    second = simulate(san, cfg, rewards)
    assert first == second
    assert repr(first) == repr(second)


def test_different_seeds_differ():
    san = _single_activity(Dist("exponential", (1.0,)))
    a = simulate(san, SimConfig(seed=1, horizon=100.0),
                 [RewardSpec("throughput", "Tick")])
    b = simulate(san, SimConfig(seed=2, horizon=100.0),
                 [RewardSpec("throughput", "Tick")])
    assert a.rewards[0].estimate != b.rewards[0].estimate


def test_replication_seeds_are_distinct():
    seeds = {replication_seed(42, r) for r in range(1000)}
    assert len(seeds) == 1000
    assert replication_seed(43, 0) not in seeds


def test_replications_are_not_identical():
    san = _single_activity(Dist("exponential", (1.0,)))
    result = simulate(san, SimConfig(seed=9, horizon=200.0, replications=8),
                      [RewardSpec("throughput", "Tick")])
    assert result.rewards[0].std > 0.0
    assert result.rewards[0].replications == 8
    assert len(set(result.events)) > 1


def test_markings_are_stable_at_every_time_advance():
    san = concretize(build_user_template(), USER_INTERNAL)
    supply = dict(san.initial_marking, Failed_1=500, Dropped_1=500)
    cycling = replace(san, initial_marking=tuple(supply.items()))
    seen = []

    def observer(t0, t1, marking):
        seen.append(dict(marking))

    simulate(cycling, SimConfig(seed=21, horizon=500.0), [], observer=observer)
    assert len(seen) > 100
    assert all(is_stable(cycling, m) for m in seen)


def test_geo_working_places_stay_binary():
    san = concretize(build_geo_template(),
                     {"n": (1, 2), "lambda_f": 1.0, "lambda_r": 2.0})
    seen = []

    def observer(t0, t1, marking):
        seen.append(dict(marking))

    simulate(san, SimConfig(seed=8, horizon=500.0), [], observer=observer)
    assert seen
    for marking in seen:
        assert marking["Working_S_1"] in (0, 1)
        assert marking["Working_S_2"] in (0, 1)


def test_enabling_memory_resamples_after_disable():
    # A timed activity raced against a faster one for the same token: both
    # fire at their competing rates.  Fast hands the token straight back,
    # so Slow stays enabled; test_golden's race net covers the branch where
    # a scheduled activity is disabled and resampled on re-enable.
    san = ConcreteSan(
        name="race", places=("Tok_1",),
        activities=(
            Activity("Fast", ActivityKind.TIMED, 1, (1.0,),
                     Dist("exponential", (10.0,))),
            Activity("Slow", ActivityKind.TIMED, 1, (1.0,),
                     Dist("exponential", (1.0,)))),
        input_gates=(
            InputGate("gf", "Fast", ("Tok_1",), PredLeaf("Tok_1", ">=", 1),
                      (Update("Tok_1", "sub", 1),)),
            InputGate("gs", "Slow", ("Tok_1",), PredLeaf("Tok_1", ">=", 1),
                      (Update("Tok_1", "sub", 1),))),
        output_gates=(
            OutputGate("of", "Fast", 1, ("Tok_1",),
                       (Update("Tok_1", "add", 1),)),
            OutputGate("os", "Slow", 1, ("Tok_1",),
                       (Update("Tok_1", "add", 1),))),
        initial_marking=(("Tok_1", 1),))
    result = simulate(san, SimConfig(seed=4, horizon=2000.0),
                      [RewardSpec("throughput", "Fast"),
                       RewardSpec("throughput", "Slow")])
    fast, slow = (r.estimate for r in result.rewards)
    # Competing exponential races: Fast wins ~10/11 of the time.
    assert fast > 5 * slow
    assert slow > 0.0


def test_case_counts_accumulate_across_replications():
    san = concretize(build_user_template(), USER_INTERNAL)
    supply = dict(san.initial_marking, Failed_1=2000, Dropped_1=2000)
    cycling = replace(san, initial_marking=tuple(supply.items()))
    result = simulate(cycling, SimConfig(seed=2, horizon=300.0,
                                         replications=3), [])
    counts = dict(result.case_counts)
    assert sum(counts["Request"]) > 100
    assert sum(counts["Fail"]) + sum(counts["Drop"]) == sum(counts["Request"])
    freqs = result.case_frequencies("Request")
    assert abs(sum(freqs) - 1.0) < 1e-12


def test_case_frequencies_of_an_activity_that_never_fired():
    never = ConcreteSan(
        name="never", places=("P_1",),
        activities=(Activity("Pick", ActivityKind.TIMED, 2, (0.4, 0.6),
                             Dist("exponential", (1.0,))),),
        input_gates=(InputGate("g", "Pick", ("P_1",),
                               PredLeaf("P_1", ">", 0), ()),),
        output_gates=(), initial_marking=(("P_1", 0),))
    result = simulate(never, SimConfig(seed=1, horizon=10.0), [])
    assert dict(result.case_counts) == {"Pick": (0, 0)}
    assert result.case_frequencies("Pick") == (0.0, 0.0)


def test_throughput_matches_poisson_rate():
    san = _single_activity(Dist("exponential", (2.0,)))
    result = simulate(san, SimConfig(seed=42, horizon=10_000.0,
                                     replications=20),
                      [RewardSpec("throughput", "Tick")])
    est = result.rewards[0]
    stderr = est.std / math.sqrt(est.replications)
    assert abs(est.estimate - 2.0) <= 3 * stderr


@pytest.mark.parametrize("model, name", [("geo", "GeoPair"),
                                         ("tmi", "TmiPair")])
@pytest.mark.parametrize("c", [2.0, 0.25])
def test_scaled_rates_and_horizon_give_the_same_run(model, name, c):
    # Metamorphic relation: every exponential rate times c and the horizon
    # over c replay the same seeded runs on a clock scaled by 1/c.  Scaling
    # by a power of two is exact in floating point, so event and case counts
    # and time averages are equal, and throughputs are exactly c times.
    models = resources.files("santkit") / "models"
    template = load_template(str(models / f"{model}.sant")).template
    bindings = load_assignments(str(models / f"{model}.sasg"))[name]
    san = concretize(template, coerce_assignment(template, bindings))
    assert {a.distribution.family for a in san.activities} == {"exponential"}
    scaled_san = replace(san, activities=tuple(
        replace(a, distribution=Dist("exponential",
                                     (a.distribution.params[0] * c,)))
        for a in san.activities))
    rewards = [RewardSpec("throughput", a.name) for a in san.activities] + [
        RewardSpec(kind, place, 1) for place in san.places
        for kind in ("time_avg_tokens", "prob_tokens_at_least")]
    horizon, reps = 50.0, 3
    base = simulate(san, SimConfig(seed=11, horizon=horizon,
                                   replications=reps), rewards)
    scaled = simulate(scaled_san, SimConfig(seed=11, horizon=horizon / c,
                                            replications=reps), rewards)
    assert min(base.events) > 10
    assert scaled.events == base.events
    assert scaled.case_counts == base.case_counts
    for spec, ours, theirs in zip(rewards, base.rewards, scaled.rewards):
        factor = c if spec.kind == "throughput" else 1.0
        assert (theirs.estimate, theirs.std) == \
            (ours.estimate * factor, ours.std * factor), spec


# -- the event loop against the reference interpreter --------------------------

def _reference_replication(san, cfg, rewards, rng):
    """One replication of the execution policy the ``sim`` docstring states,
    run on ``sancore``'s dict markings, without the compiled plan: the
    reward values, the event count and the per-activity case counts."""
    marking = dict(san.initial_marking)
    counts = {a.name: [0] * a.cases for a in san.activities}
    accum = [0.0] * len(rewards)
    scheduled: dict[str, tuple[float, int]] = {}   # name: (time, sequence)
    now, seq, events = 0.0, 0, 0
    while True:
        ready, unstable = under_priority(
            [a for a in san.activities if is_enabled(san, marking, a.name)])
        if unstable:
            act = ready[0] if len(ready) == 1 else \
                ready[rng.randrange(len(ready))]
        else:
            for a in san.activities:
                if a not in ready:
                    scheduled.pop(a.name, None)
                elif a.name not in scheduled:
                    seq += 1
                    scheduled[a.name] = (
                        now + sample_firing_time(a.distribution, rng), seq)
            first = min(scheduled, key=scheduled.__getitem__, default=None)
            time = cfg.horizon if first is None else \
                min(scheduled[first][0], cfg.horizon)
            for r, spec in enumerate(rewards):
                rate = REWARDS[spec.kind].rate
                if rate is not None and time > now:
                    accum[r] += rate(marking[spec.target],
                                     spec.threshold) * (time - now)
            now = time
            if first is None or scheduled[first][0] > cfg.horizon:
                break
            act = san.activity(first)
            del scheduled[first]
        events += 1
        case = select_case(act.case_probs, rng)
        counts[act.name][case - 1] += 1
        marking = sancore_fire(san, marking, act.name, case)
    values = [(accum[r] if REWARDS[spec.kind].rate else
               sum(counts[spec.target])) / cfg.horizon
              for r, spec in enumerate(rewards)]
    return values, events, counts


def _reference_simulate(san, cfg, rewards) -> SimResult:
    runs = [_reference_replication(
        san, cfg, rewards, random.Random(replication_seed(cfg.seed, rep)))
        for rep in range(cfg.replications)]
    return SimResult(
        rewards=tuple(
            RewardEstimate(spec.label(),
                           *_mean_std([values[r] for values, _, _ in runs]),
                           cfg.replications)
            for r, spec in enumerate(rewards)),
        events=tuple(events for _, events, _ in runs),
        case_counts=tuple(
            (a.name, tuple(sum(counts[a.name][c] for _, _, counts in runs)
                           for c in range(a.cases)))
            for a in san.activities))


def _choice() -> ConcreteSan:
    """Arrive drops a token in P, where the instantaneous Left and Right are
    both enabled, so each arrival draws which of them takes it; Left passes
    it to Q, which the timed Serve drains."""
    def take(gate, activity, place):
        return InputGate(gate, activity, (place,), PredLeaf(place, ">=", 1),
                         (Update(place, "sub", 1),))

    def put(gate, activity, place):
        return OutputGate(gate, activity, 1, (place,),
                          (Update(place, "add", 1),))

    return ConcreteSan(
        name="choice", places=("P_1", "Q_1"),
        activities=(
            Activity("Arrive", ActivityKind.TIMED, 1, (1.0,),
                     Dist("exponential", (1.0,))),
            Activity("Left", ActivityKind.INSTANTANEOUS, 1, (1.0,)),
            Activity("Right", ActivityKind.INSTANTANEOUS, 1, (1.0,)),
            Activity("Serve", ActivityKind.TIMED, 1, (1.0,),
                     Dist("uniform", (0.5, 1.5)))),
        input_gates=(take("gl", "Left", "P_1"), take("gr", "Right", "P_1"),
                     take("gs", "Serve", "Q_1")),
        output_gates=(put("oa", "Arrive", "P_1"), put("ol", "Left", "Q_1")),
        initial_marking=(("P_1", 0), ("Q_1", 0)))


def _oracle_case(name: str) -> tuple[ConcreteSan, SimConfig]:
    from test_golden import CFG, GOLDEN, _golden_instance, _race
    if name in GOLDEN:
        return _golden_instance(name), CFG
    if name == "race":
        return _race(), CFG
    return _choice(), SimConfig(seed=5, horizon=200.0, replications=2)


@pytest.mark.parametrize("name", ["GeoPair", "TmiPair", "UserInternal",
                                  "race", "choice"])
def test_event_loop_agrees_with_the_reference(name):
    san, cfg = _oracle_case(name)
    rewards = [RewardSpec("throughput", a.name) for a in san.activities] + [
        RewardSpec(kind, place, 1) for place in san.places
        for kind in ("time_avg_tokens", "prob_tokens_at_least")]
    result = simulate(san, cfg, rewards)
    assert min(result.events) > 100
    assert result == _reference_simulate(san, cfg, rewards)
    if name == "choice":
        left, right = (dict(result.case_counts)[a] for a in ("Left", "Right"))
        assert left[0] > 50 and right[0] > 50
