"""Simulator: sampling primitives, execution policy, rewards, and
reproducibility."""

from __future__ import annotations

import dataclasses
import math
import random
import sys

import pytest

from santkit.concretize import concretize
from santkit.errors import (InvalidConfig, MaxEventsExceeded,
                            NonStabilizingDetected, UnsupportedReactivation)
from santkit.fixtures import (USER_INTERNAL, build_geo_template,
                              build_tmi_template, build_user_template)
from santkit.sancore import (Activity, ConcreteSan, Dist, InputGate,
                             OutputGate, PredLeaf, Update, is_stable)
from santkit.sim import (RewardSpec, SimConfig, replication_seed,
                         sample_firing_time, select_case, simulate)
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


def test_reactivation_rejected():
    san = _single_activity(Dist("exponential", (1.0,)))
    marked = dataclasses.replace(
        san, activities=(dataclasses.replace(san.activities[0],
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
    delayed = dataclasses.replace(
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


# -- execution ------------------------------------------------------------------

def test_python_calls_per_event():
    # Interpreter overhead per event, counted rather than timed: Python-level
    # calls (``sys.setprofile`` "call" events: functions, closures and
    # comprehensions, set-up included) per firing on TmiPair.  One enabling
    # pass, one firing and one draw per event are about eight; the loop
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
    assert calls / sum(result.events) <= 9

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
    broken = dataclasses.replace(
        san, activities=(dataclasses.replace(san.activities[0],
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
], ids=["rate-zero", "rate-negative", "uniform-inverted",
        "delay-negative", "arity-over", "arity-under", "unknown-family",
        "rate-nan", "uniform-nan", "delay-nan"])
def test_simulate_refuses_bad_distribution_before_any_draw(dist, monkeypatch):
    from santkit import sim
    from santkit.errors import ValidationError

    def no_draw(dist, rng):
        raise AssertionError("sampled a distribution validation refuses")

    monkeypatch.setattr(sim, "sample_firing_time", no_draw)
    with pytest.raises(ValidationError):
        simulate(_single_activity(dist), SimConfig(seed=1, horizon=1.0), [])


def test_dead_net_reports_initial_state():
    san = concretize(build_user_template(), USER_INTERNAL)
    dead = dataclasses.replace(
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
    import json
    assert json.dumps(dataclasses.asdict(first)) == \
        json.dumps(dataclasses.asdict(second))


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
    cycling = dataclasses.replace(san, initial_marking=tuple(supply.items()))
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
    cycling = dataclasses.replace(san, initial_marking=tuple(supply.items()))
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
