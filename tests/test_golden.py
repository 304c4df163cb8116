"""Golden seeded runs: exact event counts, case counts and reward estimates
of ``simulate`` on three bundled assignments.

The values were recorded once and must never drift.  Any change to the
random stream, the draw order, the sampler arithmetic or the execution
policy shows up here as a mismatch; refactors must keep them bit-identical.
UserInternal exercises the ``uniform`` sampler, GeoPair and TmiPair the
``exponential`` one.  The race net exercises enabling memory: a timed
activity that is scheduled, then disabled, then resampled on re-enable.
"""

from __future__ import annotations

import dataclasses
from importlib import resources

import pytest

from santkit.concretize import concretize
from santkit.modelfile import (coerce_assignment, load_assignments,
                               load_template)
from santkit.sancore import (Activity, ActivityKind, ConcreteSan, Dist,
                             InputGate, OutputGate, PredLeaf, Update)
from santkit.sim import RewardSpec, SimConfig, simulate

MODELS = resources.files("santkit") / "models"

CFG = SimConfig(seed=2020, horizon=400.0, replications=3)

GOLDEN = {
    "GeoPair": (
        "geo",
        [RewardSpec("prob_tokens_at_least", "GEO_1", 1),
         RewardSpec("time_avg_tokens", "Working_S_2"),
         RewardSpec("throughput", "GEO_F")],
        (712, 682, 694),
        (("GEO_F", (1044,)), ("GEO_R", (1044,))),
        [(0.08937436222487634, 0.008732552005652969),
         (0.9106256377751235, 0.008732552005653023),
         (0.8700000000000001, 0.01887458608817686)]),
    "TmiPair": (
        "tmi",
        [RewardSpec("throughput", "SW_F"),
         RewardSpec("prob_tokens_at_least", "Failed_SW_S_2", 1),
         RewardSpec("time_avg_tokens", "Working_S_1")],
        (516, 503, 547),
        (("SW_F", (380, 404)), ("SW_R", (782,))),
        [(0.6533333333333333, 0.02843120351538666),
         (0.9990392809580113, 0.0008265605197896143),
         (0.6639120254311127, 0.029557163124786078)]),
    "UserInternal": (
        "user",
        [RewardSpec("throughput", "Request"),
         RewardSpec("time_avg_tokens", "Idle_1"),
         RewardSpec("time_avg_tokens", "Failed_1")],
        (540, 540, 526),
        (("Request", (545, 165, 93)), ("Fail", (396,)), ("Drop", (407,))),
        [(0.6691666666666668, 0.010103629710818492),
         (1.0, 0.0),
         (234.5299447832795, 2.621149631687774)]),
}


def _golden_instance(assignment: str) -> ConcreteSan:
    model = GOLDEN[assignment][0]
    template = load_template(str(MODELS / f"{model}.sant")).template
    raw = load_assignments(str(MODELS / f"{model}.sasg")).assignments[
        assignment]
    san = concretize(template, coerce_assignment(template, raw),
                     name=assignment)
    if assignment == "UserInternal":
        # Alone, User deadlocks after one request; a supply of completion
        # tokens (as in acceptance 6b) keeps the idle/request cycle going.
        supply = dict(san.initial_marking, Failed_1=300, Dropped_1=300)
        san = dataclasses.replace(san, initial_marking=tuple(supply.items()))
    return san


@pytest.mark.parametrize("assignment", sorted(GOLDEN))
def test_golden_seeded_run(assignment):
    _, rewards, events, case_counts, estimates = GOLDEN[assignment]
    san = _golden_instance(assignment)
    result = simulate(san, CFG, rewards)
    assert result.events == events
    assert result.case_counts == case_counts
    assert [(e.estimate, e.std) for e in result.rewards] == estimates


def _race() -> ConcreteSan:
    """Fast and Slow race for one token; Fast parks it in Held, so Slow
    loses its scheduled firing, and Return later hands it back."""
    def take(gate, activity, place):
        return InputGate(gate, activity, (place,), PredLeaf(place, ">=", 1),
                         (Update(place, "sub", 1),))

    def put(gate, activity, case, place):
        return OutputGate(gate, activity, case, (place,),
                          (Update(place, "add", 1),))

    return ConcreteSan(
        name="race", places=("Tok_1", "Held_1"),
        activities=(
            Activity("Fast", ActivityKind.TIMED, 1, (1.0,),
                     Dist("exponential", (10.0,))),
            Activity("Slow", ActivityKind.TIMED, 1, (1.0,),
                     Dist("exponential", (1.0,))),
            Activity("Return", ActivityKind.TIMED, 2, (0.75, 0.25),
                     Dist("exponential", (2.0,)))),
        input_gates=(take("gf", "Fast", "Tok_1"), take("gs", "Slow", "Tok_1"),
                     take("gr", "Return", "Held_1")),
        output_gates=(put("of", "Fast", 1, "Held_1"),
                      put("os", "Slow", 1, "Tok_1"),
                      put("or1", "Return", 1, "Tok_1"),
                      put("or2", "Return", 2, "Tok_1")),
        initial_marking=(("Tok_1", 1), ("Held_1", 0)))


def test_golden_enabling_memory_race():
    # Every Fast firing cancels Slow's scheduled firing: 2131 cancellations.
    result = simulate(_race(), CFG,
                      [RewardSpec("throughput", "Slow"),
                       RewardSpec("time_avg_tokens", "Held_1"),
                       RewardSpec("prob_tokens_at_least", "Tok_1", 1)])
    assert result.events == (1497, 1467, 1526)
    assert result.case_counts == (
        ("Fast", (2131,)), ("Slow", (231,)), ("Return", (1602, 526)))
    assert [(e.estimate, e.std) for e in result.rewards] == [
        (0.1925, 0.006614378277661482),
        (0.8187717306825442, 0.0046370662000556695),
        (0.18122826931745586, 0.0046370662000556695)]


@pytest.mark.parametrize("assignment", sorted(GOLDEN))
def test_enabling_evaluated_once_per_reached_marking(assignment, monkeypatch):
    # Each replication reaches its settled initial marking plus one marking
    # per firing; the simulator evaluates the enabling of each exactly once.
    # Per-activity ``is_enabled`` calls from ``sim`` count as evaluations too.
    import santkit.sim as sim
    from santkit.sancore import enabled_activities, is_enabled

    calls = 0

    def counted(fn):
        def wrapper(*args):
            nonlocal calls
            calls += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(sim, "enabled_activities",
                        counted(enabled_activities))
    monkeypatch.setattr(sim, "is_enabled", counted(is_enabled), raising=False)
    result = simulate(_golden_instance(assignment), CFG,
                      GOLDEN[assignment][1])
    assert calls == sum(result.events) + CFG.replications
