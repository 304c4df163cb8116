"""Golden seeded runs: exact event counts, case counts and reward estimates
of ``simulate`` on three bundled assignments.

The values were recorded once and must never drift.  Any change to the
random stream, the draw order, the sampler arithmetic or the execution
policy shows up here as a mismatch; refactors must keep them bit-identical.
UserInternal exercises the ``uniform`` sampler, GeoPair and TmiPair the
``exponential`` one.
"""

from __future__ import annotations

import dataclasses
from importlib import resources

import pytest

from santkit.concretize import concretize
from santkit.modelfile import (coerce_assignment, load_assignments,
                               load_template)
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


def _bundled_instance(model: str, assignment: str):
    template = load_template(str(MODELS / f"{model}.sant")).template
    raw = load_assignments(str(MODELS / f"{model}.sasg")).assignments[
        assignment]
    return concretize(template, coerce_assignment(template, raw),
                      name=assignment)


@pytest.mark.parametrize("assignment", sorted(GOLDEN))
def test_golden_seeded_run(assignment):
    model, rewards, events, case_counts, estimates = GOLDEN[assignment]
    san = _bundled_instance(model, assignment)
    if assignment == "UserInternal":
        # Alone, User deadlocks after one request; a supply of completion
        # tokens (as in acceptance 6b) keeps the idle/request cycle going.
        supply = dict(san.initial_marking, Failed_1=300, Dropped_1=300)
        san = dataclasses.replace(san, initial_marking=tuple(supply.items()))
    result = simulate(san, CFG, rewards)
    assert result.events == events
    assert result.case_counts == case_counts
    assert [(e.estimate, e.std) for e in result.rewards] == estimates
