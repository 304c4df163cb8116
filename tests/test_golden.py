"""Golden seeded runs: exact event counts, case counts and reward estimates
of ``simulate`` on three bundled assignments, and sha256 pins of the
bundled models' CLI and serializer outputs.

The values were recorded once and must never drift.  Any change to the
random stream, the draw order, the sampler arithmetic or the execution
policy shows up here as a mismatch; refactors must keep them bit-identical.
UserInternal exercises the ``uniform`` sampler, GeoPair and TmiPair the
``exponential`` one.  The race net exercises enabling memory: a timed
activity that is scheduled, then disabled, then resampled on re-enable.
"""

from __future__ import annotations

import hashlib
from importlib import resources
from pathlib import Path

import pytest

from santkit.concretize import concretize
from santkit.modelfile import (coerce_assignment, load_assignments,
                               load_template)
from santkit.record import replace
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
    raw = load_assignments(str(MODELS / f"{model}.sasg"))[assignment]
    san = concretize(template, coerce_assignment(template, raw),
                     name=assignment)
    if assignment == "UserInternal":
        # Alone, User deadlocks after one request; a supply of completion
        # tokens (as in acceptance 6b) keeps the idle/request cycle going.
        supply = dict(san.initial_marking, Failed_1=300, Dropped_1=300)
        san = replace(san, initial_marking=tuple(supply.items()))
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
    # per firing.  On each, the loop runs every instantaneous activity's
    # enabling closure once and, when none of them holds, every timed one
    # once; so with no instantaneous activity each closure runs once per
    # reached marking.  One gate program runs per firing, and delays are
    # drawn through the plan's samplers.
    import santkit.sim as sim

    closures: dict[str, int] = {}
    draws: dict[str, int] = {}
    programs = 0

    def counted(table, name, fn):
        table[name] = 0

        def wrapper(*args):
            table[name] += 1
            return fn(*args)
        return wrapper

    def counted_plan(san, build=sim._build_plan):
        plan = build(san)
        names = [act.name for act in plan.activities]
        return replace(
            plan,
            enabling=tuple(counted(closures, name, holds)
                           for name, holds in zip(names, plan.enabling)),
            samplers=tuple(
                None if sampler is None else
                (counted(draws, name, sampler[0]), sampler[1])
                for name, sampler in zip(names, plan.samplers)))

    def counted_program(*args, run=sim._run_program):
        nonlocal programs
        programs += 1
        return run(*args)

    monkeypatch.setattr(sim, "_build_plan", counted_plan)
    monkeypatch.setattr(sim, "_run_program", counted_program)
    san = _golden_instance(assignment)
    result = simulate(san, CFG, GOLDEN[assignment][1])
    events = sum(result.events)
    reached = events + CFG.replications
    timed = [a.name for a in san.activities if a.kind == ActivityKind.TIMED]
    for act in san.activities:
        if act.name in timed and len(timed) < len(san.activities):
            assert closures[act.name] <= reached, act.name
        else:
            assert closures[act.name] == reached, act.name
    assert programs == events
    assert sorted(draws) == sorted(timed)
    assert all(count >= 1 for count in draws.values())


# sha256 of every byte-level output of the bundled models: the `.sanx` that
# `sant instantiate` writes for each bundled assignment, the canonical text,
# JSON and DOT of each bundled template, and seeded `sant simulate` stdout
# with one reward of each kind.  Recorded once; a refactor must keep them.
# The `.sanx` pins are of the `santkit-instance/2` bytes, which write each
# distinct gate place list once.
SIMULATE_REWARDS = {
    "GeoPair": ("throughput:GEO_F", "tokens:Working_S_2", "atleast:GEO_1:1"),
    "TmiPair": ("throughput:SW_F", "tokens:Working_S_1",
                "atleast:Failed_SW_S_2:1"),
}

OUTPUT_SHA256 = {
    ("sanx", "geo/GeoPair"):
        "b98d5e01fa4dcb53125cddb57a92b3589260b692313cae46f790cc8eabc3ef3d",
    ("sanx", "geo/GeoSingle"):
        "4a33f119862a70971fb2f9409078ae56b277ab7faa9f16c5242ae123c159b1b5",
    ("sanx", "geo/GeoTriple"):
        "46d6d2adacf3797d59fe6dc0b4514b6fb0de0fd3dc8af4d42596c4cbb3076c3d",
    ("sanx", "tmi/TmiNoDep"):
        "0ded350426e0f0de9a1b78e88847a98c7bf316efbc6f2178739e8dde73c4a463",
    ("sanx", "tmi/TmiPair"):
        "e014758ff47090e9d2f50c56df0de7bcb28f2f0b2619bb781f2b371771015b95",
    ("sanx", "tmi/TmiWide"):
        "5cd5aafbcee3bda1907d76bf011eec31ac8c876e9fafcdd642c8f04b9836ef93",
    ("sanx", "user/UserInternal"):
        "3f7bcf9c930368d714dfda0c7ff49f1b229f99d2ff7614d99c655435aaf3cc61",
    ("sanx", "user/UserPress"):
        "070def0a46d9c48627eb30a0b7d08e71ea9923dcc27a2443dc9979d4380db805",
    ("sanx", "user/UserSingle"):
        "775090ba1a09e33c750193a5d26a13a9f22b6822d5eabec10cc984e1ed19595d",
    ("text", "geo"):
        "1e3f04c49a1e169b0bc31f83fb7867ee8f10cc0eeb57e4379745bbaaaf85c64d",
    ("json", "geo"):
        "ba643850adb8146a0a90120e9b449b6c4c9d56fea1784e0d3a615a41c8102da9",
    ("dot", "geo"):
        "c025505739a021e65e4a221bc59f38fc44f4006dbc1f5c1265cbdeb2d2ec2ba2",
    ("text", "tmi"):
        "1004a5d9d819b242d141ed02261088b1d8c50cf9e1baf0b654045aba2c294720",
    ("json", "tmi"):
        "c8324a292055b6eadec348b33254a2495eb5968e478179b1520f11d334548b6c",
    ("dot", "tmi"):
        "a7ed95d1648cf950c8c30906f0002b8b73ee677579992462e50fa0ac372a9817",
    ("text", "user"):
        "3c3d96210c3ec80dea19a03b91c856afdcb66a6c94ad4a670880029685f1d641",
    ("json", "user"):
        "3119944ac2126b2de89f309d0b0c9507a8ce3cbd0e6ec744dbcabfbc5e6b92b3",
    ("dot", "user"):
        "f22d3ca6005b0d6093350d05fc0566a6185bf0e8a20338bb4086c06b392c466d",
    ("simulate", "geo/GeoPair"):
        "68cf26b6de521de6e94820221006cdc4e229abb380856c9d5dbebb9c5ba45211",
    ("simulate", "tmi/TmiPair"):
        "1af60c1caadba4f2dc608f22713e36b537be44dd850c1a3725f3ba1cbad52f74",
}


def _output(kind: str, subject: str, tmp_path, capsys) -> bytes:
    from santkit.cli import main
    from santkit.jsonio import dumps
    from santkit.modelfile import template_to_json, template_to_text

    model, _, assignment = subject.partition("/")
    sant = str(MODELS / f"{model}.sant")
    if kind == "sanx":
        out = tmp_path / "out.sanx"
        assert main(["instantiate", sant, str(MODELS / f"{model}.sasg"),
                     "--assignment", assignment, "--out", str(out)]) == 0
        return out.read_bytes()
    if kind == "simulate":
        rewards = [a for r in SIMULATE_REWARDS[assignment]
                   for a in ("--reward", r)]
        assert main(["simulate", sant, str(MODELS / f"{model}.sasg"),
                     "--assignment", assignment, "--seed", "7",
                     "--horizon", "50", "--reps", "2", *rewards,
                     "--out", "-"]) == 0
        return capsys.readouterr().out.encode()
    if kind == "dot":
        assert main(["export", sant, "--format", "dot", "--out", "-"]) == 0
        return capsys.readouterr().out.encode()
    template = load_template(sant).template
    text = template_to_text(template) if kind == "text" \
        else dumps(template_to_json(template))
    return text.encode()


@pytest.mark.parametrize("kind, subject", list(OUTPUT_SHA256))
def test_golden_output_sha256(kind, subject, tmp_path, capsys):
    data = _output(kind, subject, tmp_path, capsys)
    assert hashlib.sha256(data).hexdigest() == OUTPUT_SHA256[kind, subject]


def test_schema_1_instance_simulates_as_pinned(capsys):
    # A TmiPair `.sanx` written by the schema-1 writer, every gate's places
    # inline: seeded `sant simulate` of it prints the pinned TmiPair report.
    from santkit.cli import main

    instance = Path(__file__).parent / "data" / "TmiPair.instance1.sanx"
    rewards = [a for r in SIMULATE_REWARDS["TmiPair"] for a in ("--reward", r)]
    assert main(["simulate", str(instance), "--seed", "7", "--horizon", "50",
                 "--reps", "2", *rewards, "--out", "-"]) == 0
    data = capsys.readouterr().out.encode()
    assert hashlib.sha256(data).hexdigest() == \
        OUTPUT_SHA256["simulate", "tmi/TmiPair"]
