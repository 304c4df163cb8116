"""Golden seeded runs: exact event counts, case counts and reward estimates
of ``simulate`` on three bundled assignments, and sha256 pins of the
bundled models' CLI and serializer outputs and of the sources the
simulator compiles for them.

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
import random
from pathlib import Path

import pytest

from santkit.concretize import concretize
from santkit.modelfile import (coerce_assignment, load_assignments,
                               load_template)
from santkit.record import replace
from santkit.sancore import (Activity, ActivityKind, ConcreteSan, Dist,
                             InputGate, OutputGate, PredLeaf, Update, leaves)
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


def _retested_by(san: ConcreteSan, activity: str, branch: str) -> bool:
    """Whether a firing of ``branch`` leaves ``activity``'s enabling test to
    be run again: it writes a place the test reads, and the firing is of
    more than one case or some place the test reads does not end it with
    an unguarded set."""
    reads = {leaf.place for gate in san.inputs_of(activity)
             for leaf in leaves(gate.predicate)}
    cases = san.activity(branch).cases
    last: dict[str, Update] = {}
    for case in range(1, cases + 1):
        for gate in san.inputs_of(branch) + san.outputs_of(branch, case):
            for update in gate.updates:
                last[update.place] = update
    if not reads & set(last):
        return False
    return cases > 1 or not all(
        place in last and last[place].action == "set" and
        last[place].when is None for place in reads)


@pytest.mark.parametrize("assignment", sorted(GOLDEN))
def test_enabling_evaluated_once_per_reached_marking(assignment, monkeypatch):
    # Each replication reaches its settled initial marking plus one marking
    # per firing.  On each, the loop tests every instantaneous activity's
    # enabling expression once and, when none of them holds, every timed
    # one once; so with no instantaneous activity each test runs once per
    # reached marking.  A test that some firing need not run again is kept
    # in a flag instead: it runs once per replication, on the initial
    # marking, and once per firing that writes a place it reads without
    # deciding it.  On GeoPair, GEO_F's firing sets every Working_S place
    # to 0 and GEO_R's sets them to 1, so GEO_F's test runs only once per
    # replication.  The counters sit in the generated loop itself: each
    # enabling expression gains a call that counts it.  A single-case
    # firing runs its gates inline, so only a multi-case firing runs a
    # compiled program, and the loop draws from the generator exactly as
    # often as the reference replication does.
    import santkit.sim as sim
    from test_sim import _reference_simulate

    tests: dict[str, int] = {}
    compiled: list[tuple[int, int]] = []
    programs = draws = 0

    def counted_plan(san, build=sim._build_plan):
        plan = build(san)
        names = [act.name for act in san.activities]
        tests.update(dict.fromkeys(names, 0))

        def tally(index):
            tests[names[index]] += 1
            return False

        plan.namespace["_tally"] = tally
        return replace(plan, enabling=tuple(
            f"(_tally({i}) or ({expr}))"
            for i, expr in enumerate(plan.enabling)))

    def counted_program(plan, index, case,
                        compile_program=sim._compile_program):
        program = compile_program(plan, index, case)
        compiled.append((index, case))

        def run(marking):
            nonlocal programs
            programs += 1
            program(marking)
        return run

    class CountingRandom(random.Random):
        def random(self):
            nonlocal draws
            draws += 1
            return super().random()

        # Defined so that ``randrange`` keeps drawing through the bits, as
        # it does on ``random.Random``.
        def getrandbits(self, k):
            return super().getrandbits(k)

    monkeypatch.setattr(sim, "_build_plan", counted_plan)
    monkeypatch.setattr(sim, "_compile_program", counted_program)
    monkeypatch.setattr(random, "Random", CountingRandom)
    san = _golden_instance(assignment)
    result = simulate(san, CFG, GOLDEN[assignment][1])
    events = sum(result.events)
    reached = events + CFG.replications
    timed = [a.name for a in san.activities if a.kind == ActivityKind.TIMED]
    firings = {name: sum(counts) for name, counts in result.case_counts}
    flagged = []
    for act in san.activities:
        retesting = [b.name for b in san.activities
                     if _retested_by(san, act.name, b.name)]
        if len(retesting) < len(san.activities):
            flagged.append(act.name)
            assert tests[act.name] == CFG.replications + sum(
                firings[b] for b in retesting), act.name
        elif act.name in timed and len(timed) < len(san.activities):
            assert tests[act.name] <= reached, act.name
        else:
            assert tests[act.name] == reached, act.name
    assert flagged == (["GEO_F"] if assignment == "GeoPair" else [])
    if assignment == "GeoPair":
        assert tests["GEO_F"] == CFG.replications
    cases = {a.name: a.cases for a in san.activities}
    assert programs == sum(sum(counts) for name, counts in result.case_counts
                           if cases[name] > 1)
    assert all(san.activities[index].cases > 1 for index, _ in compiled)
    loop_draws, draws = draws, 0
    assert _reference_simulate(san, CFG, GOLDEN[assignment][1]) == result
    assert loop_draws == draws > 0


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
        "703c1cb9e404a9da176ecbdc19b330b5f4f20d5a7569d3b12e7132e9977e2ee1",
    ("sanx", "geo/GeoSingle"):
        "ce698fea2d0b3408ad995363d0f45df7cc520c023fb8a5774ace8cabb53b89c2",
    ("sanx", "geo/GeoTriple"):
        "5b7128525f58f1a25da328ef1bf8175e15080f5a97d409565a69d8a550676a73",
    ("sanx", "tmi/TmiNoDep"):
        "66f1c912492ef303cbe882c11cfad37e5a8bf2dc814f2a6b716f09b5d78b17a5",
    ("sanx", "tmi/TmiPair"):
        "8a3eb0d4f44e561f9ab797172858eefad0316ea194d848d23ec66d3d604ca77a",
    ("sanx", "tmi/TmiWide"):
        "4bdc287402d499ae398394ae935e9a85a37c8759d814a285197d311891ba77cb",
    ("sanx", "user/UserInternal"):
        "04fea74f3398c03ae721453d7e95cf0b2e828d254d248d51f832a531da737e85",
    ("sanx", "user/UserPress"):
        "dab9c98000cc9a0d20951ebc80384e9027499c14fc9ed1ca8193bb3d65f640f3",
    ("sanx", "user/UserSingle"):
        "17670629fcfaeca89a9b030112530950e35919fe4580949b7fcd9cb58a2ce414",
    ("text", "geo"):
        "1e3f04c49a1e169b0bc31f83fb7867ee8f10cc0eeb57e4379745bbaaaf85c64d",
    ("json", "geo"):
        "cf6c8186e5924dbd12d1c464ce030c0448aaf64b74fe4f8198b4bac2ec3526cc",
    ("dot", "geo"):
        "c025505739a021e65e4a221bc59f38fc44f4006dbc1f5c1265cbdeb2d2ec2ba2",
    ("text", "tmi"):
        "1004a5d9d819b242d141ed02261088b1d8c50cf9e1baf0b654045aba2c294720",
    ("json", "tmi"):
        "7231cd366e4f9fe7960f027583ff3828995468d4f6fa817ad639d2fd4f1f906d",
    ("dot", "tmi"):
        "a7ed95d1648cf950c8c30906f0002b8b73ee677579992462e50fa0ac372a9817",
    ("text", "user"):
        "3c3d96210c3ec80dea19a03b91c856afdcb66a6c94ad4a670880029685f1d641",
    ("json", "user"):
        "bb59789581dda39a18e77e14bd099e01a942434af334a08ebb4406f6eab799f8",
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
        else "".join(dumps(template_to_json(template)))
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


# sha256 of the sources that seeded `sant simulate` compiles for each
# bundled assignment, in the order ``sim._define`` (the one caller of
# ``compile``) receives them.  With no option asked for beyond the pinned
# report's, the generated loop and programs must not change.
SOURCES_SHA256 = {
    "geo/GeoPair":
        "91d513c9497e6825c4d9502a6435a26fc530061bb2ea868680d53bb0fe5fb41a",
    "geo/GeoSingle":
        "f4952f7603d0b6f8ab61c934defbc340d271d42b07ae1b2e71a458ae35b0aebe",
    "geo/GeoTriple":
        "1f5abb269228ffc09f6fd31023f81009879cdb49e9113cf8db996fabd8880447",
    "tmi/TmiNoDep":
        "48b0b0285b15b9d65f5e8a217699c7aae5433cecbd6d20853752af1fb38df7c2",
    "tmi/TmiPair":
        "920da023ac4eddfc8e0cfdd99ec76eb98fb976012c7e7bba6756501bdbc89aa4",
    "tmi/TmiWide":
        "8a7ca3680032795ece33c9b32fe202458e19f3ff274168870896aef2051b707a",
    "user/UserInternal":
        "e8fcdfc41c101b2d4873d786ec411a1d39a152f12803ec608e5cac5029a854e0",
    "user/UserPress":
        "1935a20156ff7565a2ae753542248a196301208e2cea5a05521bbfa10b66c103",
    "user/UserSingle":
        "281f07a91c9967a4b98f57e3d84f4637ca8903ed4c2bf2e30f3cd01d403094a9",
}


@pytest.mark.parametrize("subject", list(SOURCES_SHA256))
def test_golden_compiled_sources_sha256(subject, monkeypatch, capsys):
    import santkit.sim as sim
    from santkit.cli import main

    sources: list[str] = []

    def recorded(namespace, source, name, define=sim._define):
        sources.append(source)
        return define(namespace, source, name)

    monkeypatch.setattr(sim, "_define", recorded)
    model, _, assignment = subject.partition("/")
    rewards = [a for r in SIMULATE_REWARDS.get(assignment, ())
               for a in ("--reward", r)]
    assert main(["simulate", str(MODELS / f"{model}.sant"),
                 str(MODELS / f"{model}.sasg"), "--assignment", assignment,
                 "--seed", "7", "--horizon", "50", "--reps", "2", *rewards,
                 "--out", "-"]) == 0
    capsys.readouterr()
    digest = hashlib.sha256("\0".join(sources).encode()).hexdigest()
    assert digest == SOURCES_SHA256[subject]
