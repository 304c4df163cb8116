"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with its timing.  Tolerances are fixed here, not tuned."""

from __future__ import annotations

import itertools
import math
import random
import time

from santkit.arclabel import (Conditional, ExplicitInput, ImplicitSub,
                              OutAdd, OutSet, Unconditional,
                              parse_input_label, parse_output_label,
                              print_input_label, print_output_label)
from santkit.concretize import (build_index_map, concretize, lift_marking,
                                project_marking)
from santkit.fixtures import (USER_INTERNAL, USER_PRESS, build_geo_template,
                              build_tmi_template, build_user_template)
from santkit.jsonio import dumps, san_to_json
from santkit.record import replace
from santkit.sancore import (Activity, ConcreteSan, Dist, Update, fire,
                             is_enabled, reachable_markings)
from santkit.sim import RewardSpec, SimConfig, simulate
from santkit.template import (ActivityKind, template_enabled, template_fire)
from santkit.terms import (Apply, CaseIndex, Const, Param, PlaceIndex,
                           Sort)

GEO_RATES = {"lambda_f": 1.0, "lambda_r": 10.0}
TMI_BASE = {"k": 1, "J": (2,), "lambda_f": 1.0, "lambda_r": 2.0}


def _report(number: int, name: str, started: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")


def test_acceptance_1_golden_instantiation_user_internal():
    started = time.perf_counter()
    san = concretize(build_user_template(), USER_INTERNAL,
                     name="UserInternal")

    assert san.places == ("Idle_1", "Req_1", "Req_6", "Req_7", "Dropped_1",
                          "Failed_1")
    assert {a.name: a.cases for a in san.activities} == \
        {"Request": 3, "Fail": 1, "Drop": 1}
    assert {a.name: a.kind for a in san.activities} == {
        "Request": ActivityKind.TIMED, "Fail": ActivityKind.INSTANTANEOUS,
        "Drop": ActivityKind.INSTANTANEOUS}
    assert [(g.name, g.activity) for g in san.input_gates] == [
        ("IGRequest", "Request"), ("ArcInFail", "Fail"),
        ("ArcInDrop", "Drop")]
    assert [(g.name, g.activity, g.case) for g in san.output_gates] == [
        ("OGRequest_1", "Request", 1), ("OGRequest_2", "Request", 2),
        ("OGRequest_3", "Request", 3), ("ArcOutFail", "Fail", 1),
        ("ArcOutDrop", "Drop", 1)]
    assert dict(san.initial_marking) == {
        "Idle_1": 1, "Req_1": 0, "Req_6": 0, "Req_7": 0, "Dropped_1": 0,
        "Failed_1": 0}
    assert san.activity("Request").case_probs == (0.7, 0.2, 0.1)
    assert san.activity("Fail").case_probs == (1.0,)
    assert san.activity("Drop").case_probs == (1.0,)
    # The three case gates set exactly their service's place to one token.
    for gate, place in zip(san.output_gates, ("Req_1", "Req_6", "Req_7")):
        assert gate.updates == (Update(place, "set", 1),)
        assert gate.places == ("Req_1", "Req_6", "Req_7")

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, "golden instantiation UserInternal", started)


def test_acceptance_2_second_assignment_user_press():
    started = time.perf_counter()
    san = concretize(build_user_template(), USER_PRESS, name="UserPress")
    assert san.places == ("Idle_1", "Req_3", "Req_7", "Dropped_1", "Failed_1")
    assert san.activity("Request").cases == 2
    assert san.activity("Request").case_probs == (0.6, 0.4)
    assert [(g.name, g.case) for g in san.output_gates
            if g.activity == "Request"] == [("OGRequest_1", 1),
                                            ("OGRequest_2", 2)]
    assert san.output_gates[0].updates == (Update("Req_3", "set", 1),)
    assert san.output_gates[1].updates == (Update("Req_7", "set", 1),)
    _report(2, "second assignment UserPress", started)


def test_acceptance_3_geo_semantics_exhaustive():
    started = time.perf_counter()
    san = concretize(build_geo_template(), dict(GEO_RATES, n=(1, 2)))

    def oracle_enabled_f(w1, w2):
        return w1 > 0 and w2 > 0

    def oracle_fire_f(marking):
        return dict(marking, Working_S_1=0, Working_S_2=0,
                    GEO_1=marking["GEO_1"] + 1)

    def oracle_enabled_r(marking):
        return marking["GEO_1"] >= 1

    def oracle_fire_r(marking):
        return dict(marking, GEO_1=marking["GEO_1"] - 1,
                    Working_S_1=1, Working_S_2=1)

    # Exhaustive enumeration over the four working-state combinations
    # (with and without the failure token).
    for w1, w2 in itertools.product((0, 1), repeat=2):
        for geo in (0, 1):
            marking = {"GEO_1": geo, "Working_S_1": w1, "Working_S_2": w2}
            assert is_enabled(san, marking, "GEO_F") == \
                oracle_enabled_f(w1, w2)
            assert is_enabled(san, marking, "GEO_R") == \
                oracle_enabled_r(marking)
            if oracle_enabled_f(w1, w2):
                assert fire(san, marking, "GEO_F", 1) == \
                    oracle_fire_f(marking)
            if oracle_enabled_r(marking):
                assert fire(san, marking, "GEO_R", 1) == \
                    oracle_fire_r(marking)
    _report(3, "GEO enabling and firing vs oracle", started)


def test_acceptance_4_tmi_structural_variability():
    started = time.perf_counter()
    template = build_tmi_template()
    for p, expected_cases in ((0.0, 1), (0.5, 2), (0.25, 2)):
        san = concretize(template, dict(TMI_BASE, p_TMI=p))
        assert san.activity("SW_F").cases == expected_cases

    san = concretize(template, dict(TMI_BASE, p_TMI=0.5))
    start = san.initial_marking_dict()
    assert start == {"Working_S_1": 1, "Working_S_2": 1, "Failed_SW_S_1": 0,
                     "Failed_SW_S_2": 0}
    after = fire(san, start, "SW_F", 2)
    assert after == {"Working_S_1": 0, "Working_S_2": 0, "Failed_SW_S_1": 1,
                     "Failed_SW_S_2": 1}
    # Case 1 fails only switch k.
    after1 = fire(san, start, "SW_F", 1)
    assert after1 == {"Working_S_1": 0, "Working_S_2": 1,
                      "Failed_SW_S_1": 1, "Failed_SW_S_2": 0}
    _report(4, "TMI case count and propagation case", started)


def test_acceptance_5_label_grammar_conformance():
    started = time.perf_counter()
    params = {"s": Sort.SET_INT, "k": Sort.INT}

    # The documented label forms.
    assert parse_output_label("+3<PLACE>", params) == \
        Unconditional(OutAdd(Apply("*", (Const(3), PlaceIndex()))))
    assert parse_output_label("1 -> +2 / 0", params) == \
        Conditional(Const(1), OutAdd(Const(2)), OutSet(Const(0)))
    assert parse_input_label("[exists = 1] 0", params) == \
        ExplicitInput("exists", None, "=", Const(1), False, Const(0))
    assert parse_output_label("s[<CASE>] -> +1", params) == \
        Conditional(Apply("at", (Param("s", Sort.SET_INT), CaseIndex())),
                    OutAdd(Const(1)), None)
    # Defaults.
    assert parse_output_label("", params) == Unconditional(OutAdd(Const(1)))
    assert parse_input_label("", params) == ImplicitSub(Const(1))

    # 1000 generated specs survive print-then-parse.
    from test_arclabel import _gen_input_spec, _gen_output_spec
    rng = random.Random(20240815)
    for _ in range(500):
        spec = _gen_output_spec(rng)
        assert parse_output_label(print_output_label(spec), params) == spec
        ispec = _gen_input_spec(rng)
        assert parse_input_label(print_input_label(ispec), params) == ispec

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(5, "label grammar conformance (1000-case corpus)", started)


def test_acceptance_6a_exponential_throughput():
    started = time.perf_counter()
    san = ConcreteSan(
        name="single", places=("P_1",),
        activities=(Activity("Tick", ActivityKind.TIMED, 1, (1.0,),
                             Dist("exponential", (2.0,))),),
        input_gates=(), output_gates=(), initial_marking=(("P_1", 0),))
    result = simulate(san, SimConfig(seed=424242, horizon=10_000.0,
                                     replications=20),
                      [RewardSpec("throughput", "Tick")])
    est = result.rewards[0]
    stderr = est.std / math.sqrt(est.replications)
    assert abs(est.estimate - 2.0) <= 3 * stderr, (est.estimate, stderr)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(6, f"(a) exponential throughput {est.estimate:.4f} ~ 2.0",
            started)


def test_acceptance_6b_user_internal_case_frequencies():
    started = time.perf_counter()
    san = concretize(build_user_template(), USER_INTERNAL,
                     name="UserInternal")
    # In isolation nothing feeds Failed/Dropped (those places are shared
    # with service models when composed), so seed a completion-token supply
    # to let the idle/request cycle run.
    supply = dict(san.initial_marking, Failed_1=12_000, Dropped_1=12_000)
    cycling = replace(san, initial_marking=tuple(supply.items()))
    result = simulate(cycling, SimConfig(seed=1337, horizon=16_000.0), [])
    counts = dict(result.case_counts)["Request"]
    total = sum(counts)
    assert total >= 10_000
    freqs = [c / total for c in counts]
    for freq, expected in zip(freqs, (0.7, 0.2, 0.1)):
        assert abs(freq - expected) <= 0.02, (freqs, total)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(6, f"(b) case frequencies {tuple(round(f, 3) for f in freqs)} "
               f"~ (0.7, 0.2, 0.1) over {total} firings", started)


def test_acceptance_6c_geo_occupancy_matches_ctmc():
    started = time.perf_counter()
    san = concretize(build_geo_template(), dict(GEO_RATES, n=(1, 2)))
    result = simulate(san, SimConfig(seed=777, horizon=2_000.0,
                                     replications=20),
                      [RewardSpec("prob_tokens_at_least", "GEO_1", 1)])
    est = result.rewards[0].estimate
    expected = 1.0 / 11.0          # lf / (lf + lr) for lf=1, lr=10
    assert abs(est - expected) <= 0.01, est
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(6, f"(c) GEO occupancy {est:.4f} ~ {expected:.4f}", started)


def test_acceptance_7_determinism():
    started = time.perf_counter()
    template = build_tmi_template()
    assignment = dict(TMI_BASE, p_TMI=0.5)
    first = concretize(template, assignment)
    second = concretize(template, assignment)
    assert dumps(san_to_json(first)) == dumps(san_to_json(second))

    cfg = SimConfig(seed=990, horizon=1_000.0, replications=5)
    rewards = [RewardSpec("throughput", "SW_F"),
               RewardSpec("prob_tokens_at_least", "Failed_SW_S_2", 1)]
    run_a = simulate(first, cfg, rewards)
    run_b = simulate(second, cfg, rewards)
    assert run_a == run_b
    assert repr(run_a) == repr(run_b)
    _report(7, "bit-identical concretization and simulation", started)


def test_acceptance_8_projection_commutation():
    started = time.perf_counter()
    grid = [
        (build_user_template(), (USER_INTERNAL, USER_PRESS,
                                 {"s": (2,), "pb": (1.0,)})),
        (build_geo_template(), (dict(GEO_RATES, n=(1, 2)),
                                dict(GEO_RATES, n=(1,)),
                                dict(GEO_RATES, n=(1, 2, 3)))),
        (build_tmi_template(), (dict(TMI_BASE, p_TMI=0.5),
                                dict(TMI_BASE, p_TMI=0.0),
                                {"k": 3, "J": (4, 5), "p_TMI": 0.2,
                                 "lambda_f": 1.5, "lambda_r": 3.0})),
    ]
    pairs = 0
    for template, assignments in grid:
        for assignment in assignments:
            san = concretize(template, assignment)
            imap = build_index_map(template, assignment)
            markings, truncated = reachable_markings(san, max_states=1000)
            assert not truncated
            for marking in markings:
                lifted = lift_marking(template, marking, assignment, imap)
                for act in san.activities:
                    enabled = is_enabled(san, marking, act.name)
                    assert enabled == template_enabled(template, lifted,
                                                       act.name, assignment)
                    if not enabled:
                        continue
                    for case in range(1, act.cases + 1):
                        direct = fire(san, marking, act.name, case)
                        lifted_fire = template_fire(template, lifted,
                                                    act.name, case,
                                                    assignment)
                        assert project_marking(template, lifted_fire,
                                               assignment, imap) == direct
                        pairs += 1
    assert pairs > 20
    _report(8, f"projection commutes on {pairs} fired transitions", started)
