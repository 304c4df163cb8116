"""Concrete net semantics: enabling, firing, stability, instability search,
validation, and bounded reachability."""

from __future__ import annotations

import ast
import inspect
import math

import pytest

from santkit.concretize import concretize
from santkit.errors import NegativeMarking, NotEnabled, has_errors
from santkit.fixtures import (USER_INTERNAL, build_geo_template,
                              build_tmi_template, build_user_template)
from santkit.record import replace
from santkit.sancore import (Activity, ConcreteSan, Dist, InputGate,
                             OutputGate, PredAnd, PredLeaf, Update,
                             case_probability, find_instability, fire,
                             int_text, is_enabled, is_stable,
                             reachable_markings, validate_san)
from santkit.jsonio import json_to_san, san_to_json
from santkit.template import ActivityKind

GEO_PAIR = {"n": (1, 2), "lambda_f": 1.0, "lambda_r": 10.0}


@pytest.fixture
def user_internal():
    return concretize(build_user_template(), USER_INTERNAL,
                      name="UserInternal")


@pytest.fixture
def geo_pair():
    return concretize(build_geo_template(), GEO_PAIR)


def test_request_enabled_at_initial_marking(user_internal):
    marking = user_internal.initial_marking_dict()
    assert is_enabled(user_internal, marking, "Request")
    assert not is_enabled(user_internal, marking, "Fail")
    assert not is_enabled(user_internal, marking, "Drop")


def test_activity_without_input_gates_is_always_enabled():
    san = ConcreteSan(
        name="free", places=("P_1",),
        activities=(Activity("T", ActivityKind.TIMED, 1, (1.0,),
                             Dist("exponential", (1.0,))),),
        input_gates=(), output_gates=(), initial_marking=(("P_1", 0),))
    assert is_enabled(san, {"P_1": 0}, "T")
    assert is_enabled(san, {"P_1": 99}, "T")


def test_geo_enabled_iff_both_working(geo_pair):
    for w1 in (0, 1):
        for w2 in (0, 1):
            marking = {"GEO_1": 0, "Working_S_1": w1, "Working_S_2": w2}
            assert is_enabled(geo_pair, marking, "GEO_F") == \
                (w1 > 0 and w2 > 0)


def test_fire_request_case_two(user_internal):
    marking = user_internal.initial_marking_dict()
    after = fire(user_internal, marking, "Request", 2)
    assert after == {"Idle_1": 0, "Req_1": 0, "Req_6": 1, "Req_7": 0,
                     "Dropped_1": 0, "Failed_1": 0}


def test_fire_drop_returns_user_to_idle(user_internal):
    marking = dict(user_internal.initial_marking_dict(),
                   Idle_1=0, Dropped_1=1, Req_6=1)
    after = fire(user_internal, marking, "Drop", 1)
    assert after == {"Idle_1": 1, "Req_1": 0, "Req_6": 0, "Req_7": 0,
                     "Dropped_1": 0, "Failed_1": 0}


def test_fire_with_identity_gates_keeps_marking():
    san = ConcreteSan(
        name="id", places=("P_1",),
        activities=(Activity("T", ActivityKind.INSTANTANEOUS, 1, (1.0,)),),
        input_gates=(InputGate("g", "T", ("P_1",), PredAnd(()), ()),),
        output_gates=(OutputGate("o", "T", 1, ("P_1",), ()),),
        initial_marking=(("P_1", 2),))
    assert fire(san, {"P_1": 2}, "T", 1) == {"P_1": 2}


def test_fire_requires_enabling(user_internal):
    marking = dict(user_internal.initial_marking_dict(), Idle_1=0)
    with pytest.raises(NotEnabled):
        fire(user_internal, marking, "Request", 1)
    with pytest.raises(NotEnabled):
        fire(user_internal, user_internal.initial_marking_dict(),
             "Request", 9)


def test_underflow_raises_negative_marking():
    san = ConcreteSan(
        name="under", places=("P_1",),
        activities=(Activity("T", ActivityKind.INSTANTANEOUS, 1, (1.0,)),),
        input_gates=(InputGate("g", "T", ("P_1",), PredAnd(()),
                               (Update("P_1", "sub", 1),)),),
        output_gates=(), initial_marking=(("P_1", 0),))
    with pytest.raises(NegativeMarking):
        fire(san, {"P_1": 0}, "T", 1)


def test_update_guard_sees_entry_marking():
    # Both updates test the entry marking even though the first one zeroes
    # the place.
    san = ConcreteSan(
        name="guard", places=("P_1",),
        activities=(Activity("T", ActivityKind.INSTANTANEOUS, 1, (1.0,)),),
        input_gates=(InputGate(
            "g", "T", ("P_1",), PredAnd(()),
            (Update("P_1", "set", 0, when=(">=", 1)),
             Update("P_1", "add", 5, when=(">=", 1)))),),
        output_gates=(), initial_marking=(("P_1", 1),))
    assert fire(san, {"P_1": 1}, "T", 1) == {"P_1": 5}
    assert fire(san, {"P_1": 0}, "T", 1) == {"P_1": 0}


# -- stability ----------------------------------------------------------------

def test_initial_marking_is_stable(user_internal):
    assert is_stable(user_internal, user_internal.initial_marking_dict())


def test_failed_request_marking_is_unstable(user_internal):
    marking = dict(user_internal.initial_marking_dict(),
                   Idle_1=0, Failed_1=1, Req_1=1)
    assert not is_stable(user_internal, marking)


def _pathological_pair():
    # Two instantaneous activities feeding each other's input place.
    return ConcreteSan(
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


def test_instability_cycle_witness():
    san = _pathological_pair()
    report = find_instability(san, san.initial_marking_dict())
    assert report is not None
    assert report.kind == "cycle"
    assert report.chain == (("AtoB", 1), ("BtoA", 1))


def test_instability_none_for_fixture(user_internal):
    assert find_instability(user_internal,
                            user_internal.initial_marking_dict()) is None


def test_instability_depth_exhausted():
    # A long but finite instantaneous countdown, cut off by the bound.
    san = ConcreteSan(
        name="count", places=("P_1",),
        activities=(Activity("Down", ActivityKind.INSTANTANEOUS, 1, (1.0,)),),
        input_gates=(InputGate("g", "Down", ("P_1",),
                               PredLeaf("P_1", ">=", 1),
                               (Update("P_1", "sub", 1),)),),
        output_gates=(), initial_marking=(("P_1", 50),))
    report = find_instability(san, {"P_1": 50}, depth=10)
    assert report is not None and report.kind == "depth-exhausted"
    assert len(report.chain) == 10
    assert find_instability(san, {"P_1": 50}, depth=100) is None


# -- validation ----------------------------------------------------------------

def test_fixture_instances_validate_clean(user_internal, geo_pair):
    assert validate_san(user_internal) == []
    assert validate_san(geo_pair) == []


def test_unnormalized_case_probabilities():
    san = concretize(build_user_template(), USER_INTERNAL)
    request = san.activity("Request")
    for probs in ((0.7, 0.2, 0.2), (math.nan, 0.2, 0.1)):
        broken = replace(
            san, activities=(replace(request, case_probs=probs),)
            + san.activities[1:])
        assert any(d.code == "normalization" for d in validate_san(broken))


def test_case_out_of_range():
    san = concretize(build_user_template(), USER_INTERNAL)
    gate = replace(san.output_gates[0], case=4)
    broken = replace(
        san, output_gates=(gate,) + san.output_gates[1:])
    assert any(d.code == "case-out-of-range" for d in validate_san(broken))


def test_timed_activity_without_distribution():
    san = concretize(build_geo_template(), GEO_PAIR)
    geo_f = replace(san.activity("GEO_F"), distribution=None)
    broken = replace(san, activities=(geo_f,) + san.activities[1:])
    assert any(d.code == "missing-distribution" for d in validate_san(broken))


def test_invalid_distribution_parameters():
    san = concretize(build_geo_template(), dict(GEO_PAIR, lambda_f=1.0))
    for dist in (Dist("exponential", (0.0,)), Dist("exponential", (math.nan,)),
                 Dist("uniform", (1.0, math.nan)),
                 Dist("deterministic", (math.nan,))):
        geo_f = replace(san.activity("GEO_F"), distribution=dist)
        broken = replace(
            san, activities=(geo_f,) + san.activities[1:])
        assert any(d.code == "invalid-parameter"
                   for d in validate_san(broken)), dist


def _leaf_cmp(doc, cmp):
    doc["input_gates"][0]["enabled"]["cmp"] = cmp


def _when_cmp(doc, cmp):
    doc["input_gates"][1]["effect"][1]["when"][0] = cmp


def _action(doc, action):
    doc["output_gates"][0]["effect"][0]["action"] = action


def _leaf_place(doc, place):
    # The gate lists the place too, so only the net lacks it.
    gate = doc["input_gates"][0]
    gate["enabled"]["place"] = place
    gate["places"] = doc["place_lists"][gate["places"]] + [place]


def _leaf_outside(doc, place):
    doc["input_gates"][0]["enabled"]["place"] = place


def _gate_places(doc, place):
    doc["input_gates"][0]["places"] = [place, place]


def _rename_drop(doc, name):
    # Renames the activity together with the gates mapped to it.
    for node in doc["activities"] + doc["input_gates"] + doc["output_gates"]:
        key = "activity" if "activity" in node else "name"
        if node[key] == "Drop":
            node[key] = name


@pytest.mark.parametrize("mutate, value, code", [
    (_leaf_cmp, "<", "bad-comparison"),
    (_when_cmp, "!=", "bad-comparison"),
    (_action, "mul", "bad-action"),
    (_leaf_place, "Nowhere_1", "unknown-place"),
    (_leaf_outside, "Failed_1", "place-outside-gate"),
    (_gate_places, "Idle_1", "duplicate-place"),
    (_rename_drop, "Fail", "duplicate-name"),
])
def test_instance_outside_vocabulary_is_an_error(user_internal, mutate,
                                                 value, code):
    doc = san_to_json(user_internal)
    assert not has_errors(validate_san(json_to_san(doc)))
    mutate(doc, value)
    diags = validate_san(json_to_san(doc))
    assert any(d.code == code and d.severity == "error" for d in diags)


def test_unknown_place_in_a_shared_place_tuple_is_reported_per_gate():
    places = tuple(f"P_{i}" for i in range(999))
    shared = places[:500] + ("Nowhere",) + places[500:]
    doubly = ("Gone",) + shared
    gates = tuple(OutputGate(f"OG_{case}", "t", case,
                             doubly if case == 4 else shared, ())
                  for case in range(1, 5))
    san = ConcreteSan(
        name="Wide", places=places,
        activities=(Activity("t", ActivityKind.TIMED, 4, (0.25,) * 4,
                             Dist("exponential", (1.0,))),),
        input_gates=(), output_gates=gates,
        initial_marking=tuple((p, 0) for p in places))
    assert len(shared) == 1000
    assert [(d.code, d.message, d.element) for d in validate_san(san)] == [
        ("unknown-place", f"gate lists unknown place '{name}'", f"gate OG_{case}")
        for case, name in ((1, "Nowhere"), (2, "Nowhere"), (3, "Nowhere"),
                           (4, "Gone"), (4, "Nowhere"))]


def test_sancore_imports_nothing_from_template():
    import santkit.sancore as sancore

    tree = ast.parse(inspect.getsource(sancore))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported.add(base)
            # "from . import template" names the module itself.
            sep = "." if node.module else ""
            imported.update(base + sep + alias.name for alias in node.names)
    assert imported.isdisjoint({".template", "santkit.template"}), imported


def test_non_stabilizing_warning():
    diags = validate_san(_pathological_pair())
    warning = [d for d in diags if d.code == "non-stabilizing"]
    assert warning and warning[0].severity == "warning"


# -- reachability ---------------------------------------------------------------

def test_reachability_finds_no_underflow_on_fixtures():
    nets = [
        concretize(build_user_template(), USER_INTERNAL),
        concretize(build_geo_template(), GEO_PAIR),
        concretize(build_tmi_template(),
                   {"k": 1, "J": (2,), "p_TMI": 0.5, "lambda_f": 1.0,
                    "lambda_r": 2.0}),
    ]
    for san in nets:
        markings, truncated = reachable_markings(san, max_states=10_000)
        assert not truncated
        assert all(min(m.values()) >= 0 for m in markings)


def test_reachability_stops_at_max_states():
    # A counter: T adds a token on every firing, so the reachable markings
    # are unbounded and the search must stop at exactly max_states.
    san = ConcreteSan(
        name="counter", places=("P_1",),
        activities=(Activity("T", ActivityKind.TIMED, 1, (1.0,),
                             Dist("exponential", (1.0,))),),
        input_gates=(),
        output_gates=(OutputGate("O", "T", 1, ("P_1",),
                                 (Update("P_1", "add", 1),)),),
        initial_marking=(("P_1", 0),))
    markings, truncated = reachable_markings(san, max_states=5)
    assert truncated
    assert markings == [{"P_1": i} for i in range(5)]


def test_geo_reachable_markings_alternate(geo_pair):
    markings, _ = reachable_markings(geo_pair)
    keys = {geo_pair.marking_key(m) for m in markings}
    assert keys == {(0, 1, 1), (1, 0, 0)}


def test_priority_rule_in_reachability(user_internal):
    # From a marking where Fail is enabled, timed Request does not branch.
    start = dict(user_internal.initial_marking_dict(), Failed_1=1, Req_1=1)
    markings, _ = reachable_markings(user_internal, start=start)
    first_successors = [m for m in markings[1:2]]
    assert first_successors
    assert first_successors[0]["Failed_1"] == 0


def test_beyond_range_probability_is_zero(user_internal):
    marking = user_internal.initial_marking_dict()
    assert case_probability(user_internal, "Request", marking, 4) == 0.0
    assert case_probability(user_internal, "Request", marking, 0) == 0.0


@pytest.mark.parametrize("value, text", [
    (-12, "-12"),
    (10 ** 4300 - 1, "9" * 4300),
    (10 ** 4300, "a 4301-digit integer"),
    (-(10 ** 6000 - 1), "a negative 6000-digit integer"),
    (2 ** 20000, "a 6021-digit integer"),
], ids=["small", "at-limit", "past-limit", "negative", "power-of-two"])
def test_int_text_names_the_size_past_the_conversion_limit(value, text):
    assert int_text(value) == text
