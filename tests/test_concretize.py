"""Concretization: place expansion, marking projection, gate folding, the
full derivation, and the template/instance commutation property."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from santkit.concretize import (build_index_map, concretize,
                                concretize_input_gate,
                                concretize_output_gate, lift_marking,
                                project_marking)
from santkit.errors import (DuplicateIndex, EvalError, SortMismatch,
                            UnboundParameter, UnknownParameter,
                            ValidationError)
from santkit.fixtures import (USER_INTERNAL, USER_PRESS, build_geo_template,
                              build_tmi_template, build_user_template)
from santkit.modelfile import parse_template_text
from santkit.record import replace
from santkit.sancore import (PredAnd, PredLeaf, PredOr, Update,
                             case_probability, eval_predicate, fire,
                             is_enabled, reachable_markings, validate_san)
from santkit.sim import RewardSpec, SimConfig, simulate
from santkit.template import (MExpr, MSetOn, MTable, PlaceTemplate,
                              SanTemplate, template_enabled, template_fire)
from santkit.terms import Const, Param, Sort, eval_term, parse_term
from test_plan import _renamed

GEO_PAIR = {"n": (1, 2), "lambda_f": 1.0, "lambda_r": 10.0}
TMI_PAIR = {"k": 1, "J": (2,), "p_TMI": 0.5, "lambda_f": 1.0,
            "lambda_r": 2.0}


# -- place expansion ---------------------------------------------------------

def _place_names(pt: PlaceTemplate, assignment) -> tuple[str, ...]:
    """The concrete places of one place template, in multiplicity order."""
    template = SanTemplate("T", (), (pt,), (), (), (), ())
    return build_index_map(template, assignment).names[pt.name]


def test_expand_req_places():
    user = build_user_template()
    assert _place_names(user.place("Req"), USER_INTERNAL) == \
        ("Req_1", "Req_6", "Req_7")


def test_expand_unary_place():
    user = build_user_template()
    assert _place_names(user.place("Idle"), USER_INTERNAL) == ("Idle_1",)


def test_expand_union_multiplicity():
    pt = PlaceTemplate("Working_S",
                       parse_term("J union {k}", {"J": Sort.SET_INT,
                                                  "k": Sort.INT}))
    assert _place_names(pt, {"k": 2, "J": (5,)}) == \
        ("Working_S_2", "Working_S_5")


def test_expand_rejects_duplicates():
    pt = PlaceTemplate("P", Param("m", Sort.SET_INT))
    with pytest.raises(DuplicateIndex):
        _place_names(pt, {"m": (1, 1)})


def test_index_map_bijection():
    user = build_user_template()
    imap = build_index_map(user, USER_INTERNAL)
    assert imap.names["Req"] == ("Req_1", "Req_6", "Req_7")
    assert imap.indices["Req"] == (1, 6, 7)
    # Each concrete place comes from one (place template, index) pair.
    inverse = {name: (place, index) for place in imap.names
               for name, index in zip(imap.names[place], imap.indices[place])}
    assert len(inverse) == sum(len(row) for row in imap.names.values())
    assert inverse["Req_6"] == ("Req", 6)


# -- marking projection and lifting ------------------------------------------

def test_project_initial_marking():
    user = build_user_template()
    marking = project_marking(user, user.initial_marking_map(), USER_INTERNAL,
                              build_index_map(user, USER_INTERNAL))
    assert marking == {"Idle_1": 1, "Req_1": 0, "Req_6": 0, "Req_7": 0,
                       "Dropped_1": 0, "Failed_1": 0}


def test_project_constant_zero():
    user = build_user_template()
    tm = dict(user.initial_marking_map(), Idle=MExpr(Const(0)))
    marking = project_marking(user, tm, USER_INTERNAL,
                              build_index_map(user, USER_INTERNAL))
    assert all(v == 0 for v in marking.values())


def test_project_set_at():
    user = build_user_template()
    tm = dict(user.initial_marking_map(),
              Req=MSetOn(Const((6,)), Const(1)))
    marking = project_marking(user, tm, USER_INTERNAL,
                              build_index_map(user, USER_INTERNAL))
    assert (marking["Req_6"], marking["Req_1"], marking["Req_7"]) == (1, 0, 0)


def test_project_needs_every_place():
    user = build_user_template()
    marking = dict(user.initial_marking_map())
    del marking["Req"]
    with pytest.raises(EvalError) as info:
        project_marking(user, marking, USER_INTERNAL,
                        build_index_map(user, USER_INTERNAL))
    assert str(info.value) == "marking does not cover place 'Req'"


def test_lift_then_project_is_identity_on_expanded_indices():
    user = build_user_template()
    imap = build_index_map(user, USER_INTERNAL)
    marking = {"Idle_1": 2, "Req_1": 0, "Req_6": 3, "Req_7": 1,
               "Dropped_1": 0, "Failed_1": 5}
    lifted = lift_marking(user, marking, USER_INTERNAL, imap)
    assert project_marking(user, lifted, USER_INTERNAL, imap) == marking
    assert lifted["Req"] == MTable.of({1: 0, 6: 3, 7: 1})


def test_lift_on_empty_place_set():
    template = build_geo_template()
    imap = build_index_map(template, dict(GEO_PAIR, n=()))
    assert imap.indices["Working_S"] == ()
    lifted = lift_marking(template, {"GEO_1": 0}, dict(GEO_PAIR, n=()), imap)
    assert lifted["Working_S"] == MTable(())


# -- gate concretization -----------------------------------------------------

def _input_gate(template, gate, assignment):
    imap = build_index_map(template, assignment)
    places = sum((imap.names[p] for p in gate.places), ())
    return concretize_input_gate(gate, places, assignment, imap)


def _output_gate(template, gate, case, assignment):
    imap = build_index_map(template, assignment)
    places = sum((imap.names[p] for p in gate.places), ())
    cases = eval_term(template.activity(gate.activity).cases, assignment)
    return concretize_output_gate(gate, case, cases, places, assignment, imap)


def test_geo_input_gate_folds_to_conjunction():
    geo = build_geo_template()
    gate = _input_gate(geo, geo.input_gates[0], GEO_PAIR)
    assert gate.predicate == PredAnd((PredLeaf("Working_S_1", ">", 0),
                                      PredLeaf("Working_S_2", ">", 0)))
    assert gate.updates == (Update("Working_S_1", "set", 0),
                            Update("Working_S_2", "set", 0))


def test_geo_input_gate_single_component():
    geo = build_geo_template()
    gate = _input_gate(geo, geo.input_gates[0], dict(GEO_PAIR, n=(1,)))
    assert gate.predicate == PredAnd((PredLeaf("Working_S_1", ">", 0),))


def test_implicit_arc_is_normal_input_arc():
    geo = build_geo_template()
    gate = _input_gate(geo, geo.input_gates[1], GEO_PAIR)
    assert eval_predicate(gate.predicate, {"GEO_1": 1}) is True
    assert eval_predicate(gate.predicate, {"GEO_1": 0}) is False
    assert gate.updates == (Update("GEO_1", "sub", 1),)


def test_output_gate_cases_target_selected_service():
    user = build_user_template()
    og = user.output_gates[0]
    for case, place in ((1, "Req_1"), (2, "Req_6"), (3, "Req_7")):
        gate = _output_gate(user, og, case, USER_INTERNAL)
        assert gate.name == f"OGRequest_{case}"
        assert gate.updates == (Update(place, "set", 1),)


def test_tmi_output_gate_case_two_fails_both_switches():
    tmi = build_tmi_template()
    gate = _output_gate(tmi, tmi.output_gates[0], 2, TMI_PAIR)
    assert gate.updates == (
        Update("Working_S_1", "set", 0), Update("Working_S_2", "set", 0),
        Update("Failed_SW_S_1", "set", 1), Update("Failed_SW_S_2", "set", 1))


def test_tmi_output_gate_case_one_marks_own_switch():
    tmi = build_tmi_template()
    gate = _output_gate(tmi, tmi.output_gates[0], 1, TMI_PAIR)
    assert gate.updates == (Update("Failed_SW_S_1", "set", 1),)


# -- the full derivation -----------------------------------------------------

def test_user_internal_matches_published_instance():
    san = concretize(build_user_template(), USER_INTERNAL,
                     name="UserInternal")
    assert san.places == ("Idle_1", "Req_1", "Req_6", "Req_7", "Dropped_1",
                          "Failed_1")
    assert [a.name for a in san.activities] == ["Request", "Fail", "Drop"]
    assert san.activity("Request").cases == 3
    assert san.activity("Request").case_probs == (0.7, 0.2, 0.1)
    assert [(g.name, g.activity, g.case) for g in san.output_gates] == [
        ("OGRequest_1", "Request", 1), ("OGRequest_2", "Request", 2),
        ("OGRequest_3", "Request", 3), ("ArcOutFail", "Fail", 1),
        ("ArcOutDrop", "Drop", 1)]
    assert dict(san.initial_marking) == {"Idle_1": 1, "Req_1": 0, "Req_6": 0,
                                         "Req_7": 0, "Dropped_1": 0,
                                         "Failed_1": 0}


def test_user_press_variant():
    san = concretize(build_user_template(), USER_PRESS, name="UserPress")
    assert san.places == ("Idle_1", "Req_3", "Req_7", "Dropped_1", "Failed_1")
    assert san.activity("Request").cases == 2
    assert san.activity("Request").case_probs == (0.6, 0.4)


def test_tmi_case_count_follows_probability_parameter():
    tmi = build_tmi_template()
    with_dep = concretize(tmi, TMI_PAIR)
    assert with_dep.activity("SW_F").cases == 2
    without = concretize(tmi, dict(TMI_PAIR, p_TMI=0.0))
    assert without.activity("SW_F").cases == 1
    assert [g.name for g in without.output_gates] == ["OG_SW",
                                                      "SW_RtoWorking_S"]


def test_assignment_validation():
    user = build_user_template()
    with pytest.raises(UnboundParameter):
        concretize(user, {"s": (1, 2)})
    with pytest.raises(SortMismatch):
        concretize(user, {"s": (1, 2), "pb": (1, 0)})
    with pytest.raises(UnknownParameter):
        concretize(user, dict(USER_INTERNAL, extra=1))
    # A binding that is no value of any sort.
    with pytest.raises(SortMismatch) as info:
        concretize(user, {"s": "abc", "pb": (1.0,)})
    assert str(info.value) == "parameter 's' expects set<int>, bound to 'abc'"


def _sort_checks_during_concretize(monkeypatch, size: int) -> int:
    import importlib
    from unittest import mock

    # santkit.concretize names the function the package re-exports.
    modules = [importlib.import_module(f"santkit.{name}")
               for name in ("terms", "concretize")]
    counting = mock.Mock(wraps=modules[0].matches_sort)
    # Patch every module that calls it by name.
    for module in modules:
        monkeypatch.setattr(module, "matches_sort", counting)
    services = tuple(range(1, size + 1))
    concretize(build_user_template(),
               {"s": services, "pb": (1.0 / size,) * size})
    return counting.call_count


def test_sorts_checked_once_per_binding(monkeypatch):
    # Each parameter's sort is checked when the assignment is bound, not
    # again at every read: the count does not grow with |s|.
    declared = len(build_user_template().param_sorts())
    small = _sort_checks_during_concretize(monkeypatch, 10)
    large = _sort_checks_during_concretize(monkeypatch, 200)
    assert small == large == declared


def test_case_count_must_be_positive():
    # concretize builds the zero-case activity; the rule is validate_san's.
    san = concretize(build_user_template(), {"s": (), "pb": ()})
    assert san.activity("Request").cases == 0
    assert [(d.code, d.message) for d in validate_san(san)
            if d.element == "activity Request"] == [
        ("case-count", "activity has 0 cases"),
        ("normalization", "case probabilities sum to 0, not 1")]


def test_size_ceiling_admits_user_at_4000_services(monkeypatch):
    # User's size is |P| + sum of cases + sum of gate place lists, where
    # the |s| Request gates each list the |s| Req places: 16,016,010 at
    # |s| = 4000, below the ceiling.  One less and it is refused, before
    # any gate is built, naming the largest part.
    import importlib
    module = importlib.import_module("santkit.concretize")
    user = build_user_template()
    services = tuple(range(1, 4001))
    assignment = {"s": services, "pb": (1 / 4000,) * 4000}
    assert len(concretize(user, assignment).output_gates) == 4002
    monkeypatch.setattr(module, "MAX_INSTANCE_SIZE", 16_016_009)
    monkeypatch.setattr(module, "concretize_output_gate", None)
    with pytest.raises(ValidationError) as info:
        concretize(user, assignment)
    assert [d.format() for d in info.value.diagnostics] == [
        "error: instance-size: instance size 16016010 exceeds the ceiling "
        "16016009; the largest part counts 16000000 [gate OGRequest]"]


def test_case_without_a_prob_row_has_probability_zero():
    text = ("template T\nparams { }\nplaces { }\nactivities {\n"
            "  instantaneous A { cases = 2 prob { case 1: 1.0 } }\n}\n")
    san = concretize(parse_template_text(text).template, {})
    assert san.activity("A").case_probs == (1.0, 0.0)


def test_determinism_bit_identical():
    from santkit.jsonio import dumps, san_to_json
    first = concretize(build_tmi_template(), TMI_PAIR)
    second = concretize(build_tmi_template(), TMI_PAIR)
    assert first == second
    assert "".join(dumps(san_to_json(first))) == \
        "".join(dumps(san_to_json(second)))


def test_output_gates_of_one_template_gate_share_their_places():
    user = build_user_template()
    services = tuple(range(1, 51))
    assignment = {"s": services, "pb": (1 / 50,) * 50}
    san = concretize(user, assignment)
    for gate in user.output_gates:
        # Each User activity has one output gate template.
        generated = [g for g in san.output_gates
                     if g.activity == gate.activity]
        assert len(generated) == san.activity(gate.activity).cases
        assert len({id(g.places) for g in generated}) == 1
        for g in generated:
            assert g == _output_gate(user, gate, g.case, assignment)
    request = [g for g in san.output_gates if g.activity == "Request"]
    assert len(request) == 50
    assert len(request[0].places) == 50


def test_concretize_evaluates_each_case_count_once(monkeypatch):
    # The |s|-case Request activity: its case-count term is evaluated once
    # per instantiation, not once per generated output gate.
    import importlib
    module = importlib.import_module("santkit.concretize")
    user = build_user_template()
    count_term = user.activity("Request").cases
    evaluated = []

    def counted(term, *args, **kwargs):
        if term is count_term:
            evaluated.append(term)
        return eval_term(term, *args, **kwargs)

    monkeypatch.setattr(module, "eval_term", counted)
    san = concretize(user, {"s": tuple(range(1, 51)), "pb": (1 / 50,) * 50})
    assert san.activity("Request").cases == 50
    assert len(evaluated) == 1


@pytest.mark.parametrize("index, enabled", [(9, False), (2, True)])
def test_at_index_outside_its_place_decides_a_gate(index, enabled):
    # ``>= 0`` holds on every instance, so only the index decides: one
    # outside the place's instances never holds.
    template = parse_template_text(f"""template Outside
places {{
  P = {{1, 2}}
}}
activities {{
  timed T {{ time = exponential(1.0) }}
}}
gates {{
  input G : T {{
    places = P
    enabled = P[{index}] >= 0
  }}
}}
""").template
    san = concretize(template, {})
    if not enabled:
        assert san.input_gates[0].predicate == PredOr(())
    marking = san.initial_marking_dict()
    lifted = lift_marking(template, marking, {},
                          build_index_map(template, {}))
    assert is_enabled(san, marking, "T") is enabled
    assert template_enabled(template, lifted, "T", {}) is enabled


# -- invariants over the fixture grid ----------------------------------------

# Every connective and every quantifier and selector of the gate language;
# the at-index ``Q[k]`` falls outside ``s`` unless ``k`` is in it.
_GATE_LANGUAGE = """template Gates

params {
  s : set<int>
  k : int
}

places {
  Src = {1}
  Q = s
  R = {1, 2}
}

activities {
  timed Go { time = exponential(1.0) }
  timed Back { time = exponential(2.0) }
  timed Clear { time = exponential(3.0) }
}

gates {
  input GGo : Go {
    places = Src, Q
    enabled = Src[1] >= 1 and (all Q = 0 or not exists Q >= 2)
    effect = Src[1] -= 1 ; Q[except k] := 1
  }
  output OGo : Go {
    places = Q, R
    effect = Q[k] += 1 ; R[except 1] := 1
  }
  input GBack : Back {
    places = Src, Q, R
    enabled = not (Src[1] >= 1) and (exists Q = 1 or R[2] >= 1 or Q[k] > 0)
    effect = R[all] := 0
  }
  output OBack : Back {
    places = Src
    effect = Src[1] := 1
  }
  input GClear : Clear {
    places = Q, R
    enabled = (exists Q >= 2 or (R[2] = 1 and not all Q = 0))
    effect = Q[except k] := 0
  }
}

marking {
  Src = 1
}
"""


def build_gate_language_template():
    return parse_template_text(_GATE_LANGUAGE).template


GRID = [
    (build_user_template, USER_INTERNAL), (build_user_template, USER_PRESS),
    (build_user_template, {"s": (2,), "pb": (1.0,)}),
    (build_geo_template, GEO_PAIR),
    (build_geo_template, {"n": (1,), "lambda_f": 0.5, "lambda_r": 5.0}),
    (build_geo_template, {"n": (1, 2, 3), "lambda_f": 2.0, "lambda_r": 4.0}),
    (build_tmi_template, TMI_PAIR),
    (build_tmi_template, dict(TMI_PAIR, p_TMI=0.0)),
    (build_tmi_template, {"k": 3, "J": (4, 5), "p_TMI": 0.2,
                          "lambda_f": 1.5, "lambda_r": 3.0}),
    (build_gate_language_template, {"s": (1, 3, 4), "k": 3}),
    (build_gate_language_template, {"s": (2, 5), "k": 1}),
    (build_gate_language_template, {"s": (), "k": 1}),
]


@pytest.mark.parametrize("build,assignment", GRID)
def test_output_gate_count_is_sum_of_case_counts(build, assignment):
    template = build()
    san = concretize(template, assignment)
    expected = sum(
        eval_term(template.activity(g.activity).cases, assignment)
        for g in template.output_gates)
    assert len(san.output_gates) == expected


@pytest.mark.parametrize("build,assignment", GRID)
def test_case_probabilities_close(build, assignment):
    san = concretize(build(), assignment)
    marking = san.initial_marking_dict()
    for act in san.activities:
        total = sum(case_probability(san, act.name, marking, i)
                    for i in range(1, act.cases + 1))
        assert abs(total - 1.0) <= 1e-9
        assert case_probability(san, act.name, marking, act.cases + 1) == 0.0
        assert case_probability(san, act.name, marking, act.cases + 5) == 0.0


@pytest.mark.parametrize("build,assignment", GRID)
def test_projection_commutes_with_firing(build, assignment):
    """Project-then-fire equals fire-then-project on every enabled activity
    in every reachable marking (template semantics versus the folded
    instance)."""
    template = build()
    san = concretize(template, assignment)
    imap = build_index_map(template, assignment)
    markings, truncated = reachable_markings(san, max_states=1000)
    assert not truncated
    for marking in markings:
        lifted = lift_marking(template, marking, assignment, imap)
        for act in san.activities:
            concrete_enabled = is_enabled(san, marking, act.name)
            assert concrete_enabled == template_enabled(
                template, lifted, act.name, assignment)
            if not concrete_enabled:
                continue
            for case in range(1, act.cases + 1):
                via_instance = fire(san, marking, act.name, case)
                via_template = project_marking(
                    template,
                    template_fire(template, lifted, act.name, case,
                                  assignment),
                    assignment, imap)
                assert via_instance == via_template


# -- metamorphic relations along the variability axis -----------------------
#
# Chen et al., "Metamorphic Testing", 1998: two members of one family whose
# parameters differ in a known way have instances that differ in a known
# way.

def _without_place(san, place: str):
    """``san`` with ``place`` taken off its places, its marking, and every
    gate's places, predicate leaves and updates."""
    def predicate(pred):
        if isinstance(pred, (PredAnd, PredOr)):
            return replace(pred, args=tuple(
                predicate(arg) for arg in pred.args
                if not (isinstance(arg, PredLeaf) and arg.place == place)))
        return pred

    def gate(g, **more):
        return replace(g, places=tuple(p for p in g.places if p != place),
                       updates=tuple(u for u in g.updates
                                     if u.place != place), **more)

    return replace(
        san, places=tuple(p for p in san.places if p != place),
        input_gates=tuple(gate(g, predicate=predicate(g.predicate))
                          for g in san.input_gates),
        output_gates=tuple(map(gate, san.output_gates)),
        initial_marking=tuple((p, n) for p, n in san.initial_marking
                              if p != place))


def _even(n: int) -> tuple[float, ...]:
    return (1.0 / n,) * n


@example(services=[1, 6, 7, 4])
@settings(max_examples=25, deadline=None)
@given(services=st.lists(st.integers(1, 30), min_size=3, max_size=7,
                         unique=True))
def test_one_more_service_adds_one_place_case_and_gate(services):
    # User over s and over s with j appended: the larger instance has one
    # more place Req_j, one more Request case with its output gate, and
    # Req_j in every OGRequest gate and in the Req parts of ArcInFail and
    # ArcInDrop.  Nothing else differs but Request's probabilities, which
    # follow pb.  With |s| >= 2 every OGRequest gate keeps its name.
    *s, j = services
    user = build_user_template()
    small = concretize(user, {"s": tuple(s), "pb": _even(len(s))})
    big = concretize(user, {"s": (*s, j), "pb": _even(len(s) + 1)})
    added = f"Req_{j}"
    assert set(big.places) - set(small.places) == {added}
    new_gate = f"OGRequest_{len(s) + 1}"
    assert [g.name for g in big.output_gates if g.name not in
            {h.name for h in small.output_gates}] == [new_gate]
    holding = {g.name for g in big.input_gates + big.output_gates
               if added in g.places}
    assert holding == {"ArcInFail", "ArcInDrop"} | {
        g.name for g in big.output_gates if g.name.startswith("OGRequest_")}
    request = big.activity("Request")
    assert (request.cases, request.case_probs) == \
        (len(s) + 1, _even(len(s) + 1))
    assert big.outputs_of("Request", len(s) + 1)[0].updates == \
        (Update(added, "set", 1),)
    reduced = _without_place(big, added)
    assert replace(
        reduced,
        activities=tuple(replace(a, cases=len(s), case_probs=_even(len(s)))
                         if a.name == "Request" else a
                         for a in reduced.activities),
        output_gates=tuple(g for g in reduced.output_gates
                           if g.name != new_gate)) == small


@example(steps=[(1, 10)] * 3)
@settings(max_examples=25, deadline=None)
@given(steps=st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)),
                      min_size=1, max_size=5))
def test_relabelled_components_give_the_same_instance_and_run(steps):
    # GEO over n and over an order-preserving relabelling of n: the same
    # instance after renaming Working_S_i, and the same seeded run.  Both
    # are running sums of positive steps, so both increase.
    n = list(itertools.accumulate(step for step, _ in steps))
    labels = list(itertools.accumulate(step for _, step in steps))
    names = {f"Working_S_{i}": f"Working_S_{k}" for i, k in zip(n, labels)}
    geo = build_geo_template()
    rates = {"lambda_f": 1.0, "lambda_r": 2.0}
    san = concretize(geo, {"n": tuple(n), **rates})
    relabelled = concretize(geo, {"n": tuple(labels), **rates})
    assert _renamed(san, lambda name: names.get(name, name)) == relabelled
    cfg = SimConfig(seed=5, horizon=20.0, replications=2)
    rewards = [RewardSpec("throughput", "GEO_F")] + [
        RewardSpec(kind, place, 1) for place in names
        for kind in ("time_avg_tokens", "prob_tokens_at_least")]
    ours = simulate(san, cfg, rewards)
    theirs = simulate(relabelled, cfg, [
        replace(spec, target=names.get(spec.target, spec.target))
        for spec in rewards])
    assert ours.events == theirs.events and min(ours.events) > 5
    assert ours.case_counts == theirs.case_counts
    assert [(e.estimate, e.std) for e in ours.rewards] == \
        [(e.estimate, e.std) for e in theirs.rewards]
