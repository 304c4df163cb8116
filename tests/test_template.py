"""Template data model and validator."""

from __future__ import annotations


import pytest

from santkit.concretize import concretize
from santkit.errors import (Diagnostic, NegativeMarking, NotEnabled,
                            SantError, ValidationError, has_errors)
from santkit.fixtures import (USER_INTERNAL, build_geo_template,
                              build_tmi_template, build_user_template)
from santkit.record import replace
from santkit.sancore import validate_san
from santkit.template import (ActivityKind, At, CaseEntry, GateAtom,
                              GateRule, MExpr, MSetOn, MTable, PlaceTemplate,
                              apply_gate_rules, has_variable_cases,
                              is_unary_multiplicity, marking_tokens_at,
                              place_index_values, template_fire,
                              validate_template)
from santkit.terms import (Apply, Const, Param, PlaceIndex, Sort, Term,
                           parse_term)


def codes(diags):
    return sorted(d.code for d in diags)


def test_fixture_templates_are_clean():
    for build in (build_user_template, build_geo_template,
                  build_tmi_template):
        assert validate_template(build()) == []


def test_dangling_gate_detected():
    user = build_user_template()
    broken = replace(
        user,
        output_gates=user.output_gates[:1] + (
            replace(user.output_gates[1], activity="Missing"),))
    diags = validate_template(broken)
    assert "dangling-gate" in codes(diags)
    assert has_errors(diags)


def test_wrong_sorted_case_probability_detected():
    # The propagation-probability slot must be Real; an Int term there is
    # the classic parameter-sort mistake.
    tmi = build_tmi_template()
    sw_f = tmi.activities[0]
    bad_entries = (CaseEntry(sw_f.case_distribution[0].guard,
                             parse_term("k", dict(tmi.parameters))),
                   sw_f.case_distribution[1])
    mutated = replace(
        tmi, activities=(
            replace(
                sw_f, case_distribution=bad_entries),
            tmi.activities[1]))
    diags = validate_template(mutated)
    assert "sort-mismatch" in codes(diags)
    assert any(d.element == "activity SW_F" for d in diags
               if d.code == "sort-mismatch")


def test_multiplicity_must_be_int_set():
    bad = PlaceTemplate("P", Const(3))
    user = build_user_template()
    diags = validate_template(replace(
        user, places=user.places + (bad,),
        initial_marking=user.initial_marking + (("P", MExpr(Const(0))),)))
    assert "sort-mismatch" in codes(diags)


def test_case_placeholder_rejected_in_input_gate():
    user = build_user_template()
    gate = user.input_gates[0]
    bad_rule = GateRule("Idle", At(Const(1)), "sub",
                        parse_term("<CASE>", {}, allow_case=True))
    diags = validate_template(replace(
        user, input_gates=(replace(gate, rules=(bad_rule,)),)
        + user.input_gates[1:]))
    assert "case-placeholder" in codes(diags)


def test_action_outside_vocabulary_is_an_error():
    user = build_user_template()
    gate = user.input_gates[0]
    bad = replace(
        gate, rules=(GateRule("Idle", At(Const(1)), "mul", Const(1)),))
    bad_user = replace(
        user, input_gates=(bad,) + user.input_gates[1:])
    assert "bad-action" in codes(validate_template(bad_user))
    with pytest.raises(ValidationError, match="bad-action"):
        concretize(bad_user, USER_INTERNAL)


@pytest.mark.parametrize("predicate, rule, code", [
    (GateAtom("forall", "Idle", ">=", Const(1)),
     GateRule("Idle", "all", "sub", Const(1)), "bad-quantifier"),
    (GateAtom("all", "Idle", ">=", Const(1)),
     GateRule("Idle", "where", "sub", Const(1)), "bad-selector"),
], ids=["quantifier", "selector"])
def test_keyword_outside_vocabulary_is_an_error(predicate, rule, code):
    user = build_user_template()
    bad = replace(user.input_gates[0], predicate=predicate,
                  rules=(rule,))
    bad_user = replace(
        user, input_gates=(bad,) + user.input_gates[1:])
    assert code in codes(validate_template(bad_user))
    with pytest.raises(ValidationError, match=code):
        concretize(bad_user, USER_INTERNAL)


def test_timed_activity_requires_distribution():
    user = build_user_template()
    request = replace(user.activities[0], time_distribution=None)
    diags = validate_template(replace(
        user, activities=(request,) + user.activities[1:]))
    assert "missing-distribution" in codes(diags)


def test_instantaneous_activity_rejects_distribution():
    user = build_user_template()
    fail = replace(
        user.activities[1],
        time_distribution=user.activities[0].time_distribution)
    diags = validate_template(replace(
        user, activities=(user.activities[0], fail, user.activities[2])))
    assert "unexpected-distribution" in codes(diags)


def test_gate_place_outside_declared_set():
    user = build_user_template()
    gate = user.input_gates[0]
    bad = replace(
        gate, predicate=GateAtom("all", "Req", ">=", Const(1)))
    diags = validate_template(replace(
        user, input_gates=(bad,) + user.input_gates[1:]))
    assert "place-outside-gate" in codes(diags)


def test_where_selector_needs_matching_atom():
    user = build_user_template()
    gate = user.input_gates[0]   # predicate only mentions Idle
    bad = replace(
        gate, places=("Idle", "Req"),
        rules=gate.rules + (GateRule("Req", "sat", "set", Const(0)),))
    diags = validate_template(replace(
        user, input_gates=(bad,) + user.input_gates[1:]))
    assert "ambiguous-where" in codes(diags)


def test_where_selector_rejected_in_output_gate():
    geo = build_geo_template()
    gate = geo.output_gates[0]
    bad = replace(
        gate, rules=(GateRule("Working_S", "sat", "set", Const(1)),))
    diags = validate_template(replace(
        geo, output_gates=(bad,) + geo.output_gates[1:]))
    assert "where-in-output" in codes(diags)


def _with_request_cases(cases: Term):
    user = build_user_template()
    return replace(user, activities=(
        replace(user.activities[0], cases=cases),) + user.activities[1:])


def test_unknown_operator_is_a_sort_mismatch():
    bad = _with_request_cases(Apply("pow", (Const(2), Const(3))))
    assert validate_template(bad) == [Diagnostic(
        "sort-mismatch", "unknown operator 'pow'", element="activity Request")]


def test_place_placeholder_outside_a_place_slot():
    bad = _with_request_cases(PlaceIndex())
    assert validate_template(bad) == [Diagnostic(
        "place-placeholder", "<PLACE> is not allowed here",
        element="activity Request")]


def test_empty_set_multiplicity_is_a_sort_mismatch():
    # It once validated clean, and template_to_text printed it as "{}",
    # which the parser refuses.
    user = build_user_template()
    bad = replace(
        user, places=user.places + (PlaceTemplate("P", Const(())),),
        initial_marking=user.initial_marking + (("P", MExpr(Const(0))),))
    assert validate_template(bad) == [Diagnostic(
        "sort-mismatch", "empty set literal has no sort", element="place P")]


def test_initial_marking_must_cover_every_place():
    user = build_user_template()
    assert validate_template(replace(user, initial_marking=())) == [
        Diagnostic("marking-incomplete",
                   f"initial marking does not cover place '{name}'",
                   element=f"place {name}")
        for name in ("Idle", "Req", "Dropped", "Failed")]


def test_marking_entry_must_be_a_marking_function():
    user = build_user_template()
    bad = replace(user, initial_marking=tuple(
        (name, Const(1) if name == "Idle" else fn)
        for name, fn in user.initial_marking))
    expected = Diagnostic("bad-marking", "not a marking function: "
                          "Const(value=1)", element="marking Idle")
    assert validate_template(bad) == [expected]
    with pytest.raises(ValidationError) as info:
        concretize(bad, USER_INTERNAL)
    assert info.value.diagnostics == [expected]
    # Called directly, the evaluator refuses it too.
    with pytest.raises(SantError) as info:
        marking_tokens_at(Const(1), 1, USER_INTERNAL)
    assert str(info.value) == "not a marking function: Const(value=1)"


def test_lookup_of_an_unknown_name_is_a_key_error():
    user = build_user_template()
    for lookup in (user.place, user.activity):
        with pytest.raises(KeyError) as info:
            lookup("Nope")
        assert info.value.args == ("Nope",)


def test_template_fire_refuses_a_disabled_activity():
    user = build_user_template()
    marking = dict(user.initial_marking_map(), Idle=MExpr(Const(0)))
    with pytest.raises(NotEnabled) as info:
        template_fire(user, marking, "Request", 1, USER_INTERNAL)
    assert str(info.value) == "activity 'Request' is not enabled"


def test_duplicate_and_colliding_names():
    user = build_user_template()
    dup = replace(user, places=user.places + (user.places[0],))
    assert "duplicate-name" in codes(validate_template(dup))
    clash = replace(
        user, places=user.places + (PlaceTemplate("Request", Const((1,))),),
        initial_marking=user.initial_marking + (("Request", MExpr(Const(0))),))
    assert "name-collision" in codes(validate_template(clash))


# -- marking template functions ----------------------------------------------

def test_marking_fn_forms():
    env = {"j": 6, "J": (1, 2)}
    assert marking_tokens_at(MExpr(Const(4)), 9, env) == 4
    at = MSetOn(Apply("setlit", (Param("j", Sort.INT),)), Const(1))
    assert marking_tokens_at(at, 6, env) == 1
    assert marking_tokens_at(at, 7, env) == 0
    on = MSetOn(Param("J", Sort.SET_INT), Const(2))
    assert marking_tokens_at(on, 1, env) == 2
    assert marking_tokens_at(on, 3, env) == 0
    expr = MExpr(parse_term("3 * <PLACE>", {}, allow_place=True))
    assert marking_tokens_at(expr, 2, env) == 6
    table = MTable.of({1: 5})
    assert marking_tokens_at(table, 1, env) == 5
    assert marking_tokens_at(table, 2, env) == 0


def test_marking_fn_rejects_negative():
    # A marking function yields what its term gives; a negative count is
    # refused by validate_san's negative-marking rule, which the template
    # applies only to a closed value.
    expr = MExpr(parse_term("<PLACE> - 5", {}, allow_place=True))
    assert marking_tokens_at(expr, 1, {}) == -4
    user = build_user_template()
    marked = dict(user.initial_marking, Idle=expr)
    template = replace(user, initial_marking=tuple(marked.items()))
    assert validate_template(template) == []
    diags = validate_san(concretize(template, USER_INTERNAL))
    assert [(d.code, d.message) for d in diags] == [
        ("negative-marking", "initial marking of 'Idle_1' is -4")]


def test_place_index_values_validation():
    from santkit.errors import DuplicateIndex, EvalError
    pt = PlaceTemplate("P", Param("m", Sort.SET_INT))
    assert place_index_values(pt, {"m": (5, 2)}) == [5, 2]
    with pytest.raises(DuplicateIndex):
        place_index_values(pt, {"m": (1, 1)})
    with pytest.raises(EvalError):
        place_index_values(pt, {"m": (0, 2)})


def test_gate_rule_underflow_raises():
    geo = build_geo_template()
    arc = geo.input_gates[1]   # GEOtoGEO_R, subtract 1 from GEO
    marking = {"GEO": MTable.of({1: 0}), "Working_S": MTable.of({})}
    with pytest.raises(NegativeMarking):
        apply_gate_rules(geo, arc, marking,
                         {"n": (1,), "lambda_f": 1.0, "lambda_r": 1.0})


# -- variability classification ----------------------------------------------

def test_unary_multiplicity_detection():
    user = build_user_template()
    assert is_unary_multiplicity(user.place("Idle"))
    assert not is_unary_multiplicity(user.place("Req"))


def test_variable_case_detection():
    user = build_user_template()
    assert has_variable_cases(user.activity("Request"))
    assert not has_variable_cases(user.activity("Fail"))
    tmi = build_tmi_template()
    assert has_variable_cases(tmi.activity("SW_F"))


def test_every_template_symbol_has_a_home():
    # The whole parametric tuple is representable: parameters, place and
    # activity templates, both gate sets with their activity maps, case
    # counts, kinds, case/time assignments, initial marking.
    user = build_user_template()
    assert dict(user.parameters) == {"s": Sort.SET_INT, "pb": Sort.SET_REAL}
    assert [p.name for p in user.places] == ["Idle", "Req", "Dropped",
                                             "Failed"]
    assert [a.name for a in user.activities] == ["Request", "Fail", "Drop"]
    assert [(g.name, g.activity) for g in user.input_gates] == [
        ("IGRequest", "Request"), ("ArcInFail", "Fail"),
        ("ArcInDrop", "Drop")]
    assert [(g.name, g.activity) for g in user.output_gates] == [
        ("OGRequest", "Request"), ("ArcOutFail", "Fail"),
        ("ArcOutDrop", "Drop")]
    request = user.activity("Request")
    assert request.kind == ActivityKind.TIMED
    assert request.time_distribution.family == "uniform"
    assert dict(user.initial_marking)["Idle"] == MExpr(Const(1))


def test_geo_template_structure():
    geo = build_geo_template()
    assert dict(geo.parameters) == {"n": Sort.SET_INT,
                                    "lambda_f": Sort.REAL,
                                    "lambda_r": Sort.REAL}
    assert [p.name for p in geo.places] == ["GEO", "Working_S"]
    assert geo.place("GEO").multiplicity == Const((1,))
    assert geo.place("Working_S").multiplicity == \
        parse_term("n", dict(geo.parameters))
    assert [(g.name, g.activity) for g in geo.input_gates] == [
        ("IG_GF", "GEO_F"), ("GEOtoGEO_R", "GEO_R")]
    assert [(g.name, g.activity) for g in geo.output_gates] == [
        ("OG_GR", "GEO_R"), ("GEO_FtoGEO", "GEO_F")]
    assert geo.activity("GEO_F").time_distribution.family == "exponential"


def test_tmi_template_structure():
    tmi = build_tmi_template()
    assert [name for name, _ in tmi.parameters] == \
        ["k", "J", "p_TMI", "lambda_f", "lambda_r"]
    params = dict(tmi.parameters)
    assert tmi.place("Working_S").multiplicity == \
        parse_term("J union {k}", params)
    assert tmi.activity("SW_F").cases == \
        parse_term("1 + (p_TMI > 0.0)", params)
    assert tmi.activity("SW_R").cases == Const(1)
    assert [g.arc_label for g in tmi.input_gates] == \
        ["[k >= 1] -1", "[k >= 1] -1"]
    assert tmi.output_gates[1].arc_label == "k -> +1"
