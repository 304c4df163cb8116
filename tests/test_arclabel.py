"""Label grammars: the documented examples, defaults, desugaring semantics
against a hand-written oracle, and corpus round-trips."""

from __future__ import annotations

import itertools
import random

import pytest

from santkit.arclabel import (Conditional, ExplicitInput, ImplicitSub,
                              OutAdd, OutSet, Unconditional,
                              desugar_input_arc, desugar_output_arc,
                              parse_input_label, parse_output_label,
                              print_input_label, print_output_label)
from santkit.errors import ParseError, SantError
from santkit.template import (ActivityKind, ActivityTemplate, CaseEntry,
                              MExpr, MTable, PlaceTemplate, SanTemplate,
                              apply_gate_rules, eval_gate_predicate,
                              marking_tokens_at, validate_template)
from santkit.terms import Apply, CaseIndex, Const, Param, PlaceIndex, Sort, parse_term

PARAMS = {"s": Sort.SET_INT, "k": Sort.INT}


def _activity(name="Act"):
    return ActivityTemplate(
        name=name, kind=ActivityKind.INSTANTANEOUS, cases=Const(1),
        case_distribution=(CaseEntry(None, Const(1.0)),))


def _template_with(place: PlaceTemplate, gate, is_input: bool):
    act = _activity()
    return SanTemplate(
        name="T", parameters=tuple(PARAMS.items()), places=(place,),
        activities=(act,),
        input_gates=(gate,) if is_input else (),
        output_gates=() if is_input else (gate,),
        initial_marking=((place.name, MExpr(Const(0))),))


# -- the examples from the format reference -----------------------------------

def test_add_three_times_index():
    spec = parse_output_label("+3<PLACE>", PARAMS)
    assert spec == Unconditional(OutAdd(Apply("*", (Const(3), PlaceIndex()))))


def test_conditional_with_else():
    spec = parse_output_label("1 -> +2 / 0", PARAMS)
    assert spec == Conditional(Const(1), OutAdd(Const(2)), OutSet(Const(0)))


def test_exists_zeroing():
    spec = parse_input_label("[exists = 1] 0", PARAMS)
    assert spec == ExplicitInput("exists", None, "=", Const(1), False, Const(0))


def test_case_indexed_target():
    spec = parse_output_label("s[<CASE>] -> +1", PARAMS)
    assert spec == Conditional(
        Apply("at", (Param("s", Sort.SET_INT), CaseIndex())),
        OutAdd(Const(1)), None)


def test_defaults():
    assert parse_output_label("", PARAMS) == Unconditional(OutAdd(Const(1)))
    assert parse_input_label("", PARAMS) == ImplicitSub(Const(1))
    assert parse_input_label("-2", PARAMS) == ImplicitSub(Const(2))
    assert parse_output_label("   ") == Unconditional(OutAdd(Const(1)))


def test_case_placeholder_rejected_on_input_side():
    with pytest.raises(ParseError):
        parse_input_label("-<CASE>", PARAMS)
    with pytest.raises(ParseError):
        parse_input_label("[exists = <CASE>] 0", PARAMS)


def test_label_sorts_belong_to_parser_and_validator():
    # The parser refuses a label term that is not an int; a hand-built spec
    # is desugared as given, and validate_template reports its gate.
    with pytest.raises(ParseError):
        parse_output_label("1 -> 1.5", PARAMS)
    with pytest.raises(ParseError):
        parse_input_label("[forall >= 1.5] 0", PARAMS)
    place = PlaceTemplate("P", parse_term("s", PARAMS))
    for gate, is_input in (
            (desugar_output_arc(Conditional(Const(1), OutSet(Const(1.5))),
                                "P", "Act", "G"), False),
            (desugar_input_arc(ExplicitInput("forall", None, ">=",
                                             Const(1.5), True, Const(1)),
                               "P", "Act", "G"), True)):
        diags = validate_template(_template_with(place, gate, is_input))
        assert "sort-mismatch" in {d.code for d in diags}, gate


# -- desugaring semantics against a hand-written oracle ----------------------

def _apply_output(label, indices, marking, case=1, assignment=None):
    """Desugar, apply at template level, return the marking as a dict."""
    assignment = dict(assignment or {}, idx=tuple(indices))
    params = dict(PARAMS, idx=Sort.SET_INT)
    place = PlaceTemplate("P", parse_term("idx", params))
    gate = desugar_output_arc(parse_output_label(label, params), "P", "Act",
                              "G")
    template = _template_with(place, gate, is_input=False)
    lifted = {"P": MTable.of(marking)}
    out = apply_gate_rules(template, gate, lifted, assignment,
                           case_index=case)
    return {i: marking_tokens_at(out["P"], i, assignment) for i in indices}


def test_conditional_else_oracle():
    indices = (1, 2, 3)
    for tokens in itertools.product(range(3), repeat=3):
        marking = dict(zip(indices, tokens))
        got = _apply_output("1 -> +2 / 0", indices, marking)
        expected = {1: marking[1] + 2, 2: 0, 3: 0}
        assert got == expected, marking


def test_conditional_without_else_leaves_others():
    got = _apply_output("2 -> 5", (1, 2, 3), {1: 4, 2: 0, 3: 1})
    assert got == {1: 4, 2: 5, 3: 1}


def test_unconditional_applies_to_every_instance():
    got = _apply_output("+3<PLACE>", (1, 2), {1: 0, 2: 1})
    assert got == {1: 3, 2: 7}


def test_empty_label_is_normal_output_arc():
    got = _apply_output("", (1,), {1: 0})
    assert got == {1: 1}


def test_case_indexed_label_targets_selected_service():
    for case, target in ((1, 1), (2, 6), (3, 7)):
        got = _apply_output("s[<CASE>] -> +1", (1, 6, 7),
                            {1: 0, 6: 0, 7: 0}, case=case,
                            assignment={"s": (1, 6, 7)})
        expected = {i: (1 if i == target else 0) for i in (1, 6, 7)}
        assert got == expected


def _input_gate(label, indices, assignment=None):
    assignment = dict(assignment or {}, idx=tuple(indices))
    params = dict(PARAMS, idx=Sort.SET_INT)
    place = PlaceTemplate("P", parse_term("idx", params))
    gate = desugar_input_arc(parse_input_label(label, params), "P", "Act",
                             "G")
    template = _template_with(place, gate, is_input=True)
    return template, gate, assignment


def test_implicit_sub_oracle():
    indices = (1, 6, 7)
    template, gate, assignment = _input_gate("-1", indices)
    for tokens in itertools.product(range(3), repeat=3):
        marking = {"P": MTable.of(dict(zip(indices, tokens)))}
        enabled = eval_gate_predicate(template, gate.predicate, marking,
                                      assignment)
        assert enabled == all(c >= 1 for c in tokens)
        if enabled:
            out = apply_gate_rules(template, gate, marking, assignment)
            got = [marking_tokens_at(out["P"], i, assignment) for i in indices]
            assert got == [c - 1 for c in tokens]


def test_implicit_sub_disabled_on_partial_marking():
    template, gate, assignment = _input_gate("-1", (1, 6, 7))
    marking = {"P": MTable.of({1: 1, 6: 0, 7: 1})}
    assert not eval_gate_predicate(template, gate.predicate, marking,
                                   assignment)


def test_exists_zeroing_oracle():
    indices = (1, 2, 3)
    template, gate, assignment = _input_gate("[exists = 1] 0", indices)
    for tokens in itertools.product(range(3), repeat=3):
        marking = {"P": MTable.of(dict(zip(indices, tokens)))}
        enabled = eval_gate_predicate(template, gate.predicate, marking,
                                      assignment)
        assert enabled == any(c == 1 for c in tokens)
        out = apply_gate_rules(template, gate, marking, assignment)
        got = [marking_tokens_at(out["P"], i, assignment) for i in indices]
        assert got == [0 if c == 1 else c for c in tokens]


def test_at_index_condition():
    template, gate, assignment = _input_gate("[k >= 1] -1", (1, 2),
                                             {"k": 2})
    marking = {"P": MTable.of({1: 0, 2: 3})}
    assert eval_gate_predicate(template, gate.predicate, marking, assignment)
    out = apply_gate_rules(template, gate, marking, assignment)
    assert marking_tokens_at(out["P"], 2, assignment) == 2
    assert marking_tokens_at(out["P"], 1, assignment) == 0


def test_at_index_out_of_expansion_is_false():
    template, gate, assignment = _input_gate("[k >= 1] -1", (1, 2),
                                             {"k": 9})
    marking = {"P": MTable.of({1: 5, 2: 5})}
    assert not eval_gate_predicate(template, gate.predicate, marking,
                                   assignment)


# -- generated corpus --------------------------------------------------------


def _gen_term(rng: random.Random, allow_case: bool, depth: int = 2):
    choices = ["const", "const", "k", "place"]
    if allow_case:
        choices.append("case")
    if depth > 0:
        choices += ["add", "mul", "at", "size"]
    kind = rng.choice(choices)
    if kind == "const":
        return Const(rng.randint(0, 9))
    if kind == "k":
        return Param("k", Sort.INT)
    if kind == "place":
        return PlaceIndex()
    if kind == "case":
        return CaseIndex()
    if kind == "add":
        return Apply(rng.choice(("+", "-")),
                     (_gen_term(rng, allow_case, depth - 1),
                      _gen_term(rng, allow_case, depth - 1)))
    if kind == "mul":
        return Apply("*", (_gen_term(rng, allow_case, depth - 1),
                           _gen_term(rng, allow_case, depth - 1)))
    if kind == "at":
        return Apply("at", (Param("s", Sort.SET_INT),
                            _gen_term(rng, allow_case, depth - 1)))
    return Apply("size", (Param("s", Sort.SET_INT),))


def _gen_out(rng: random.Random):
    term = _gen_term(rng, allow_case=True)
    return OutAdd(term) if rng.random() < 0.5 else OutSet(term)


def _gen_output_spec(rng: random.Random):
    roll = rng.random()
    if roll < 0.4:
        return Unconditional(_gen_out(rng))
    if roll < 0.7:
        return Conditional(_gen_term(rng, allow_case=True), _gen_out(rng), None)
    return Conditional(_gen_term(rng, allow_case=True), _gen_out(rng),
                       _gen_out(rng))


def _gen_input_spec(rng: random.Random):
    if rng.random() < 0.4:
        return ImplicitSub(_gen_term(rng, allow_case=False))
    quant = rng.choice(("forall", "exists", "at"))
    at_index = _gen_term(rng, allow_case=False) if quant == "at" else None
    return ExplicitInput(quant, at_index, rng.choice(("=", ">", ">=")),
                         _gen_term(rng, allow_case=False),
                         rng.random() < 0.5,
                         _gen_term(rng, allow_case=False))


def test_output_corpus_round_trip():
    rng = random.Random(1234)
    for _ in range(500):
        spec = _gen_output_spec(rng)
        text = print_output_label(spec)
        assert parse_output_label(text, PARAMS) == spec, text


def test_input_corpus_round_trip():
    rng = random.Random(4321)
    for _ in range(500):
        spec = _gen_input_spec(rng)
        text = print_input_label(spec)
        assert parse_input_label(text, PARAMS) == spec, text


def test_mutation_corpus_never_panics():
    """Token-mangled labels must either parse or fail with a positioned
    ParseError; nothing else may escape."""
    rng = random.Random(99)
    seeds = [print_output_label(_gen_output_spec(rng)) for _ in range(120)]
    seeds += [print_input_label(_gen_input_spec(rng)) for _ in range(120)]
    rejected = 0
    for text in seeds:
        for _ in range(4):
            mutant = _mutate(text, rng)
            for parse in (parse_output_label, parse_input_label):
                try:
                    parse(mutant, PARAMS)
                except ParseError as exc:
                    rejected += 1
                    assert exc.line >= 1 and exc.column >= 1
                except SantError as exc:  # pragma: no cover
                    raise AssertionError(
                        f"non-parse error for {mutant!r}: {exc!r}")
    assert rejected > 200


def _mutate(text: str, rng: random.Random) -> str:
    if not text:
        return "]"
    roll = rng.random()
    if roll < 0.4:
        i = rng.randrange(len(text))
        return text[:i] + text[i + 1:]
    if roll < 0.7 and len(text) >= 2:
        i, j = sorted(rng.sample(range(len(text)), 2))
        chars = list(text)
        chars[i], chars[j] = chars[j], chars[i]
        return "".join(chars)
    i = rng.randrange(len(text) + 1)
    return text[:i] + rng.choice("]/[->+") + text[i:]
