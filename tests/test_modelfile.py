"""Model file format and JSON interchange round-trips."""

from __future__ import annotations

import json
from importlib import resources

import pytest

from santkit.arclabel import parse_input_label
from santkit.concretize import concretize
from santkit.errors import ParseError
from santkit.fixtures import (USER_INTERNAL, build_geo_template,
                              build_tmi_template, build_user_template)
from santkit.jsonio import dumps, json_to_san, san_to_json
from santkit.modelfile import (assignments_to_text, coerce_assignment,
                               load_assignments, load_template,
                               parse_assignments_text, parse_template_text,
                               pred_to_text, template_to_text)
from santkit.sancore import fire
from santkit.template import (marking_tokens_at, template_fire,
                              validate_template)

MODELS = resources.files("santkit") / "models"

BUILDERS = {
    "user": build_user_template,
    "geo": build_geo_template,
    "tmi": build_tmi_template,
}


@pytest.mark.parametrize("stem", sorted(BUILDERS))
def test_bundled_file_matches_builder(stem):
    doc = load_template(str(MODELS / f"{stem}.sant"))
    assert doc.template == BUILDERS[stem]()


@pytest.mark.parametrize("stem", sorted(BUILDERS))
def test_dsl_round_trip(stem):
    template = BUILDERS[stem]()
    text = template_to_text(template)
    assert parse_template_text(text).template == template


def test_instance_json_round_trip():
    san = concretize(build_user_template(), USER_INTERNAL,
                     name="UserInternal")
    doc = json.loads(dumps(san_to_json(san)))
    assert json_to_san(doc) == san


def test_spans_recorded():
    doc = load_template(str(MODELS / "user.sant"))
    assert doc.spans["place Req"][0] > 1
    assert "gate OGRequest" in doc.spans
    assert "activity Request" in doc.spans


def test_parse_error_position_on_truncated_file(tmp_path):
    text = (MODELS / "user.sant").read_text()
    with pytest.raises(ParseError) as err:
        parse_template_text(text[: len(text) // 2])
    assert err.value.line > 1
    # Loaded from a file, the same error also names the file.
    path = tmp_path / "truncated.sant"
    path.write_text(text[: len(text) // 2])
    with pytest.raises(ParseError) as loaded:
        load_template(str(path))
    assert (loaded.value.line, loaded.value.column) == \
        (err.value.line, err.value.column)
    assert str(loaded.value) == f"{path}:{err.value}"


def test_parse_error_on_bad_sort():
    with pytest.raises(ParseError) as err:
        parse_template_text("template T\nparams { x : float }")
    assert err.value.line == 2
    assert err.value.expected


def _gate_text(body: str) -> str:
    return ("template T\nparams { }\nplaces { Idle = {1} }\n"
            "activities { instantaneous A }\n"
            f"gates {{ input G : A {{ places = Idle  {body} }} }}\n")


@pytest.mark.parametrize("parse, text, message", [
    (parse_template_text,
     _gate_text("enabled = Idle[1] >= 1  effect = Idle[1] *= 1"),
     "5:79: found '*' (expected ':=', '+=', '-=')"),
    (parse_template_text, _gate_text("enabled = Idle[1] < 1"),
     "5:56: found '<' (expected '=', '>', '>=')"),
    (lambda text: parse_input_label(text, {}),
     "[forall < 1] 0", "1:9: found '<' (expected '=', '>', '>=')"),
    (parse_template_text,
     "template T\nparams { }\nplaces { P = {1} }\n"
     "activities { instantaneous A }\n"
     'arcs { input G : P -> A label "[forall < 1] 0" }\n',
     "5:14: in label of arc 'G': 1:9: found '<' (expected '=', '>', '>=')"),
    (parse_template_text,
     "template T\nparams { }\nplaces { }\n"
     "activities { instantaneous A { cases = 2 cases = 1 } }\n",
     "4:42: activity 'A' sets 'cases' twice"),
    (parse_template_text,
     "template T\nparams { }\nplaces { }\nactivities {\n  timed A {\n"
     "    time = exponential(1.0)\n    time = deterministic(2.0)\n  }\n}\n",
     "7:5: activity 'A' sets 'time' twice"),
    (parse_template_text,
     "template T\nparams { }\nplaces { }\n"
     "activities { instantaneous A { prob = 1.0 prob = 0.5 } }\n",
     "4:43: activity 'A' sets 'prob' twice"),
    (parse_template_text,
     _gate_text("enabled = Idle[1] >= 1  enabled = Idle[1] >= 0"),
     "5:62: gate 'G' sets 'enabled' twice"),
    (parse_template_text,
     "template T\nparams { }\nplaces { P = {1} }\nmarking { P = 1  P = 3 }\n",
     "4:18: place 'P' marked twice"),
    (parse_assignments_text,
     "assignments {\n  A { s = {1, 2} pb = {0.5, 0.5} s = {3} }\n}",
     "2:34: parameter 's' bound twice in assignment 'A'"),
], ids=["effect-sign", "comparison", "label-comparison",
        "arc-label-comparison", "repeated-cases", "repeated-time",
        "repeated-prob", "repeated-enabled", "repeated-marking",
        "repeated-binding"])
def test_gate_vocabulary_parse_errors(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


def test_unknown_arc_target_reports_position():
    text = """template T
params { }
places { P = {1} }
activities { instantaneous A }
arcs { input G : Nope -> A }
"""
    with pytest.raises(ParseError) as err:
        parse_template_text(text)
    assert "Nope" in str(err.value)
    assert err.value.line == 5


_ARC_BEFORE_GATE = """template T
params { }
places { P = {1} }
activities { instantaneous A }
arcs { input In : P -> A }
gates {
  input Set : A { places = P  enabled = P[1] >= 0  effect = P[1] := 5 }
}
marking { P = 1 }
"""


def test_arcs_and_gates_apply_in_declaration_order():
    # The arc's gate takes the token first; the gate declared after it then
    # sets the count, so firing A leaves 5 tokens, not 4.
    template = parse_template_text(_ARC_BEFORE_GATE).template
    assert [g.name for g in template.input_gates] == ["In", "Set"]
    san = concretize(template, {})
    assert fire(san, san.initial_marking_dict(), "A", 1) == {"P_1": 5}
    fired = template_fire(template, template.initial_marking_map(), "A", 1,
                          {})
    assert marking_tokens_at(fired["P"], 1, {}) == 5
    assert parse_template_text(template_to_text(template)).template == \
        template


def test_validator_uses_parsed_template():
    text = """template T
params { }
places { P = {1} }
activities { instantaneous A }
gates {
  input G : Missing {
    places = P
    enabled = all P >= 1
    effect = P[all] -= 1
  }
}
"""
    doc = parse_template_text(text)
    diags = validate_template(doc.template)
    assert any(d.code == "dangling-gate" for d in diags)


def test_assignment_file_and_coercion():
    sets = load_assignments(str(MODELS / "user.sasg"))
    assert sets["UserInternal"] == {"s": (1, 6, 7), "pb": (0.7, 0.2, 0.1)}
    assert sets["UserPress"] == {"s": (3, 7), "pb": (0.6, 0.4)}
    user = build_user_template()
    coerced = coerce_assignment(user, {"s": (1, 2), "pb": (1, 0)})
    assert coerced["pb"] == (1.0, 0.0)


def test_assignment_round_trip():
    sets = load_assignments(str(MODELS / "tmi.sasg"))
    assert parse_assignments_text(assignments_to_text(sets)) == sets


def test_assignment_literals():
    doc = parse_assignments_text(
        'assignments { A { x = -2  y = 1.5  z = true  s = {}  t = {1, 2.5} } }')
    values = doc["A"]
    assert values == {"x": -2, "y": 1.5, "z": True, "s": (),
                      "t": (1.0, 2.5)}


def test_duplicate_assignment_name_rejected():
    with pytest.raises(ParseError):
        parse_assignments_text("assignments { A { } A { } }")


def test_empty_label_round_trips_through_text():
    template = build_geo_template()
    text = template_to_text(template)
    assert 'label ""' not in text
    assert parse_template_text(text).template == template


def test_schema_version_checked():
    from santkit.errors import SantError
    with pytest.raises(SantError):
        json_to_san({"schema": "nope"})


def test_multi_entry_prob_with_default_round_trips():
    import dataclasses
    from santkit.template import CaseEntry
    from santkit.terms import Const, parse_term
    tmi = build_tmi_template()
    sw_f = tmi.activities[0]
    entries = (sw_f.case_distribution[0],
               CaseEntry(None, Const(0.0)))
    mutated = dataclasses.replace(
        tmi, activities=(dataclasses.replace(
            sw_f, case_distribution=entries),
            tmi.activities[1]))
    text = template_to_text(mutated)
    assert "default:" in text
    assert parse_template_text(text).template == mutated


def test_random_template_round_trip_fuzz():
    import random
    from santkit.arclabel import print_input_label, print_output_label
    from test_arclabel import _gen_input_spec, _gen_output_spec

    rng = random.Random(20250810)
    for round_no in range(200):
        text = _random_template_text(rng)
        doc = parse_template_text(text)
        canon = template_to_text(doc.template)
        again = parse_template_text(canon)
        assert again.template == doc.template, (round_no, text, canon)


@pytest.mark.parametrize("enabled, printed", [
    ("(all Idle >= 1 or Idle[1] = 0) or exists Idle > 1",
     "(all Idle >= 1 or Idle[1] = 0) or exists Idle > 1"),
    ("all Idle >= 1 and ((Idle[1] = 0 and (exists Idle > 1)))",
     "all Idle >= 1 and (Idle[1] = 0 and exists Idle > 1)"),
    ("not (Idle[1] = 0 or all Idle > 1 and exists Idle = 2) or Idle[2] > 0",
     "not (Idle[1] = 0 or all Idle > 1 and exists Idle = 2) or Idle[2] > 0"),
])
def test_nested_connectives_keep_their_parentheses(enabled, printed):
    # "(a or b) or c" is two nested nodes; printed flat it would read back
    # as one node of three arguments.
    template = parse_template_text(
        _gate_text(f"enabled = {enabled}  effect = Idle[1] -= 1")).template
    assert pred_to_text(template.input_gates[0].predicate) == printed
    assert parse_template_text(template_to_text(template)).template == \
        template


def _random_template_text(rng):
    from santkit.arclabel import print_input_label, print_output_label
    from test_arclabel import _gen_input_spec, _gen_output_spec

    n_places = rng.randint(1, 3)
    places = [f"P{i}" for i in range(1, n_places + 1)]
    mults = {p: rng.choice(["{1}", "s", "{2, 5}", "s union {k}"])
             for p in places}
    n_acts = rng.randint(1, 2)
    acts = [f"A{i}" for i in range(1, n_acts + 1)]
    lines = ["template Fuzz", "",
             "params { s : set<int>  k : int }", "places {"]
    for p in places:
        lines.append(f"  {p} = {mults[p]}")
    lines.append("}")
    lines.append("activities {")
    for a in acts:
        if rng.random() < 0.5:
            lines.append(f"  timed {a} {{ time = exponential(2.0) }}")
        else:
            lines.append(f"  instantaneous {a}")
    lines.append("}")
    lines.append("arcs {")
    for i, a in enumerate(acts):
        p = rng.choice(places)
        label = print_input_label(_gen_input_spec(rng)).replace('"', "")
        lines.append(f'  input In{i} : {p} -> {a} label "{label}"')
        q = rng.choice(places)
        olabel = print_output_label(_gen_output_spec(rng)).replace('"', "")
        lines.append(f'  output Out{i} : {a} -> {q} label "{olabel}"')
    lines.append("}")
    if rng.random() < 0.7:
        gate_places = ", ".join(places)
        effect = " ; ".join(_random_rule(rng, places)
                            for _ in range(rng.randint(1, 3)))
        lines.append("gates {")
        lines.append(f"""  input GX : {acts[0]} {{
    places = {gate_places}
    enabled = {_random_predicate(rng, places)}
    effect = {effect}
  }}""")
        lines.append("}")
    marked = [p for p in places if rng.random() < 0.5]
    if marked:
        lines.append("marking {")
        for p in marked:
            lines.append(f"  {p} = {rng.randint(1, 3)}")
        lines.append("}")
    return "\n".join(lines)


def _random_predicate(rng, places, depth=0):
    """Gate predicate text over every quantifier and connective, with
    redundant parentheses now and then."""
    roll = rng.random()
    if depth < 3 and roll < 0.45:
        op = rng.choice(["and", "or"])
        text = f" {op} ".join(_random_predicate(rng, places, depth + 1)
                              for _ in range(rng.randint(2, 3)))
    elif depth < 3 and roll < 0.6:
        text = f"not {_random_predicate(rng, places, depth + 1)}"
    else:
        place = rng.choice(places)
        lhs = rng.choice([f"all {place}", f"exists {place}", f"{place}[k]",
                          f"{place}[{rng.randint(1, 6)}]"])
        cmp = rng.choice(["=", ">", ">="])
        text = f"{lhs} {cmp} {rng.choice(['0', '1', 'k', '<PLACE>'])}"
    return f"({text})" if rng.random() < 0.4 else text


def _random_rule(rng, places):
    sel = rng.choice(["all", "sat", "k", "2", "except k", "except 1"])
    sign = rng.choice([":=", "+=", "-="])
    return f"{rng.choice(places)}[{sel}] {sign} {rng.choice(['1', '<PLACE>'])}"


def test_unknown_marking_place_is_flagged():
    text = """template T
params { }
places { P = {1} }
activities { instantaneous A }
arcs { input G : P -> A }
marking { Ghost = 2 }
"""
    doc = parse_template_text(text)
    diags = validate_template(doc.template)
    assert any(d.code == "unknown-place" and "Ghost" in d.message
               for d in diags)


_MARKING_FORMS = """template Marks

params {
  J : set<int>
  j : int
}

places {
  A = J
  B = J
  C = J
  D = {1}
  E = {1, 2, 3}
  F = J
  G = {1}
  H = {1, 2}
}

marking {
  A = at(j, 2)
  B = on({1, 3}, 4)
  C = expr(<PLACE> * 10)
  D = identity
  E = table(3: 5, 1: 2)
  F = expr(7)
  G = 3
  H = at(2, 1)
}
"""


def test_every_marking_form_projects_and_prints_canonically(tmp_path):
    path = tmp_path / "marks.sant"
    path.write_text(_MARKING_FORMS)
    template = load_template(str(path)).template
    assert validate_template(template) == []
    san = concretize(template, {"J": (1, 3, 5), "j": 3})
    assert san.initial_marking_dict() == {
        "A_1": 0, "A_3": 2, "A_5": 0,
        "B_1": 4, "B_3": 4, "B_5": 0,
        "C_1": 10, "C_3": 30, "C_5": 50,
        "D_1": 0,
        "E_1": 2, "E_2": 0, "E_3": 5,
        "F_1": 7, "F_3": 7, "F_5": 7,
        "G_1": 3,
        "H_1": 0, "H_2": 1}
    text = template_to_text(template)
    marking = text[text.index("marking {"):].splitlines()
    assert marking == ["marking {",
                       "  A = on({j}, 2)",
                       "  B = on({1, 3}, 4)",
                       "  C = expr(<PLACE> * 10)",
                       "  E = table(1: 2, 3: 5)",
                       "  F = 7",
                       "  G = 3",
                       "  H = on({2}, 1)",
                       "}"]
    assert parse_template_text(text).template == template


def test_duplicate_table_index_is_a_parse_error():
    text = ("template T\nparams { }\nplaces { P = {1} }\n"
            "marking { P = table(1: 4, 1: 5) }\n")
    with pytest.raises(ParseError) as err:
        parse_template_text(text)
    assert str(err.value) == "4:27: duplicate table index 1"
