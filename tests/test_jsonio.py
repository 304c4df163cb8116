"""The ``.sanx`` writer: ``dumps`` emits exactly ``json.dumps(indent=2)``
plus a newline, and an instance round-trips through it."""

from __future__ import annotations

import json
import math
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from santkit.concretize import concretize
from santkit.fixtures import USER_INTERNAL, build_user_template
from santkit.jsonio import dumps, json_to_san, san_to_json, template_to_json
from santkit.modelfile import (coerce_assignment, load_assignments,
                               load_template)
from santkit.sancore import (Activity, ActivityKind, ConcreteSan, Dist,
                             InputGate, OutputGate, PredAnd, PredConst,
                             PredLeaf, PredNot, PredOr, Update)

MODELS = resources.files("santkit") / "models"
STEMS = ("geo", "tmi", "user")


def _reference(value) -> str:
    return json.dumps(value, indent=2) + "\n"


TEXT = st.one_of(
    st.text(),
    st.sampled_from(["", "é", "Req_6", "\x00\x1f\n\t\"\\/", " ",
                     "\U0001d11e", "\ud800"]))
SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=-2 ** 200, max_value=2 ** 200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e300, math.nan, math.inf, -math.inf]),
    TEXT)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4)),
    max_leaves=25)


@given(VALUES)
def test_dumps_matches_json_indent_2(value):
    assert dumps(value) == _reference(value)


@given(st.lists(TEXT, max_size=4), VALUES)
def test_a_shared_list_renders_at_each_depth(shared, value):
    # The same list object twice at one depth and once deeper: a memo
    # keyed on the object alone would splice the shallow rendering in.
    doc = {"a": shared, "b": [shared, value], "c": {"d": [shared], "e": value},
           "f": (shared, shared)}
    assert dumps(doc) == _reference(doc)


def test_dumps_matches_json_on_non_str_keys():
    doc = {1: "int", -2: [], True: {}, False: 0, None: "null", 1.5: -0.0,
           math.nan: 1, math.inf: 2, "": {"nested": {3: [None]}}}
    assert dumps(doc) == _reference(doc)


@pytest.mark.parametrize("doc", [{(1, 2): 0}, [object()], {"k": {1, 2}}])
def test_dumps_refuses_what_json_refuses(doc):
    with pytest.raises(TypeError):
        _reference(doc)
    with pytest.raises(TypeError):
        dumps(doc)


def _bundled_instances():
    for stem in STEMS:
        template = load_template(str(MODELS / f"{stem}.sant")).template
        raw = load_assignments(str(MODELS / f"{stem}.sasg")).assignments
        for name, assignment in raw.items():
            yield pytest.param(template, assignment, id=f"{stem}/{name}")


@pytest.mark.parametrize("template, assignment", list(_bundled_instances()))
def test_dumps_matches_json_on_bundled_instances(template, assignment):
    doc = san_to_json(concretize(template,
                                 coerce_assignment(template, assignment)))
    assert dumps(doc) == _reference(doc)


@pytest.mark.parametrize("stem", STEMS)
def test_dumps_matches_json_on_bundled_templates(stem):
    doc = template_to_json(load_template(str(MODELS / f"{stem}.sant")).template)
    assert dumps(doc) == _reference(doc)


def test_equal_place_tuples_map_to_one_list():
    doc = san_to_json(concretize(build_user_template(), USER_INTERNAL))
    request = [g["places"] for g in doc["output_gates"]
               if g["activity"] == "Request"]
    assert len(request) == 3
    assert all(places is request[0] for places in request)
    assert request[0] == ["Req_1", "Req_6", "Req_7"]


def test_hand_built_instance_round_trips_through_dumps():
    san = ConcreteSan(
        name="Hand", places=("a", "b"),
        activities=(
            Activity("t", ActivityKind.TIMED, 2, (0.25, 0.75),
                     Dist("exponential", (1.5,))),
            Activity("i", ActivityKind.INSTANTANEOUS, 1, (1.0,))),
        input_gates=(
            InputGate("IG_t", "t", ("a", "b"),
                      PredAnd((PredConst(True),
                               PredNot(PredLeaf("b", ">=", 3)),
                               PredOr((PredLeaf("a", ">", 0),
                                       PredConst(False))))),
                      (Update("a", "sub", 1),)),
            InputGate("IG_i", "i", (), PredNot(PredConst(True)), ())),
        output_gates=(
            OutputGate("OG_t_1", "t", 1, ("a", "b"),
                       (Update("b", "add", 1, when=("<", 3)),)),
            OutputGate("OG_t_2", "t", 2, ("a", "b"),
                       (Update("a", "set", 0),))),
        initial_marking=(("a", 1), ("b", 0)))
    assert json_to_san(json.loads(dumps(san_to_json(san)))) == san


@pytest.mark.parametrize("field, items, message", [
    ("places", ["a", "b", 3, None], "$.output_gates[0].places[2]: "
                                    "expected string"),
    ("effect", [{}, [], 1], "$.output_gates[0].effect[1]: expected object"),
], ids=["places", "effect"])
def test_list_items_report_the_first_failing_path(field, items, message):
    from santkit.errors import SantError
    doc = json.loads(dumps(san_to_json(
        concretize(build_user_template(), USER_INTERNAL))))
    doc["output_gates"][0][field] = items
    with pytest.raises(SantError) as info:
        json_to_san(doc)
    assert str(info.value) == message


def test_list_items_are_typed_as_the_reader_types_one_value():
    # A bool is not a number; a subclass of an accepted type is accepted.
    from santkit.errors import SantError

    class Name(str):
        pass

    doc = san_to_json(concretize(build_user_template(), USER_INTERNAL))
    doc["activities"][0]["probs"] = [0.5, True]
    with pytest.raises(SantError, match=r"^\$\.activities\[0\]\.probs\[1\]: "
                                        r"expected number$"):
        json_to_san(doc)
    doc = san_to_json(concretize(build_user_template(), USER_INTERNAL))
    places = doc["places"] = [Name(p) for p in doc["places"]]
    assert json_to_san(doc).places == tuple(places)
