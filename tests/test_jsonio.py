"""The ``.sanx`` writer: ``dumps`` emits exactly ``json.dumps(indent=2)``
plus a newline, and an instance round-trips through it."""

from __future__ import annotations

import dataclasses
import json
import math
from importlib import resources
from pathlib import Path

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
    st.sampled_from([-0.0, 1e16, 1e-7, 1e300, 2 ** 70, -2 ** 70, math.nan,
                     math.inf, -math.inf]),
    st.lists(st.booleans(), max_size=3),
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
        raw = load_assignments(str(MODELS / f"{stem}.sasg"))
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
    assert len(set(request)) == 1
    assert doc["place_lists"][request[0]] == ["Req_1", "Req_6", "Req_7"]
    assert doc["place_lists"].count(["Req_1", "Req_6", "Req_7"]) == 1


def _with_fresh_place_tuples(san: ConcreteSan) -> ConcreteSan:
    """``san`` with every gate's places in a tuple object of its own."""
    return dataclasses.replace(
        san,
        input_gates=tuple(dataclasses.replace(g, places=tuple(list(g.places)))
                          for g in san.input_gates),
        output_gates=tuple(dataclasses.replace(g, places=tuple(list(g.places)))
                           for g in san.output_gates))


@pytest.mark.parametrize("template, assignment", list(_bundled_instances()))
def test_place_lists_depend_only_on_the_instance_value(template, assignment):
    san = concretize(template, coerce_assignment(template, assignment))
    fresh = _with_fresh_place_tuples(san)
    assert fresh == san
    assert dumps(san_to_json(fresh)) == dumps(san_to_json(san))


def test_gates_index_the_place_lists_in_first_use_order():
    doc = json.loads(dumps(san_to_json(
        concretize(build_user_template(), USER_INTERNAL))))
    gates = doc["input_gates"] + doc["output_gates"]
    first_use = list(dict.fromkeys(g["places"] for g in gates))
    assert first_use == list(range(len(doc["place_lists"])))
    # The reader gives every gate that names one entry that entry's tuple.
    san = json_to_san(doc)
    tuples = {}
    for gate, read in zip(gates, san.input_gates + san.output_gates):
        assert list(read.places) == doc["place_lists"][gate["places"]]
        assert tuples.setdefault(gate["places"], read.places) is read.places


INSTANCE_1 = Path(__file__).parent / "data" / "TmiPair.instance1.sanx"


def _tmi_pair() -> ConcreteSan:
    template = load_template(str(MODELS / "tmi.sant")).template
    raw = load_assignments(str(MODELS / "tmi.sasg"))["TmiPair"]
    return concretize(template, coerce_assignment(template, raw),
                      name="TmiPair")


def test_schema_1_file_loads_equal_with_shared_place_tuples():
    # Written by the schema-1 writer: every gate lists its places inline.
    doc = json.loads(INSTANCE_1.read_text())
    assert doc["schema"] == "santkit-instance/1"
    assert "place_lists" not in doc
    san = json_to_san(doc)
    expected = _tmi_pair()
    assert san == expected
    # Equal inline lists map to one tuple, as concretize's gates share one.
    for read, made in ((san.output_gates, expected.output_gates),
                       (san.input_gates, expected.input_gates)):
        assert [[b.places is a.places for b in read] for a in read] == \
            [[b.places is a.places for b in made] for a in made]
    assert any(a is not b and a.places is b.places
               for a in san.output_gates for b in san.output_gates)
    assert dumps(san_to_json(san)) == dumps(san_to_json(expected))


def _user_sanx_bytes(size: int) -> int:
    services = tuple(range(1, size + 1))
    san = concretize(build_user_template(),
                     {"s": services, "pb": (1 / size,) * size})
    return len(dumps(san_to_json(san)).encode())


def test_sanx_bytes_grow_linearly_in_the_services():
    # Each Request case's output gate names all |s| Req places; the
    # place-list table writes that list once, so the bytes per added
    # service stay the same (a copy per gate would double them here).
    sizes = {n: _user_sanx_bytes(n) for n in (50, 100, 200)}
    low = (sizes[100] - sizes[50]) / 50
    high = (sizes[200] - sizes[100]) / 100
    assert abs(high - low) <= 0.05 * low


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


def _user_doc() -> dict:
    return json.loads(dumps(san_to_json(
        concretize(build_user_template(), USER_INTERNAL))))


def _instance_1_doc() -> dict:
    return json.loads(INSTANCE_1.read_text())


@pytest.mark.parametrize("load, at, items, message", [
    (_instance_1_doc, ("output_gates", 0, "places"), ["a", "b", 3, None],
     "$.output_gates[0].places[2]: expected string"),
    (_user_doc, ("place_lists", 0), ["a", "b", 3, None],
     "$.place_lists[0][2]: expected string"),
    (_user_doc, ("output_gates", 0, "effect"), [{}, [], 1],
     "$.output_gates[0].effect[1]: expected object"),
], ids=["places", "place_lists", "effect"])
def test_list_items_report_the_first_failing_path(load, at, items, message):
    from santkit.errors import SantError
    doc = load()
    node = doc
    for key in at[:-1]:
        node = node[key]
    node[at[-1]] = items
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
