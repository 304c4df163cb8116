"""The ``.sanx`` writer: ``dumps`` writes one line of JSON plus a newline,
in pieces that join to exactly ``json.dumps``'s text, and an instance
round-trips through it in either layout."""

from __future__ import annotations

import gc
import json
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from santkit.concretize import concretize
from santkit.fixtures import USER_INTERNAL, build_user_template
from santkit.jsonio import dumps, json_to_san, san_to_json
from santkit.modelfile import (coerce_assignment, load_assignments,
                               load_template, template_to_json)
from santkit.record import replace
from santkit.sancore import (Activity, ActivityKind, ConcreteSan, Dist,
                             InputGate, OutputGate, PredAnd, PredLeaf,
                             PredNot, PredOr, Update)

MODELS = resources.files("santkit") / "models"
STEMS = ("geo", "tmi", "user")


@pytest.mark.parametrize("doc", [{(1, 2): 0}, [object()], {"k": {1, 2}}])
def test_dumps_refuses_what_json_refuses(doc):
    with pytest.raises(TypeError):
        json.dumps(doc)
    with pytest.raises(TypeError):
        dumps(doc)


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                     st.text())
_VALUES = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3), max_leaves=10)
# A list whose first item is a container and whose later items are scalars.
_MIXED = st.builds(lambda first, rest: [first, *rest],
                   st.lists(_SCALARS, max_size=2)
                   | st.dictionaries(st.text(), _SCALARS, max_size=2),
                   st.lists(_SCALARS, max_size=3))


@given(st.dictionaries(st.text(), _VALUES | _MIXED, max_size=5))
@example({})
@example({"gates": [{"when": None, "on": True}, -0.0, -7, "x"],
          "nested": [[], {}, [[{}]], {"": {"a": []}}],
          "n\u00e9\u2603\U0001f600": ["\x00\x1f\x7f\"\\\n\u2028"],
          "floats": [[float("nan")], float("inf"), float("-inf"), -0.0],
          "": {"k": -(10 ** 30), "b": False}})
def test_pieces_join_to_json_dumps(doc):
    assert "".join(dumps(doc)) == json.dumps(doc) + "\n"


def test_writer_peak_memory_is_a_small_multiple_of_its_output():
    # Before Python 3.12, ``json``'s C encoder holds one str per token of
    # what it encodes: 7.6 times the output for the whole User document at
    # |s| = 1000.  Encoded item by item it is about 3.1 times on 3.10 and
    # 3.11 (the largest item is one gate with a 1,000-leaf predicate), and
    # 1.1 times from 3.12 on.
    size = 1000
    doc = san_to_json(concretize(build_user_template(), {
        "s": tuple(range(1, size + 1)), "pb": (1 / size,) * size}))
    gc.collect()
    tracemalloc.start()
    try:
        pieces = dumps(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * len("".join(pieces))


def _bundled_instances():
    for stem in STEMS:
        template = load_template(str(MODELS / f"{stem}.sant")).template
        raw = load_assignments(str(MODELS / f"{stem}.sasg"))
        for name, assignment in raw.items():
            yield pytest.param(template, assignment, id=f"{stem}/{name}")


def _assert_one_line_of_the_same_json(doc) -> None:
    text = "".join(dumps(doc))
    assert text.endswith("\n") and "\n" not in text[:-1]
    assert json.loads(text) == json.loads(json.dumps(doc, indent=2))


@pytest.mark.parametrize("template, assignment", list(_bundled_instances()))
def test_dumps_matches_json_on_bundled_instances(template, assignment):
    _assert_one_line_of_the_same_json(san_to_json(concretize(
        template, coerce_assignment(template, assignment))))


@pytest.mark.parametrize("stem", STEMS)
def test_dumps_matches_json_on_bundled_templates(stem):
    _assert_one_line_of_the_same_json(template_to_json(
        load_template(str(MODELS / f"{stem}.sant")).template))


@pytest.mark.parametrize("template, assignment", list(_bundled_instances()))
def test_indented_and_one_line_instances_read_equal(template, assignment):
    # ``.sanx`` files written in the earlier indented layout still load.
    san = concretize(template, coerce_assignment(template, assignment))
    doc = san_to_json(san)
    assert json_to_san(json.loads(json.dumps(doc, indent=2))) == san
    assert json_to_san(json.loads("".join(dumps(doc)))) == san


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
    return replace(
        san,
        input_gates=tuple(replace(g, places=tuple(list(g.places)))
                          for g in san.input_gates),
        output_gates=tuple(replace(g, places=tuple(list(g.places)))
                           for g in san.output_gates))


@pytest.mark.parametrize("template, assignment", list(_bundled_instances()))
def test_place_lists_depend_only_on_the_instance_value(template, assignment):
    san = concretize(template, coerce_assignment(template, assignment))
    fresh = _with_fresh_place_tuples(san)
    assert fresh == san
    assert "".join(dumps(san_to_json(fresh))) == \
        "".join(dumps(san_to_json(san)))


def test_gates_index_the_place_lists_in_first_use_order():
    doc = json.loads("".join(dumps(san_to_json(
        concretize(build_user_template(), USER_INTERNAL)))))
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
    assert "".join(dumps(san_to_json(san))) == \
        "".join(dumps(san_to_json(expected)))


def _user_sanx_bytes(size: int) -> int:
    services = tuple(range(1, size + 1))
    san = concretize(build_user_template(),
                     {"s": services, "pb": (1 / size,) * size})
    return len("".join(dumps(san_to_json(san))).encode())


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
                      PredAnd((PredAnd(()),
                               PredNot(PredLeaf("b", ">=", 3)),
                               PredOr((PredLeaf("a", ">", 0),
                                       PredOr(()))))),
                      (Update("a", "sub", 1),)),
            InputGate("IG_i", "i", (), PredNot(PredAnd(())), ())),
        output_gates=(
            OutputGate("OG_t_1", "t", 1, ("a", "b"),
                       (Update("b", "add", 1, when=("<", 3)),)),
            OutputGate("OG_t_2", "t", 2, ("a", "b"),
                       (Update("a", "set", 0),))),
        initial_marking=(("a", 1), ("b", 0)))
    assert json_to_san(json.loads("".join(dumps(san_to_json(san))))) == san


def _user_doc() -> dict:
    return json.loads("".join(dumps(san_to_json(
        concretize(build_user_template(), USER_INTERNAL)))))


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
