"""The simulator's execution plan against the reference interpreter.

``sim`` compiles an instance into slot markings, predicate closures and
flat update lists.  These tests check, marking by marking, that the plan's
``enabled_activities`` and ``fire`` agree with ``sancore.is_enabled`` and
``sancore.fire`` (results and errors), and that the plan keeps the module
names the layered benchmark in ``perfbench/`` wraps.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import santkit.sim as sim
from santkit.concretize import concretize
from santkit.errors import NegativeMarking, NotEnabled, SantError
from santkit.fixtures import (build_geo_template, build_tmi_template,
                              build_user_template)
from santkit.sancore import (COMPARISONS, Activity, ActivityKind,
                             ConcreteSan, Dist, InputGate, OutputGate,
                             PredAnd, PredConst, PredLeaf, PredNot, PredOr,
                             Update, fire, is_enabled, reachable_markings)
from santkit.sim import SimConfig, simulate

RATES = {"lambda_f": 1.0, "lambda_r": 2.0}
# Distinct case probabilities summing to one, by the number of services.
PB = {1: (1.0,), 2: (0.25, 0.75), 3: (0.2, 0.3, 0.5), 4: (0.1, 0.2, 0.3, 0.4)}


def _outcome(call):
    """What a firing gives: its marking, or the error's type and message."""
    try:
        return call()
    except SantError as exc:
        return type(exc), str(exc)


def _plan_fire(plan, san, marking, index, case):
    slots = [marking[p] for p in san.places]
    sim.fire(plan, slots, index, case)
    return dict(zip(san.places, slots))


def _assert_plan_agrees(san: ConcreteSan, max_states: int = 300) -> None:
    """On every reachable marking: the same enabled set, and the same
    outcome of every activity and case, including the out-of-range ones."""
    plan = sim._build_plan(san)
    markings, _ = reachable_markings(san, max_states=max_states)
    for marking in markings:
        slots = [marking[p] for p in san.places]
        assert sim.enabled_activities(plan, slots) == [
            a for a in san.activities if is_enabled(san, marking, a.name)]
        for index, act in enumerate(san.activities):
            for case in range(0, act.cases + 2):
                assert _outcome(
                    lambda: _plan_fire(plan, san, marking, index, case)) == \
                    _outcome(lambda: fire(san, marking, act.name, case))


def _int_sets(min_size: int, max_size: int):
    return st.sets(st.integers(1, 9), min_size=min_size,
                   max_size=max_size).map(lambda s: tuple(sorted(s)))


@settings(max_examples=25, deadline=None)
@given(n=_int_sets(1, 6))
def test_plan_agrees_on_geo(n):
    _assert_plan_agrees(concretize(build_geo_template(), {"n": n, **RATES}))


@settings(max_examples=25, deadline=None)
@given(k=st.integers(1, 6), J=_int_sets(0, 4),
       p_tmi=st.sampled_from((0.0, 0.3)))
def test_plan_agrees_on_tmi(k, J, p_tmi):
    _assert_plan_agrees(concretize(
        build_tmi_template(), {"k": k, "J": J, "p_TMI": p_tmi, **RATES}))


@settings(max_examples=25, deadline=None)
@given(s=_int_sets(1, 4), failed=st.integers(0, 2),
       dropped=st.integers(0, 2))
def test_plan_agrees_on_user(s, failed, dropped):
    # A supply of completion tokens lets Fail and Drop run their
    # when-guarded ``Req[sat] := 0``.
    san = concretize(build_user_template(), {"s": s, "pb": PB[len(s)]})
    supply = dict(san.initial_marking, Failed_1=failed, Dropped_1=dropped)
    _assert_plan_agrees(
        dataclasses.replace(san, initial_marking=tuple(supply.items())))


def test_plan_agrees_on_race():
    from test_golden import _race
    _assert_plan_agrees(_race())


# -- arbitrary gates on four places ------------------------------------------

PLACES = ("A", "B", "C", "D")
_values = st.integers(0, 2)
_leaves = st.builds(PredLeaf, st.sampled_from(PLACES),
                    st.sampled_from(sorted(COMPARISONS)), _values)
_predicates = st.recursive(
    st.one_of(_leaves, st.builds(PredConst, st.booleans())),
    lambda inner: st.one_of(
        st.builds(PredAnd, st.lists(inner, max_size=4).map(tuple)),
        st.builds(PredOr, st.lists(inner, max_size=4).map(tuple)),
        st.builds(PredNot, inner)),
    max_leaves=12)


def _bound(places, cmp: str, value: int) -> PredAnd:
    return PredAnd(tuple(PredLeaf(place, cmp, value) for place in places))


# Lower bounds sharing one value, which the plan checks in one pass.
_bounds = st.builds(
    _bound, st.lists(st.sampled_from(PLACES), min_size=2, max_size=4),
    st.sampled_from((">", ">=")), _values)
_updates = st.lists(st.builds(
    Update, st.sampled_from(PLACES), st.sampled_from(("set", "add", "sub")),
    _values, st.none() | st.tuples(st.sampled_from(sorted(COMPARISONS)),
                                   _values)), max_size=6).map(tuple)


def _shape(predicate: PredAnd, *tokens: int):
    return example(predicate=predicate, inputs=(), outputs=(),
                   tokens=list(tokens))


# The plan scans a lower bound's slots as one slice when they are
# consecutive and as an ``itemgetter`` otherwise, and tests ``0 not in``
# them for a one-token bound (> 0, >= 1) and their ``min`` otherwise.  These
# pin each shape at the ends of its range and just outside it.
@_shape(_bound("ABC", ">", 0), 0, 3, 3, 3)       # zero at the first slot
@_shape(_bound("ABC", ">", 0), 3, 3, 0, 3)       # zero at the last slot
@_shape(_bound("ABC", ">", 0), 3, 3, 3, 0)       # zero just past the range
@_shape(_bound("BCD", ">=", 1), 0, 1, 1, 1)      # zero just before it
@_shape(_bound("CABA", ">", 0), 1, 1, 0, 1)      # out of order, repeated
@_shape(_bound("BB", ">", 0), 1, 0, 1, 1)        # one place, repeated
@_shape(_bound("BC", ">=", 2), 0, 2, 1, 0)       # min, last slot low
@_shape(_bound("BC", ">=", 2), 1, 2, 2, 0)       # min, outside low
@_shape(_bound("ABCD", ">", 1), 1, 2, 2, 2)      # min, first slot low
@_shape(_bound("BB", ">=", 2), 0, 2, 0, 0)       # min, one place
@_shape(_bound("AC", ">", 0), 1, 0, 1, 0)        # gap: zeros not read
@_shape(_bound("DA", ">=", 1), 1, 1, 1, 0)       # gap: zero at the end
@_shape(_bound("AD", ">=", 2), 2, 0, 0, 2)       # min, gap not read
@_shape(_bound("DAD", ">", 1), 2, 3, 3, 1)       # min, gap, repeated
@settings(max_examples=300, deadline=None)
@given(predicate=_predicates | _bounds, inputs=_updates, outputs=_updates,
       tokens=st.lists(st.integers(0, 3), min_size=4, max_size=4))
def test_plan_agrees_on_arbitrary_gates(predicate, inputs, outputs, tokens):
    # Runs of sets on consecutive slots, out-of-order and repeated places,
    # guarded updates and markings driven negative, against the reference.
    san = ConcreteSan(
        name="gates", places=PLACES,
        activities=(Activity("T", ActivityKind.TIMED, 1, (1.0,),
                             Dist("exponential", (1.0,))),),
        input_gates=(InputGate("ig", "T", PLACES, predicate, inputs),),
        output_gates=(OutputGate("og", "T", 1, PLACES, outputs),),
        initial_marking=tuple(zip(PLACES, tokens)))
    plan = sim._build_plan(san)
    marking = dict(san.initial_marking)
    assert bool(sim.enabled_activities(plan, list(tokens))) == \
        is_enabled(san, marking, "T")
    for case in (0, 1, 2):
        assert _outcome(lambda: _plan_fire(plan, san, marking, 0, case)) == \
            _outcome(lambda: fire(san, marking, "T", case))


def test_plan_agrees_on_wide_geo():
    # GEO_F's bound reads 1000 consecutive Working_S slots: all up, then
    # exactly one of them empty at the first, a middle and the last slot.
    san = concretize(build_geo_template(),
                     {"n": tuple(range(1, 1001)), **RATES})
    plan = sim._build_plan(san)
    working = [p for p in san.places if p.startswith("Working_S_")]
    assert len(working) == 1000
    up = dict(san.initial_marking)
    assert all(up[p] == 1 for p in working)
    for empty in (None, working[0], working[500], working[-1]):
        marking = dict(up) if empty is None else dict(up, **{empty: 0})
        slots = [marking[p] for p in san.places]
        assert sim.enabled_activities(plan, slots) == [
            a for a in san.activities if is_enabled(san, marking, a.name)]
        assert [a.name for a in sim.enabled_activities(plan, slots)] == \
            ([] if empty else ["GEO_F"])


# -- errors on the simulate path ---------------------------------------------

def _overdraw() -> ConcreteSan:
    """A timed activity enabled at P = 0 whose input gate takes a token."""
    return ConcreteSan(
        name="overdraw", places=("P",),
        activities=(Activity("Take", ActivityKind.TIMED, 1, (1.0,),
                             Dist("exponential", (1.0,))),),
        input_gates=(InputGate("g", "Take", ("P",), PredLeaf("P", ">=", 0),
                               (Update("P", "sub", 1),)),),
        output_gates=(), initial_marking=(("P", 0),))


def test_simulate_reports_negative_marking():
    with pytest.raises(NegativeMarking) as info:
        simulate(_overdraw(), SimConfig(seed=1, horizon=10.0))
    assert str(info.value) == "gate 'g' drives place 'P' to -1"


def test_plan_fire_refuses_as_the_reference_does():
    from test_golden import _race
    san = _race()
    plan = sim._build_plan(san)
    held = dict(san.initial_marking, Tok_1=0, Held_1=1)
    slots = [held[p] for p in san.places]
    for name, case, message in (
            ("Fast", 1, "activity 'Fast' is not enabled"),
            ("Return", 3, "activity 'Return' has no case 3"),
            ("Return", 0, "activity 'Return' has no case 0")):
        index = [a.name for a in san.activities].index(name)
        with pytest.raises(NotEnabled) as ours:
            sim.fire(plan, slots, index, case)
        with pytest.raises(NotEnabled) as reference:
            fire(san, held, name, case)
        assert str(ours.value) == str(reference.value) == message
    assert slots == [0, 1]


# -- the boundaries the benchmark measures -----------------------------------

SHIM = Path(__file__).resolve().parents[1] / "perfbench" / "shim.py"


def _shim_targets() -> tuple[tuple[str, str, str], ...]:
    tree = ast.parse(SHIM.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/shim.py assigns no TARGETS")


def test_every_benchmark_layer_has_a_wrap_target():
    # The benchmark times a layer by wrapping these module attributes; a
    # layer none of whose targets resolves reports nothing.
    resolved: dict[str, bool] = {}
    for layer, module, attr in _shim_targets():
        found = hasattr(importlib.import_module(module), attr)
        resolved[layer] = resolved.get(layer, False) or found
    assert resolved and all(resolved.values()), \
        [layer for layer, found in resolved.items() if not found]
