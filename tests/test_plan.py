"""The simulator's execution plan against the reference interpreter.

``sim`` compiles an instance into Python source over slot markings: an
enabling expression per activity and a program per case, the sources its
replication loop is written from.  These tests compile each of them on its
own and check, marking by marking, that every enabling expression agrees
with ``sancore.is_enabled`` and that every case program of an enabled
activity fires as ``sancore.fire`` does, results and ``NegativeMarking``
alike; those are the only firings the loop makes.  They also check that
model names never change the compiled code, and that ``sim`` keeps the
module names the layered benchmark in ``perfbench/`` wraps.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import santkit.sim as sim
from santkit.concretize import concretize
from santkit.errors import NegativeMarking, SantError
from santkit.fixtures import (build_geo_template, build_tmi_template,
                              build_user_template)
from santkit.record import replace
from santkit.sancore import (COMPARISONS, Activity, ActivityKind,
                             ConcreteSan, Dist, InputGate, OutputGate,
                             PredAnd, PredLeaf, PredNot, PredOr, Update,
                             enabled_activities, fire, is_enabled,
                             reachable_markings)
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


def _checks(plan) -> list:
    """Each activity's enabling expression, compiled as a function of the
    slot marking."""
    return [sim._check(plan.namespace, expr) for expr in plan.enabling]


def _run(program, san: ConcreteSan, marking):
    """The marking a compiled case program leaves ``marking`` in."""
    slots = [marking[p] for p in san.places]
    program(slots)
    return dict(zip(san.places, slots))


def _assert_plan_agrees(san: ConcreteSan, max_states: int = 300) -> None:
    """On every reachable marking: each enabling expression gives
    ``is_enabled``'s answer, and each case of an enabled activity, zero
    probability or not, has ``fire``'s outcome."""
    plan = sim._build_plan(san)
    checks = _checks(plan)
    programs = {}                # (index, case): compiled once
    markings, _ = reachable_markings(san, max_states=max_states)
    for marking in markings:
        slots = [marking[p] for p in san.places]
        for index, (act, check) in enumerate(zip(san.activities, checks)):
            enabled = is_enabled(san, marking, act.name)
            assert check(slots) is enabled
            for case in range(1, act.cases + 1) if enabled else ():
                if (index, case) not in programs:
                    programs[index, case] = sim._compile_program(
                        plan, index, case)
                assert _outcome(lambda: _run(
                    programs[index, case], san, marking)) == \
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
        replace(san, initial_marking=tuple(supply.items())))


def test_plan_agrees_on_race():
    from test_golden import _race
    _assert_plan_agrees(_race())


# -- arbitrary gates on four places ------------------------------------------

PLACES = ("A", "B", "C", "D")
_values = st.integers(0, 2)
_leaves = st.builds(PredLeaf, st.sampled_from(PLACES),
                    st.sampled_from(sorted(COMPARISONS)), _values)
_predicates = st.recursive(
    st.one_of(_leaves, st.sampled_from((PredAnd(()), PredOr(())))),
    lambda inner: st.one_of(
        st.builds(PredAnd, st.lists(inner, max_size=4).map(tuple)),
        st.builds(PredOr, st.lists(inner, max_size=4).map(tuple)),
        st.builds(PredNot, inner)),
    max_leaves=12)


def _bound(places, cmp: str, value: int, connective=PredAnd):
    return connective(tuple(PredLeaf(place, cmp, value) for place in places))


# Lower bounds sharing one value, all or any of which must hold, which the
# plan checks in one pass.
_bounds = st.builds(
    _bound, st.lists(st.sampled_from(PLACES), min_size=2, max_size=4),
    st.sampled_from((">", ">=")), _values, st.sampled_from((PredAnd, PredOr)))
_updates = st.lists(st.builds(
    Update, st.sampled_from(PLACES), st.sampled_from(("set", "add", "sub")),
    _values, st.none() | st.tuples(st.sampled_from(sorted(COMPARISONS)),
                                   _values)), max_size=6).map(tuple)


def _shape(predicate: PredAnd, *tokens: int):
    return example(predicate=predicate, inputs=(), outputs=(),
                   tokens=list(tokens))


# The plan scans a lower bound's slots as one slice when they are
# consecutive and as a tuple of slots otherwise.  For all of them it tests
# ``0 not in`` them for a one-token bound (> 0, >= 1) and their ``min``
# otherwise; for any of them, their ``max``.  These pin each shape at the
# ends of its range and just outside it.
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
@_shape(_bound("BC", ">", 0, PredOr), 1, 0, 0, 1)     # max, outside high
@_shape(_bound("BC", ">=", 1, PredOr), 0, 0, 1, 0)    # max, last slot
@_shape(_bound("DB", ">=", 2, PredOr), 2, 1, 2, 1)    # max, gap not read
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
    enabled = is_enabled(san, marking, "T")
    assert _checks(plan)[0](list(tokens)) is enabled
    if enabled:
        program = sim._compile_program(plan, 0, 1)
        assert _outcome(lambda: _run(program, san, marking)) == \
            _outcome(lambda: fire(san, marking, "T", 1))


def test_plan_agrees_on_wide_geo():
    # GEO_F's bound reads 1000 consecutive Working_S slots: all up, then
    # exactly one of them empty at the first, a middle and the last slot.
    san = concretize(build_geo_template(),
                     {"n": tuple(range(1, 1001)), **RATES})
    checks = _checks(sim._build_plan(san))
    working = [p for p in san.places if p.startswith("Working_S_")]
    assert len(working) == 1000
    up = dict(san.initial_marking)
    assert all(up[p] == 1 for p in working)
    for empty in (None, working[0], working[500], working[-1]):
        marking = dict(up) if empty is None else dict(up, **{empty: 0})
        slots = [marking[p] for p in san.places]
        assert [a.name for a, check in zip(san.activities, checks)
                if check(slots)] == \
            [a.name for a in san.activities
             if is_enabled(san, marking, a.name)] == \
            ([] if empty else ["GEO_F"])


@pytest.mark.parametrize("depth", [10, 60, 300])
def test_plan_agrees_on_deep_predicates(depth):
    # Python's parser refuses 200 nested parentheses, so the plan compiles
    # deep connectives as functions of their own; GEO_F's enabling is
    # nested ``depth`` levels deep in alternating negations and
    # disjunctions, which changes neither what it means nor the run.
    from test_sim import _reference_simulate

    san = concretize(build_geo_template(), {"n": (1, 2, 3), **RATES})
    gate = san.input_gates[0]
    predicate = gate.predicate
    for level in range(depth):
        predicate = PredNot(predicate) if level % 2 else \
            PredOr((PredOr(()), predicate))
    if depth // 2 % 2:           # an odd number of negations so far
        predicate = PredNot(predicate)
    deep = replace(san, input_gates=(replace(gate, predicate=predicate),
                                     *san.input_gates[1:]))
    _assert_plan_agrees(deep)
    cfg = SimConfig(seed=3, horizon=50.0)
    assert simulate(deep, cfg) == simulate(san, cfg) == \
        _reference_simulate(deep, cfg, [])


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
    # ``sim`` runs neither of the firing layer's targets: they are the
    # reference's own, kept under the names the shim wraps.
    assert sim.fire is fire
    assert sim.enabled_activities is enabled_activities


# -- model names stay data ----------------------------------------------------

def _renamed(san: ConcreteSan, rename) -> ConcreteSan:
    """``san`` with every place, activity and gate name passed through
    ``rename``."""
    def predicate(pred):
        if isinstance(pred, PredLeaf):
            return replace(pred, place=rename(pred.place))
        if isinstance(pred, PredNot):
            return replace(pred, arg=predicate(pred.arg))
        if isinstance(pred, (PredAnd, PredOr)):
            return replace(pred, args=tuple(map(predicate, pred.args)))
        return pred

    def gate(g, **more):
        return replace(g, name=rename(g.name), activity=rename(g.activity),
                       places=tuple(map(rename, g.places)),
                       updates=tuple(replace(u, place=rename(u.place))
                                     for u in g.updates), **more)

    return replace(
        san, places=tuple(map(rename, san.places)),
        activities=tuple(replace(a, name=rename(a.name))
                         for a in san.activities),
        input_gates=tuple(gate(g, predicate=predicate(g.predicate))
                          for g in san.input_gates),
        output_gates=tuple(map(gate, san.output_gates)),
        initial_marking=tuple((rename(p), n) for p, n in san.initial_marking))


# Names that would change the program if they were ever written into its
# source: quotes, newlines, braces, backslashes and Python keywords.
NAMES = {
    "quotes": ("'", '"', "'''", "it's", 'say "x"'),
    "newlines": ("\n", "a\nb", "\r\n", "#\n", "\\"),
    "braces": ("{", "}", "{v}", "{{m}}", "f'{0}'"),
    "keywords": ("lambda", "if", "None", "m", "import os"),
}


@pytest.mark.parametrize("style", sorted(NAMES))
def test_model_names_never_reach_the_source(style):
    from test_golden import CFG, _race
    from santkit.sim import RewardSpec

    names: dict[str, str] = {}
    tokens = NAMES[style]

    def rename(name):
        # Distinct names: the style's tokens, padded apart once they run out.
        n = len(names)
        return names.setdefault(
            name, tokens[n % len(tokens)] + " " * (n // len(tokens)))

    san = _race()
    odd = _renamed(san, rename)
    rewards = [("throughput", "Slow"), ("time_avg_tokens", "Held_1"),
               ("prob_tokens_at_least", "Tok_1", 1)]
    ours = simulate(odd, CFG, [RewardSpec(kind, rename(target), *more)
                               for kind, target, *more in rewards])
    plain = simulate(san, CFG, [RewardSpec(*reward) for reward in rewards])
    assert ours.events == plain.events
    assert [(e.estimate, e.std) for e in ours.rewards] == \
        [(e.estimate, e.std) for e in plain.rewards]
    assert ours.case_counts == tuple((rename(name), counts)
                                     for name, counts in plain.case_counts)
    # Their errors name them byte for byte as the reference's do.
    _assert_plan_agrees(odd)
    overdraw = _renamed(_overdraw(), rename)
    with pytest.raises(NegativeMarking) as info:
        simulate(overdraw, SimConfig(seed=1, horizon=10.0))
    with pytest.raises(NegativeMarking) as reference:
        fire(overdraw, dict(overdraw.initial_marking), rename("Take"), 1)
    assert str(info.value) == str(reference.value) == \
        f"gate '{rename('g')}' drives place '{rename('P')}' to -1"
