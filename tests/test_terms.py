"""Term language: sort inference, evaluation, surface syntax, and agreement
with an independent brute-force interpreter."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from santkit.errors import (DivisionByZero, EvalError, IndexOutOfRange,
                            MissingContext, ParseError, SortMismatch,
                            UnknownParameter)
from santkit.terms import (Apply, CaseIndex, Const, Param, PlaceIndex, Sort,
                           eval_term, infer_sort, matches_sort, parse_term,
                           print_term, value_sort)

PARAMS = {"s": Sort.SET_INT, "pb": Sort.SET_REAL, "i": Sort.INT,
          "x": Sort.REAL, "b": Sort.BOOL, "k": Sort.INT, "J": Sort.SET_INT,
          "p_TMI": Sort.REAL}

ENV = {"s": (1, 6, 7), "pb": (0.7, 0.2, 0.1), "i": 2, "x": 0.5, "b": True,
       "k": 2, "J": (5,), "p_TMI": 0.5}


def t(text, **kw):
    return parse_term(text, PARAMS, **kw)


# -- sort inference ----------------------------------------------------------

def test_size_of_int_set_is_int():
    assert infer_sort(t("|s|")) == Sort.INT


def test_constant_sort():
    assert infer_sort(Const(1)) == Sort.INT
    assert infer_sort(Const(0.5)) == Sort.REAL
    assert infer_sort(Const(True)) == Sort.BOOL
    assert infer_sort(Const((1, 2))) == Sort.SET_INT
    assert infer_sort(Const((0.5,))) == Sort.SET_REAL


def test_no_implicit_int_real_promotion():
    mixed = Apply("+", (Apply("at", (Param("s", Sort.SET_INT),
                                     Param("i", Sort.INT))), Const(0.5)))
    with pytest.raises(SortMismatch):
        infer_sort(mixed)
    with pytest.raises(ParseError):
        t("s[i] + 0.5")


def test_explicit_to_real():
    term = t("to_real(s[i]) + 0.5")
    assert infer_sort(term) == Sort.REAL
    assert eval_term(term, ENV) == 6.5


def test_declared_cross_check():
    term = Param("i", Sort.REAL)
    with pytest.raises(SortMismatch):
        infer_sort(term, {"i": Sort.INT})
    with pytest.raises(UnknownParameter):
        infer_sort(Param("nope", Sort.INT), {"i": Sort.INT})


def test_bool_coercion_only_when_parenthesized():
    term = t("1 + (p_TMI > 0.0)")
    assert infer_sort(term) == Sort.INT
    assert eval_term(term, ENV) == 2
    assert eval_term(term, dict(ENV, p_TMI=0.0)) == 1
    with pytest.raises(ParseError):
        t("1 + p_TMI > 0.0")


# -- evaluation --------------------------------------------------------------

def test_size_example():
    assert eval_term(t("|s|"), {"s": (1, 6, 7)}) == 3


def test_element_at_with_case_placeholder():
    term = t("s[<CASE>]", allow_case=True)
    assert eval_term(term, {"s": (1, 6, 7)}, case_index=2) == 6


def test_parameter_lookup():
    assert eval_term(t("k"), {"k": 0}) == 0


def test_one_based_indexing():
    assert eval_term(t("s[1]"), ENV) == 1
    assert eval_term(t("pb[1]"), ENV) == 0.7


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        eval_term(t("s[4]"), ENV)
    with pytest.raises(IndexOutOfRange):
        eval_term(t("s[0]"), ENV)


def test_missing_context():
    with pytest.raises(MissingContext):
        eval_term(t("s[<CASE>]", allow_case=True), ENV)
    with pytest.raises(MissingContext):
        eval_term(t("3 * <PLACE>", allow_place=True), ENV)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        eval_term(t("i / 0"), ENV)
    with pytest.raises(DivisionByZero):
        eval_term(t("i % 0"), ENV)
    with pytest.raises(DivisionByZero):
        eval_term(t("x / 0.0"), ENV)


def test_to_real_past_the_float_range_is_an_eval_error():
    # float() of such an int raises OverflowError, which is no SantError.
    assert eval_term(t("to_real(i)"), ENV) == float(ENV["i"])
    with pytest.raises(EvalError) as err:
        eval_term(t("to_real(i)"), dict(ENV, i=10 ** 400))
    assert str(err.value) == "integer too large to convert to a real"


def test_unbound_parameter():
    with pytest.raises(UnknownParameter):
        eval_term(t("k"), {})


def test_union_is_sorted_and_distinct():
    assert eval_term(t("J union {k}"), ENV) == (2, 5)
    assert eval_term(t("{3, 1} union {1, 2}"), ENV) == (1, 2, 3)


def test_membership():
    assert eval_term(t("2 in J union {k}"), ENV) is True
    assert eval_term(t("9 in J"), ENV) is False


def test_evaluation_is_pure():
    term = t("s[i] * 2 + |J|")
    env = dict(ENV)
    first = eval_term(term, env)
    assert eval_term(term, env) == first
    assert env == ENV


# -- surface syntax ----------------------------------------------------------

def test_placeholders_gated():
    with pytest.raises(ParseError):
        t("s[<CASE>]")
    with pytest.raises(ParseError):
        t("<PLACE>")


def test_unknown_identifier_position():
    with pytest.raises(ParseError) as err:
        t("1 + nope")
    assert err.value.line == 1 and err.value.column == 5


def test_empty_set_literal_rejected():
    with pytest.raises(ParseError):
        t("{}")


@pytest.mark.parametrize("text, column", [("x * 1e999", 5),
                                          ("-2.5e308", 2)])
def test_real_literal_past_the_float_range_is_refused(text, column):
    # float() would read it as inf, which print_term cannot spell back.
    with pytest.raises(ParseError) as err:
        t(text)
    literal = text.split()[-1].lstrip("-")
    assert str(err.value) == \
        f"1:{column}: real literal {literal} is out of range"
    assert t("1.7976931348623157e308") == Const(1.7976931348623157e308)


PRINT_PARSE_CASES = [
    "|s|", "s[<CASE>]", "1 + (p_TMI > 0.0)", "J union {k}",
    "{1, 6, 7}", "{0.7, 0.2, 0.1}", "not (i > 1) and b", "-3 + i * 2",
    "(1 + 2) * i", "i % 3 - 4 / 2", "x + 0.5 * to_real(i)",
    "pb[i] + to_real((i > 0))", "(i = 2) * (3 - i)", "s[i - 1]",
    "2 in s or b and not false", "|J union {1, 9}|",
]


@pytest.mark.parametrize("text", PRINT_PARSE_CASES)
def test_print_parse_round_trip(text):
    term = parse_term(text, PARAMS, allow_case=True, allow_place=True)
    printed = print_term(term)
    again = parse_term(printed, PARAMS, allow_case=True, allow_place=True)
    assert again == term


# -- brute-force oracle ------------------------------------------------------
#
# The oracle compiles a term to a plain Python expression and evals it,
# exercising completely different dispatch than eval_term.

def _compile(term) -> str:
    if isinstance(term, Const):
        return repr(term.value)
    if isinstance(term, Param):
        return f"env[{term.name!r}]"
    if isinstance(term, CaseIndex):
        return "case_index"
    if isinstance(term, PlaceIndex):
        return "place_index"
    op, args = term.op, [(_compile(a)) for a in term.args]
    if op == "setlit":
        return "(" + ", ".join(args) + ("," if len(args) == 1 else "") + ")"
    if op in ("+", "-", "*"):
        return f"({args[0]} {op} {args[1]})"
    if op == "/":
        kind = infer_sort(term)
        fn = "_idiv" if kind == Sort.INT else "_rdiv"
        return f"{fn}({args[0]}, {args[1]})"
    if op == "%":
        return f"_imod({args[0]}, {args[1]})"
    if op == "neg":
        return f"(-({args[0]}))"
    if op == "=":
        return f"({args[0]} == {args[1]})"
    if op in ("<", "<=", ">", ">="):
        return f"({args[0]} {op} {args[1]})"
    if op == "and":
        return f"_strict_and({args[0]}, {args[1]})"
    if op == "or":
        return f"_strict_or({args[0]}, {args[1]})"
    if op == "not":
        return f"(not {args[0]})"
    if op == "size":
        return f"len({args[0]})"
    if op == "at":
        return f"_at({args[0]}, {args[1]})"
    if op == "union":
        return f"tuple(sorted(set({args[0]}) | set({args[1]})))"
    if op == "in":
        return f"({args[0]} in {args[1]})"
    if op == "to_real":
        return f"float({args[0]})"
    if op == "b2i":
        return f"(1 if {args[0]} else 0)"
    raise AssertionError(op)


def _oracle_helpers():
    def _at(seq, i):
        if not 1 <= i <= len(seq):
            raise IndexOutOfRange(str(i))
        return seq[i - 1]

    def _idiv(a, b):
        if b == 0:
            raise DivisionByZero("0")
        return a // b

    def _rdiv(a, b):
        if b == 0:
            raise DivisionByZero("0")
        return a / b

    def _imod(a, b):
        if b == 0:
            raise DivisionByZero("0")
        return a % b

    # The algebra is strict: both operands of a connective are evaluated.
    def _strict_and(a, b):
        return a and b

    def _strict_or(a, b):
        return a or b

    return {"_at": _at, "_idiv": _idiv, "_rdiv": _rdiv, "_imod": _imod,
            "_strict_and": _strict_and, "_strict_or": _strict_or}


def _outcome(fn):
    try:
        return ("value", fn())
    except (IndexOutOfRange, DivisionByZero) as exc:
        return ("error", type(exc).__name__)


def _oracle_eval(term, env, case_index, place_index):
    code = _compile(term)
    scope = dict(_oracle_helpers(), env=env, case_index=case_index,
                 place_index=place_index)
    return eval(code, scope)


LEAVES = {
    Sort.INT: [Const(0), Const(1), Const(3), Param("i", Sort.INT),
               CaseIndex(), PlaceIndex()],
    Sort.REAL: [Const(0.0), Const(0.5), Const(2.0), Param("x", Sort.REAL)],
    Sort.BOOL: [Const(True), Const(False), Param("b", Sort.BOOL)],
    Sort.SET_INT: [Const((1,)), Const((2, 3, 1)), Param("s", Sort.SET_INT)],
    Sort.SET_REAL: [Const((0.5,)), Const((1.5, 0.5)),
                    Param("pb", Sort.SET_REAL)],
}

OPS = [
    ("+", (Sort.INT, Sort.INT)), ("-", (Sort.INT, Sort.INT)),
    ("*", (Sort.INT, Sort.INT)), ("/", (Sort.INT, Sort.INT)),
    ("%", (Sort.INT, Sort.INT)), ("neg", (Sort.INT,)),
    ("+", (Sort.REAL, Sort.REAL)), ("-", (Sort.REAL, Sort.REAL)),
    ("*", (Sort.REAL, Sort.REAL)), ("/", (Sort.REAL, Sort.REAL)),
    ("neg", (Sort.REAL,)), ("to_real", (Sort.INT,)),
    ("=", (Sort.INT, Sort.INT)), ("<", (Sort.INT, Sort.INT)),
    ("<=", (Sort.INT, Sort.INT)), (">", (Sort.REAL, Sort.REAL)),
    (">=", (Sort.INT, Sort.INT)), ("and", (Sort.BOOL, Sort.BOOL)),
    ("or", (Sort.BOOL, Sort.BOOL)), ("not", (Sort.BOOL,)),
    ("size", (Sort.SET_INT,)), ("size", (Sort.SET_REAL,)),
    ("at", (Sort.SET_INT, Sort.INT)), ("at", (Sort.SET_REAL, Sort.INT)),
    ("union", (Sort.SET_INT, Sort.SET_INT)),
    ("union", (Sort.SET_REAL, Sort.SET_REAL)),
    ("in", (Sort.INT, Sort.SET_INT)), ("b2i", (Sort.BOOL,)),
    ("setlit", (Sort.INT, Sort.INT)), ("setlit", (Sort.REAL, Sort.REAL)),
]

ORACLE_ENV = {"i": 2, "x": 0.5, "b": True, "s": (1, 6, 7), "pb": (0.7, 0.2)}


def _check_against_oracle(term):
    mine = _outcome(lambda: eval_term(term, ORACLE_ENV, case_index=2,
                                      place_index=6))
    ref = _outcome(lambda: _oracle_eval(term, ORACLE_ENV, 2, 6))
    assert mine == ref, f"{print_term(term)}: {mine} != {ref}"


def _terms_of_depth(depth: int, rng: random.Random, cap: int):
    pools = {sort: list(leaves) for sort, leaves in LEAVES.items()}
    for _ in range(depth):
        grown = {sort: list(pool) for sort, pool in pools.items()}
        for op, sig in OPS:
            for children in itertools.product(*(pools[s] for s in sig)):
                node = Apply(op, children)
                grown[infer_sort(node)].append(node)
        pools = {sort: (pool if len(pool) <= cap
                        else rng.sample(pool, cap))
                 for sort, pool in grown.items()}
    return [term for pool in pools.values() for term in pool]


def test_eval_agrees_with_bruteforce_exhaustive_depth2():
    rng = random.Random(20240811)
    for term in _terms_of_depth(2, rng, cap=36):
        _check_against_oracle(term)


def test_print_parse_round_trip_exhaustive_depth2():
    # A set literal of parenthesized Bool elements, e.g. {(b), (b)}, is the
    # coerced Int set and must parse back.  The parser carries each
    # subterm's sort; one that drifts from infer_sort's is a ParseError here.
    rng = random.Random(20240811)
    terms = _terms_of_depth(2, rng, cap=36)
    assert len(terms) == 180
    for term in terms:
        printed = print_term(term)
        again = parse_term(printed, PARAMS, expected=infer_sort(term),
                           allow_case=True, allow_place=True)
        assert print_term(again) == printed
        env = dict(case_index=2, place_index=6)
        assert _outcome(lambda: eval_term(again, ORACLE_ENV, **env)) == \
            _outcome(lambda: eval_term(term, ORACLE_ENV, **env)), printed


def test_eval_agrees_with_bruteforce_random_deep():
    rng = random.Random(7)

    def grow(sort, depth):
        if depth == 0 or rng.random() < 0.25:
            return rng.choice(LEAVES[sort])
        candidates = [(o, s) for o, s in OPS
                      if infer_sort(Apply(o, tuple(LEAVES[x][0]
                                                   for x in s))) == sort]
        if not candidates:
            return rng.choice(LEAVES[sort])
        op, sig = rng.choice(candidates)
        return Apply(op, tuple(grow(s, depth - 1) for s in sig))

    for _ in range(2500):
        sort = rng.choice(list(LEAVES))
        _check_against_oracle(grow(sort, rng.randint(3, 4)))


# -- hypothesis properties ---------------------------------------------------

@given(st.lists(st.integers(min_value=1, max_value=30), min_size=1,
                max_size=6),
       st.lists(st.integers(min_value=1, max_value=30), min_size=1,
                max_size=6))
def test_union_sorted_distinct_property(a, b):
    env = {"J": tuple(a), "s": tuple(b)}
    out = eval_term(parse_term("J union s", PARAMS), env)
    assert list(out) == sorted(set(a) | set(b))
    assert eval_term(parse_term("|J union s|", PARAMS), env) == len(set(a) | set(b))


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1,
                max_size=5).map(tuple),
       st.integers(min_value=1, max_value=5))
def test_element_at_property(seq, idx):
    env = {"s": seq}
    term = parse_term("s[i]", {"s": Sort.SET_INT, "i": Sort.INT})
    if idx <= len(seq):
        assert eval_term(term, dict(env, i=idx)) == seq[idx - 1]
    else:
        with pytest.raises(IndexOutOfRange):
            eval_term(term, dict(env, i=idx))


def test_value_sort_rejects_mixed():
    with pytest.raises(SortMismatch):
        value_sort((1, 0.5))
    with pytest.raises(SortMismatch):
        value_sort((True, False))


def test_empty_set_has_no_sort():
    # It once sorted as set<int>, and printed as an unparseable "{}".
    with pytest.raises(SortMismatch, match=r"^empty set literal has no sort$"):
        value_sort(())
    with pytest.raises(SortMismatch, match=r"^empty set literal has no sort$"):
        infer_sort(Apply("setlit", ()))
    # An empty binding still fits either set parameter.
    assert matches_sort((), Sort.SET_INT) and matches_sort((), Sort.SET_REAL)
    assert not matches_sort((), Sort.INT)


def test_eval_of_an_unknown_operator_is_a_sort_mismatch():
    with pytest.raises(SortMismatch) as info:
        eval_term(Apply("pow", (Const(2), Const(3))), {})
    assert str(info.value) == "unknown operator 'pow'"


@pytest.mark.parametrize("check", [
    infer_sort, lambda term: eval_term(term, {}), print_term,
], ids=["infer_sort", "eval_term", "print_term"])
def test_a_non_term_is_refused(check):
    with pytest.raises(SortMismatch) as info:
        check(42)
    assert str(info.value) == "not a term: 42"
