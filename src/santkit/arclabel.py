"""Arc-template labels: the two little grammars and their gate desugarings.

Output labels::

    oat-label ::= out | int "->" out | int "->" out "/" out
    out       ::= int | "+" int

A bare ``int`` sets the marking, ``+int`` adds tokens.  The unconditional
form applies to every instance of the target place; the conditional form
addresses the instance whose index matches the first term, the optional
second ``out`` covering all other instances (otherwise they are left
unchanged).  The empty label means ``+1``.

Input labels::

    iat-label ::= "[" pred "]" func | "-" int
    pred      ::= "forall" cond | "exists" cond | int cond
    cond      ::= "=" int | ">" int | ">=" int
    func      ::= int | "-" int

The implicit form ``-n`` is enabled when every instance holds at least
``n`` tokens and removes ``n`` from each; the empty label means ``-1``.
Terms may use ``<PLACE>`` for the tested instance index, and output-label
terms may additionally use ``<CASE>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .errors import ParseError, SortMismatch
from .lexer import TokenStream, tokenize
from .sancore import COMPARISONS
from .template import (AAdd, ASet, ASub, ActivityTemplate, GateAtom,
                       GateRule, InputGateTemplate, OutputGateTemplate,
                       PAtom, PlaceTemplate, QAll, QAt, QExists, SAll, SAt,
                       SExcept, SWhere)
from .terms import Const, Sort, Term, infer_sort, parse_term_stream, print_term


@dataclass(frozen=True)
class OutSet:
    value: Term


@dataclass(frozen=True)
class OutAdd:
    value: Term


OutExpr = Union[OutSet, OutAdd]


@dataclass(frozen=True)
class Unconditional:
    out: OutExpr


@dataclass(frozen=True)
class Conditional:
    index: Term
    then: OutExpr
    otherwise: OutExpr | None = None


OutputArcSpec = Union[Unconditional, Conditional]


@dataclass(frozen=True)
class ExplicitInput:
    quantifier: str              # "forall" | "exists" | "at"
    at_index: Term | None        # set when quantifier == "at"
    cmp: str                     # a key of sancore.COMPARISONS
    value: Term
    func_sub: bool               # True: subtract; False: set
    func_value: Term


@dataclass(frozen=True)
class ImplicitSub:
    value: Term


InputArcSpec = Union[ExplicitInput, ImplicitSub]


# "/" separates the else-branch of output labels and the comparison signs
# are structural in input predicates, so label terms do not consume them at
# the top level; 3<PLACE> style juxtaposition multiplies.
_LABEL_RESERVED = frozenset(("/", "=", "<", "<=", ">", ">="))


def _int_term(ts: TokenStream, params: Mapping[str, Sort],
              allow_case: bool) -> Term:
    return parse_term_stream(ts, params, expected=Sort.INT,
                             allow_case=allow_case, allow_place=True,
                             restrict=_LABEL_RESERVED, juxtaposition=True)


def parse_output_label(text: str,
                       params: Mapping[str, Sort] | None = None) -> OutputArcSpec:
    """Parse an output arc-template label; '' means '+1'."""
    params = params or {}
    if text.strip() == "":
        return Unconditional(OutAdd(Const(1)))
    ts = TokenStream(tokenize(text))
    spec = _parse_output(ts, params)
    ts.expect_eof()
    return spec


def _parse_out(ts: TokenStream, params: Mapping[str, Sort]) -> OutExpr:
    if ts.accept_sym("+"):
        return OutAdd(_int_term(ts, params, allow_case=True))
    return OutSet(_int_term(ts, params, allow_case=True))


def _parse_output(ts: TokenStream, params: Mapping[str, Sort]) -> OutputArcSpec:
    if ts.at_sym("+"):
        return Unconditional(_parse_out(ts, params))
    first = _int_term(ts, params, allow_case=True)
    if not ts.accept_sym("->"):
        return Unconditional(OutSet(first))
    then = _parse_out(ts, params)
    otherwise = None
    if ts.accept_sym("/"):
        otherwise = _parse_out(ts, params)
    return Conditional(first, then, otherwise)


def parse_input_label(text: str,
                      params: Mapping[str, Sort] | None = None) -> InputArcSpec:
    """Parse an input arc-template label; '' means '-1'."""
    params = params or {}
    if text.strip() == "":
        return ImplicitSub(Const(1))
    ts = TokenStream(tokenize(text))
    if ts.accept_sym("["):
        if ts.accept_ident("forall"):
            quant, at_index = "forall", None
        elif ts.accept_ident("exists"):
            quant, at_index = "exists", None
        else:
            quant, at_index = "at", _int_term(ts, params, allow_case=False)
        tok = ts.peek()
        if not ts.at_sym(*COMPARISONS):
            raise ParseError(f"found {tok.describe()}", tok.line, tok.column,
                             expected=tuple(map(repr, COMPARISONS)))
        cmp = ts.next().value
        value = _int_term(ts, params, allow_case=False)
        ts.expect_sym("]")
        if ts.accept_sym("-"):
            spec: InputArcSpec = ExplicitInput(
                quant, at_index, cmp, value, True,
                _int_term(ts, params, allow_case=False))
        else:
            spec = ExplicitInput(quant, at_index, cmp, value, False,
                                 _int_term(ts, params, allow_case=False))
        ts.expect_eof()
        return spec
    ts.expect_sym("-")
    spec = ImplicitSub(_int_term(ts, params, allow_case=False))
    ts.expect_eof()
    return spec


def print_output_label(spec: OutputArcSpec) -> str:
    """Canonical text; re-parsing yields an equal spec."""
    if isinstance(spec, Unconditional):
        return _print_out(spec.out)
    text = f"{_wrap_unary(spec.index)} -> {_print_out(spec.then)}"
    if spec.otherwise is not None:
        text += f" / {_print_out(spec.otherwise)}"
    return text


def _print_out(out: OutExpr) -> str:
    if isinstance(out, OutAdd):
        return f"+{_wrap_unary(out.value)}"
    return _wrap_unary(out.value)


def print_input_label(spec: InputArcSpec) -> str:
    if isinstance(spec, ImplicitSub):
        return f"-{_wrap_unary(spec.value)}"
    if spec.quantifier == "at":
        pred = print_term(spec.at_index)
    else:
        pred = spec.quantifier
    if spec.func_sub:
        func = f"-{_wrap_unary(spec.func_value)}"
    else:
        func = _wrap_unary(spec.func_value)
    return f"[{pred} {spec.cmp} {print_term(spec.value)}] {func}"


def _wrap_unary(term: Term) -> str:
    # A leading +/- followed by a negative literal or another sign must keep
    # the term parenthesized so the structural sign survives re-parsing, and
    # a conditional index must not swallow the "->" as part of a term.
    text = print_term(term)
    if text.startswith("-"):
        return f"({text})"
    return text


def _check_int(term: Term, declared: Mapping[str, Sort], what: str) -> None:
    got = infer_sort(term, declared)
    if got != Sort.INT:
        raise SortMismatch(f"{what} has sort {got}, expected int")


def desugar_output_arc(spec: OutputArcSpec, place: PlaceTemplate,
                       activity: ActivityTemplate, name: str,
                       params: Mapping[str, Sort] | None = None,
                       label: str | None = None) -> OutputGateTemplate:
    """Compile an output arc-template label into its output gate."""
    params = params or {}
    if isinstance(spec, Unconditional):
        _check_int(spec.out.value, params, "output expression")
        rules = (GateRule(place.name, SAll(), _out_action(spec.out)),)
    else:
        _check_int(spec.index, params, "index expression")
        _check_int(spec.then.value, params, "output expression")
        rules = [GateRule(place.name, SAt(spec.index), _out_action(spec.then))]
        if spec.otherwise is not None:
            _check_int(spec.otherwise.value, params, "output expression")
            rules.append(GateRule(place.name, SExcept(spec.index),
                                  _out_action(spec.otherwise)))
        rules = tuple(rules)
    return OutputGateTemplate(
        name=name, activity=activity.name, places=(place.name,), rules=rules,
        arc_label=print_output_label(spec) if label is None else label)


def _out_action(out: OutExpr):
    return AAdd(out.value) if isinstance(out, OutAdd) else ASet(out.value)


def desugar_input_arc(spec: InputArcSpec, place: PlaceTemplate,
                      activity: ActivityTemplate, name: str,
                      params: Mapping[str, Sort] | None = None,
                      label: str | None = None) -> InputGateTemplate:
    """Compile an input arc-template label into its input gate.

    The implicit form requires every instance to hold the subtracted amount;
    an explicit predicate applies the function to all instances (forall), to
    the satisfying instances (exists), or to the indexed instance.
    """
    params = params or {}
    if isinstance(spec, ImplicitSub):
        _check_int(spec.value, params, "input expression")
        predicate = PAtom(GateAtom(QAll(), place.name, ">=", spec.value))
        rules = (GateRule(place.name, SAll(), ASub(spec.value)),)
    else:
        _check_int(spec.value, params, "condition expression")
        _check_int(spec.func_value, params, "input expression")
        if spec.quantifier == "forall":
            quant, selector = QAll(), SAll()
        elif spec.quantifier == "exists":
            quant, selector = QExists(), SWhere()
        else:
            _check_int(spec.at_index, params, "index expression")
            quant, selector = QAt(spec.at_index), SAt(spec.at_index)
        predicate = PAtom(GateAtom(quant, place.name, spec.cmp, spec.value))
        action = ASub(spec.func_value) if spec.func_sub else ASet(spec.func_value)
        rules = (GateRule(place.name, selector, action),)
    return InputGateTemplate(
        name=name, activity=activity.name, places=(place.name,),
        predicate=predicate, rules=rules,
        arc_label=print_input_label(spec) if label is None else label)
