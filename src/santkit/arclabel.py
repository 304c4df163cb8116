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
terms may additionally use ``<CASE>``.  The parser checks that each term is
an ``int``; desugaring takes a spec as given, and ``validate_template``
reports a mis-sorted term in the gate of a hand-built spec.  ``arc_gate``
is the one path from an arc's label text to its gate.
"""

from __future__ import annotations

from typing import Mapping, Union

from .lexer import TokenStream, tokenize
from .record import Record
from .sancore import COMPARISONS
from .template import (At, GateAtom, GateRule, InputGateTemplate,
                       OutputGateTemplate, SExcept)
from .terms import Const, Sort, Term, parse_term_stream, print_term


class OutSet(Record):
    value: Term


class OutAdd(Record):
    value: Term


OutExpr = Union[OutSet, OutAdd]


class Unconditional(Record):
    out: OutExpr


class Conditional(Record):
    index: Term
    then: OutExpr
    otherwise: OutExpr | None = None


OutputArcSpec = Union[Unconditional, Conditional]


class ExplicitInput(Record):
    quantifier: str              # "forall" | "exists" | "at"
    at_index: Term | None        # set when quantifier == "at"
    cmp: str                     # a key of sancore.COMPARISONS
    value: Term
    func_sub: bool               # True: subtract; False: set
    func_value: Term


class ImplicitSub(Record):
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
        cmp = ts.expect_sym(*COMPARISONS).value
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


def arc_gate(side: str, name: str, place: str, activity: str, label: str,
             params: Mapping[str, Sort] | None = None
             ) -> InputGateTemplate | OutputGateTemplate:
    """The gate named ``name`` that the ``side`` ("input" or "output") arc
    between ``place`` and ``activity`` desugars to; the gate keeps
    ``label`` as written."""
    if side == "input":
        return desugar_input_arc(parse_input_label(label, params), place,
                                 activity, name, label)
    return desugar_output_arc(parse_output_label(label, params), place,
                              activity, name, label)


def desugar_output_arc(spec: OutputArcSpec, place: str, activity: str,
                       name: str, label: str) -> OutputGateTemplate:
    """Compile an output arc-template label into its output gate, which
    keeps ``label`` as written."""
    if isinstance(spec, Unconditional):
        rules = (_out_rule(place, "all", spec.out),)
    else:
        rules = [_out_rule(place, At(spec.index), spec.then)]
        if spec.otherwise is not None:
            rules.append(_out_rule(place, SExcept(spec.index),
                                   spec.otherwise))
        rules = tuple(rules)
    return OutputGateTemplate(
        name=name, activity=activity, places=(place,), rules=rules,
        arc_label=label)


def _out_rule(place: str, selector, out: OutExpr) -> GateRule:
    action = "add" if isinstance(out, OutAdd) else "set"
    return GateRule(place, selector, action, out.value)


def desugar_input_arc(spec: InputArcSpec, place: str, activity: str,
                      name: str, label: str) -> InputGateTemplate:
    """Compile an input arc-template label into its input gate, which keeps
    ``label`` as written.

    The implicit form requires every instance to hold the subtracted amount;
    an explicit predicate applies the function to all instances (forall), to
    the satisfying instances (exists), or to the indexed instance.
    """
    if isinstance(spec, ImplicitSub):
        predicate = GateAtom("all", place, ">=", spec.value)
        rules = (GateRule(place, "all", "sub", spec.value),)
    else:
        if spec.quantifier == "forall":
            quant, selector = "all", "all"
        elif spec.quantifier == "exists":
            quant, selector = "exists", "sat"
        else:
            quant = selector = At(spec.at_index)
        predicate = GateAtom(quant, place, spec.cmp, spec.value)
        action = "sub" if spec.func_sub else "set"
        rules = (GateRule(place, selector, action, spec.func_value),)
    return InputGateTemplate(
        name=name, activity=activity, places=(place,),
        predicate=predicate, rules=rules, arc_label=label)
