"""The many-sorted term language used throughout the package.

Five sorts exist: ``Int``, ``Real``, ``Bool`` and ordered sets of each
numeric sort.  Ordered sets are value *sequences*: element order is
significant (``x[1]`` is the first element) and duplicates are only
rejected where a value is used as a place-index set.

Terms are immutable trees over constants, parameter references, the two
placeholders (case index and place index) and operator applications.
There is no implicit numeric promotion: ``to_real`` converts Int to Real
explicitly, and a parenthesized Bool expression in an Int position is the
(only) spelling of the Bool-to-Int coercion, e.g. ``1 + (x > 0.0)``.

The surface syntax is infix with ``|x|`` for size, ``x[i]`` for element
access, ``{a, b}`` set literals, ``union`` / ``in`` for set operators, and
``<CASE>`` / ``<PLACE>`` for the placeholders.
"""

from __future__ import annotations

import enum
import operator
from typing import Callable, Mapping, Sequence, Union

from .errors import (DivisionByZero, EvalError, IndexOutOfRange,
                     MissingContext, ParseError, SortMismatch,
                     UnknownParameter, int_text)
from .lexer import TokenStream, int_value, real_value, tokenize
from .record import Record

Value = Union[int, float, bool, tuple]


class Sort(enum.Enum):
    INT = "int"
    REAL = "real"
    BOOL = "bool"
    SET_INT = "set<int>"
    SET_REAL = "set<real>"

    def __str__(self) -> str:
        return self.value


def value_sort(value: Value) -> Sort:
    """Sort of a runtime value.  The empty sequence has none; use
    :func:`matches_sort`, which accepts it for either set sort."""
    if isinstance(value, bool):
        return Sort.BOOL
    if isinstance(value, int):
        return Sort.INT
    if isinstance(value, float):
        return Sort.REAL
    if isinstance(value, tuple):
        if not value:
            raise SortMismatch("empty set literal has no sort")
        if all(isinstance(v, bool) for v in value):
            raise SortMismatch("sequences of booleans are not a sort")
        if all(isinstance(v, int) and not isinstance(v, bool) for v in value):
            return Sort.SET_INT
        if all(isinstance(v, float) for v in value):
            return Sort.SET_REAL
        raise SortMismatch(f"mixed-sort sequence {value!r}")
    raise SortMismatch(f"unsupported value {value!r}")


def matches_sort(value: Value, sort: Sort) -> bool:
    if isinstance(value, tuple) and not value:
        return sort in (Sort.SET_INT, Sort.SET_REAL)
    try:
        return value_sort(value) == sort
    except SortMismatch:
        return False


# --------------------------------------------------------------------------
# Term nodes


class Const(Record):
    value: Value


class Param(Record):
    name: str
    sort: Sort


class CaseIndex(Record):
    """Placeholder for the case index of the surrounding activity."""


class PlaceIndex(Record):
    """Placeholder for the index of the place instance being updated/tested."""


class Apply(Record):
    op: str
    args: tuple["Term", ...]


Term = Union[Const, Param, CaseIndex, PlaceIndex, Apply]

_I, _R, _B, _SI, _SR = Sort.INT, Sort.REAL, Sort.BOOL, Sort.SET_INT, Sort.SET_REAL

# Binding strength, loosest first.  An operator's precedence drives both the
# parser (infix operators) and print_term's parenthesization.
_PREC_OR = 1
_PREC_AND = 2
_PREC_NOT = 3
_PREC_CMP = 4
_PREC_ADD = 5
_PREC_MUL = 6
_PREC_UNARY = 7
_PREC_POSTFIX = 8
_PREC_ATOM = 9

Overloads = tuple[tuple[tuple[Sort, ...], Sort], ...]


class Op(Record):
    """One operator: its overloads (argument sorts -> result sort), its
    strict evaluator (``and`` / ``or`` see both operands) and precedence.
    An ``infix`` operator is spelled by its name between its operands; the
    others keep their own surface forms."""

    overloads: Overloads
    evaluate: Callable[..., Value]
    prec: int = _PREC_ATOM
    infix: bool = False


def _div(a, b):
    if b == 0:
        raise DivisionByZero("division by zero")
    return a / b if isinstance(a, float) else a // b


def _mod(a, b):
    if b == 0:
        raise DivisionByZero("modulo by zero")
    return a % b


def to_real(i) -> float:
    """The float of ``i``; an int past the float range is an error, where
    ``float()`` would raise ``OverflowError``."""
    try:
        return float(i)
    except OverflowError:
        raise EvalError("integer too large to convert to a real") from None


def _at(seq, i):
    if not 1 <= i <= len(seq):
        raise IndexOutOfRange(
            f"index {int_text(i)} out of range for length {len(seq)}")
    return seq[i - 1]


_ARITH: Overloads = (((_I, _I), _I), ((_R, _R), _R))
_ORDER: Overloads = (((_I, _I), _B), ((_R, _R), _B))
_LOGIC: Overloads = (((_B, _B), _B),)

OPS: dict[str, Op] = {
    "+": Op(_ARITH, operator.add, _PREC_ADD, infix=True),
    "-": Op(_ARITH, operator.sub, _PREC_ADD, infix=True),
    "*": Op(_ARITH, operator.mul, _PREC_MUL, infix=True),
    "/": Op(_ARITH, _div, _PREC_MUL, infix=True),
    "%": Op((((_I, _I), _I),), _mod, _PREC_MUL, infix=True),
    "union": Op((((_SI, _SI), _SI), ((_SR, _SR), _SR)),
                lambda a, b: tuple(sorted(set(a) | set(b))),
                _PREC_MUL, infix=True),
    "=": Op(_ORDER + (((_B, _B), _B),), operator.eq, _PREC_CMP, infix=True),
    "<": Op(_ORDER, operator.lt, _PREC_CMP, infix=True),
    "<=": Op(_ORDER, operator.le, _PREC_CMP, infix=True),
    ">": Op(_ORDER, operator.gt, _PREC_CMP, infix=True),
    ">=": Op(_ORDER, operator.ge, _PREC_CMP, infix=True),
    "in": Op((((_I, _SI), _B), ((_R, _SR), _B)),
             lambda x, seq: x in seq, _PREC_CMP, infix=True),
    "and": Op(_LOGIC, operator.and_, _PREC_AND, infix=True),
    "or": Op(_LOGIC, operator.or_, _PREC_OR, infix=True),
    "not": Op((((_B,), _B),), operator.not_, _PREC_NOT),
    "neg": Op((((_I,), _I), ((_R,), _R)), operator.neg, _PREC_UNARY),
    "at": Op((((_SI, _I), _I), ((_SR, _I), _R)), _at, _PREC_POSTFIX),
    "size": Op((((_SI,), _I), ((_SR,), _I)), len),
    "to_real": Op((((_I,), _R),), to_real),
    "b2i": Op((((_B,), _I),), int),
    # Variadic: its sort rule is the set literal's own, in _result_sort.
    "setlit": Op((), lambda *elems: elems),
}


def _result_sort(op: str, arg_sorts: tuple[Sort, ...]) -> Sort:
    """The sort of ``op`` applied to arguments of ``arg_sorts``: the one
    overload lookup, which both :func:`infer_sort` and the parser use."""
    if op == "setlit":
        if not arg_sorts:
            raise SortMismatch("empty set literal has no sort")
        if all(s == _I for s in arg_sorts):
            return _SI
        if all(s == _R for s in arg_sorts):
            return _SR
        raise SortMismatch("mixed sorts in set literal: (%s)"
                           % ", ".join(str(s) for s in arg_sorts))
    spec = OPS.get(op)
    if spec is None:
        raise SortMismatch(f"unknown operator '{op}'")
    for sig, result in spec.overloads:
        if sig == arg_sorts:
            return result
    raise SortMismatch("operator '%s' not applicable to (%s)"
                       % (op, ", ".join(str(s) for s in arg_sorts)))


def infer_sort(term: Term, declared: Mapping[str, Sort] | None = None) -> Sort:
    """Return the unique sort of ``term``.

    When ``declared`` is given, parameter references are cross-checked
    against it (unknown name or diverging sort is an error).
    """
    if isinstance(term, Const):
        return value_sort(term.value)
    if isinstance(term, Param):
        if declared is not None:
            if term.name not in declared:
                raise UnknownParameter(f"unknown parameter '{term.name}'")
            if declared[term.name] != term.sort:
                raise SortMismatch(
                    f"parameter '{term.name}' declared {declared[term.name]}"
                    f" but referenced as {term.sort}")
        return term.sort
    if isinstance(term, (CaseIndex, PlaceIndex)):
        return Sort.INT
    if isinstance(term, Apply):
        return _result_sort(term.op, tuple(infer_sort(a, declared)
                                           for a in term.args))
    raise SortMismatch(f"not a term: {term!r}")


def eval_term(term: Term, assignment: Mapping[str, Value],
              case_index: int | None = None,
              place_index: int | None = None) -> Value:
    """Evaluate a well-sorted term under ``assignment``.

    Precondition: ``assignment`` binds each parameter at its declared sort
    (``concretize`` checks this once, in ``check_assignment``).

    ``case_index`` / ``place_index`` bind the two placeholders; a
    placeholder without its binding raises :class:`MissingContext`.
    Evaluation is pure and 1-based: ``x[1]`` is the first element.
    """
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Param):
        if term.name not in assignment:
            raise UnknownParameter(f"parameter '{term.name}' is not bound")
        return assignment[term.name]
    if isinstance(term, CaseIndex):
        if case_index is None:
            raise MissingContext("<CASE> used outside of a case context")
        return case_index
    if isinstance(term, PlaceIndex):
        if place_index is None:
            raise MissingContext("<PLACE> used outside of a place context")
        return place_index
    if isinstance(term, Apply):
        args = [eval_term(a, assignment, case_index, place_index)
                for a in term.args]
        op = OPS.get(term.op)
        if op is None:
            raise SortMismatch(f"unknown operator '{term.op}'")
        return op.evaluate(*args)
    raise SortMismatch(f"not a term: {term!r}")


def contains_node(term: Term, kind: type | tuple[type, ...]) -> bool:
    if isinstance(term, kind):
        return True
    if isinstance(term, Apply):
        return any(contains_node(a, kind) for a in term.args)
    return False


def is_closed(term: Term) -> bool:
    """True when the term has no parameters and no placeholders."""
    return not contains_node(term, (Param, CaseIndex, PlaceIndex))


# --------------------------------------------------------------------------
# Surface syntax

# Keywords: the infix operators spelled as words, and the other word forms.
_RESERVED = {name for name, op in OPS.items()
             if op.infix and name.isidentifier()} \
    | {"not", "to_real", "true", "false"}


# A parsed subterm: the term, its sort, and whether it was written in
# parentheses, which is what lets a Bool stand where an Int is expected.
_Node = tuple[Term, Sort, bool]

# The connectives take Bool operands only, with no Int coercion.
_CONNECTIVES = ("not", "and", "or")


def _as_int(node: _Node) -> _Node:
    """The Bool-to-Int coercion of a parenthesized Bool subterm; any other
    node is returned as it is."""
    term, sort, paren = node
    if paren and sort == Sort.BOOL:
        return Apply("b2i", (term,)), Sort.INT, False
    return node


class _TermParser:
    def __init__(self, stream: TokenStream, params: Mapping[str, Sort],
                 allow_case: bool, allow_place: bool,
                 restrict: frozenset[str] = frozenset(),
                 juxtaposition: bool = False):
        self.ts = stream
        self.params = params
        self.allow_case = allow_case
        self.allow_place = allow_place
        # Operators not consumed at the top nesting level (the arc-label
        # grammars reserve "/" and the comparison signs structurally);
        # juxtaposition enables the "3<PLACE>" multiplication shorthand.
        self.restrict = restrict
        self.juxtaposition = juxtaposition

    def parse(self, min_prec: int = _PREC_OR) -> _Node:
        tok = self.ts.peek()
        if self.ts.accept_ident("not"):
            left = self._node(tok, "not", (self.parse(_PREC_NOT),))
        elif self.ts.accept_sym("-"):
            operand = self.parse(_PREC_UNARY)
            term, sort, _ = operand
            if isinstance(term, Const) and sort in (Sort.INT, Sort.REAL):
                left = Const(-term.value), sort, False
            else:
                left = self._node(tok, "neg", (operand,))
        else:
            left = self._postfix(min_prec)
        while True:
            tok = self.ts.peek()
            op, prec = self._peek_binop()
            if op is None or prec < min_prec:
                return left
            self.ts.next()
            right = self.parse(prec + 1)
            left = self._binop(tok, op, left, right)

    def _peek_binop(self) -> tuple[str | None, int]:
        tok = self.ts.peek()
        op = OPS.get(tok.value) if tok.kind in ("sym", "ident") else None
        if op is None or not op.infix or tok.value in self.restrict:
            return None, 0
        return tok.value, op.prec

    def _binop(self, tok, op: str, left: _Node, right: _Node) -> _Node:
        # Arithmetic and comparisons may take a coerced parenthesized Bool,
        # but only where the exact-sorted reading does not already apply.
        if op not in _CONNECTIVES and \
                (left[1], right[1]) not in dict(OPS[op].overloads):
            left, right = _as_int(left), _as_int(right)
        return self._node(tok, op, (left, right))

    def _node(self, tok, op: str, args: Sequence[_Node]) -> _Node:
        """``op`` applied to the parsed ``args``; a sort error is a
        ``ParseError`` at ``tok``."""
        terms, sorts, _ = zip(*args)
        try:
            sort = _result_sort(op, sorts)
        except SortMismatch as exc:
            message = "expected a boolean operand" if op in _CONNECTIVES \
                else str(exc)
            raise ParseError(message, tok.line, tok.column) from None
        return Apply(op, terms), sort, False

    def _postfix(self, min_prec: int) -> _Node:
        node = self._primary()
        while True:
            if self.ts.at_sym("["):
                tok = self.ts.next()
                index = self._nested(lambda: self.parse_expected(Sort.INT))
                self.ts.expect_sym("]")
                node = self._node(tok, "at", (node, index))
                continue
            if self.juxtaposition and self._at_juxtaposable():
                tok = self.ts.peek()
                rhs = self._postfix(min_prec)
                node = self._binop(tok, "*", node, rhs)
                continue
            return node

    def _at_juxtaposable(self) -> bool:
        tok = self.ts.peek()
        if tok.kind == "placeholder":
            return True
        if tok.kind == "ident" and tok.value not in _RESERVED:
            return True
        return tok.kind == "sym" and tok.value == "("

    def _nested(self, parse_fn):
        # Inside explicit delimiters the structural restrictions are lifted.
        saved = self.restrict
        self.restrict = frozenset()
        try:
            return parse_fn()
        finally:
            self.restrict = saved

    def _primary(self) -> _Node:
        ts = self.ts
        tok = ts.peek()
        if tok.kind == "int":
            ts.next()
            return Const(int_value(tok)), Sort.INT, False
        if tok.kind == "real":
            ts.next()
            return Const(real_value(tok)), Sort.REAL, False
        if tok.kind == "placeholder":
            ts.next()
            if tok.value == "CASE":
                if not self.allow_case:
                    raise ParseError("<CASE> is not allowed here",
                                     tok.line, tok.column)
                return CaseIndex(), Sort.INT, False
            if not self.allow_place:
                raise ParseError("<PLACE> is not allowed here",
                                 tok.line, tok.column)
            return PlaceIndex(), Sort.INT, False
        if ts.accept_ident("true"):
            return Const(True), Sort.BOOL, False
        if ts.accept_ident("false"):
            return Const(False), Sort.BOOL, False
        if ts.accept_ident("to_real"):
            ts.expect_sym("(")
            arg = self.parse_expected(Sort.INT)
            ts.expect_sym(")")
            return self._node(tok, "to_real", (arg,))
        if tok.kind == "ident":
            if tok.value in _RESERVED:
                raise ParseError(f"found {tok.describe()}", tok.line, tok.column,
                                 expected=("a term",))
            ts.next()
            if tok.value not in self.params:
                raise ParseError(f"unknown parameter '{tok.value}'",
                                 tok.line, tok.column)
            sort = self.params[tok.value]
            return Param(tok.value, sort), sort, False
        if ts.accept_sym("("):
            term, sort, _ = self._nested(self.parse)
            ts.expect_sym(")")
            return term, sort, True
        if ts.accept_sym("|"):
            inner = self._nested(self.parse)
            ts.expect_sym("|")
            return self._node(tok, "size", (inner,))
        if ts.accept_sym("{"):
            if ts.at_sym("}"):
                raise ParseError("empty set literal is not allowed in terms",
                                 tok.line, tok.column)
            # Elements are Int positions: set<bool> is not a sort, so a
            # parenthesized Bool element is the Bool-to-Int coercion.
            elems = [_as_int(self._nested(self.parse))]
            while ts.accept_sym(","):
                elems.append(_as_int(self._nested(self.parse)))
            ts.expect_sym("}")
            node = self._node(tok, "setlit", elems)
            if all(isinstance(e[0], Const) for e in elems):
                return Const(tuple(e[0].value for e in elems)), node[1], False
            return node
        raise ParseError(f"found {tok.describe()}", tok.line, tok.column,
                         expected=("a term",))

    def parse_expected(self, want: Sort | None) -> _Node:
        tok = self.ts.peek()
        node = self.parse()
        if want == Sort.INT:
            node = _as_int(node)
        if want is not None and node[1] != want:
            raise ParseError(f"term has sort {node[1]}, expected {want}",
                             tok.line, tok.column)
        return node


def parse_term_stream(stream: TokenStream, params: Mapping[str, Sort],
                      expected: Sort | None = None,
                      allow_case: bool = False,
                      allow_place: bool = False,
                      restrict: frozenset[str] = frozenset(),
                      juxtaposition: bool = False) -> Term:
    parser = _TermParser(stream, params, allow_case, allow_place,
                         restrict=restrict, juxtaposition=juxtaposition)
    return parser.parse_expected(expected)[0]


def parse_term(text: str, params: Mapping[str, Sort] | None = None,
               expected: Sort | None = None,
               allow_case: bool = False, allow_place: bool = False) -> Term:
    """Parse a term from its surface syntax.

    ``params`` declares the visible parameters and their sorts; the result
    is fully sort-checked (and coerced) against ``expected`` when given.
    """
    stream = TokenStream(tokenize(text))
    term = parse_term_stream(stream, params or {}, expected,
                             allow_case, allow_place)
    stream.expect_eof()
    return term


def format_value(value: Value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return "{%s}" % ", ".join(format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _prec_of(term: Term) -> int:
    return OPS[term.op].prec if isinstance(term, Apply) else _PREC_ATOM


def print_term(term: Term) -> str:
    """Canonical surface form; ``parse_term(print_term(t)) == t``."""

    def wrap(child: Term, min_prec: int) -> str:
        text = print_term(child)
        if _prec_of(child) < min_prec:
            return f"({text})"
        return text

    if isinstance(term, Const):
        return format_value(term.value)
    if isinstance(term, Param):
        return term.name
    if isinstance(term, CaseIndex):
        return "<CASE>"
    if isinstance(term, PlaceIndex):
        return "<PLACE>"
    if isinstance(term, Apply):
        op, args = term.op, term.args
        prec = _prec_of(term)
        if op == "setlit":
            return "{%s}" % ", ".join(print_term(a) for a in args)
        if op == "size":
            return f"|{print_term(args[0])}|"
        if op == "at":
            return f"{wrap(args[0], prec)}[{print_term(args[1])}]"
        if op == "to_real":
            return f"to_real({print_term(args[0])})"
        if op == "b2i":
            return f"({print_term(args[0])})"
        if op == "neg":
            return f"-{wrap(args[0], prec)}"
        if op == "not":
            return f"not {wrap(args[0], prec)}"
        # Binary operators associate to the left.
        left = wrap(args[0], prec)
        right = wrap(args[1], prec + 1)
        return f"{left} {op} {right}"
    raise SortMismatch(f"not a term: {term!r}")
