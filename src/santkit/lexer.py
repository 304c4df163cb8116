"""Tokenizer shared by the term grammar, the arc-label grammars and the
model file format.

Whitespace and ``#`` comments are insignificant.  ``<CASE>`` and ``<PLACE>``
are single placeholder tokens; everything else is an identifier, an integer
or real literal (ASCII digits only), a quoted string, or one of the fixed
symbols.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ParseError

# Longest match first.
_SYMBOLS = (
    "->", ":=", "+=", "-=", "<=", ">=",
    "+", "-", "*", "/", "%", "=", "<", ">",
    "(", ")", "{", "}", "[", "]", ",", ";", ":", "|",
)

# One alternative per token kind, tried in order; ``error`` takes the one
# character nothing else matches (an unterminated string's opening quote).
# ``[^\W\d]`` also admits numeric non-letters such as "²"; ``tokenize``
# rejects an identifier that does not start with a letter or "_".
_TOKEN = re.compile(r"""
    (?P<skip>(?:[ \t\r\n]|\#[^\n]*)+)
  | <(?P<placeholder>CASE|PLACE)>
  | "(?P<string>[^"\n]*)"
  | (?P<real>[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))
  | (?P<int>[0-9]+)
  | (?P<ident>[^\W\d]\w*)
  | (?P<sym>%s)
  | (?P<error>[\s\S])
""" % "|".join(map(re.escape, _SYMBOLS)), re.VERBOSE)


class Token(NamedTuple):
    kind: str        # "int" | "real" | "ident" | "string" | "placeholder" | "sym" | "eof"
    value: str
    line: int
    column: int

    def describe(self) -> str:
        if self.kind == "eof":
            return "end of input"
        return repr(self.value)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        value = m[kind]
        if kind == "skip":
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = text.rindex("\n", m.start(), m.end()) + 1
            continue
        column = m.start() - line_start + 1
        if kind == "error" or (kind == "ident" and not (
                value[0].isalpha() or value[0] == "_")):
            message = ("unterminated string" if value == '"'
                       else f"unexpected character {value[0]!r}")
            raise ParseError(message, line, column)
        tokens.append(Token(kind, value, line, column))
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class TokenStream:
    """Cursor over a token list with the small helpers parsers need."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self._tokens[min(self.pos + ahead, len(self._tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_sym(self, *values: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.value in values

    def at_ident(self, *values: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and (not values or tok.value in values)

    def accept_sym(self, *values: str) -> Token | None:
        if self.at_sym(*values):
            return self.next()
        return None

    def accept_ident(self, *values: str) -> Token | None:
        if self.at_ident(*values):
            return self.next()
        return None

    def expect_sym(self, *values: str) -> Token:
        tok = self.peek()
        if not self.at_sym(*values):
            raise ParseError(f"found {tok.describe()}", tok.line, tok.column,
                             expected=tuple(map(repr, values)))
        return self.next()

    def expect_ident(self, *values: str) -> Token:
        tok = self.peek()
        if not self.at_ident(*values):
            expected = tuple(repr(v) for v in values) or ("identifier",)
            raise ParseError(f"found {tok.describe()}", tok.line, tok.column,
                             expected=expected)
        return self.next()

    def expect_eof(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"trailing input: found {tok.describe()}",
                             tok.line, tok.column, expected=("end of input",))
