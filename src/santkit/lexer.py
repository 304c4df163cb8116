"""Tokenizer shared by the term grammar, the arc-label grammars and the
model file format.

Whitespace and ``#`` comments are insignificant.  ``<CASE>`` and ``<PLACE>``
are single placeholder tokens; everything else is an identifier, an integer
or real literal, a quoted string, or one of the fixed symbols.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError

# Longest match first.
_SYMBOLS = (
    "->", ":=", "+=", "-=", "<=", ">=",
    "+", "-", "*", "/", "%", "=", "<", ">",
    "(", ")", "{", "}", "[", "]", ",", ";", ":", "|",
)


@dataclass(frozen=True)
class Token:
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
    line, col = 1, 1
    i, n = 0, len(text)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                advance(1)
            continue
        start_line, start_col = line, col
        if text.startswith("<CASE>", i):
            tokens.append(Token("placeholder", "CASE", start_line, start_col))
            advance(6)
            continue
        if text.startswith("<PLACE>", i):
            tokens.append(Token("placeholder", "PLACE", start_line, start_col))
            advance(7)
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise ParseError("unterminated string", start_line, start_col)
                j += 1
            if j >= n:
                raise ParseError("unterminated string", start_line, start_col)
            tokens.append(Token("string", text[i + 1:j], start_line, start_col))
            advance(j - i + 1)
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            is_real = False
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                is_real = True
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    is_real = True
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(Token("real" if is_real else "int",
                                text[i:j], start_line, start_col))
            advance(j - i)
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], start_line, start_col))
            advance(j - i)
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token("sym", sym, start_line, start_col))
                advance(len(sym))
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(Token("eof", "", line, col))
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
