"""Tokenizer shared by every text format: each input's exact token list with
positions, and each lexical error's message and position."""

from __future__ import annotations

import pytest

from santkit.errors import ParseError
from santkit.lexer import Token, tokenize

SYMBOLS = "-> := += -= <= >= + - * / % = < > ( ) { } [ ] , ; : |"

TOKENS = {
    "identifiers": ("x _y αβ2 x²", [
        ("ident", "x", 1, 1), ("ident", "_y", 1, 3), ("ident", "αβ2", 1, 6),
        ("ident", "x²", 1, 10), ("eof", "", 1, 12)]),
    "ints": ("0 42 007", [
        ("int", "0", 1, 1), ("int", "42", 1, 3), ("int", "007", 1, 6),
        ("eof", "", 1, 9)]),
    "reals": ("0.5 1.5e-3 2E+4 3e7", [
        ("real", "0.5", 1, 1), ("real", "1.5e-3", 1, 5), ("real", "2E+4", 1, 12),
        ("real", "3e7", 1, 17), ("eof", "", 1, 20)]),
    "exponent-without-digits": ("1e 1.5e 1e+", [
        ("int", "1", 1, 1), ("ident", "e", 1, 2), ("real", "1.5", 1, 4),
        ("ident", "e", 1, 7), ("int", "1", 1, 9), ("ident", "e", 1, 10),
        ("sym", "+", 1, 11), ("eof", "", 1, 12)]),
    "int-then-ident": ("12abc", [
        ("int", "12", 1, 1), ("ident", "abc", 1, 3), ("eof", "", 1, 6)]),
    "strings": ('"" "a b # c" "x"y', [
        ("string", "", 1, 1), ("string", "a b # c", 1, 4),
        ("string", "x", 1, 14), ("ident", "y", 1, 17), ("eof", "", 1, 18)]),
    "placeholders-beside-le": ("<CASE><=<PLACE> <CAS <= CASE>", [
        ("placeholder", "CASE", 1, 1), ("sym", "<=", 1, 7),
        ("placeholder", "PLACE", 1, 9), ("sym", "<", 1, 17),
        ("ident", "CAS", 1, 18), ("sym", "<=", 1, 22), ("ident", "CASE", 1, 25),
        ("sym", ">", 1, 29), ("eof", "", 1, 30)]),
    "symbols": (SYMBOLS, [
        ("sym", "->", 1, 1), ("sym", ":=", 1, 4), ("sym", "+=", 1, 7),
        ("sym", "-=", 1, 10), ("sym", "<=", 1, 13), ("sym", ">=", 1, 16),
        ("sym", "+", 1, 19), ("sym", "-", 1, 21), ("sym", "*", 1, 23),
        ("sym", "/", 1, 25), ("sym", "%", 1, 27), ("sym", "=", 1, 29),
        ("sym", "<", 1, 31), ("sym", ">", 1, 33), ("sym", "(", 1, 35),
        ("sym", ")", 1, 37), ("sym", "{", 1, 39), ("sym", "}", 1, 41),
        ("sym", "[", 1, 43), ("sym", "]", 1, 45), ("sym", ",", 1, 47),
        ("sym", ";", 1, 49), ("sym", ":", 1, 51), ("sym", "|", 1, 53),
        ("eof", "", 1, 54)]),
    "adjacent-symbols": ("a--b<-c", [
        ("ident", "a", 1, 1), ("sym", "-", 1, 2), ("sym", "-", 1, 3),
        ("ident", "b", 1, 4), ("sym", "<", 1, 5), ("sym", "-", 1, 6),
        ("ident", "c", 1, 7), ("eof", "", 1, 8)]),
    "comments": ("a # note\nb # end", [
        ("ident", "a", 1, 1), ("ident", "b", 2, 1), ("eof", "", 2, 8)]),
    "comment-only": ("#only", [("eof", "", 1, 6)]),
    "crlf-and-tab": ("a\r\n\tb\r\n", [
        ("ident", "a", 1, 1), ("ident", "b", 2, 2), ("eof", "", 3, 1)]),
    "trailing-whitespace": ("a  \n  ", [
        ("ident", "a", 1, 1), ("eof", "", 2, 3)]),
    "empty": ("", [("eof", "", 1, 1)]),
}

ERRORS = {
    "string-cut-by-eof": ('"abc', "unterminated string", 1, 1),
    "string-cut-by-newline": ('x "ab\ncd"', "unterminated string", 1, 3),
    "unexpected-character": ("a\n  !b", "unexpected character '!'", 2, 3),
    "dot-after-int": ("1.", "unexpected character '.'", 1, 2),
    "numeric-non-letter": ("a ½", "unexpected character '½'", 1, 3),
    # Literals take only the ASCII digits.
    "superscript-digit": ("²", "unexpected character '²'", 1, 1),
    "int-then-superscript": ("1²", "unexpected character '²'", 1, 2),
    "arabic-indic-digit": ("٣", "unexpected character '٣'", 1, 1),
}


@pytest.mark.parametrize("text, expected", TOKENS.values(), ids=TOKENS.keys())
def test_token_list(text, expected):
    assert [(t.kind, t.value, t.line, t.column) for t in tokenize(text)] == expected


@pytest.mark.parametrize("text, message, line, column", ERRORS.values(),
                         ids=ERRORS.keys())
def test_lexical_error(text, message, line, column):
    with pytest.raises(ParseError) as exc:
        tokenize(text)
    assert (str(exc.value), exc.value.line, exc.value.column) == (
        f"{line}:{column}: {message}", line, column)


def test_describe():
    assert Token("eof", "", 1, 1).describe() == "end of input"
    assert Token("sym", "->", 1, 1).describe() == "'->'"
