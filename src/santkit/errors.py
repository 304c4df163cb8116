"""Exception hierarchy and the diagnostic record used by the validators.

Validators never raise: they return lists of :class:`Diagnostic`.  Everything
else (evaluation, parsing, firing, simulation) raises a subclass of
:class:`SantError`.  A message writes an int through ``int_text``.
"""

from __future__ import annotations

import math
from typing import Callable, TypeVar

from .record import Record


def int_text(value: int) -> str:
    """``value`` in decimal for a message, or ``a 6000-digit integer`` (``a
    negative ...`` below zero) past Python's integer string conversion
    limit, where ``str`` refuses it."""
    try:
        return str(value)
    except ValueError:
        size = abs(value)
        digits = max(int(size.bit_length() * math.log10(2)) - 1, 1)
        while size >= 10 ** digits:
            digits += 1
        sign = "negative " if value < 0 else ""
        return f"a {sign}{digits}-digit integer"


class SantError(Exception):
    """Base class for all errors raised by this package."""


class SortMismatch(SantError):
    pass


class UnknownParameter(SantError):
    pass


class EvalError(SantError):
    """Base class for term-evaluation failures."""


class MissingContext(EvalError):
    pass


class IndexOutOfRange(EvalError):
    pass


class DivisionByZero(EvalError):
    pass


class DuplicateIndex(SantError):
    pass


class UnboundParameter(SantError):
    pass


class NotEnabled(SantError):
    pass


class NegativeMarking(SantError):
    pass


class InvalidConfig(SantError):
    pass


class UnsupportedReactivation(SantError):
    pass


class MaxEventsExceeded(SantError):
    pass


class NonStabilizingDetected(SantError):
    pass


class ParseError(SantError):
    """Syntax error with a 1-based source position and expected-token hints."""

    def __init__(self, message: str, line: int, column: int,
                 expected: tuple[str, ...] = ()):
        self.line = line
        self.column = column
        self.expected = expected
        suffix = ""
        if expected:
            suffix = " (expected %s)" % ", ".join(expected)
        super().__init__(f"{line}:{column}: {message}{suffix}")


class Diagnostic(Record):
    """One finding from a validator.

    ``severity`` is ``"error"`` or ``"warning"``; ``element`` names the model
    element the finding is about, when there is one.
    """

    code: str
    message: str
    severity: str = "error"
    element: str | None = None

    def format(self) -> str:
        where = f" [{self.element}]" if self.element else ""
        return f"{self.severity}: {self.code}: {self.message}{where}"


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity == "error" for d in diagnostics)


class ValidationError(SantError):
    """Raised when an operation requires a model that failed validation."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        lines = [d.format() for d in diagnostics if d.severity == "error"]
        super().__init__("validation failed:\n" + "\n".join(lines))


T = TypeVar("T")


def parse_file(path: str, parse: Callable[[str], T]) -> T:
    """``parse`` applied to the text of a user file.  A file that is not
    UTF-8 is a user error, and a syntax error names the file before its
    line and column."""
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise SantError(f"{path}: not UTF-8 text ({exc.reason})") from None
    try:
        return parse(text)
    except ParseError as exc:
        exc.args = (f"{path}:{exc}",)
        raise
