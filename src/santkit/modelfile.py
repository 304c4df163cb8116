"""The text model format (``.sant``) and assignment sets (``.sasg``).

A template file is block structured::

    template User

    params {
      s : set<int>
      pb : set<real>
    }

    places {
      Idle = {1}
      Req = s
    }

    activities {
      timed Request {
        cases = |s|
        prob = pb[<CASE>]
        time = uniform(1.0, 2.0)
      }
      instantaneous Fail           # defaults: cases = 1, prob = 1.0
    }

    gates {
      input IGRequest : Request {
        places = Idle
        enabled = Idle[1] >= 1
        effect = Idle[1] -= 1
      }
    }

    arcs {
      output OGRequest : Request -> Req label "s[<CASE>] -> 1"
      input GEOtoGEO_R : GEO -> GEO_R                 # label "" (defaults)
    }

    marking {
      Idle = 1                     # unlisted places default to 0
    }

Gate predicates combine ``all P >= t``, ``exists P = t`` and ``P[i] > t``
atoms with ``and`` / ``or`` / ``not``.  Effect rules are
``P[all | sat | except i | i] (:= | += | -=) t`` separated by ``;``; a
``when <bool> { ... }`` block guards its rules on the case index.  The
``arcs`` and ``gates`` sections may repeat; each arc desugars into its gate
where it is declared, so declaration order across them is the firing order
of the gates.

An assignment file holds named parameter bindings::

    assignments {
      UserInternal { s = {1, 6, 7}  pb = {0.7, 0.2, 0.1} }
    }
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Container, TypeVar

from .arclabel import arc_gate
from .errors import ParseError, SantError
from .lexer import Token, TokenStream, tokenize
from .sancore import (COMPARISONS, FAMILIES, ActivityKind, Dist, PredAnd,
                      PredNot, PredOr)
from .template import (QUANTIFIERS, SELECTORS, ActivityTemplate, CaseEntry,
                       GateAtom, GatePredicate, GateRule, InputGateTemplate,
                       MExpr, MSetOn, MTable, MarkingFn, OutputGateTemplate,
                       PlaceTemplate, QAt, SAt, SExcept, SanTemplate,
                       Selector)
from .terms import (Apply, CaseIndex, Const, PlaceIndex, Sort, Term, Value,
                    contains_node, format_value, parse_term_stream,
                    print_term)

# Int slots inside gate bodies stop at the boolean connectives so that
# "Failed[1] >= 1 and exists Req >= 1" splits where the grammar expects.
_GATE_RESTRICT = frozenset(("and", "or"))

# The sign of each effect-rule action of ``sancore.ACTIONS``.
_SIGNS = {"set": ":=", "add": "+=", "sub": "-="}

_DEFAULT_CASES = Const(1)
_DEFAULT_PROBS = (CaseEntry(None, Const(1.0)),)
_NO_TOKENS = MExpr(Const(0))


@dataclass
class ModelDocument:
    """A parsed template plus source positions for diagnostics."""

    template: SanTemplate
    spans: dict[str, tuple[int, int]] = field(default_factory=dict)
    path: str = "<string>"


class _TemplateParser:
    def __init__(self, text: str, path: str):
        self.ts = TokenStream(tokenize(text))
        self.path = path
        self.spans: dict[str, tuple[int, int]] = {}
        self.params: dict[str, Sort] = {}
        self.places: list[PlaceTemplate] = []
        self.activities: list[ActivityTemplate] = []
        self.input_gates: list[InputGateTemplate] = []
        self.output_gates: list[OutputGateTemplate] = []
        self.marking: dict[str, MarkingFn] = {}
        # (name token, "place" | "activity") of each arc end, checked once
        # every section is read: an arc may name elements declared below it.
        self.arc_ends: list[tuple[Token, str]] = []

    def parse(self) -> ModelDocument:
        self.ts.expect_ident("template")
        name_tok = self._name()
        while not self.ts.peek().kind == "eof":
            section = self.ts.expect_ident(
                "params", "places", "activities", "arcs", "gates", "marking")
            self.ts.expect_sym("{")
            handler = getattr(self, f"_section_{section.value}")
            while not self.ts.at_sym("}"):
                handler()
            self.ts.expect_sym("}")
        known = {"place": {p.name for p in self.places},
                 "activity": {a.name for a in self.activities}}
        for tok, what in self.arc_ends:
            if tok.value not in known[what]:
                raise ParseError(f"arc references unknown {what} '{tok.value}'",
                                 tok.line, tok.column)
        place_names = [p.name for p in self.places]
        init = [(p.name, self.marking.get(p.name, _NO_TOKENS))
                for p in self.places]
        # Keep entries for unknown places so validation can flag them.
        init.extend((name, fn) for name, fn in self.marking.items()
                    if name not in place_names)
        init = tuple(init)
        template = SanTemplate(
            name=name_tok.value,
            parameters=tuple(self.params.items()),
            places=tuple(self.places),
            activities=tuple(self.activities),
            input_gates=tuple(self.input_gates),
            output_gates=tuple(self.output_gates),
            initial_marking=init)
        return ModelDocument(template, self.spans, self.path)

    # -- helpers -----------------------------------------------------------

    def _name(self) -> Token:
        return self.ts.expect_ident()

    def _span(self, kind: str, tok: Token) -> None:
        self.spans[f"{kind} {tok.value}"] = (tok.line, tok.column)

    def _term(self, expected: Sort | None = None, allow_case: bool = False,
              allow_place: bool = False, restrict=frozenset()) -> Term:
        return parse_term_stream(self.ts, self.params, expected=expected,
                                 allow_case=allow_case,
                                 allow_place=allow_place, restrict=restrict)

    def _sort(self) -> Sort:
        tok = self.ts.expect_ident("int", "real", "bool", "set")
        if tok.value != "set":
            return Sort(tok.value)
        self.ts.expect_sym("<")
        elem = self.ts.expect_ident("int", "real")
        self.ts.expect_sym(">")
        return Sort(f"set<{elem.value}>")

    # -- sections ----------------------------------------------------------

    def _section_params(self) -> None:
        tok = self._name()
        self._span("parameter", tok)
        self.ts.expect_sym(":")
        sort = self._sort()
        _once(tok, self.params, f"parameter '{tok.value}' declared twice")
        self.params[tok.value] = sort

    def _section_places(self) -> None:
        tok = self._name()
        self._span("place", tok)
        self.ts.expect_sym("=")
        self.places.append(PlaceTemplate(tok.value, self._term()))

    def _section_activities(self) -> None:
        kind_tok = self.ts.expect_ident(*(k.value for k in ActivityKind))
        kind = ActivityKind(kind_tok.value)
        tok = self._name()
        self._span("activity", tok)
        cases: Term = _DEFAULT_CASES
        entries = _DEFAULT_PROBS
        time = None
        if self.ts.accept_sym("{"):
            keys: set[str] = set()
            while not self.ts.at_sym("}"):
                key = self.ts.expect_ident("cases", "prob", "time")
                _once(key, keys, f"activity '{tok.value}' sets "
                                 f"'{key.value}' twice")
                keys.add(key.value)
                if key.value == "cases":
                    self.ts.expect_sym("=")
                    cases = self._term()
                elif key.value == "prob":
                    entries = self._prob_entries()
                else:
                    self.ts.expect_sym("=")
                    time = self._distribution()
            self.ts.expect_sym("}")
        self.activities.append(ActivityTemplate(
            name=tok.value, kind=kind, cases=cases,
            case_distribution=entries,
            time_distribution=time))

    def _prob_entries(self) -> tuple[CaseEntry, ...]:
        if self.ts.accept_sym("="):
            return (CaseEntry(None, self._term(allow_case=True)),)
        self.ts.expect_sym("{")
        entries: list[CaseEntry] = []
        while not self.ts.at_sym("}"):
            key = self.ts.expect_ident("case", "when", "default")
            guard: Term | None
            if key.value == "case":
                guard = _case_equals(self._term())
            elif key.value == "when":
                guard = self._term(allow_case=True)
            else:
                guard = None
            self.ts.expect_sym(":")
            prob = self._term(allow_case=True)
            entries.append(CaseEntry(guard, prob))
            self.ts.accept_sym(";")
        self.ts.expect_sym("}")
        return tuple(entries)

    def _distribution(self) -> Dist:
        tok = self.ts.expect_ident(*FAMILIES)
        self.ts.expect_sym("(")
        params = [self._term()]
        while self.ts.accept_sym(","):
            params.append(self._term())
        self.ts.expect_sym(")")
        return Dist(tok.value, tuple(params))

    def _section_arcs(self) -> None:
        side = self.ts.expect_ident("input", "output")
        name = self._name()
        self._span("gate", name)
        self.ts.expect_sym(":")
        first = self._name()
        self.ts.expect_sym("->")
        second = self._name()
        label = ""
        if self.ts.accept_ident("label"):
            tok = self.ts.peek()
            if tok.kind != "string":
                raise ParseError("expected a label string", tok.line, tok.column)
            label = self.ts.next().value
        is_input = side.value == "input"
        ends = ({"place": first, "activity": second} if is_input
                else {"activity": first, "place": second})
        self.arc_ends += [(tok, what) for what, tok in ends.items()]
        try:
            gate = arc_gate(side.value, name.value, ends["place"].value,
                            ends["activity"].value, label, self.params)
        except ParseError as exc:
            raise ParseError(f"in label of arc '{name.value}': {exc}",
                             name.line, name.column) from None
        (self.input_gates if is_input else self.output_gates).append(gate)

    def _section_gates(self) -> None:
        side = self.ts.expect_ident("input", "output")
        name = self._name()
        self._span("gate", name)
        self.ts.expect_sym(":")
        activity = self._name()
        self.ts.expect_sym("{")
        self.ts.expect_ident("places")
        self.ts.expect_sym("=")
        places = [self._name().value]
        while self.ts.accept_sym(","):
            places.append(self._name().value)
        predicate: GatePredicate | None = None
        rules: list[GateRule] = []
        while not self.ts.at_sym("}"):
            key = self.ts.expect_ident("enabled", "effect", "when")
            if key.value == "enabled":
                if side.value == "output":
                    raise ParseError("output gates have no predicate",
                                     key.line, key.column)
                if predicate is not None:
                    raise ParseError(f"gate '{name.value}' sets 'enabled' "
                                     f"twice", key.line, key.column)
                self.ts.expect_sym("=")
                predicate = self._pred_expr()
            elif key.value == "effect":
                self.ts.expect_sym("=")
                rules.extend(self._rules(when=None,
                                         is_output=side.value == "output"))
            else:
                guard = self._term(allow_case=side.value == "output")
                self.ts.expect_sym("{")
                rules.extend(self._rules(when=guard,
                                         is_output=side.value == "output",
                                         until_brace=True))
                self.ts.expect_sym("}")
        self.ts.expect_sym("}")
        if side.value == "input":
            if predicate is None:
                raise ParseError(f"input gate '{name.value}' has no "
                                 f"'enabled' predicate", name.line, name.column)
            self.input_gates.append(InputGateTemplate(
                name.value, activity.value, tuple(places), predicate,
                tuple(rules)))
        else:
            self.output_gates.append(OutputGateTemplate(
                name.value, activity.value, tuple(places), tuple(rules)))

    def _pred_expr(self) -> GatePredicate:
        node = self._pred_and()
        parts = [node]
        while self.ts.accept_ident("or"):
            parts.append(self._pred_and())
        return parts[0] if len(parts) == 1 else PredOr(tuple(parts))

    def _pred_and(self) -> GatePredicate:
        parts = [self._pred_unary()]
        while self.ts.accept_ident("and"):
            parts.append(self._pred_unary())
        return parts[0] if len(parts) == 1 else PredAnd(tuple(parts))

    def _pred_unary(self) -> GatePredicate:
        if self.ts.accept_ident("not"):
            return PredNot(self._pred_unary())
        if self.ts.accept_sym("("):
            node = self._pred_expr()
            self.ts.expect_sym(")")
            return node
        return self._atom()

    def _atom(self) -> GateAtom:
        if self.ts.at_ident(*QUANTIFIERS):
            quant, place = self.ts.next().value, self._name().value
        else:
            place = self._name().value
            self.ts.expect_sym("[")
            quant = QAt(self._term())
            self.ts.expect_sym("]")
        cmp = self.ts.expect_sym(*COMPARISONS).value
        value = self._term(allow_place=True, restrict=_GATE_RESTRICT)
        return GateAtom(quant, place, cmp, value)

    def _rules(self, when: Term | None, is_output: bool,
               until_brace: bool = False) -> list[GateRule]:
        rules = [self._rule(when, is_output)]
        while self.ts.accept_sym(";"):
            if until_brace and self.ts.at_sym("}"):
                break
            rules.append(self._rule(when, is_output))
        return rules

    def _rule(self, when: Term | None, is_output: bool) -> GateRule:
        place = self._name().value
        self.ts.expect_sym("[")
        selector: Selector
        if self.ts.at_ident(*SELECTORS):
            selector = self.ts.next().value
        elif self.ts.accept_ident("except"):
            selector = SExcept(self._term(allow_case=is_output))
        else:
            selector = SAt(self._term(allow_case=is_output))
        self.ts.expect_sym("]")
        sign = self.ts.expect_sym(*_SIGNS.values()).value
        action = next(a for a, s in _SIGNS.items() if s == sign)
        value = self._term(allow_case=is_output, allow_place=True,
                           restrict=_GATE_RESTRICT)
        return GateRule(place, selector, action, value, when=when)

    def _section_marking(self) -> None:
        tok = self._name()
        _once(tok, self.marking, f"place '{tok.value}' marked twice")
        self.ts.expect_sym("=")
        self.marking[tok.value] = self._marking_fn()

    def _marking_fn(self) -> MarkingFn:
        """One of the three marking forms; ``at(i, v)`` lowers to
        ``on({i}, v)`` and ``identity`` to the constant 0."""
        if self.ts.at_ident("at", "on", "expr", "table") \
                and self.ts.peek(1).kind == "sym" \
                and self.ts.peek(1).value == "(":
            kind = self.ts.next().value
            self.ts.expect_sym("(")
            if kind == "expr":
                fn: MarkingFn = MExpr(self._term(allow_place=True))
            elif kind == "table":
                fn = self._table()
            else:
                indices = (self._term() if kind == "on"
                           else _singleton(self._term(expected=Sort.INT)))
                self.ts.expect_sym(",")
                fn = MSetOn(indices, self._term())
            self.ts.expect_sym(")")
            return fn
        if self.ts.accept_ident("identity"):
            return _NO_TOKENS
        return MExpr(self._term())

    def _table(self) -> MTable:
        entries: dict[int, int] = {}
        while not self.ts.at_sym(")"):
            tok = self.ts.peek()
            if tok.kind != "int":
                raise ParseError("expected an index literal",
                                 tok.line, tok.column)
            self.ts.next()
            if int(tok.value) in entries:
                raise ParseError(f"duplicate table index {tok.value}",
                                 tok.line, tok.column)
            self.ts.expect_sym(":")
            val = self.ts.peek()
            if val.kind != "int":
                raise ParseError("expected a token-count literal",
                                 val.line, val.column)
            self.ts.next()
            entries[int(tok.value)] = int(val.value)
            self.ts.accept_sym(",")
        return MTable.of(entries)


def _once(key: Token, seen: Container[str], message: str) -> None:
    """A ``ParseError`` at ``key`` when ``seen`` already holds its value:
    each key of a block is given at most once."""
    if key.value in seen:
        raise ParseError(message, key.line, key.column)


def _singleton(index: Term) -> Term:
    """``{index}``, folded as the term parser folds a constant set literal."""
    if isinstance(index, Const):
        return Const((index.value,))
    return Apply("setlit", (index,))


def _case_equals(index: Term) -> Term:
    return Apply("=", (CaseIndex(), index))


def parse_template_text(text: str, path: str = "<string>") -> ModelDocument:
    return _TemplateParser(text, path).parse()


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


def load_template(path: str) -> ModelDocument:
    return parse_file(path, lambda text: parse_template_text(text, path))


# -- assignment files --------------------------------------------------------


def _literal(ts: TokenStream) -> Value:
    negative = bool(ts.accept_sym("-"))
    tok = ts.peek()
    if tok.kind == "int":
        ts.next()
        return -int(tok.value) if negative else int(tok.value)
    if tok.kind == "real":
        ts.next()
        return -float(tok.value) if negative else float(tok.value)
    if negative:
        raise ParseError("expected a number", tok.line, tok.column)
    if ts.accept_ident("true"):
        return True
    if ts.accept_ident("false"):
        return False
    if ts.accept_sym("{"):
        items: list[Value] = []
        while not ts.at_sym("}"):
            items.append(_literal(ts))
            ts.accept_sym(",")
        ts.expect_sym("}")
        if any(isinstance(v, float) for v in items):
            return tuple(float(v) for v in items)
        return tuple(items)
    raise ParseError(f"found {tok.describe()}", tok.line, tok.column,
                     expected=("a literal",))


def parse_assignments_text(text: str) -> dict[str, dict[str, Value]]:
    """Named parameter bindings; values are plain literals, coerced to the
    template's sorts at binding time (``coerce_assignment``)."""
    ts = TokenStream(tokenize(text))
    ts.expect_ident("assignments")
    ts.expect_sym("{")
    sets: dict[str, dict[str, Value]] = {}
    while not ts.at_sym("}"):
        name = ts.expect_ident()
        _once(name, sets, f"assignment '{name.value}' declared twice")
        ts.expect_sym("{")
        bindings: dict[str, Value] = {}
        while not ts.at_sym("}"):
            param = ts.expect_ident()
            _once(param, bindings, f"parameter '{param.value}' bound twice "
                                   f"in assignment '{name.value}'")
            ts.expect_sym("=")
            bindings[param.value] = _literal(ts)
        ts.expect_sym("}")
        sets[name.value] = bindings
    ts.expect_sym("}")
    ts.expect_eof()
    return sets


def load_assignments(path: str) -> dict[str, dict[str, Value]]:
    return parse_file(path, parse_assignments_text)


def coerce_assignment(template: SanTemplate,
                      raw: dict[str, Value]) -> dict[str, Value]:
    """Coerce file literals to the declared sorts (ints may stand for reals
    in assignment files; the term language itself never promotes)."""
    declared = template.param_sorts()
    out: dict[str, Value] = {}
    for name, value in raw.items():
        sort = declared.get(name)
        if sort == Sort.REAL and isinstance(value, int) \
                and not isinstance(value, bool):
            value = float(value)
        elif sort == Sort.SET_REAL and isinstance(value, tuple):
            if all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in value):
                value = tuple(float(v) for v in value)
        out[name] = value
    return out


# -- serialization -----------------------------------------------------------


def pred_to_text(pred: GatePredicate) -> str:
    # A connective directly inside one of its own kind keeps its parentheses:
    # the parser reads "a or b or c" as one flat node.
    def emit(node: GatePredicate, parent: int) -> str:
        if isinstance(node, PredOr):
            text = " or ".join(emit(a, 1) for a in node.args)
            return f"({text})" if parent >= 1 else text
        if isinstance(node, PredAnd):
            text = " and ".join(emit(a, 2) for a in node.args)
            return f"({text})" if parent >= 2 else text
        if isinstance(node, PredNot):
            return f"not {emit(node.arg, 3)}"
        atom = node
        if isinstance(atom.quantifier, QAt):
            lhs = f"{atom.place}[{print_term(atom.quantifier.index)}]"
        else:
            lhs = f"{atom.quantifier} {atom.place}"
        return f"{lhs} {atom.cmp} {print_term(atom.value)}"

    return emit(pred, 0)


def rule_to_text(rule: GateRule) -> str:
    if isinstance(rule.selector, SExcept):
        sel = f"except {print_term(rule.selector.index)}"
    elif isinstance(rule.selector, SAt):
        sel = print_term(rule.selector.index)
    else:
        sel = rule.selector
    sign = _SIGNS[rule.action]
    return f"{rule.place}[{sel}] {sign} {print_term(rule.value)}"


def marking_fn_to_text(fn: MarkingFn) -> str:
    if isinstance(fn, MExpr):
        text = print_term(fn.value)
        return f"expr({text})" if contains_node(fn.value, PlaceIndex) else text
    if isinstance(fn, MSetOn):
        return f"on({print_term(fn.indices)}, {print_term(fn.value)})"
    entries = ", ".join(f"{i}: {v}" for i, v in fn.entries)
    return f"table({entries})"


def _activity_lines(at: ActivityTemplate) -> list[str]:
    head = f"{at.kind} {at.name}"
    body: list[str] = []
    if at.cases != _DEFAULT_CASES:
        body.append(f"cases = {print_term(at.cases)}")
    if at.case_distribution != _DEFAULT_PROBS:
        entries = at.case_distribution
        if len(entries) == 1 and entries[0].guard is None:
            body.append(f"prob = {print_term(entries[0].prob)}")
        else:
            body.append("prob {")
            for entry in entries:
                if entry.guard is None:
                    body.append(f"  default: {print_term(entry.prob)}")
                else:
                    body.append(f"  when {print_term(entry.guard)}: "
                                f"{print_term(entry.prob)}")
            body.append("}")
    if at.time_distribution is not None:
        args = ", ".join(print_term(p) for p in at.time_distribution.params)
        body.append(f"time = {at.time_distribution.family}({args})")
    if not body:
        return [head]
    lines = [head + " {"]
    lines.extend(f"  {line}" for line in body)
    lines.append("}")
    return lines


def _gate_lines(gate, is_input: bool) -> list[str]:
    side = "input" if is_input else "output"
    lines = [f"{side} {gate.name} : {gate.activity} {{"]
    lines.append("  places = " + ", ".join(gate.places))
    if is_input:
        lines.append(f"  enabled = {pred_to_text(gate.predicate)}")
    for when, chunk in _chunk_by(gate.rules, lambda rule: rule.when):
        if when is None:
            lines.append("  effect = " + " ; ".join(rule_to_text(r)
                                                    for r in chunk))
        else:
            body = " ; ".join(rule_to_text(r) for r in chunk)
            lines.append(f"  when {print_term(when)} {{ {body} }}")
    lines.append("}")
    return lines


def _arc_line(gate, is_input: bool) -> str:
    side = "input" if is_input else "output"
    place = gate.places[0]
    if is_input:
        route = f"{place} -> {gate.activity}"
    else:
        route = f"{gate.activity} -> {place}"
    line = f"{side} {gate.name} : {route}"
    if gate.arc_label:
        line += f' label "{gate.arc_label}"'
    return line


def template_to_text(template: SanTemplate) -> str:
    """Canonical model text; parsing it back yields an equal template."""
    out: list[str] = [f"template {template.name}", ""]

    out.append("params {")
    for name, sort in template.parameters:
        out.append(f"  {name} : {sort}")
    out.append("}")
    out.append("")

    out.append("places {")
    for place in template.places:
        out.append(f"  {place.name} = {print_term(place.multiplicity)}")
    out.append("}")
    out.append("")

    out.append("activities {")
    for at in template.activities:
        out.extend(f"  {line}" for line in _activity_lines(at))
    out.append("}")
    out.append("")

    # Emit gates and arcs in declaration order, chunking runs of the same
    # section kind so the order survives a round trip.
    for side_gates, is_input in ((template.input_gates, True),
                                 (template.output_gates, False)):
        for is_arc, gates in _chunk_by(side_gates,
                                       lambda g: g.arc_label is not None):
            section = "arcs" if is_arc else "gates"
            out.append(section + " {")
            for gate in gates:
                if is_arc:
                    out.append(f"  {_arc_line(gate, is_input)}")
                else:
                    out.extend(f"  {line}"
                               for line in _gate_lines(gate, is_input))
            out.append("}")
            out.append("")

    nonzero = [(name, fn) for name, fn in template.initial_marking
               if fn != _NO_TOKENS]
    if nonzero:
        out.append("marking {")
        for name, fn in nonzero:
            out.append(f"  {name} = {marking_fn_to_text(fn)}")
        out.append("}")
        out.append("")
    return "\n".join(out)


def _chunk_by(items, key):
    chunks: list[tuple] = []
    for item in items:
        k = key(item)
        if chunks and chunks[-1][0] == k:
            chunks[-1][1].append(item)
        else:
            chunks.append((k, [item]))
    return chunks


def assignments_to_text(sets: dict[str, dict[str, Value]]) -> str:
    out = ["assignments {"]
    for name, bindings in sets.items():
        out.append(f"  {name} {{")
        for param, value in bindings.items():
            out.append(f"    {param} = {format_value(value)}")
        out.append("  }")
    out.append("}")
    out.append("")
    return "\n".join(out)
