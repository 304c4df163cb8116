"""Graphviz DOT rendering of templates and instances.

Places are circles, instantaneous activities thin bars, timed activities
thick bars, and gates triangles (left-pointing for input gates).  In a
template drawing, elements that carry variability are dashed: places with
non-unary multiplicity, activities whose case count is not a constant, and
gates touching either.  Instances never have dashed elements.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .sancore import ActivityKind, ConcreteSan
from .template import (SanTemplate, has_variable_cases,
                       is_unary_multiplicity)


def _escape(text: str) -> str:
    """``text`` inside a DOT string, where ``\\`` and ``"`` are special."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _node(name: str, shape: str, style: str, note: str = "") -> str:
    name = _escape(name)
    return f'  "{name}" [label="{name}{note}", shape={shape}, style="{style}"];'


def _edge(src: str, dst: str, style: str, label: str | None = None) -> str:
    label = f', label="{_escape(label)}"' if label else ""
    return f'  "{_escape(src)}" -> "{_escape(dst)}" [style="{style}"{label}];'


_PLACE = "circle"
_TIMED = "box, width=0.18, height=0.7, fixedsize=true, fillcolor=gray70"
_INSTANT = "box, width=0.06, height=0.7, fixedsize=true, fillcolor=black"
_IN_GATE = "triangle, orientation=270"
_OUT_GATE = "triangle, orientation=90"


def template_dashed_elements(template: SanTemplate) -> set[str]:
    """Names of the template elements that must be drawn dashed."""
    nonunary = {p.name for p in template.places
                if not is_unary_multiplicity(p)}
    variable = {a.name for a in template.activities if has_variable_cases(a)}
    return nonunary | variable | {
        g.name for g in template.input_gates + template.output_gates
        if not nonunary.isdisjoint(g.places)} | {
        g.name for g in template.output_gates if g.activity in variable}


def _to_dot(net, places: Iterable[tuple[str, str]], dashed: set[str],
            arc_label: Callable[[object], str | None]) -> str:
    """One drawing of a template or an instance: ``places`` pairs each
    place with its label's note, the elements named in ``dashed`` are
    dashed, and ``arc_label(gate)`` labels a gate's arcs to its places."""

    def style(name: str) -> str:
        return "dashed" if name in dashed else "solid"

    lines = [f'digraph "{_escape(net.name)}" {{', "  rankdir=LR;"]
    for place, note in places:
        lines.append(_node(place, _PLACE, style(place), note))
    for act in net.activities:
        shape = _TIMED if act.kind == ActivityKind.TIMED else _INSTANT
        lines.append(_node(act.name, shape, f"filled,{style(act.name)}"))
    for gate in net.input_gates:
        gate_style, label = style(gate.name), arc_label(gate)
        lines.append(_node(gate.name, _IN_GATE, gate_style))
        for place in gate.places:
            lines.append(_edge(place, gate.name, gate_style, label))
        lines.append(_edge(gate.name, gate.activity, gate_style))
    for gate in net.output_gates:
        gate_style, label = style(gate.name), arc_label(gate)
        lines.append(_node(gate.name, _OUT_GATE, gate_style))
        lines.append(_edge(gate.activity, gate.name, gate_style))
        for place in gate.places:
            lines.append(_edge(gate.name, place, gate_style, label))
    lines.append("}")
    return "\n".join(lines) + "\n"


def template_to_dot(template: SanTemplate) -> str:
    return _to_dot(template, [(p.name, "") for p in template.places],
                   template_dashed_elements(template),
                   lambda gate: gate.arc_label)


def san_to_dot(san: ConcreteSan) -> str:
    marking = san.initial_marking_dict()
    places = [(p, f"\\n({marking[p]})" if marking.get(p) else "")
              for p in san.places]
    return _to_dot(san, places, set(), lambda gate: None)
