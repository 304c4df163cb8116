"""Graphviz DOT rendering of templates and instances.

Places are circles, instantaneous activities thin bars, timed activities
thick bars, and gates triangles (left-pointing for input gates).  In a
template drawing, elements that carry variability are dashed: places with
non-unary multiplicity, activities whose case count is not a constant, and
gates touching either.  Instances never have dashed elements.
"""

from __future__ import annotations

from .sancore import ActivityKind, ConcreteSan
from .template import (SanTemplate, has_variable_cases,
                       is_unary_multiplicity)


def _node(name: str, shape: str, dashed: bool, label: str | None = None,
          filled: bool = False) -> str:
    style = "dashed" if dashed else "solid"
    if filled:
        style = f"filled,{style}"
    label = name if label is None else label
    return (f'  "{name}" [label="{label}", shape={shape}, '
            f'style="{style}"];')


def _edge(src: str, dst: str, dashed: bool, label: str | None = None) -> str:
    attrs = [f'style="{"dashed" if dashed else "solid"}"']
    if label:
        attrs.append(f'label="{label}"')
    return f'  "{src}" -> "{dst}" [{", ".join(attrs)}];'


_PLACE = "circle"
_TIMED = "box, width=0.18, height=0.7, fixedsize=true, fillcolor=gray70"
_INSTANT = "box, width=0.06, height=0.7, fixedsize=true, fillcolor=black"
_IN_GATE = "triangle, orientation=270"
_OUT_GATE = "triangle, orientation=90"


def template_dashed_elements(template: SanTemplate) -> set[str]:
    """Names of the template elements that must be drawn dashed."""
    dashed: set[str] = set()
    nonunary = {p.name for p in template.places
                if not is_unary_multiplicity(p)}
    dashed |= nonunary
    variable = {a.name for a in template.activities if has_variable_cases(a)}
    dashed |= variable
    for gate in template.input_gates:
        if any(p in nonunary for p in gate.places):
            dashed.add(gate.name)
    for gate in template.output_gates:
        if any(p in nonunary for p in gate.places) or gate.activity in variable:
            dashed.add(gate.name)
    return dashed


def template_to_dot(template: SanTemplate) -> str:
    dashed = template_dashed_elements(template)
    lines = [f'digraph "{template.name}" {{', "  rankdir=LR;"]
    for place in template.places:
        lines.append(_node(place.name, _PLACE, place.name in dashed))
    for act in template.activities:
        shape = _TIMED if act.kind == ActivityKind.TIMED else _INSTANT
        lines.append(_node(act.name, shape, act.name in dashed, filled=True))
    for gate in template.input_gates:
        lines.append(_node(gate.name, _IN_GATE, gate.name in dashed))
        for place in gate.places:
            lines.append(_edge(place, gate.name, gate.name in dashed,
                               label=gate.arc_label or None))
        lines.append(_edge(gate.name, gate.activity, gate.name in dashed))
    for gate in template.output_gates:
        lines.append(_node(gate.name, _OUT_GATE, gate.name in dashed))
        lines.append(_edge(gate.activity, gate.name, gate.name in dashed))
        for place in gate.places:
            lines.append(_edge(gate.name, place, gate.name in dashed,
                               label=gate.arc_label or None))
    lines.append("}")
    return "\n".join(lines) + "\n"


def san_to_dot(san: ConcreteSan) -> str:
    marking = san.initial_marking_dict()
    lines = [f'digraph "{san.name}" {{', "  rankdir=LR;"]
    for place in san.places:
        tokens = marking.get(place, 0)
        label = f"{place}\\n({tokens})" if tokens else place
        lines.append(_node(place, _PLACE, False, label=label))
    for act in san.activities:
        shape = _TIMED if act.kind == ActivityKind.TIMED else _INSTANT
        lines.append(_node(act.name, shape, False, filled=True))
    for gate in san.input_gates:
        lines.append(_node(gate.name, _IN_GATE, False))
        for place in gate.places:
            lines.append(_edge(place, gate.name, False))
        lines.append(_edge(gate.name, gate.activity, False))
    for gate in san.output_gates:
        lines.append(_node(gate.name, _OUT_GATE, False))
        lines.append(_edge(gate.activity, gate.name, False))
        for place in gate.places:
            lines.append(_edge(gate.name, place, False))
    lines.append("}")
    return "\n".join(lines) + "\n"
