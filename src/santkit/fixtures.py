"""Bundled example templates: a parametric service user, a common-cause
failure block over any number of components, and a switch model with an
optional failure-propagation case.

These are built programmatically here and also shipped as model files in
``santkit/models``; the test suite checks the two stay identical.
"""

from __future__ import annotations

from .arclabel import arc_gate
from .sancore import Dist, PredAnd
from .template import (ActivityKind, ActivityTemplate, At, CaseEntry,
                       GateAtom, GateRule, InputGateTemplate, MExpr,
                       OutputGateTemplate, PlaceTemplate, SanTemplate)
from .terms import Sort, parse_term


def _term(text: str, params, expected=None, allow_case=False):
    return parse_term(text, params, expected=expected, allow_case=allow_case)


def build_user_template() -> SanTemplate:
    """Service user: an Idle/Request cycle over a parametric set of
    services.

    ``s`` lists the service identifiers available to the user; one request
    place is created per identifier.  ``pb`` gives the per-service request
    probabilities.  Requests end when an externally produced token shows up
    in Failed or Dropped, returning the user to idle.
    """
    params = {"s": Sort.SET_INT, "pb": Sort.SET_REAL}
    idle = PlaceTemplate("Idle", _term("{1}", params))
    req = PlaceTemplate("Req", _term("s", params))
    dropped = PlaceTemplate("Dropped", _term("{1}", params))
    failed = PlaceTemplate("Failed", _term("{1}", params))

    request = ActivityTemplate(
        name="Request", kind=ActivityKind.TIMED,
        cases=_term("|s|", params),
        case_distribution=(
            CaseEntry(None, _term("pb[<CASE>]", params, allow_case=True)),),
        time_distribution=Dist(
            "uniform", (_term("1.0", params), _term("2.0", params))))
    fail = ActivityTemplate(
        name="Fail", kind=ActivityKind.INSTANTANEOUS,
        cases=_term("1", params),
        case_distribution=(CaseEntry(None, _term("1.0", params)),))
    drop = ActivityTemplate(
        name="Drop", kind=ActivityKind.INSTANTANEOUS,
        cases=_term("1", params),
        case_distribution=(CaseEntry(None, _term("1.0", params)),))

    one = _term("1", params)
    zero = _term("0", params)
    ig_request = InputGateTemplate(
        name="IGRequest", activity="Request", places=("Idle",),
        predicate=GateAtom(At(one), "Idle", ">=", one),
        rules=(GateRule("Idle", At(one), "sub", one),))
    # Consume the externally produced completion token and clear whichever
    # request is in flight.
    arc_in_fail = InputGateTemplate(
        name="ArcInFail", activity="Fail", places=("Failed", "Req"),
        predicate=PredAnd((GateAtom(At(one), "Failed", ">=", one),
                           GateAtom("exists", "Req", ">=", one))),
        rules=(GateRule("Failed", At(one), "sub", one),
               GateRule("Req", "sat", "set", zero)))
    arc_in_drop = InputGateTemplate(
        name="ArcInDrop", activity="Drop", places=("Dropped", "Req"),
        predicate=PredAnd((GateAtom(At(one), "Dropped", ">=", one),
                           GateAtom("exists", "Req", ">=", one))),
        rules=(GateRule("Dropped", At(one), "sub", one),
               GateRule("Req", "sat", "set", zero)))

    og_request = arc_gate("output", "OGRequest", "Req", "Request",
                          "s[<CASE>] -> 1", params)
    arc_out_fail = arc_gate("output", "ArcOutFail", "Idle", "Fail", "", params)
    arc_out_drop = arc_gate("output", "ArcOutDrop", "Idle", "Drop", "", params)

    return SanTemplate(
        name="User",
        parameters=(("s", Sort.SET_INT), ("pb", Sort.SET_REAL)),
        places=(idle, req, dropped, failed),
        activities=(request, fail, drop),
        input_gates=(ig_request, arc_in_fail, arc_in_drop),
        output_gates=(og_request, arc_out_fail, arc_out_drop),
        initial_marking=(("Idle", MExpr(one)), ("Req", MExpr(zero)),
                         ("Dropped", MExpr(zero)), ("Failed", MExpr(zero))))


def build_geo_template() -> SanTemplate:
    """Common-cause failure block: all listed components fail together and
    are restored together.

    ``n`` lists the component identifiers; ``lambda_f`` / ``lambda_r`` are
    the failure and restoration rates.
    """
    params = {"n": Sort.SET_INT, "lambda_f": Sort.REAL, "lambda_r": Sort.REAL}
    geo = PlaceTemplate("GEO", _term("{1}", params))
    working = PlaceTemplate("Working_S", _term("n", params))

    single = (CaseEntry(None, _term("1.0", params)),)
    geo_f = ActivityTemplate(
        name="GEO_F", kind=ActivityKind.TIMED, cases=_term("1", params),
        case_distribution=single,
        time_distribution=Dist("exponential", (_term("lambda_f", params),)))
    geo_r = ActivityTemplate(
        name="GEO_R", kind=ActivityKind.TIMED, cases=_term("1", params),
        case_distribution=single,
        time_distribution=Dist("exponential", (_term("lambda_r", params),)))

    zero = _term("0", params)
    one = _term("1", params)
    ig_gf = InputGateTemplate(
        name="IG_GF", activity="GEO_F", places=("Working_S",),
        predicate=GateAtom("all", "Working_S", ">", zero),
        rules=(GateRule("Working_S", "all", "set", zero),))
    geo_to_geor = arc_gate("input", "GEOtoGEO_R", "GEO", "GEO_R", "", params)
    og_gr = OutputGateTemplate(
        name="OG_GR", activity="GEO_R", places=("Working_S",),
        rules=(GateRule("Working_S", "all", "set", one),))
    geof_to_geo = arc_gate("output", "GEO_FtoGEO", "GEO", "GEO_F", "", params)

    return SanTemplate(
        name="GEO",
        parameters=(("n", Sort.SET_INT), ("lambda_f", Sort.REAL),
                    ("lambda_r", Sort.REAL)),
        places=(geo, working),
        activities=(geo_f, geo_r),
        input_gates=(ig_gf, geo_to_geor),
        output_gates=(og_gr, geof_to_geo),
        initial_marking=(("GEO", MExpr(zero)),
                         ("Working_S", MExpr(one))))


def build_tmi_template() -> SanTemplate:
    """Switch with traffic-migration failure propagation.

    ``k`` is the identifier of the modeled switch and ``J`` the identifiers
    of the switches its failure can drag down; ``p_TMI`` is the propagation
    probability (zero removes the propagation case entirely), and
    ``lambda_f`` / ``lambda_r`` are failure and repair rates.
    """
    params = {"k": Sort.INT, "J": Sort.SET_INT, "p_TMI": Sort.REAL,
              "lambda_f": Sort.REAL, "lambda_r": Sort.REAL}
    working = PlaceTemplate("Working_S", _term("J union {k}", params))
    failed = PlaceTemplate("Failed_SW_S", _term("J union {k}", params))

    sw_f = ActivityTemplate(
        name="SW_F", kind=ActivityKind.TIMED,
        cases=_term("1 + (p_TMI > 0.0)", params),
        case_distribution=(
            CaseEntry(_term("<CASE> = 1", params, allow_case=True),
                      _term("1.0 - p_TMI", params)),
            CaseEntry(_term("<CASE> = 2", params, allow_case=True),
                      _term("p_TMI", params))),
        time_distribution=Dist("exponential", (_term("lambda_f", params),)))
    sw_r = ActivityTemplate(
        name="SW_R", kind=ActivityKind.TIMED, cases=_term("1", params),
        case_distribution=(CaseEntry(None, _term("1.0", params)),),
        time_distribution=Dist("exponential", (_term("lambda_r", params),)))

    working_to_swf = arc_gate("input", "Working_StoSW_F", "Working_S",
                              "SW_F", "[k >= 1] -1", params)
    failed_to_swr = arc_gate("input", "Failed_SW_StoSW_R", "Failed_SW_S",
                             "SW_R", "[k >= 1] -1", params)
    # Case 1 marks only this switch as failed; case 2 additionally takes
    # the affected switches down with it.
    og_sw = OutputGateTemplate(
        name="OG_SW", activity="SW_F",
        places=("Working_S", "Failed_SW_S"),
        rules=(GateRule("Failed_SW_S", At(_term("k", params)),
                        "set", _term("1", params),
                        when=_term("<CASE> = 1", params, allow_case=True)),
               GateRule("Working_S", "all", "set", _term("0", params),
                        when=_term("<CASE> = 2", params, allow_case=True)),
               GateRule("Failed_SW_S", "all", "set", _term("1", params),
                        when=_term("<CASE> = 2", params, allow_case=True))))
    swr_to_working = arc_gate("output", "SW_RtoWorking_S", "Working_S",
                              "SW_R", "k -> +1", params)

    return SanTemplate(
        name="SwitchTMI",
        parameters=(("k", Sort.INT), ("J", Sort.SET_INT),
                    ("p_TMI", Sort.REAL), ("lambda_f", Sort.REAL),
                    ("lambda_r", Sort.REAL)),
        places=(working, failed),
        activities=(sw_f, sw_r),
        input_gates=(working_to_swf, failed_to_swr),
        output_gates=(og_sw, swr_to_working),
        initial_marking=(("Working_S", MExpr(_term("1", params))),
                         ("Failed_SW_S", MExpr(_term("0", params)))))


# Canonical assignments used in the documentation and tests.

USER_INTERNAL = {"s": (1, 6, 7), "pb": (0.7, 0.2, 0.1)}
USER_PRESS = {"s": (3, 7), "pb": (0.6, 0.4)}
