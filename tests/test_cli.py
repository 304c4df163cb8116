"""Command-line interface: exit codes, outputs, and error reporting."""

from __future__ import annotations

import copy
import functools
import json
import math
import re
import runpy
import shlex
import sys
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from santkit import lexer, sancore
from santkit.cli import main, parse_reward
from santkit.concretize import concretize
from santkit.errors import ParseError, SantError
from santkit.jsonio import json_to_san, san_to_json
from santkit.modelfile import (coerce_assignment, load_assignments,
                               load_template, parse_template_text,
                               template_to_text)
from santkit.record import Record, replace
from santkit.sim import RewardSpec
from santkit.template import validate_template
from santkit.terms import (Apply, CaseIndex, Const, Param, PlaceIndex, Sort,
                           infer_sort, parse_term)

MODELS = resources.files("santkit") / "models"
USER = str(MODELS / "user.sant")
USER_ASSIGN = str(MODELS / "user.sasg")
GEO = str(MODELS / "geo.sant")
GEO_ASSIGN = str(MODELS / "geo.sasg")


def test_validate_ok(capsys):
    assert main(["validate", USER]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/x.sant"]) == 1
    assert capsys.readouterr().err == ("error: [Errno 2] No such file or "
                                       "directory: '/nonexistent/x.sant'\n")


def test_validate_truncated_file(tmp_path, capsys):
    text = (MODELS / "user.sant").read_text()
    broken = tmp_path / "broken.sant"
    broken.write_text(text[: len(text) // 2])
    assert main(["validate", str(broken)]) == 1
    err = capsys.readouterr().err
    with pytest.raises(ParseError) as info:
        parse_template_text(text[: len(text) // 2])
    # The parser's message and position, after the path.
    assert err == f"error: {broken}:{info.value}\n"


_TRUNCATED = {"sant": (MODELS / "user.sant").read_text()[:200],
              "sasg": "assignments {\n  X {\n",
              "sanx": '{"schema": '}


@pytest.mark.parametrize("suffix, argv", [
    ("sant", ["instantiate", "{bad}", USER_ASSIGN,
              "--assignment", "UserInternal", "--out", "-"]),
    ("sasg", ["instantiate", USER, "{bad}", "--assignment", "X",
              "--out", "-"]),
    ("sanx", ["simulate", "{bad}", "--horizon", "10"]),
    ("sanx", ["export", "{bad}"]),
], ids=["sant-instantiate", "sasg-instantiate", "sanx-simulate",
        "sanx-export"])
def test_parse_error_names_its_file(tmp_path, capsys, suffix, argv):
    bad = tmp_path / f"bad.{suffix}"
    bad.write_text(_TRUNCATED[suffix])
    assert main([arg.format(bad=bad) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: {re.escape(str(bad))}:\d+:\d+: .+\n", err)


# Literals take only the ASCII digits: "²" once crashed int() (exit 2) and
# "٣" was silently read as 3.
@pytest.mark.parametrize("source, old, new, argv, position", [
    ("geo.sant", "GEO = {1}", "GEO = {²}", ["validate", "{bad}"],
     "13:10: unexpected character '²'"),
    ("geo.sant", "Working_S = 1\n}", "Working_S = ٣\n}", ["validate", "{bad}"],
     "44:15: unexpected character '٣'"),
    ("geo.sasg", "n = {1, 2}", "n = ²",
     ["instantiate", GEO, "{bad}", "--assignment", "GeoPair", "--out", "-"],
     "3:9: unexpected character '²'"),
], ids=["sant-superscript-multiplicity", "sant-arabic-indic-marking",
        "sasg-superscript-binding"])
def test_non_ascii_digit_is_a_user_error(tmp_path, capsys, source, old, new,
                                         argv, position):
    text = (MODELS / source).read_text(encoding="utf-8")
    assert text.count(old) == 1
    bad = tmp_path / source
    bad.write_text(text.replace(old, new), encoding="utf-8")
    assert main([arg.format(bad=bad) for arg in argv]) == 1
    assert capsys.readouterr().err == f"error: {bad}:{position}\n"


# A repeated key was once read last-wins and validated "ok" (exit 0).
@pytest.mark.parametrize("source, old, new, argv, position", [
    ("user.sant", "    cases = |s|\n", "    cases = |s|\n    cases = 1\n",
     ["validate", "{bad}"], "22:5: activity 'Request' sets 'cases' twice"),
    ("user.sant", "    enabled = Idle[1] >= 1\n",
     "    enabled = Idle[1] >= 1\n    enabled = Idle[1] >= 0\n",
     ["validate", "{bad}"], "33:5: gate 'IGRequest' sets 'enabled' twice"),
    ("user.sant", "  Idle = 1\n}", "  Idle = 1\n  Idle = 3\n}",
     ["validate", "{bad}"], "55:3: place 'Idle' marked twice"),
    ("user.sasg", "    s = {2}\n", "    s = {2}\n    s = {3}\n",
     ["instantiate", USER, "{bad}", "--assignment", "UserSingle",
      "--out", "-"],
     "12:5: parameter 's' bound twice in assignment 'UserSingle'"),
], ids=["cases", "enabled", "marking", "binding"])
def test_repeated_key_is_a_user_error(tmp_path, capsys, source, old, new,
                                      argv, position):
    text = (MODELS / source).read_text(encoding="utf-8")
    assert text.count(old) == 1
    bad = tmp_path / source
    bad.write_text(text.replace(old, new), encoding="utf-8")
    assert main([arg.format(bad=bad) for arg in argv]) == 1
    assert capsys.readouterr().err == f"error: {bad}:{position}\n"


# A case takes the first prob row whose guard holds, so these rows were
# never used, yet they validated "ok" (exit 0).
_TMI_CASE_2 = "      case 2: p_TMI\n"


@pytest.mark.parametrize("rows, position", [
    ("case 2: 0.9", "26:7: activity 'SW_F' prob has a repeated guard"),
    ("when <CASE> = 2: 0.9",
     "26:7: activity 'SW_F' prob has a repeated guard"),
    ("default: 0.5\n      default: 0.1",
     "27:7: activity 'SW_F' prob has a second 'default:'"),
    ("default: 0.5\n      when <CASE> > 2: 0.1",
     "27:7: activity 'SW_F' prob has a row after 'default:'"),
    ("case 2: 0.9\n      default: 0.5\n      default: 0.1",
     "26:7: activity 'SW_F' prob has a repeated guard"),
], ids=["case-twice", "case-then-when", "default-twice", "row-after-default",
        "all-three"])
def test_dead_prob_row_is_a_user_error(tmp_path, capsys, rows, position):
    text = (MODELS / "tmi.sant").read_text(encoding="utf-8")
    assert text.count(_TMI_CASE_2) == 1
    bad = tmp_path / "tmi.sant"
    bad.write_text(text.replace(_TMI_CASE_2, f"{_TMI_CASE_2}      {rows}\n"),
                   encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {bad}:{position}\n"


# Well-formedness rules of terms and templates, each broken in one bundled
# model; a rule that ran in no test once let faults through unnoticed.
@pytest.mark.parametrize("source, old, new, fault", [
    ("user.sant", "  Req = s\n", "  Req = {1, 2.0}\n",
     "error: {bad}:14:9: mixed sorts in set literal: (int, real)"),
    ("user.sant", "cases = |s|", "cases = not 1",
     "error: {bad}:21:13: expected a boolean operand"),
    ("user.sant", "cases = |s|", "cases = union",
     "error: {bad}:21:13: found 'union' (expected a term)"),
    ("tmi.sant", "prob {\n      case 1: 1.0 - p_TMI\n      case 2: p_TMI\n"
     "    }", "prob { }",
     "{bad}:21:9: error: empty-case-distribution: no case probability "
     "entries [activity SW_F]"),
    ("geo.sant", "effect = Working_S[all] := 0", "effect = GEO[all] := 0",
     "{bad}:27:9: error: place-outside-gate: rule updates place 'GEO' "
     "outside the gate's place set [gate IG_GF]"),
    ("user.sant", "places = Idle\n", "places = Idle, Idle\n",
     "{bad}:30:9: error: duplicate-place: gate lists place 'Idle' more than "
     "once [gate IGRequest]"),
], ids=["mixed-set-literal", "not-of-an-int", "keyword-as-term",
        "empty-prob-block", "rule-outside-gate", "gate-place-twice"])
def test_ill_formed_template_is_a_user_error(tmp_path, capsys, source, old,
                                             new, fault):
    text = (MODELS / source).read_text(encoding="utf-8")
    assert text.count(old) == 1
    bad = tmp_path / source
    bad.write_text(text.replace(old, new), encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr() == ("", fault.format(bad=bad) + "\n")


def test_negative_uniform_delay_is_refused(tmp_path, capsys):
    # It once validated, and the simulator ran time backwards.
    text = (MODELS / "geo.sant").read_text(encoding="utf-8")
    bad = tmp_path / "geo.sant"
    bad.write_text(text.replace("exponential(lambda_r)", "uniform(-1.0, 1.0)"),
                   encoding="utf-8")
    assert main(["simulate", str(bad), GEO_ASSIGN, "--assignment", "GeoPair",
                 "--horizon", "100", "--reps", "3"]) == 1
    assert capsys.readouterr() == ("", (
        "error: validation failed:\n"
        "error: invalid-parameter: uniform bounds must satisfy "
        "0 <= low <= high < inf, got (-1.0, 1.0) [activity GEO_R]\n"))


# A float product that overflows is inf, not an evaluation error: each
# family once took it, and the activity fired at once or never.
@pytest.mark.parametrize("old, new, fault", [
    ("exponential(lambda_f)", "exponential(lambda_f * 1e300 * 1e300)",
     "exponential rate must be positive and finite, got (inf,) "
     "[activity GEO_F]"),
    ("exponential(lambda_r)", "uniform(0.0, lambda_r * 1e300 * 1e300)",
     "uniform bounds must satisfy 0 <= low <= high < inf, got (0.0, inf) "
     "[activity GEO_R]"),
    ("exponential(lambda_r)", "deterministic(lambda_r * 1e300 * 1e300)",
     "deterministic delay must be nonnegative and finite, got (inf,) "
     "[activity GEO_R]"),
], ids=["exponential", "uniform", "deterministic"])
def test_infinite_computed_parameter_is_refused(tmp_path, capsys, old, new,
                                                fault):
    text = (MODELS / "geo.sant").read_text(encoding="utf-8")
    assert text.count(old) == 1
    bad = tmp_path / "geo.sant"
    bad.write_text(text.replace(old, new), encoding="utf-8")
    assert main(["simulate", str(bad), GEO_ASSIGN, "--assignment", "GeoPair",
                 "--horizon", "5", "--reward", "throughput:GEO_F"]) == 1
    assert capsys.readouterr() == (
        "", f"error: validation failed:\nerror: invalid-parameter: {fault}\n")


_NO_PARAMETERS = "assignments {\n  Empty { }\n}\n"

# One instantaneous activity that takes a token its place does not hold.
_UNDERFLOW = """template Underflow

places {
  P = {1}
}

activities {
  instantaneous I
}

gates {
  input G : I {
    places = P
    enabled = P[1] >= 0
    effect = P[1] -= 1
  }
}
"""

# Two instantaneous activities that each move P's token to Q.
_DIAMOND = """template Diamond

places {
  P = {1}
  Q = {1}
}

activities {
  instantaneous A
  instantaneous B
}

arcs {
  input PtoA : P -> A
  input PtoB : P -> B
  output AtoQ : A -> Q
  output BtoQ : B -> Q
}

marking {
  P = 1
}
"""


def _instantiate(tmp_path, text: str) -> list[str]:
    template = tmp_path / "net.sant"
    template.write_text(text, encoding="utf-8")
    assignments = tmp_path / "empty.sasg"
    assignments.write_text(_NO_PARAMETERS, encoding="utf-8")
    return ["instantiate", str(template), str(assignments),
            "--assignment", "Empty", "--out", str(tmp_path / "net.sanx")]


def test_failed_instability_search_warns(tmp_path, capsys):
    # The search fires I from the initial marking, which drives P_1 below
    # zero: validation warns, and the simulator refuses the instance.
    assert main(_instantiate(tmp_path, _UNDERFLOW)) == 0
    assert capsys.readouterr() == (
        "Empty: |P|=1 |A|=1 |I|=1 |O|=0 sum(cases)=1\n"
        f"wrote {tmp_path / 'net.sanx'}\n",
        "warning: instability-check: instability search failed: gate 'G' "
        "drives place 'P_1' to -1\n")
    assert main(["simulate", str(tmp_path / "net.sanx"),
                 "--horizon", "10"]) == 1
    assert capsys.readouterr() == (
        "", "error: gate 'G' drives place 'P_1' to -1\n")


def test_instability_search_meets_a_stable_marking_twice(tmp_path, capsys):
    # A and B both lead to P_1=0, Q_1=1; the search finds it stable once
    # and skips it the second time.
    assert main(_instantiate(tmp_path, _DIAMOND)) == 0
    assert capsys.readouterr().err == ""
    diamond = parse_template_text(_DIAMOND).template
    assert sancore.validate_san(concretize(diamond, {})) == []


def test_python_dash_m_runs_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["sant", "bundled"])
    with pytest.raises(SystemExit) as stop:
        runpy.run_module("santkit", run_name="__main__")
    assert stop.value.code == 0
    assert capsys.readouterr().out.splitlines() == [
        str(MODELS / name) for name in sorted(
            entry.name for entry in MODELS.iterdir())]


_SIMULATE = ["simulate", GEO, GEO_ASSIGN, "--assignment", "GeoPair"]


# A usage error is a user error (exit 1), not an internal one (exit 2); the
# usage line still goes to stderr.  The numeric options read what the
# model files' number literals spell: no sign but a minus, no "_", space,
# non-ASCII digit, "inf" or "nan".
@pytest.mark.parametrize("argv, fault", [
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
    (["validate"], "the following arguments are required: model"),
    (_SIMULATE, "the following arguments are required: --horizon"),
    (_SIMULATE + ["--horizon", "10", "--bogus"],
     "unrecognized arguments: --bogus"),
    (_SIMULATE + ["--horizon", "abc"],
     "argument --horizon: invalid float value: 'abc'"),
    (_SIMULATE + ["--horizon", "٣"],
     "argument --horizon: invalid float value: '٣'"),
    (_SIMULATE + ["--horizon", "10", "--seed", "٣"],
     "argument --seed: invalid int value: '٣'"),
    (_SIMULATE + ["--horizon", "10", "--reps", "٣"],
     "argument --reps: invalid int value: '٣'"),
    (_SIMULATE + ["--horizon", "10", "--max-events", "٣"],
     "argument --max-events: invalid int value: '٣'"),
    (_SIMULATE + ["--horizon", "1٠"],
     "argument --horizon: invalid float value: '1٠'"),
    (_SIMULATE + ["--horizon", "10", "--seed", " 1_0 "],
     "argument --seed: invalid int value: ' 1_0 '"),
    (_SIMULATE + ["--horizon", "10", "--reps", "0_2"],
     "argument --reps: invalid int value: '0_2'"),
    (_SIMULATE + ["--horizon", " 1_0.5 "],
     "argument --horizon: invalid float value: ' 1_0.5 '"),
    (_SIMULATE + ["--horizon", "10", "--max-events", "+5"],
     "argument --max-events: invalid int value: '+5'"),
    (_SIMULATE + ["--horizon", "inf"],
     "argument --horizon: invalid float value: 'inf'"),
    (_SIMULATE + ["--horizon", "nan"],
     "argument --horizon: invalid float value: 'nan'"),
    (_SIMULATE + ["--horizon", "10", "--seed", "1.0"],
     "argument --seed: invalid int value: '1.0'"),
], ids=["unknown-command", "no-command", "no-model", "no-horizon",
        "unknown-option", "horizon-not-a-number", "horizon-arabic-indic",
        "seed-arabic-indic", "reps-arabic-indic", "max-events-arabic-indic",
        "horizon-mixed-digits", "seed-underscore-spaces", "reps-underscore",
        "horizon-underscore-spaces", "max-events-plus-sign", "horizon-inf",
        "horizon-nan", "seed-real"])
def test_usage_error_is_a_user_error(capsys, argv, fault):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: sant")
    assert f": error: {fault}" in captured.err


def test_help_exits_0(capsys):
    for argv in (["--help"], ["simulate", "--help"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: sant")


@pytest.mark.parametrize("option, value, fault", [
    ("--seed", "-1", "seed must be nonnegative, got -1"),
    ("--horizon", "-1.5", "horizon must be positive and finite, got -1.5"),
    ("--reps", "-0", "at least one replication is required"),
    ("--max-events", "-2", "max_events must be positive"),
])
def test_negative_option_reaches_its_own_message(capsys, option, value,
                                                 fault):
    argv = _SIMULATE + ["--horizon", "10", option, value]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {fault}\n")


def test_ascii_numeric_options_still_read(capsys):
    assert main(_SIMULATE + ["--horizon", "1e1", "--seed", "3",
                             "--reps", "2", "--max-events", "1000",
                             "--reward", "throughput:GEO_F"]) == 0
    assert "seed=3 horizon=10.0 reps=2" in capsys.readouterr().out


def test_validate_reports_sort_mismatch(tmp_path, capsys):
    text = (MODELS / "user.sant").read_text().replace(
        "cases = |s|", "cases = pb[1]")
    bad = tmp_path / "bad.sant"
    bad.write_text(text)
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "sort-mismatch" in err
    assert "activity Request" in err


@pytest.mark.parametrize("time, message", [
    ("exponential(-1.0)", "exponential rate must be positive and finite, "
     "got (-1.0,)"),
    ("exponential(1e300 * 1e300)", "exponential rate must be positive and "
     "finite, got (inf,)"),
    ("uniform(-1.0, 1.0)", "uniform bounds must satisfy "
     "0 <= low <= high < inf, got (-1.0, 1.0)"),
    ("deterministic(0.0 - 0.5)",
     "deterministic delay must be nonnegative and finite, got (-0.5,)"),
    ("exponential(1.0 / 0.0)", "division by zero"),
], ids=["rate-negative", "rate-infinite", "uniform-negative",
        "delay-negative", "division-by-zero"])
def test_validate_checks_constant_distribution_parameters(tmp_path, capsys,
                                                          time, message):
    # A parameter that names no model parameter is known before any
    # instance exists, so the template gets the family's own check.
    text = (MODELS / "geo.sant").read_text()
    assert text.count("exponential(lambda_r)") == 1
    bad = tmp_path / "bad.sant"
    bad.write_text(text.replace("exponential(lambda_r)", time))
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err == \
        f"{bad}:21:9: error: invalid-parameter: {message} [activity GEO_R]\n"


# The instance rules that a closed case count, prob row, marking value or
# := value decides, reported by the template at its element's position.
@pytest.mark.parametrize("source, old, new, fault", [
    ("tmi.sant", "cases = 1 + (p_TMI > 0.0)", "cases = 0",
     "21:9: error: case-count: activity has 0 cases [activity SW_F]"),
    ("tmi.sant", "cases = 1 + (p_TMI > 0.0)", "cases = 1 % 0",
     "21:9: error: case-count: modulo by zero [activity SW_F]"),
    ("tmi.sant", "cases = 1 + (p_TMI > 0.0)", "cases = 30000000",
     "21:9: error: instance-size: activity has 30000000 cases, above the "
     "ceiling 20000000 [activity SW_F]"),
    ("user.sant", "prob = pb[<CASE>]", "prob = 1.5",
     "20:9: error: normalization: case probability outside [0, 1] "
     "[activity Request]"),
    ("user.sant", "prob = pb[<CASE>]", f"prob = to_real(1{'0' * 400})",
     "20:9: error: normalization: integer too large to convert to a real "
     "[activity Request]"),
    ("user.sant", "  Idle = 1\n}", "  Idle = 0 - 2\n}",
     "54:3: error: negative-marking: initial marking of 'Idle' is -2 "
     "[marking Idle]"),
    ("tmi.sant", "Working_S = 1", "Working_S = on({1}, 0 - 1)",
     "52:3: error: negative-marking: initial marking of 'Working_S' is -1 "
     "[marking Working_S]"),
    ("geo.sant", "Working_S[all] := 0", "Working_S[all] := -1",
     "27:9: error: negative-marking: update sets 'Working_S' to -1 "
     "[gate IG_GF]"),
], ids=["zero-cases", "cases-fail-to-evaluate", "cases-above-the-ceiling",
        "prob-above-one", "prob-past-the-real-range", "negative-marking",
        "negative-marking-on-set", "negative-set"])
def test_validate_decides_closed_instance_rules(tmp_path, capsys, source, old,
                                                new, fault):
    text = (MODELS / source).read_text(encoding="utf-8")
    assert text.count(old) == 1
    bad = tmp_path / source
    bad.write_text(text.replace(old, new), encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr() == ("", f"{bad}:{fault}\n")


def test_oversized_instance_is_refused_before_it_is_built(tmp_path, capsys):
    # Ten million cases of a gate over four places: refused from the case
    # count and place lists alone, before any case is built.
    text = (MODELS / "tmi.sant").read_text(encoding="utf-8")
    bad = tmp_path / "tmi.sant"
    bad.write_text(text.replace("cases = 1 + (p_TMI > 0.0)",
                                "cases = 10000000 + (p_TMI > 0.0)"),
                   encoding="utf-8")
    assert main(["instantiate", str(bad), str(MODELS / "tmi.sasg"),
                 "--assignment", "TmiPair", "--out", "-"]) == 1
    assert capsys.readouterr() == ("", (
        "error: validation failed:\n"
        "error: instance-size: instance size 50000016 exceeds the ceiling "
        "20000000; the largest part counts 40000004 [gate OG_SW]\n"))


# A real literal past the float range would read as inf; each text format
# refuses it where it is written.
@pytest.mark.parametrize("source, old, new, argv, fault", [
    ("geo.sant", "exponential(lambda_r)", "exponential(1e999)",
     ["validate", "{bad}"], "22:24: real literal 1e999 is out of range"),
    ("user.sant", '"s[<CASE>] -> 1"', '"s[<CASE>] -> (1e999 > 0.0)"',
     ["validate", "{bad}"], "48:10: in label of arc 'OGRequest': 1:15: "
     "real literal 1e999 is out of range"),
    ("geo.sasg", "lambda_f = 1.0", "lambda_f = 1e999",
     ["simulate", GEO, "{bad}", "--assignment", "GeoPair", "--horizon", "10"],
     "4:16: real literal 1e999 is out of range"),
], ids=["template-term", "arc-label", "assignment-literal"])
def test_real_literal_out_of_range_is_a_parse_error(tmp_path, capsys, source,
                                                    old, new, argv, fault):
    text = (MODELS / source).read_text(encoding="utf-8")
    assert text.count(old) == 1
    bad = tmp_path / source
    bad.write_text(text.replace(old, new), encoding="utf-8")
    assert main([arg.format(bad=bad) for arg in argv]) == 1
    assert capsys.readouterr() == ("", f"error: {bad}:{fault}\n")


# Ints past Python's 4,300-digit string conversion limit, and past the float
# range where a real is expected, once crashed int() or float() (exit 2).
_LONG = "1" * 5000
_HUGE = "9" * 3000


@pytest.mark.parametrize("source, old, new, argv, fault", [
    ("user.sant", "cases = |s|", f"cases = {_LONG}", ["validate", "{bad}"],
     "error: {bad}:21:13: integer literal of 5000 digits is too long"),
    ("geo.sant", "  Working_S = 1\n}", f"  Working_S = table(1: {_LONG})\n}}",
     ["validate", "{bad}"],
     "error: {bad}:44:24: integer literal of 5000 digits is too long"),
    ("geo.sasg", "lambda_f = 1.0", f"lambda_f = {_LONG}",
     ["simulate", GEO, "{bad}", "--assignment", "GeoPair", "--horizon", "10"],
     "error: {bad}:4:16: integer literal of 5000 digits is too long"),
    ("geo.sasg", "lambda_f = 1.0", f"lambda_f = 1{'0' * 400}",
     ["simulate", GEO, "{bad}", "--assignment", "GeoPair", "--horizon", "10"],
     "error: parameter 'lambda_f': integer too large to convert to a real"),
    ("user.sasg", "pb = {0.7, 0.2, 0.1}", f"pb = {{1{'0' * 400}, 0, 0}}",
     ["instantiate", USER, "{bad}", "--assignment", "UserInternal",
      "--out", "-"],
     "error: parameter 'pb': integer too large to convert to a real"),
    ("user.sasg", "pb = {0.7, 0.2, 0.1}", f"pb = {{1{'0' * 400}, 0.2, 0.1}}",
     ["instantiate", USER, "{bad}", "--assignment", "UserInternal",
      "--out", "-"],
     "error: {bad}:4:10: integer too large to convert to a real"),
    ("geo.sant", "  Working_S = 1\n}", f"  Working_S = {_HUGE} * {_HUGE}\n}}",
     ["instantiate", "{bad}", GEO_ASSIGN, "--assignment", "GeoPair",
      "--out", "-"],
     "error: $.marking.Working_S_1: integer too large to write"),
], ids=["sant-term", "sant-table", "sasg-literal", "sasg-real",
        "sasg-set-of-reals", "sasg-mixed-set", "computed-marking"])
def test_oversized_integer_is_a_user_error(tmp_path, capsys, source, old, new,
                                           argv, fault):
    text = (MODELS / source).read_text(encoding="utf-8")
    assert text.count(old) == 1
    bad = tmp_path / source
    bad.write_text(text.replace(old, new), encoding="utf-8")
    assert main([arg.format(bad=bad) for arg in argv]) == 1
    assert capsys.readouterr() == ("", fault.format(bad=bad) + "\n")


def test_oversized_integer_writes_no_file(tmp_path, capsys):
    # The whole document is encoded before the output file is opened.
    text = (MODELS / "geo.sant").read_text(encoding="utf-8")
    assert text.count("  Working_S = 1\n}") == 1
    bad = tmp_path / "geo.sant"
    bad.write_text(text.replace("  Working_S = 1\n}",
                                f"  Working_S = {_HUGE} * {_HUGE}\n}}"),
                   encoding="utf-8")
    out = tmp_path / "out.sanx"
    assert main(["instantiate", str(bad), GEO_ASSIGN, "--assignment",
                 "GeoPair", "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", "error: $.marking.Working_S_1: integer too large to write\n")
    assert not out.exists()


# An assignment's set literal holds numbers only.  A nested set once crashed
# the conversion to reals (exit 2), and a bool was bound as a probability.
@pytest.mark.parametrize("element, fault", [
    ("{}", "4:21: found '{' (expected a number)"),
    ("false", "4:21: found 'false' (expected a number)"),
], ids=["nested-set", "bool"])
def test_set_literal_holds_numbers(tmp_path, capsys, element, fault):
    text = (MODELS / "user.sasg").read_text(encoding="utf-8")
    old = "pb = {0.7, 0.2, 0.1}"
    assert text.count(old) == 1
    bad = tmp_path / "user.sasg"
    bad.write_text(text.replace(old, f"pb = {{0.7, 0.2, {element}}}"),
                   encoding="utf-8")
    assert main(["instantiate", USER, str(bad), "--assignment",
                 "UserInternal", "--out", "-"]) == 1
    assert capsys.readouterr() == ("", f"error: {bad}:{fault}\n")


def test_oversized_integer_in_an_instance_is_a_user_error(tmp_path, capsys):
    instance = tmp_path / "tmi.sanx"
    assert main(["instantiate", str(MODELS / "tmi.sant"),
                 str(MODELS / "tmi.sasg"), "--assignment", "TmiPair",
                 "--out", str(instance)]) == 0
    capsys.readouterr()
    text = instance.read_text()
    assert text.count('"cases": 2,') == 1
    instance.write_text(text.replace('"cases": 2,', f'"cases": {_LONG},'))
    at = text.index('"cases": 2,') + len('"cases": ')
    line, col = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
    assert main(["simulate", str(instance), "--horizon", "10"]) == 1
    assert capsys.readouterr() == (
        "", f"error: {instance}:{line}:{col}: integer literal of 5000 digits "
        "is too long\n")


def test_oversized_computed_threshold_simulates(tmp_path, capsys):
    # The simulator writes ints into its generated source; one that str()
    # refuses is bound by name, and GEO_F is never enabled.
    bad = tmp_path / "geo.sant"
    bad.write_text((MODELS / "geo.sant").read_text().replace(
        "all Working_S > 0", f"all Working_S >= {_HUGE} * {_HUGE}"))
    assert main(["simulate", str(bad), GEO_ASSIGN, "--assignment", "GeoPair",
                 "--horizon", "10", "--reward", "throughput:GEO_F"]) == 0
    assert "events=0" in capsys.readouterr().out


_SIMULATE_GEO = ["simulate", "{bad}", GEO_ASSIGN, "--assignment", "GeoPair",
                 "--horizon", "10"]


# A computed int past the string conversion limit is named by its size in
# a message (once exit 2 wherever a message formatted it).
@pytest.mark.parametrize("source, old, new, argv, fault", [
    ("geo.sant", "Working_S[all] := 0", f"Working_S[all] -= {_HUGE} * {_HUGE}",
     _SIMULATE_GEO,
     "error: gate 'IG_GF' drives place 'Working_S_1' to a negative "
     "6000-digit integer"),
    ("geo.sant", "Working_S[all] := 0",
     f"Working_S[all] := 0 - {_HUGE} * {_HUGE}", _SIMULATE_GEO,
     "error: validation failed:\nerror: negative-marking: update sets "
     "'Working_S' to a negative 6000-digit integer [gate IG_GF]"),
    ("geo.sant", "  Working_S = 1\n}",
     f"  Working_S = 0 - {_HUGE} * {_HUGE}\n}}", ["validate", "{bad}"],
     "{bad}:44:3: error: negative-marking: initial marking of 'Working_S' "
     "is a negative 6000-digit integer [marking Working_S]"),
    ("tmi.sant", "cases = 1 + (p_TMI > 0.0)",
     f"cases = 0 - {_HUGE} * {_HUGE}",
     ["validate", "{bad}"],
     "{bad}:21:9: error: case-count: activity has a negative 6000-digit "
     "integer cases [activity SW_F]"),
    ("geo.sant", "GEO = {1}", f"GEO = {{{_HUGE} * {_HUGE}}}",
     ["validate", "{bad}"],
     "{bad}:13:3: error: place-index: index a 6000-digit integer of place "
     "'GEO' is too long to name a place [place GEO]"),
    ("geo.sant", "GEO = {1}", f"GEO = {{{_HUGE} * {_HUGE}}}",
     ["instantiate", "{bad}", GEO_ASSIGN, "--assignment", "GeoPair",
      "--out", "-"],
     "error: validation failed:\nerror: place-index: index a 6000-digit "
     "integer of place 'GEO' is too long to name a place [place GEO]"),
    ("geo.sant", "GEO = {1}", f"GEO = {{0 - |n| * {_HUGE} * {_HUGE}}}",
     _SIMULATE_GEO,
     "error: index a negative 6001-digit integer of place 'GEO' is too long "
     "to name a place"),
    ("tmi.sant", "cases = 1 + (p_TMI > 0.0)",
     f"cases = {_HUGE} * {_HUGE} + (p_TMI > 0.0)",
     ["instantiate", "{bad}", str(MODELS / "tmi.sasg"), "--assignment",
      "TmiPair", "--out", "-"],
     "error: validation failed:\nerror: instance-size: instance size a "
     "6001-digit integer exceeds the ceiling 20000000; the largest part "
     "counts a 6001-digit integer [gate OG_SW]"),
    ("user.sant", "prob = pb[<CASE>]", f"prob = pb[<CASE> * {_HUGE} * {_HUGE}]",
     ["instantiate", "{bad}", USER_ASSIGN, "--assignment", "UserInternal",
      "--out", "-"],
     "error: index a 6000-digit integer out of range for length 3"),
], ids=["sub-in-program", "negative-set", "negative-marking", "case-count",
        "place-index-closed", "place-index-instantiate",
        "place-index-computed", "instance-size-computed",
        "set-index-computed"])
def test_oversized_computed_int_in_a_message(tmp_path, capsys, source, old,
                                             new, argv, fault):
    text = (MODELS / source).read_text(encoding="utf-8")
    assert text.count(old) == 1
    bad = tmp_path / source
    bad.write_text(text.replace(old, new), encoding="utf-8")
    assert main([arg.format(bad=bad) for arg in argv]) == 1
    assert capsys.readouterr().err == fault.format(bad=bad) + "\n"


@pytest.mark.parametrize("model", ["geo.sant", "tmi.sant", "user.sant"])
def test_validate_passes_bundled_and_valid_constant_parameters(
        tmp_path, capsys, model):
    # user.sant's ``uniform(1.0, 2.0)`` is closed as bundled; GEO's and
    # TMI's repair rate becomes a closed term too.
    good = tmp_path / model
    good.write_text((MODELS / model).read_text().replace(
        "exponential(lambda_r)", "exponential(2.0 / 4.0)"))
    for path in (MODELS / model, good):
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out == f"{path}: ok\n"


def test_instantiate_writes_instance(tmp_path, capsys):
    out = tmp_path / "ui.sanx"
    code = main(["instantiate", USER, USER_ASSIGN,
                 "--assignment", "UserInternal", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "santkit-instance/2"
    assert set(doc["places"]) == {"Idle_1", "Req_1", "Req_6", "Req_7",
                                  "Dropped_1", "Failed_1"}
    stdout = capsys.readouterr().out
    assert "|P|=6" in stdout and "|O|=5" in stdout


def test_instantiate_press_variant(tmp_path):
    out = tmp_path / "up.sanx"
    assert main(["instantiate", USER, USER_ASSIGN,
                 "--assignment", "UserPress", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    request = [a for a in doc["activities"] if a["name"] == "Request"][0]
    assert request["cases"] == 2 and request["probs"] == [0.6, 0.4]


def test_instantiate_unknown_assignment(capsys):
    assert main(["instantiate", USER, USER_ASSIGN,
                 "--assignment", "Nope", "--out", "-"]) == 1
    assert "available" in capsys.readouterr().err


def test_instantiate_missing_parameter(tmp_path, capsys):
    partial = tmp_path / "partial.sasg"
    partial.write_text("assignments { Incomplete { s = {1, 2} } }")
    assert main(["instantiate", USER, str(partial),
                 "--assignment", "Incomplete", "--out", "-"]) == 1
    assert "pb" in capsys.readouterr().err


def test_instantiate_rejects_mis_sorted_binding(tmp_path, capsys):
    # Sorts are checked once, where the assignment file is bound.
    bad = tmp_path / "bad.sasg"
    bad.write_text("assignments { Real { s = {1.5} pb = {1.0} } }")
    assert main(["instantiate", USER, str(bad),
                 "--assignment", "Real", "--out", "-"]) == 1
    err = capsys.readouterr().err
    assert "parameter 's' expects set<int>" in err
    assert "internal error" not in err


def test_simulate_deterministic_report(tmp_path):
    args = ["simulate", USER, USER_ASSIGN, "--assignment", "UserInternal",
            "--horizon", "50", "--seed", "12",
            "--reward", "throughput:Request", "--reward", "tokens:Idle_1"]
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    assert "throughput(Request)" in out1.read_text()


def test_simulate_rejects_zero_horizon(capsys, monkeypatch):
    import santkit.sim as sim

    def no_run(*args, **kwargs):
        raise AssertionError("a plan was compiled")

    # Refused by SimConfig.validate before a plan is compiled, so before
    # any event runs.  A literal past the float range reads as inf; the
    # words "inf" and "nan" are no number literal, so they are usage errors.
    monkeypatch.setattr(sim, "_build_plan", no_run)
    for horizon in ("0", "-1", "1e999"):
        assert main(["simulate", USER, USER_ASSIGN,
                     "--assignment", "UserInternal", "--horizon", horizon,
                     "--reward", "throughput:Request"]) == 1
        assert "horizon" in capsys.readouterr().err


def test_simulate_geo_occupancy(capsys):
    assert main(["simulate", GEO, GEO_ASSIGN, "--assignment", "GeoPair",
                 "--horizon", "2000", "--seed", "7", "--reps", "10",
                 "--reward", "atleast:GEO_1:1"]) == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines()
            if l.startswith("prob_tokens_at_least")][0]
    estimate = float(line.split()[1])
    assert abs(estimate - 1.0 / 11.0) < 0.01


def test_simulate_from_instance_file(tmp_path, capsys):
    instance = tmp_path / "geo.sanx"
    assert main(["instantiate", GEO, GEO_ASSIGN, "--assignment", "GeoPair",
                 "--out", str(instance)]) == 0
    assert main(["simulate", str(instance), "--horizon", "100", "--seed", "3",
                 "--reward", "throughput:GEO_F"]) == 0
    assert "throughput(GEO_F)" in capsys.readouterr().out


def test_simulate_needs_assignment_for_template(capsys):
    assert main(["simulate", USER, "--horizon", "10"]) == 1
    assert "assignment" in capsys.readouterr().err


def test_export_template_dot(capsys):
    assert main(["export", USER, "--format", "dot", "--out", "-"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert '"Req"' in out and "dashed" in out


def test_export_instance_json_round_trip(tmp_path, capsys):
    instance = tmp_path / "ui.sanx"
    main(["instantiate", USER, USER_ASSIGN, "--assignment", "UserInternal",
          "--out", str(instance)])
    capsys.readouterr()
    assert main(["export", str(instance), "--format", "json",
                 "--out", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "santkit-instance/2"


def _geo_pair_doc() -> dict:
    template = load_template(GEO).template
    raw = load_assignments(GEO_ASSIGN)["GeoPair"]
    return san_to_json(concretize(template, coerce_assignment(template, raw),
                                  name="GeoPair"))


# A DOT string: quotes, with a backslash escaping the character after it.
_DOT_STRING = r'"(?:[^"\\]|\\.)*"'


def test_export_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    renames = {"GeoPair": 'Geo"Pair\\', "GEO_1": 'G"EO\\1',
               "Working_S_1": 'W"S\\1', "GEO_R": 'GEO\\R"'}
    text = json.dumps(_geo_pair_doc())
    for old, new in renames.items():
        text = text.replace(json.dumps(old), json.dumps(new))
    instance = tmp_path / "quoted.sanx"
    instance.write_text(text)
    assert main(["export", str(instance), "--format", "dot",
                 "--out", "-"]) == 0
    lines = capsys.readouterr().out.splitlines()
    s = _DOT_STRING
    statements = [rf"digraph ({s}) {{", "  rankdir=LR;",
                  rf'  ({s}) \[label={s}, shape=[^"\]]+, style={s}\];',
                  rf"  {s} -> {s} \[style={s}(, label={s})?\];", "}"]
    assert all(any(re.fullmatch(form, line) for form in statements)
               for line in lines), lines

    def unescape(string: str) -> str:
        return re.sub(r"\\(.)", r"\1", string[1:-1])

    san = json_to_san(json.loads(text))
    assert unescape(re.fullmatch(statements[0], lines[0])[1]) == san.name
    nodes = {unescape(match[1]) for line in lines
             if (match := re.fullmatch(statements[2], line))}
    assert nodes == {*san.places, *(a.name for a in san.activities),
                     *(g.name for g in san.input_gates + san.output_gates)}
    # The marked place's label keeps its line break before the count.
    assert '  "W\\"S\\\\1" [label="W\\"S\\\\1\\n(1)", shape=circle, ' \
        'style="solid"];' in lines


def _bundled_assignments():
    for stem in ("geo", "tmi", "user"):
        sasg = str(MODELS / f"{stem}.sasg")
        for name in load_assignments(sasg):
            yield pytest.param(str(MODELS / f"{stem}.sant"), sasg, name,
                               id=f"{stem}/{name}")


def _assert_export_reprints(tmp_path, capsys, sant, sasg, name):
    instance = tmp_path / "written.sanx"
    assert main(["instantiate", sant, sasg, "--assignment", name,
                 "--out", str(instance)]) == 0
    capsys.readouterr()
    assert main(["export", str(instance), "--format", "json",
                 "--out", "-"]) == 0
    assert capsys.readouterr().out.encode() == instance.read_bytes()


@pytest.mark.parametrize("sant, sasg, name", list(_bundled_assignments()))
def test_export_json_reprints_a_bundled_instance(tmp_path, capsys, sant, sasg,
                                                 name):
    _assert_export_reprints(tmp_path, capsys, sant, sasg, name)


def test_export_json_reprints_a_wide_user_instance(tmp_path, capsys):
    size = 200
    total = size * (size + 1) // 2
    sasg = tmp_path / "wide.sasg"
    sasg.write_text(
        "assignments { UserWide { s = {"
        + ", ".join(str(i) for i in range(1, size + 1)) + "} pb = {"
        + ", ".join(repr(i / total) for i in range(1, size + 1)) + "} } }")
    _assert_export_reprints(tmp_path, capsys, USER, str(sasg), "UserWide")


@pytest.mark.parametrize("sant, sasg, name", list(_bundled_assignments()))
def test_instance_on_stdout_is_the_file_it_would_write(tmp_path, capsys, sant,
                                                       sasg, name):
    # With --out -, stdout holds the .sanx alone and the summary goes to
    # stderr; with --out FILE, stdout keeps the summary and the path.
    instance = tmp_path / "written.sanx"
    argv = ["instantiate", sant, sasg, "--assignment", name, "--out"]
    assert main(argv + [str(instance)]) == 0
    summary, wrote = capsys.readouterr().out.splitlines()
    assert summary.startswith(f"{name}: |P|=") and wrote == f"wrote {instance}"
    assert main(argv + ["-"]) == 0
    assert capsys.readouterr() == (instance.read_text(encoding="utf-8"),
                                   summary + "\n")
    json_to_san(json.loads(instance.read_bytes()))


@pytest.mark.parametrize("edit, fault", [
    (lambda d: d.pop("place_lists") and None, "$.place_lists: missing"),
    (lambda d: d.update(place_lists={"0": ["Idle_1"]}),
     "$.place_lists: expected list"),
    (lambda d: d["place_lists"].append("Idle_1"),
     "$.place_lists[{n}]: expected list"),
    (lambda d: d["place_lists"][0].append(7),
     "$.place_lists[0][1]: expected string"),
    (lambda d: d["input_gates"][0].update(places=-1),
     "$.input_gates[0].places: index -1 outside $.place_lists ({n} entries)"),
    (lambda d: d["input_gates"][0].update(places=True),
     "$.input_gates[0].places: expected int"),
    (lambda d: d["output_gates"][0].update(places=1.0),
     "$.output_gates[0].places: expected int"),
    (lambda d: d["output_gates"][0].update(places="0"),
     "$.output_gates[0].places: expected int"),
    (lambda d: d["output_gates"][0].update(places=len(d["place_lists"])),
     "$.output_gates[0].places: index {n} outside $.place_lists "
     "({n} entries)"),
    (lambda d: d["input_gates"][0].pop("places") and None,
     "$.input_gates[0].places: missing"),
], ids=["missing", "not-a-list", "entry-not-a-list", "entry-item-int",
        "index-negative", "index-bool", "index-float", "index-string",
        "index-past-end", "no-places"])
@pytest.mark.parametrize("command", [["instantiate"],
                                     ["simulate", "--horizon", "10"],
                                     ["export", "--format", "json"]])
def test_malformed_place_list_table_is_a_user_error(tmp_path, capsys, edit,
                                                    fault, command):
    entries = len(_user_internal_doc()["place_lists"])
    instance = tmp_path / "bad.sanx"
    instance.write_text(json.dumps(_malformed(edit)))
    out = tmp_path / "out"
    argv = [command[0], str(instance), *command[1:], "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {fault.format(n=entries)}\n"
    assert not out.exists()


def test_schema_1_place_lists_are_inline_only(tmp_path, capsys):
    # An index means nothing without a table: the earlier schema refuses it.
    instance = tmp_path / "old.sanx"
    instance.write_text(json.dumps(_malformed(lambda d: d.update(
        schema="santkit-instance/1",
        input_gates=[dict(g, places=d["place_lists"][g["places"]])
                     for g in d["input_gates"]]))))
    assert main(["export", str(instance), "--format", "json",
                 "--out", "-"]) == 1
    assert capsys.readouterr().err == \
        "error: $.output_gates[0].places: expected list\n"


# Earlier writers spelled constant truth ``{"const": b}``.  It reads as the
# empty conjunction (true) or disjunction (false), runs as that does, and is
# written back as it.
@pytest.mark.parametrize("old, new", [
    (lambda g: {"const": True}, lambda g: {"and": []}),
    (lambda g: {"const": False}, lambda g: {"or": []}),
    (lambda g: {"not": {"const": True}}, lambda g: {"not": {"and": []}}),
    (lambda g: {"not": {"const": False}}, lambda g: {"not": {"or": []}}),
    (lambda g: {"and": [{"const": True}, g]},
     lambda g: {"and": [{"and": []}, g]}),
    (lambda g: {"and": [{"const": False}, g]},
     lambda g: {"and": [{"or": []}, g]}),
], ids=["true", "false", "not-true", "not-false", "and-true", "and-false"])
def test_const_predicate_reads_as_an_empty_connective(tmp_path, capsys, old,
                                                      new):
    docs, paths = [], []
    for spell in (old, new):
        doc = _geo_pair_doc()
        gate = doc["input_gates"][0]
        gate["enabled"] = spell(gate["enabled"])
        docs.append(doc)
        paths.append(tmp_path / f"{len(paths)}.sanx")
        paths[-1].write_text(json.dumps(doc))
    assert main(["export", str(paths[0]), "--format", "json",
                 "--out", "-"]) == 0
    assert json.loads(capsys.readouterr().out) == docs[1]
    reports = []
    for path in paths:
        assert main(["simulate", str(path), "--seed", "3", "--horizon", "50",
                     "--reward", "throughput:GEO_F",
                     "--reward", "tokens:GEO_1", "--out", "-"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("path, value", [
    (("input_gates", 0, "enabled", "cmp"), "<"),
    (("input_gates", 1, "effect", 1, "when", 0), "!="),
    (("output_gates", 0, "effect", 0, "action"), "mul"),
    (("input_gates", 0, "enabled", "place"), "Nowhere_1"),
    (("activities", 0, "probs", 0), math.nan),
    (("activities", 0, "time"), {"family": "exponential",
                                 "params": [math.nan]}),
])
def test_simulate_rejects_bad_instance_vocabulary(tmp_path, capsys, path,
                                                  value):
    instance = tmp_path / "user.sanx"
    assert main(["instantiate", USER, USER_ASSIGN, "--assignment",
                 "UserInternal", "--out", str(instance)]) == 0
    doc = json.loads(instance.read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    instance.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["simulate", str(instance), "--horizon", "10",
                 "--reward", "throughput:Request"]) == 1
    err = capsys.readouterr().err
    assert "validation failed" in err and "internal error" not in err
    assert "Traceback" not in err


@functools.cache
def _user_internal_doc() -> dict:
    template = load_template(USER).template
    raw = load_assignments(USER_ASSIGN)["UserInternal"]
    return san_to_json(concretize(template,
                                  coerce_assignment(template, raw),
                                  name="UserInternal"))


def _malformed(edit):
    doc = copy.deepcopy(_user_internal_doc())
    return edit(doc) or doc


@pytest.mark.parametrize("edit, fault", [
    (lambda d: [d], "$: expected object"),
    (lambda d: d.pop("activities") and None, "$.activities: missing"),
    (lambda d: d["activities"][0].update(cases="two"),
     "$.activities[0].cases: expected int"),
    (lambda d: d["activities"][0].update(kind="slow"),
     "$.activities[0].kind: expected one of timed, instantaneous"),
    (lambda d: d["input_gates"][0].update(enabled={"foo": 1}),
     "$.input_gates[0].enabled.place: missing"),
    (lambda d: d.update(marking=[1]), "$.marking: expected object"),
    (lambda d: d["activities"][0].update(cases=True),
     "$.activities[0].cases: expected int"),
], ids=["top-level-list", "no-activities", "cases-string", "unknown-kind",
        "predicate-node", "marking-list", "cases-bool"])
@pytest.mark.parametrize("command", [["instantiate"],
                                     ["simulate", "--horizon", "10"]])
def test_malformed_instance_is_a_user_error(tmp_path, capsys, edit, fault,
                                            command):
    instance = tmp_path / "bad.sanx"
    instance.write_text(json.dumps(_malformed(edit)))
    out = tmp_path / "out.sanx"
    argv = [command[0], str(instance), *command[1:], "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {fault}\n"
    assert not out.exists()


def test_non_utf8_instance_is_a_user_error(tmp_path, capsys):
    for name, before, after in (
            ("binary.sanx", ["simulate"], ["--horizon", "10"]),
            ("binary.sant", ["validate"], []),
            ("binary.sasg", ["instantiate", USER],
             ["--assignment", "UserInternal", "--out", "-"])):
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe\x00{}")
        assert main([*before, str(path), *after]) == 1
        err = capsys.readouterr().err
        assert f"{path}: not UTF-8 text" in err, name
        assert "internal error" not in err


def test_instantiate_refuses_invalid_instance(tmp_path, capsys):
    def skew(doc):
        doc["activities"][0]["probs"] = [0.5, 0.2, 0.1]
    instance = tmp_path / "skewed.sanx"
    instance.write_text(json.dumps(_malformed(skew)))
    assignments = tmp_path / "skewed.sasg"
    assignments.write_text(
        "assignments { Skewed { s = {1, 6, 7} pb = {0.5, 0.2, 0.1} } }")
    template = [USER, str(assignments), "--assignment", "Skewed"]
    out = tmp_path / "out.sanx"
    for argv in (["instantiate", str(instance)], ["instantiate", *template],
                 ["simulate", *template, "--horizon", "10"]):
        assert main([*argv, "--out", str(out)]) == 1, argv
        err = capsys.readouterr().err
        assert "validation failed" in err and "normalization" in err, argv
        assert not out.exists(), argv
    # concretize builds the instance; validate_san is what refuses it.
    user = load_template(USER).template
    raw = load_assignments(str(assignments))["Skewed"]
    san = concretize(user, coerce_assignment(user, raw))
    assert "normalization" in {d.code for d in sancore.validate_san(san)}


def test_unsupported_reactivation_warns_then_refuses_simulation(tmp_path,
                                                                capsys):
    def reactivate(doc):
        doc["activities"][0]["reactivation"] = "unsupported"
    instance = tmp_path / "reactivating.sanx"
    instance.write_text(json.dumps(_malformed(reactivate)))
    out = tmp_path / "out.sanx"
    assert main(["instantiate", str(instance), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert err == ("warning: reactivation-unsupported: non-empty reactivation "
                   "sets are not executable [activity Request]\n")
    assert out.exists()
    # ``export`` prints the same warning, after what it writes.
    for fmt in ("dot", "json"):
        assert main(["export", str(instance), "--format", fmt]) == 0
        printed = capsys.readouterr()
        assert printed.out and printed.err == err, fmt
    assert main(["simulate", str(instance), "--horizon", "10"]) == 1
    err = capsys.readouterr().err
    assert err == ("error: activity 'Request' declares reactivation "
                   "markings; only the empty reactivation set is "
                   "executable\n")


def _unknown_activity_and_place(doc):
    doc["input_gates"][0].update(activity="Nope", places=["Nowhere_1"])


@pytest.mark.parametrize("edit, codes", [
    (_unknown_activity_and_place, ("dangling-gate", "unknown-place")),
    (lambda d: d["marking"].update(Idle_1=-3), ("negative-marking",)),
    (lambda d: d["output_gates"][0].update(case=99), ("case-out-of-range",)),
], ids=["unknown-activity-and-place", "negative-marking", "case-99"])
@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_export_refuses_invalid_instance(tmp_path, capsys, edit, codes, fmt):
    instance = tmp_path / "bad.sanx"
    instance.write_text(json.dumps(_malformed(edit)))
    out = tmp_path / f"out.{fmt}"
    assert main(["export", str(instance), "--format", fmt,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: validation failed")
    assert all(code in err for code in codes)
    assert not out.exists()


def _rename_drop_to_fail(doc):
    for node in doc["activities"] + doc["input_gates"] + doc["output_gates"]:
        key = "activity" if "activity" in node else "name"
        if node[key] == "Drop":
            node[key] = "Fail"


# An instance is checked by the rules its template is: a wrong arity and a
# repeated name read as they do for a template, the name included.
@pytest.mark.parametrize("edit, diagnostic", [
    (lambda d: d["activities"][0]["time"].update(params=[1.0]),
     "distribution-arity: 'uniform' takes 2 parameter(s) [activity Request]"),
    (lambda d: d["places"].append("Req_6"),
     "duplicate-name: duplicate place name 'Req_6' [place Req_6]"),
    (_rename_drop_to_fail,
     "duplicate-name: duplicate activity name 'Fail' [activity Fail]"),
    (lambda d: d["output_gates"][1].update(name="OGRequest_1"),
     "duplicate-name: duplicate gate name 'OGRequest_1' [gate OGRequest_1]"),
    (lambda d: d["output_gates"][4].update(name="ArcInDrop"),
     "duplicate-name: duplicate gate name 'ArcInDrop' [gate ArcInDrop]"),
], ids=["uniform-arity", "duplicate-place", "duplicate-activity",
        "duplicate-output-gate", "input-and-output-gate"])
def test_instance_diagnostics_match_the_template_rules(tmp_path, capsys, edit,
                                                       diagnostic):
    instance = tmp_path / "bad.sanx"
    instance.write_text(json.dumps(_malformed(edit)))
    assert main(["export", str(instance), "--out", "-"]) == 1
    assert capsys.readouterr().err == \
        f"error: validation failed:\nerror: {diagnostic}\n"


def _negative_set(doc):
    doc["output_gates"][0]["effect"].append(
        {"place": "Req_1", "action": "set", "amount": -2, "when": None})


# Validation faults reached by editing an instance, each pinned in full.
@pytest.mark.parametrize("edit, diagnostics", [
    (lambda d: d["activities"][1].update(cases=0, probs=[]),
     ["case-count: activity has 0 cases [activity Fail]",
      "normalization: case probabilities sum to 0, not 1 [activity Fail]",
      "case-out-of-range: gate is mapped to case 1 of 'Fail' (0 cases) "
      "[gate ArcOutFail]"]),
    (lambda d: d["activities"][0].update(probs=[0.5, 0.5]),
     ["case-count: 2 probabilities for 3 cases [activity Request]"]),
    (_negative_set,
     ["negative-marking: update sets 'Req_1' to -2 [gate OGRequest_1]"]),
    (lambda d: d["marking"].pop("Idle_1") and None,
     ["marking-incomplete: initial marking does not cover place 'Idle_1' "
      "[place Idle_1]"]),
    (lambda d: d["marking"].update(Ghost=5),
     ["unknown-place: initial marking mentions unknown place 'Ghost' "
      "[marking Ghost]"]),
], ids=["zero-cases", "probs-for-cases", "negative-set", "unmarked-place",
        "marked-unknown-place"])
def test_edited_instance_faults_are_user_errors(tmp_path, capsys, edit,
                                                diagnostics):
    instance = tmp_path / "bad.sanx"
    instance.write_text(json.dumps(_malformed(edit)))
    assert main(["simulate", str(instance), "--horizon", "10"]) == 1
    assert capsys.readouterr().err == "error: validation failed:\n" + "".join(
        f"error: {line}\n" for line in diagnostics)


# A .sanx object that repeats a key is refused, as a .sant refuses a place
# marked twice; it was once read last-wins.
@pytest.mark.parametrize("old, new, key", [
    ('"Failed_1": 0}', '"Failed_1": 0, "Idle_1": 7}', "Idle_1"),
    ('"name": "IGRequest",', '"name": "IGRequest", "name": "IGRequest",',
     "name"),
], ids=["marking-entry", "gate-field"])
def test_repeated_sanx_key_is_a_user_error(tmp_path, capsys, old, new, key):
    text = json.dumps(_user_internal_doc())
    assert text.count(old) == 1
    bad = tmp_path / "bad.sanx"
    bad.write_text(text.replace(old, new))
    assert main(["simulate", str(bad), "--horizon", "10"]) == 1
    assert capsys.readouterr() == ("", f"error: {bad}: repeated key '{key}'\n")


# concretize names the gates of a two-case activity OG_SW_1 and OG_SW_2, so
# a template gate named OG_SW_1 passes the template rules but collides in
# the instance; DOT would draw the two as one node.
@pytest.mark.parametrize("command", [["instantiate"],
                                     ["simulate", "--horizon", "10"]])
def test_generated_gate_name_collision_is_a_user_error(tmp_path, capsys,
                                                       command):
    text = (MODELS / "tmi.sant").read_text(encoding="utf-8")
    old = "output SW_RtoWorking_S : SW_R"
    assert text.count(old) == 1
    bad = tmp_path / "tmi.sant"
    bad.write_text(text.replace(old, "output OG_SW_1 : SW_R"),
                   encoding="utf-8")
    assert main(["validate", str(bad)]) == 0
    capsys.readouterr()
    out = tmp_path / "out.sanx"
    assert main([command[0], str(bad), str(MODELS / "tmi.sasg"),
                 "--assignment", "TmiPair", *command[1:],
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: validation failed")
    assert "duplicate-name: duplicate gate name 'OG_SW_1'" in err
    assert not out.exists()


# concretize names a place's instances <P>_<i>, so an activity named GEO_1
# passes the template rules but shares its name with GEO's one instance;
# DOT would declare node "GEO_1" twice.
def test_generated_place_name_collision_is_a_user_error(tmp_path, capsys):
    bad = tmp_path / "geo.sant"
    bad.write_text(re.sub(r"\bGEO_F\b", "GEO_1", (MODELS / "geo.sant")
                          .read_text(encoding="utf-8")), encoding="utf-8")
    assert main(["validate", str(bad)]) == 0
    capsys.readouterr()
    assert main(["instantiate", str(bad), GEO_ASSIGN, "--assignment",
                 "GeoPair", "--out", "-"]) == 1
    assert capsys.readouterr() == ("", (
        "error: validation failed:\nerror: name-collision: 'GEO_1' is used "
        "as both place name and activity name [activity GEO_1]\n"))


def _unmark_idle(template):
    # A .sant marks a place it does not list 0, so no text leaves one
    # unmarked; this drops Idle's entry from the parsed template.
    assert template.initial_marking[0][0] == "Idle"
    return replace(template, initial_marking=template.initial_marking[1:])


# Each structural rule of a net is written once, in sancore, and both
# levels call it: broken once in user.sant and once in a UserInternal
# .sanx, it gives the same code.
@pytest.mark.parametrize("old, new, edit, code", [
    ("output ArcOutDrop : Drop", "output ArcOutFail : Drop",
     lambda d: d["output_gates"][4].update(name="ArcOutFail"),
     "duplicate-name"),
    ("output ArcOutDrop : Drop", "output Drop : Drop",
     lambda d: d["output_gates"][4].update(name="Drop"), "name-collision"),
    ("enabled = Idle[1] >= 1", "enabled = Failed[1] >= 1",
     lambda d: d["input_gates"][0]["enabled"].update(place="Failed_1"),
     "place-outside-gate"),
    ("effect = Idle[1] -= 1", "effect = Dropped[1] -= 1",
     lambda d: d["input_gates"][0]["effect"][0].update(place="Dropped_1"),
     "place-outside-gate"),
    (_unmark_idle, None, lambda d: d["marking"].pop("Idle_1") and None,
     "marking-incomplete"),
    ("  Idle = 1\n}", "  Idle = 1\n  Ghost = 0\n}",
     lambda d: d["marking"].update(Ghost=0), "unknown-place"),
    ("input IGRequest : Request", "input IGRequest : Nowhere",
     lambda d: d["input_gates"][0].update(activity="Nowhere"),
     "dangling-gate"),
    ("places = Idle\n", "places = Idle, Idle\n",
     lambda d: d["place_lists"][0].append("Idle_1"), "duplicate-place"),
], ids=["duplicate-name", "name-collision", "predicate-outside-gate",
        "update-outside-gate", "marking-incomplete", "unknown-marking-entry",
        "dangling-gate", "duplicate-place"])
def test_one_rule_gives_one_code_at_both_levels(tmp_path, capsys, old, new,
                                                edit, code):
    text = (MODELS / "user.sant").read_text(encoding="utf-8")
    if callable(old):
        template = old(parse_template_text(text).template)
    else:
        assert text.count(old) == 1
        template = parse_template_text(text.replace(old, new)).template
    instance = tmp_path / "bad.sanx"
    instance.write_text(json.dumps(_malformed(edit)))
    assert main(["simulate", str(instance), "--horizon", "10"]) == 1
    printed = re.findall(r"^error: ([a-z-]+):", capsys.readouterr().err,
                         re.MULTILINE)
    assert {d.code for d in validate_template(template)} == set(printed) \
        == {code}


@pytest.mark.parametrize("argv", [
    ["instantiate", GEO, GEO_ASSIGN, "--assignment", "GeoPair"],
    ["simulate", GEO, GEO_ASSIGN, "--assignment", "GeoPair",
     "--horizon", "10"],
    ["export", "x.sanx"],
], ids=["instantiate", "simulate", "export"])
def test_each_command_validates_its_instance_once(tmp_path, monkeypatch,
                                                  argv):
    monkeypatch.chdir(tmp_path)
    assert main(["instantiate", GEO, GEO_ASSIGN, "--assignment", "GeoPair",
                 "--out", "x.sanx"]) == 0
    validate_san = sancore.validate_san
    counting = mock.Mock(wraps=validate_san)
    # Patch every module that calls it by name.
    for name, module in list(sys.modules.items()):
        if name.startswith("santkit.") and \
                getattr(module, "validate_san", None) is validate_san:
            monkeypatch.setattr(module, "validate_san", counting)
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert counting.call_count == 1


def _json_paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _json_paths(child, prefix + (key,))


_RETYPED = [None, True, 0, -1, 2, 1.5, "x", [], {}, [1], {"x": 1}]
_MUTATIONS = st.tuples(
    st.sampled_from(["delete", "retype", "wrap"]),
    st.sampled_from(list(_json_paths(_user_internal_doc()))),
    st.sampled_from(_RETYPED))


def _mutate(doc, mutation):
    """Delete, retype or list-wrap the node at a path; the whole document
    when the path is empty.  A path that an earlier mutation removed is
    skipped."""
    kind, path, value = mutation
    if not path:
        return doc if kind == "delete" else [doc] if kind == "wrap" else value
    *walk, key = path
    parent = doc
    try:
        for step in walk:
            parent = parent[step]
        if not isinstance(parent, (dict, list)):
            return doc
        node = parent[key]
    except (KeyError, IndexError, TypeError):
        return doc
    if kind == "delete":
        del parent[key]
    else:
        parent[key] = [node] if kind == "wrap" else value
    return doc


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_MUTATIONS, min_size=1, max_size=3))
def test_mutated_instance_never_crashes(tmp_path, capsys, mutations):
    doc = copy.deepcopy(_user_internal_doc())
    for mutation in mutations:
        doc = _mutate(doc, mutation)
    instance = tmp_path / "fuzz.sanx"
    instance.write_text(json.dumps(doc))
    for argv in (["simulate", str(instance), "--horizon", "1",
                  "--max-events", "1000", "--reward", "tokens:Idle_1"],
                 ["export", str(instance), "--format", "json",
                  "--out", "-"]):
        assert main(argv) in (0, 1)
        err = capsys.readouterr().err
        assert "internal error" not in err and "Traceback" not in err


# What a mutation of a model file puts in place of one token: a literal past
# the int conversion limit, one at the edge of the float range, and values
# of the wrong sort or in the wrong place.
_SWAPS = (_LONG, "1e308", "true", "{}", "{1.5, 2}", "<CASE>")
_TEXT_EDITS = st.tuples(st.sampled_from(["delete", "duplicate", "replace"]),
                        st.integers(0, 10**4), st.sampled_from(_SWAPS))
# Option values, some of them bad.  A run stays short: ``simulate`` gets a
# horizon of 1 and at most 500 events per replication before these, and
# none of them allows more events or more than 3 replications.
_OPTIONS = st.sampled_from([
    *(("--horizon", v) for v in ("0", "-1", "nan", "inf", "1e308", "1e-300",
                                 "0.5", "x")),
    *(("--seed", v) for v in ("0", "-1", "7", "9" * 4000, _LONG, "x")),
    *(("--reps", v) for v in ("0", "-1", "3", _LONG, "x")),
    *(("--max-events", v) for v in ("0", "-1", "1", "50", _LONG, "x")),
    *(("--reward", v) for v in ("tokens:Working_S_1", "throughput:GEO_F",
                                f"atleast:Working_S_1:{_LONG}",
                                "atleast:Nowhere:1", "tokens:", "x")),
])
_FIRST_ASSIGNMENT = {"geo": "GeoPair", "tmi": "TmiPair",
                     "user": "UserInternal"}


def _edit_token(text: str, edit) -> str:
    """``text`` with one of its tokens deleted, duplicated or replaced."""
    kind, at, swap = edit
    spans = [m.span() for m in lexer._TOKEN.finditer(text)
             if m.lastgroup != "skip"]
    start, end = spans[at % len(spans)]
    token = text[start:end]
    new = {"delete": "", "duplicate": f"{token} {token}", "replace": swap}
    return text[:start] + new[kind] + text[end:]


def _exit_code(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:    # a usage error, from ``argparse``
        return exc.code


# Bad model text or options are user errors (exit 1); exit 2 is for a bug.
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(stem=st.sampled_from(sorted(_FIRST_ASSIGNMENT)),
       edits=st.fixed_dictionaries({
           "sant": st.lists(_TEXT_EDITS, max_size=2),
           "sasg": st.lists(_TEXT_EDITS, max_size=2)}),
       options=st.lists(_OPTIONS, max_size=3))
def test_mutated_model_text_and_options_never_crash(tmp_path, capsys, stem,
                                                    edits, options):
    paths = {}
    for suffix, edit in edits.items():
        text = (MODELS / f"{stem}.{suffix}").read_text(encoding="utf-8")
        paths[suffix] = tmp_path / f"fuzz.{suffix}"
        paths[suffix].write_text(functools.reduce(_edit_token, edit, text),
                                 encoding="utf-8")
    model = [str(paths["sant"]), str(paths["sasg"]),
             "--assignment", _FIRST_ASSIGNMENT[stem]]
    for argv in (["validate", str(paths["sant"])],
                 ["instantiate", *model, "--out", "-"],
                 ["simulate", *model, "--horizon", "1", "--max-events", "500",
                  *(word for option in options for word in option)]):
        assert _exit_code(argv) in (0, 1), argv
        err = capsys.readouterr().err
        assert "internal error" not in err and "Traceback" not in err, err


# What a computed value puts into each numeric term of a bundled template:
# an int past the string conversion limit of either sign (``_HUGE`` is a
# 3,000-digit literal), a real that overflows to ``inf``, and sets of them.
_COMPUTED = {
    Sort.INT: (f"{_HUGE} * {_HUGE}", f"0 - {_HUGE} * {_HUGE}"),
    Sort.REAL: ("1e300 * 1e300",),
    Sort.SET_INT: (f"{{{_HUGE} * {_HUGE}}}", f"{{0 - {_HUGE} * {_HUGE}}}"),
    Sort.SET_REAL: ("{1e300 * 1e300}",),
}
_TERMS = (Apply, CaseIndex, Const, Param, PlaceIndex)


def _term_paths(node, path=()):
    """The path of every term in a template, subterms included."""
    if isinstance(node, _TERMS):
        yield path, node
    if isinstance(node, Record) and not isinstance(node, Const):
        for key in node._fields:
            yield from _term_paths(getattr(node, key), path + (key,))
    elif isinstance(node, tuple):
        for i, child in enumerate(node):
            yield from _term_paths(child, path + (i,))


def _put(node, path, term):
    """``node`` with ``term`` at ``path``."""
    if not path:
        return term
    key, *rest = path
    if isinstance(node, Record):
        return replace(node, **{key: _put(getattr(node, key), rest, term)})
    return node[:key] + (_put(node[key], rest, term),) + node[key + 1:]


# A computed value is a user error or a run, never a crash (exit 2).
@pytest.mark.parametrize("stem", sorted(_FIRST_ASSIGNMENT))
def test_computed_extreme_values_never_crash(tmp_path, capsys, stem):
    template = load_template(str(MODELS / f"{stem}.sant")).template
    # Arcs are written as the gates they desugar to, so that the terms of
    # their labels are replaced too.
    template = replace(template, **{side: tuple(
        replace(gate, arc_label=None) for gate in getattr(template, side))
        for side in ("input_gates", "output_gates")})
    sorts = template.param_sorts()
    sant = tmp_path / f"{stem}.sant"
    model = [str(sant), str(MODELS / f"{stem}.sasg"),
             "--assignment", _FIRST_ASSIGNMENT[stem]]
    sections = set()
    for path, term in _term_paths(template):
        for text in _COMPUTED.get(infer_sort(term, sorts), ()):
            sant.write_text(template_to_text(
                _put(template, path, parse_term(text, sorts))))
            for argv in (["validate", str(sant)],
                         ["instantiate", *model, "--out", "-"],
                         ["simulate", *model, "--horizon", "1",
                          "--max-events", "500"]):
                assert main(argv) in (0, 1), (path, text[:20], argv[0])
                err = capsys.readouterr().err
                assert "internal error" not in err and \
                    "Traceback" not in err, (path, text[:20], err)
            sections.add(path[0])
    assert sections == {"places", "activities", "input_gates",
                        "output_gates", "initial_marking"}


def test_export_template_json(capsys):
    assert main(["export", USER, "--format", "json", "--out", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "santkit-template/1"


def test_reward_spec_parsing(capsys):
    assert parse_reward("tokens:P_1") == RewardSpec("time_avg_tokens", "P_1")
    assert parse_reward("throughput:A") == RewardSpec("throughput", "A")
    assert parse_reward("atleast:P_1:3") == RewardSpec(
        "prob_tokens_at_least", "P_1", threshold=3)
    with pytest.raises(SantError):
        parse_reward("nonsense")
    for bad in ("atleast:P_1:x", "atleast:P_1:\u0661", "atleast:P_1: 1_0"):
        with pytest.raises(SantError):
            parse_reward(bad)
    for bad in ("atleast:GEO_1:x", "atleast:GEO_1: 1_0"):
        assert main(["simulate", GEO, GEO_ASSIGN, "--assignment", "GeoPair",
                     "--horizon", "10", "--reward", bad]) == 1
        assert "bad reward" in capsys.readouterr().err


def test_color_toggle(capsys, monkeypatch, tmp_path):
    bad = tmp_path / "bad.sant"
    bad.write_text((MODELS / "user.sant").read_text().replace(
        "cases = |s|", "cases = pb[1]"))
    monkeypatch.setenv("SANT_COLOR", "1")
    main(["validate", str(bad)])
    colored = capsys.readouterr().err
    monkeypatch.delenv("SANT_COLOR")
    main(["validate", str(bad)])
    plain = capsys.readouterr().err
    assert "\x1b[" in colored and "\x1b[" not in plain


def _geo_rate(tmp_path, rate: str) -> list[str]:
    """``sant validate`` of the GEO model with ``rate`` as its failure
    rate."""
    path = tmp_path / "deep.sant"
    path.write_text((MODELS / "geo.sant").read_text().replace(
        "exponential(lambda_f)", f"exponential({rate})"))
    return ["validate", str(path)]


def _deep_instance(tmp_path) -> str:
    """A UserInternal ``.sanx`` whose first predicate is a JSON array
    nested 100000 deep."""
    doc = _malformed(lambda d: d["input_gates"][0].update(enabled="DEEP"))
    path = tmp_path / "deep.sanx"
    path.write_text(json.dumps(doc).replace(
        '"DEEP"', "[" * 100_000 + "]" * 100_000))
    return str(path)


@pytest.mark.parametrize("argv", [
    lambda tmp_path: _geo_rate(tmp_path,
                               "(" * 300 + "lambda_f" + ")" * 300),
    lambda tmp_path: _geo_rate(tmp_path, " + ".join(["1.0"] * 900)),
    lambda tmp_path: ["simulate", _deep_instance(tmp_path),
                      "--horizon", "10"],
    lambda tmp_path: ["export", _deep_instance(tmp_path), "--out", "-"],
], ids=["sant-parens", "sant-sum-chain", "sanx-simulate", "sanx-export"])
def test_deeply_nested_input_is_a_user_error(tmp_path, capsys, argv):
    assert main(argv(tmp_path)) == 1
    assert capsys.readouterr().err == "error: input is nested too deeply\n"


def _readme_commands() -> list[list[str]]:
    """The ``sant`` lines of README's "Command line" block, as argv lists
    with ``$MODELS`` bound to the bundled models directory."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line.replace("$MODELS", str(MODELS)),
                        comments=True)[1:]
            for line in block.splitlines() if line.startswith("sant ")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) == 7
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)


def test_internal_error_exit_code(monkeypatch, capsys):
    import santkit.cli as cli

    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_validate", boom)
    parser = cli.build_parser()
    args = parser.parse_args(["validate", USER])
    args.func = boom
    monkeypatch.setattr(cli.argparse.ArgumentParser, "parse_args",
                        lambda self, argv=None: args)
    assert cli.main(["validate", USER]) == 2
    assert "internal error" in capsys.readouterr().err


def test_bundled_listing(capsys):
    assert main(["bundled"]) == 0
    out = capsys.readouterr().out
    assert "user.sant" in out and "tmi.sasg" in out
