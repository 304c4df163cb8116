"""Command-line interface: exit codes, outputs, and error reporting."""

from __future__ import annotations

import copy
import functools
import json
import math
import re
import shlex
import sys
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from santkit import sancore
from santkit.cli import main, parse_reward
from santkit.concretize import concretize
from santkit.errors import ParseError, SantError
from santkit.jsonio import san_to_json
from santkit.modelfile import (coerce_assignment, load_assignments,
                               load_template, parse_template_text)
from santkit.sim import RewardSpec

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


_SIMULATE = ["simulate", GEO, GEO_ASSIGN, "--assignment", "GeoPair"]


# A usage error is a user error (exit 1), not an internal one (exit 2); the
# usage line still goes to stderr.  The numeric options, like the model
# files' literals, take only ASCII digits.
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
], ids=["unknown-command", "no-command", "no-model", "no-horizon",
        "unknown-option", "horizon-not-a-number", "horizon-arabic-indic",
        "seed-arabic-indic", "reps-arabic-indic", "max-events-arabic-indic",
        "horizon-mixed-digits"])
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


def test_ascii_numeric_options_still_read(capsys):
    assert main(_SIMULATE + ["--horizon", "1e1", "--seed", "-3",
                             "--reps", "2", "--max-events", "1000",
                             "--reward", "throughput:GEO_F"]) == 0
    assert "seed=-3 horizon=10.0 reps=2" in capsys.readouterr().out


def test_validate_reports_sort_mismatch(tmp_path, capsys):
    text = (MODELS / "user.sant").read_text().replace(
        "cases = |s|", "cases = pb[1]")
    bad = tmp_path / "bad.sant"
    bad.write_text(text)
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "sort-mismatch" in err
    assert "activity Request" in err


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
        raise AssertionError("a replication started")

    # Refused by SimConfig.validate before any event runs.
    monkeypatch.setattr(sim, "_replicate", no_run)
    for horizon in ("0", "inf", "nan"):
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
    with pytest.raises(SantError):
        parse_reward("atleast:P_1:x")
    assert main(["simulate", GEO, GEO_ASSIGN, "--assignment", "GeoPair",
                 "--horizon", "10", "--reward", "atleast:GEO_1:x"]) == 1
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
