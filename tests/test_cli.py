"""Command-line interface: exit codes, outputs, and error reporting."""

from __future__ import annotations

import json
from importlib import resources

import pytest

from santkit.cli import main, parse_reward
from santkit.errors import SantError
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


def test_validate_missing_file():
    assert main(["validate", "/nonexistent/x.sant"]) == 1


def test_validate_truncated_file(tmp_path, capsys):
    text = (MODELS / "user.sant").read_text()
    broken = tmp_path / "broken.sant"
    broken.write_text(text[: len(text) // 2])
    assert main(["validate", str(broken)]) == 1
    err = capsys.readouterr().err
    assert ":" in err  # position carried through


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
    assert doc["schema"] == "santkit-instance/1"
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
    monkeypatch.setattr(sim, "_Replication", no_run)
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
    assert doc["schema"] == "santkit-instance/1"


@pytest.mark.parametrize("path, value", [
    (("input_gates", 0, "enabled", "cmp"), "<"),
    (("input_gates", 1, "effect", 1, "when", 0), "!="),
    (("output_gates", 0, "effect", 0, "action"), "mul"),
    (("input_gates", 0, "enabled", "place"), "Nowhere_1"),
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
