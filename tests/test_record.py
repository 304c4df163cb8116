"""The record base: the dataclass semantics santkit's records rely on."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import santkit
from santkit.errors import Diagnostic
from santkit.record import Record, replace
from santkit.sancore import (Activity, ActivityKind, Dist, PredAnd, PredLeaf,
                             PredOr, Update)
from santkit.terms import CaseIndex, Const

SRC = Path(__file__).resolve().parents[1] / "src"


def _record_classes() -> list[type[Record]]:
    classes = []
    for info in pkgutil.iter_modules(santkit.__path__, "santkit."):
        if info.name == "santkit.__main__":        # it runs the CLI
            continue
        module = importlib.import_module(info.name)
        classes += [value for value in vars(module).values()
                    if isinstance(value, type) and issubclass(value, Record)
                    and value is not Record
                    and value.__module__ == module.__name__]
    return classes


def test_equality_needs_the_same_class():
    leaf = PredLeaf("P", ">", 1)
    assert PredAnd((leaf,)) == PredAnd((PredLeaf("P", ">", 1),))
    assert PredAnd((leaf,)) != PredOr((leaf,))
    assert PredOr((leaf,)) != PredAnd((leaf,))
    dist = Dist("exponential", (1.0,))
    assert dist != ("exponential", (1.0,))
    assert ("exponential", (1.0,)) != dist


def test_equal_records_hash_equal():
    spelled = (Update("P", "add", 1), Update("P", "add", 1, None),
               Update(place="P", action="add", amount=1, when=None))
    assert len(set(spelled)) == 1
    assert {hash(u) for u in spelled} == {hash(("P", "add", 1, None))}
    assert CaseIndex() == CaseIndex()
    assert hash(CaseIndex()) == hash(())
    assert hash(Const(2)) == hash((2,))


def test_repr_is_the_dataclass_format():
    assert repr(Update("P", "add", 1)) == \
        "Update(place='P', action='add', amount=1, when=None)"
    assert repr(PredAnd((PredLeaf("P", ">=", 2),))) == \
        "PredAnd(args=(PredLeaf(place='P', cmp='>=', value=2),))"
    assert repr(CaseIndex()) == "CaseIndex()"


def test_fields_are_frozen():
    update = Update("P", "add", 1)
    with pytest.raises(AttributeError, match="cannot assign to field 'place'"):
        update.place = "Q"
    with pytest.raises(AttributeError, match="cannot assign to field 'note'"):
        update.note = "new"
    with pytest.raises(AttributeError, match="cannot delete field 'amount'"):
        del update.amount
    assert update == Update("P", "add", 1)


def test_defaults_fill_omitted_fields():
    act = Activity(name="A", kind=ActivityKind.TIMED, cases=1,
                   case_probs=(1.0,))
    assert (act.distribution, act.reactivation) == (None, "empty")
    assert Diagnostic("code", "message") == \
        Diagnostic("code", "message", "error", None)


@pytest.mark.parametrize("args, kwargs, fault", [
    (("P", "add"), {}, r"Update\(\) missing required argument\(s\): "
                       r"'amount'$"),
    ((), {"when": None}, r"missing required argument\(s\): 'place', "
                         r"'action', 'amount'$"),
    (("P", "add", 1, None, 0), {},
     r"Update\(\) takes 4 positional argument\(s\) but 5 were given$"),
    (("P", "add", 1), {"how": None},
     r"Update\(\) got an unexpected keyword argument 'how'$"),
    (("P", "add"), {"place": "Q", "amount": 1},
     r"Update\(\) got multiple values for argument 'place'$"),
    (("P", "add"), {"amount": 1, "how": None},
     r"got an unexpected keyword argument 'how'$"),
    (("P", "add"), {"how": None},
     r"got an unexpected keyword argument 'how'$"),
], ids=["missing", "missing-three", "extra", "unknown", "repeated",
        "unknown-with-all-given", "unknown-for-a-missing-one"])
def test_bad_arguments_raise_type_error(args, kwargs, fault):
    with pytest.raises(TypeError, match=fault):
        Update(*args, **kwargs)


def test_replace_returns_a_changed_copy():
    update = Update("P", "add", 1)
    changed = replace(update, amount=2, when=(">", 0))
    assert changed == Update("P", "add", 2, (">", 0))
    assert update == Update("P", "add", 1)
    same = replace(update)
    assert same == update and same is not update
    with pytest.raises(TypeError, match="Update has no field 'amout'"):
        replace(update, amout=2)


def test_match_args_are_the_annotated_fields():
    classes = _record_classes()
    assert Update in classes and CaseIndex in classes
    for cls in classes:
        assert cls.__match_args__ == tuple(cls.__annotations__), cls
    match Update("P", "sub", 3):
        case Update(place, "sub", amount, None):
            assert (place, amount) == ("P", 3)
        case _:
            pytest.fail("positional pattern did not match")


def _generates_code(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id in ("exec", "eval", "compile")


def test_no_generated_code_under_the_package():
    # Records generate no code.  The one code generator is the simulator's
    # plan compiler: every ``exec``/``eval``/``compile`` call under the
    # package is in ``sim._define``, which runs when a plan is built.
    calls = 0
    callers: dict[tuple[str, str], int] = {}
    for path in sorted((SRC / "santkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in [a.name for a in node.names], path
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path
            elif isinstance(node, ast.FunctionDef):
                found = sum(map(_generates_code, ast.walk(node)))
                if found:
                    callers[path.name, node.name] = found
            calls += _generates_code(node)
    assert callers == {("sim.py", "_define"): calls}


def test_importing_the_cli_loads_no_code_generators():
    # -S keeps the interpreter's site packages (and their .pth imports) out.
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "import santkit.cli; print(sorted(set(sys.modules) & "
             "{'dataclasses', 'inspect', 'ast', 'dis'}))")
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe, str(SRC)],
        capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"
