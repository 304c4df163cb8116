"""The package's layering: the instance side (reading, validating and
simulating a ``.sanx``) loads no template code, and the package root
imports each public name's module only when the name is first used."""

from __future__ import annotations

import ast
import importlib
import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import santkit
from santkit.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODELS = resources.files("santkit") / "models"

INSTANCE_SIDE = ("record", "errors", "sancore", "sim", "jsonio")
TEMPLATE_SIDE = ("lexer", "terms", "template", "arclabel", "modelfile",
                 "concretize", "fixtures")

# The root's public names, by the module that defines each.
PUBLIC = {
    "concretize": ("PlaceIndexMap", "build_index_map", "concretize",
                   "concretize_input_gate", "concretize_output_gate",
                   "lift_marking", "project_marking"),
    "errors": ("Diagnostic", "SantError", "ValidationError"),
    "fixtures": ("build_geo_template", "build_tmi_template",
                 "build_user_template"),
    "sancore": ("ConcreteSan", "Marking", "find_instability", "fire",
                "is_enabled", "is_stable", "reachable_markings",
                "validate_san"),
    "sim": ("RewardSpec", "SimConfig", "SimResult", "simulate"),
    "template": ("SanTemplate", "validate_template"),
    "terms": ("Sort", "Term", "eval_term", "infer_sort", "parse_term",
              "print_term"),
}


def _fresh(code: str, *args: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter with ``src`` first
    on its path; ``-I -S`` keeps the environment and site packages out."""
    probe = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}"
    return subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe, *args],
        capture_output=True, text=True, check=True).stdout


def _internal_imports() -> dict[str, set[str]]:
    """The santkit modules each module imports at module level."""
    imports = {}
    for path in sorted((SRC / "santkit").glob("*.py")):
        targets = imports[path.stem] = set()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets.update([node.module] if node.module else
                               [alias.name for alias in node.names])
    return imports


def test_instance_side_imports_nothing_of_the_template_side():
    imports = _internal_imports()
    assert set(INSTANCE_SIDE + TEMPLATE_SIDE) <= set(imports)
    for module in INSTANCE_SIDE:
        assert not imports[module] & {*TEMPLATE_SIDE, "export", "cli"}, module
    assert sum(map(len, imports.values())) <= 49


def test_reading_and_simulating_an_instance_loads_no_template_code(
        tmp_path):
    current = tmp_path / "TmiPair.sanx"
    assert main(["instantiate", str(MODELS / "tmi.sant"),
                 str(MODELS / "tmi.sasg"), "--assignment", "TmiPair",
                 "--out", str(current)]) == 0
    earlier = ROOT / "tests" / "data" / "TmiPair.instance1.sanx"
    schemas = [json.loads(path.read_text())["schema"]
               for path in (current, earlier)]
    assert schemas == ["santkit-instance/2", "santkit-instance/1"]
    code = """
from santkit.errors import has_errors
from santkit.jsonio import json_to_san, load_json_file
from santkit.sancore import validate_san
from santkit.sim import RewardSpec, SimConfig, simulate

for path in sys.argv[1:]:
    san = json_to_san(load_json_file(path))
    assert not has_errors(validate_san(san))
    result = simulate(san, SimConfig(seed=7, horizon=50.0, replications=2),
                      [RewardSpec("throughput", "SW_F")])
    print(san.name, result.events)
print(sorted(name for name in sys.modules if name.startswith("santkit.")))
print([name for name in ("statistics", "fractions", "decimal")
       if name in sys.modules])
"""
    lines = _fresh(code, str(current), str(earlier)).splitlines()
    assert lines[0] == lines[1] and lines[0].startswith("TmiPair (")
    assert lines[2:] == [
        str(sorted(f"santkit.{name}" for name in INSTANCE_SIDE)), "[]"]


def test_root_names_resolve_to_their_home_objects():
    code = """
import importlib, json, santkit
print(json.dumps({name: getattr(santkit, name) is getattr(
    importlib.import_module(f"santkit.{home}"), name)
    for home, names in json.loads(sys.argv[1]).items() for name in names}))
print(json.dumps(santkit.__all__))
"""
    resolved, names = map(json.loads,
                          _fresh(code, json.dumps(PUBLIC)).splitlines())
    assert sorted(names) == sorted(resolved) and len(names) == 33
    assert all(resolved.values()), resolved


@pytest.mark.parametrize("imports", [
    "from santkit import concretize",
    "import santkit.cli\nfrom santkit import concretize",
    "import santkit.concretize\nfrom santkit import concretize",
    "from santkit import concretize\nimport santkit.cli, santkit.concretize\n"
    "from santkit import concretize",
], ids=["alone", "after-cli", "after-submodule", "before-and-after"])
def test_concretize_is_the_function_in_every_import_order(imports):
    code = f"{imports}\nimport santkit\n" \
           "print(concretize.__module__, type(concretize).__name__, " \
           "santkit.concretize is concretize)\n"
    assert _fresh(code) == "santkit.concretize function True\n"


def test_root_refuses_unknown_names_and_still_imports_submodules():
    code = """
import santkit
try:
    santkit.no_such_name
except AttributeError as exc:
    print(exc)
from santkit import sancore
print(sancore.__name__, santkit.sancore is sancore)
print(sorted(name for name in sys.modules if name.startswith("santkit.")))
"""
    assert _fresh(code).splitlines() == [
        "module 'santkit' has no attribute 'no_such_name'",
        "santkit.sancore True",
        "['santkit.errors', 'santkit.record', 'santkit.sancore']"]


def test_assignments_to_the_root_take_effect(monkeypatch):
    with pytest.raises(AttributeError):
        santkit.no_such_name
    sentinel = object()
    monkeypatch.setattr(santkit, "simulate", sentinel)
    assert santkit.simulate is sentinel
    monkeypatch.undo()
    assert santkit.simulate is importlib.import_module("santkit.sim").simulate


def test_readme_library_block_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    assert "from santkit import (" in block
    assert _fresh(block) == (
        "RewardEstimate(name='throughput(Request)', estimate=0.001, "
        "std=0.0, replications=10)\n")
