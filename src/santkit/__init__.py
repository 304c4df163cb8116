"""Stochastic activity network templates.

Define parametric activity-network models whose structure and behavior
depend on typed parameters, derive concrete nets from parameter
assignments, validate them, simulate them by discrete-event execution,
and export them for inspection.  Each public name is imported from its
module on first use (PEP 562), so reading, validating and simulating an
instance loads no template code.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_HOMES = {name: module for module, names in {
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
}.items() for name in names}
__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)


class _Root(ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # Importing a submodule binds it on the package; the function
        # ``concretize`` keeps its name over the submodule ``concretize``.
        if not (name in _HOMES and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Root
