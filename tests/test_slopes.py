"""Exact cost slopes along the paper's variability axis, the number of
components a set parameter creates, and along the length of the model text
that spells them.

Each test counts the Python calls (``sys.setprofile`` "call" events:
functions, closures, generator resumptions and, before Python 3.12,
comprehensions) that one stage makes at three sizes: User's ``s`` or GEO's
``n``, the operands of a term, the rows of a ``prob`` block or the values
of an assignment's set literal.  The counts are exactly affine in the size,
so the second difference is 0 on every interpreter; a stage that does
per-component work once per component again, such as evaluating a
case-count term once per case or re-inferring the sort of a whole subterm
at each operator, fails.  The bounds are the largest slopes over Python
3.10 to 3.13: comprehensions are inlined from 3.12 on (PEP 709), so the
counts differ by version.

Measured slopes (calls per unit of size), 3.10 and 3.11 / 3.12 / 3.13:
``concretize`` on User 38 / 36 / 36, on GEO 13 / 13 / 13;
``validate_san`` on User 12 / 12 / 12; the ``.sanx`` write
(``san_to_json`` and ``dumps``) of User 7 / 6 / 6, its read
(``json_to_san``) 76 / 75 / 75; a ``+`` chain 45, an ``and`` chain of
parenthesized comparisons 115, ``prob`` rows 85 and set-literal values of
an assignment 18 on each.  A change may lower a bound; a rise must be
justified.
"""

from __future__ import annotations

import gc
import json
import sys

import pytest

from santkit.concretize import concretize
from santkit.fixtures import build_geo_template, build_user_template
from santkit.jsonio import dumps, json_to_san, san_to_json
from santkit.modelfile import parse_assignments_text, parse_template_text
from santkit.sancore import validate_san
from santkit.terms import Sort, parse_term

SIZES = (10, 20, 30)


def _calls(fn, *args) -> int:
    """Python calls made by ``fn(*args)``, with the collector off so that no
    collection runs a callback inside the count."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


def _user(n: int) -> dict:
    return {"s": tuple(range(1, n + 1)), "pb": (1.0 / n,) * n}


def _geo(n: int) -> dict:
    return {"n": tuple(range(1, n + 1)), "lambda_f": 1.0, "lambda_r": 2.0}


def _concretize_user(n: int) -> int:
    return _calls(concretize, build_user_template(), _user(n))


def _concretize_geo(n: int) -> int:
    return _calls(concretize, build_geo_template(), _geo(n))


def _validate_user(n: int) -> int:
    return _calls(validate_san, concretize(build_user_template(), _user(n)))


def _write_user(n: int) -> int:
    san = concretize(build_user_template(), _user(n))
    return _calls(lambda: dumps(san_to_json(san)))


def _read_user(n: int) -> int:
    san = concretize(build_user_template(), _user(n))
    return _calls(json_to_san,
                  json.loads("".join(dumps(san_to_json(san)))))


def _parse_sum(n: int) -> int:
    return _calls(parse_term, " + ".join(["x"] * n), {"x": Sort.INT})


def _parse_conjunction(n: int) -> int:
    return _calls(parse_term, " and ".join(["(x > 0)"] * n), {"x": Sort.INT})


def _parse_prob_rows(n: int) -> int:
    rows = "".join(f"      case {i}: 0.5\n" for i in range(1, n + 1))
    text = ("template T\nparams { }\nplaces { }\nactivities {\n"
            f"  timed A {{\n    cases = {n}\n    prob {{\n{rows}    }}\n"
            "    time = exponential(1.0)\n  }\n}\n")
    return _calls(parse_template_text, text)


def _parse_assignment(n: int) -> int:
    values = ", ".join(map(str, range(1, n + 1)))
    return _calls(parse_assignments_text,
                  f"assignments {{ A {{ s = {{{values}}} }} }}")


@pytest.mark.parametrize("count, bound", [
    (_concretize_user, 38), (_concretize_geo, 13), (_validate_user, 12),
    (_write_user, 7), (_read_user, 76), (_parse_sum, 45),
    (_parse_conjunction, 115), (_parse_prob_rows, 85),
    (_parse_assignment, 18),
], ids=["concretize-user", "concretize-geo", "validate-san-user",
        "sanx-write-user", "sanx-read-user", "parse-sum",
        "parse-conjunction", "parse-prob-rows", "parse-assignment"])
def test_calls_grow_linearly_within_their_bound(count, bound):
    small, middle, large = (count(n) for n in SIZES)
    step = SIZES[1] - SIZES[0]
    assert SIZES[2] - SIZES[1] == step
    assert large - 2 * middle + small == 0, (small, middle, large)
    assert (large - middle) / step <= bound, (small, middle, large)
