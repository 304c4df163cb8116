"""Exact cost slopes along the paper's variability axis, the number of
components a set parameter creates.

Each test counts the Python calls (``sys.setprofile`` "call" events:
functions, closures, generator resumptions and, before Python 3.12,
comprehensions) that one stage makes at three sizes of User's ``s`` or
GEO's ``n``.  The counts are exactly affine in the size, so the second
difference is 0 on every interpreter; a stage that does per-component work
once per component again, such as evaluating a case-count term once per
case, raises the slope above its bound.  The bounds are the largest slopes
over Python 3.10 to 3.13: comprehensions are inlined from 3.12 on (PEP
709), so the counts differ by version.

Measured slopes (calls per component), 3.10 and 3.11 / 3.12 and 3.13:
``concretize`` on User 45 / 43, on GEO 16 / 16; ``validate_san`` on User
12 / 12.  A change may lower a bound; a rise must be justified.
"""

from __future__ import annotations

import gc
import sys

import pytest

from santkit.concretize import concretize
from santkit.fixtures import build_geo_template, build_user_template
from santkit.sancore import validate_san

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


@pytest.mark.parametrize("count, bound", [
    (_concretize_user, 45), (_concretize_geo, 16), (_validate_user, 12),
], ids=["concretize-user", "concretize-geo", "validate-san-user"])
def test_calls_grow_linearly_within_their_bound(count, bound):
    small, middle, large = (count(n) for n in SIZES)
    step = SIZES[1] - SIZES[0]
    assert SIZES[2] - SIZES[1] == step
    assert large - 2 * middle + small == 0, (small, middle, large)
    assert (large - middle) / step <= bound, (small, middle, large)
