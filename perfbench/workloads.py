"""The benchmark's workloads: inputs drawn from the seed, and output checks.

Each workload writes its ``.sasg`` (and, for ``tmi-long``, an untimed
``.sanx``) into the run's work directory and names the one ``sant`` command
a sample runs.  Its checks compare the command's output with closed forms
computed here, never by santkit.

Rates and the simulator's own seed are fixed; the workload seed draws the
index sets, ``p_TMI`` and ``pb``.  So every workload seed asks for the same
amount of work and the same event sequence, and a change of random stream
shows as a changed ``sim.events`` on every seed.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

# A check passes when |estimate - exact| <= Z_TOL standard errors, the
# standard error being the asymptotic one of the closed form (a false
# failure has probability below 1e-6 per check).
Z_TOL = 5.0

# The ``--seed`` given to ``sant simulate``.
SIM_SEED = 1

# Index values are six-digit, so place names have one length on every seed.
INDEX_RANGE = range(100_000, 1_000_000)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _assignment_file(name: str, bindings: dict[str, str]) -> str:
    body = "".join(f"    {k} = {v}\n" for k, v in bindings.items())
    return f"assignments {{\n  {name} {{\n{body}  }}\n}}\n"


def _int_set(values) -> str:
    return "{" + ", ".join(str(v) for v in values) + "}"


def _real_set(values) -> str:
    return "{" + ", ".join(repr(v) for v in values) + "}"


def reward_estimate(stdout: str, label: str) -> float | None:
    """The estimate column of ``label``'s row in a ``sant simulate`` table."""
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[0] == label:
            return float(fields[1])
    return None


def _close(name: str, estimate: float | None, exact: float, se: float,
           what: str) -> Check:
    tol = Z_TOL * se
    if estimate is None:
        return Check(name, False, f"no estimate in the output ({what})")
    ok = abs(estimate - exact) <= tol
    return Check(name, ok, f"{estimate:.6f} vs {what} = {exact:.6f} "
                           f"(tol {tol:.6f} = {Z_TOL:g} SE)")


class GeoWide:
    name = "geo-wide"
    why = ("|n|=1000 common-cause block: every event checks two 1000-leaf "
           "predicates, so enabling checks dominate")
    size = 1000
    lambda_f, lambda_r = 1.0, 10.0
    horizon = 2000.0
    label = "prob_tokens_at_least(GEO_1,1)"
    output = None
    readback = False

    def prepare(self, seed: int, models: str, workdir: str, run_sant):
        rng = random.Random(f"{self.name}:{seed}")
        n = sorted(rng.sample(INDEX_RANGE, self.size))
        sasg = _write(os.path.join(workdir, "geo-wide.sasg"), _assignment_file(
            "GeoWide", {"n": _int_set(n), "lambda_f": repr(self.lambda_f),
                        "lambda_r": repr(self.lambda_r)}))
        self.argv = ["simulate", os.path.join(models, "geo.sant"), sasg,
                     "--assignment", "GeoWide", "--horizon", repr(self.horizon),
                     "--seed", str(SIM_SEED), "--reward", "atleast:GEO_1:1"]

    def check(self, sample) -> list[Check]:
        """Time fraction with GEO_1 >= 1 against the two-state CTMC."""
        lf, lr = self.lambda_f, self.lambda_r
        exact = lf / (lf + lr)
        # Asymptotic variance of a two-state time average: 2ab/(a+b)^3 / H.
        se = math.sqrt(2 * lf * lr / (lf + lr) ** 3 / self.horizon)
        return [_close("atleast:GEO_1:1", reward_estimate(sample.stdout,
                       self.label), exact, se, "lf/(lf+lr)")]


class TmiLong:
    name = "tmi-long"
    why = ("|J|=4 switch from a .sanx over ~200k events: 1-2 leaf predicates, "
           "so heap, sampling and per-event overhead dominate")
    lambda_f, lambda_r = 1.0, 2.0
    horizon = 150_000.0
    label = "throughput(SW_F)"
    output = None
    readback = False

    def prepare(self, seed: int, models: str, workdir: str, run_sant):
        rng = random.Random(f"{self.name}:{seed}")
        k, *others = rng.sample(INDEX_RANGE, 5)
        self.p_tmi = rng.uniform(0.2, 0.4)
        sasg = _write(os.path.join(workdir, "tmi-long.sasg"), _assignment_file(
            "TmiLong", {"k": str(k), "J": _int_set(sorted(others)),
                        "p_TMI": repr(self.p_tmi),
                        "lambda_f": repr(self.lambda_f),
                        "lambda_r": repr(self.lambda_r)}))
        sanx = os.path.join(workdir, "tmi-long.sanx")
        made = run_sant(["instantiate", os.path.join(models, "tmi.sant"), sasg,
                         "--assignment", "TmiLong", "--out", sanx])
        if made.code != 0:
            raise RuntimeError(f"preparing {sanx} failed: {made.stderr}")
        self.argv = ["simulate", sanx, "--horizon", repr(self.horizon),
                     "--seed", str(SIM_SEED), "--reward", "throughput:SW_F"]

    def check(self, sample) -> list[Check]:
        """SW_F throughput against the up/down renewal cycle of switch k,
        and its case-2 share against p_TMI."""
        lf, lr = self.lambda_f, self.lambda_r
        mean = 1 / lf + 1 / lr
        var = 1 / lf ** 2 + 1 / lr ** 2
        # Renewal counting: Var(N(H)/H) ~ var / (mean^3 H).
        se = math.sqrt(var / mean ** 3 / self.horizon)
        checks = [_close("throughput:SW_F", reward_estimate(
            sample.stdout, self.label), lf * lr / (lf + lr), se,
            "lf*lr/(lf+lr)")]
        counts = sample.report.get("case_counts", {}).get("SW_F", [])
        total = sum(counts)
        share = counts[1] / total if len(counts) == 2 and total else None
        p = self.p_tmi
        se = math.sqrt(p * (1 - p) / total) if total else 0.0
        checks.append(_close("case-2 share of SW_F", share, p, se, "p_TMI"))
        return checks


class UserInstantiate:
    name = "user-instantiate"
    why = ("|s|=1000 User template to .sanx: concretize lookups and the "
           "~23 MB write; no simulation")
    size = 1000
    readback = True

    def prepare(self, seed: int, models: str, workdir: str, run_sant):
        rng = random.Random(f"{self.name}:{seed}")
        self.s = sorted(rng.sample(INDEX_RANGE, self.size))
        weights = [rng.uniform(0.5, 1.5) for _ in self.s]
        total = sum(weights)
        self.pb = [w / total for w in weights]
        if abs(math.fsum(self.pb) - 1.0) > 1e-9:
            raise RuntimeError("pb does not sum to 1 within 1e-9")
        sasg = _write(os.path.join(workdir, "user-instantiate.sasg"),
                      _assignment_file("UserWide", {
                          "s": _int_set(self.s), "pb": _real_set(self.pb)}))
        self.output = os.path.join(workdir, "user-instantiate.sanx")
        self.argv = ["instantiate", os.path.join(models, "user.sant"), sasg,
                     "--assignment", "UserWide", "--out", self.output]

    def check(self, sample) -> list[Check]:
        """The written instance: read back equal, and its shape from |s|."""
        n = len(self.s)
        checks = [Check("readback", sample.report.get("readback_equal") is True,
                        "written .sanx decodes equal to the concretized "
                        "instance")]
        with open(self.output, encoding="utf-8") as handle:
            doc = json.load(handle)
        places = ["Idle_1", *(f"Req_{i}" for i in self.s),
                  "Dropped_1", "Failed_1"]
        checks.append(Check("places", doc.get("places") == places,
                            f"|P| = {len(doc.get('places', []))}, "
                            f"expected |s|+3 = {n + 3} named from s"))
        gates = len(doc.get("output_gates", []))
        checks.append(Check("output gates", gates == n + 2,
                            f"|O| = {gates}, expected |s|+2 = {n + 2}"))
        request = next((a for a in doc.get("activities", [])
                        if a.get("name") == "Request"), {})
        checks.append(Check("Request cases", request.get("cases") == n
                            and request.get("probs") == self.pb,
                            f"{request.get('cases')} cases, probs equal to pb"))
        summary = f"|P|={n + 3} |A|=3 |I|=3 |O|={n + 2}"
        checks.append(Check("summary line", summary in sample.stdout,
                            f"stdout reports '{summary}'"))
        return checks


WORKLOADS = {w.name: w for w in (GeoWide, TmiLong, UserInstantiate)}
