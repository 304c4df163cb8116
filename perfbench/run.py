"""Layered benchmark for santkit.

Run from the root of a checkout (stdlib only; santkit is imported from
``src/``, never from an installed copy)::

    python3 perfbench/run.py --workload geo-wide --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn.  One run prepares the
workload's inputs from ``--seed``, runs its ``sant`` command once as an
untimed warm-up whose output is checked against closed forms, then repeats
the same command in fresh interpreters for ``--seconds`` seconds.  Every
repeat must reproduce the warm-up's fixed-seed counts exactly.

``--trace 0`` reports the end-to-end metrics (medians over the samples).
``--trace 1`` alternates plain and traced samples and reports the
per-layer metrics: span self times and call counts from the traced
samples, the rest from the plain ones.  See ``perfbench/README.md``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
human-readable report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from array import array

from workloads import WORKLOADS, Check

HERE = os.path.dirname(os.path.abspath(__file__))
SHIM = os.path.join(HERE, "shim.py")
WORK_ROOT = ".perfbench_work"
SAMPLE_TIMEOUT_S = 60.0
# No new sample starts this long after the run began, whatever --seconds says.
RUN_DEADLINE_S = 120.0

# (name, unit) of the metrics a ``--trace 0`` run reports on every workload.
END_TO_END = (("total_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Span-derived metrics: (metric, layer, "self" seconds or "calls").
LAYER_METRICS = (
    ("cli.self_s", "cli", "self"),
    ("modelfile.load_s", "modelfile.load", "self"),
    ("template.validate_s", "template.validate", "self"),
    ("concretize.self_s", "concretize", "self"),
    ("concretize.index_map_s", "concretize.index_map", "self"),
    ("concretize.gates_s", "concretize.gates", "self"),
    ("terms.eval_s", "terms.eval", "self"),
    ("terms.eval_calls", "terms.eval", "calls"),
    ("sancore.validate_s", "sancore.validate", "self"),
    ("sancore.validate_calls", "sancore.validate", "calls"),
    ("sancore.instability_s", "sancore.instability", "self"),
    ("jsonio.encode_s", "jsonio.encode", "self"),
    ("jsonio.decode_s", "jsonio.decode", "self"),
    ("sim.self_s", "sim", "self"),
    ("sim.enabling_s", "sim.enabling", "self"),
    ("sim.enabling_calls", "sim.enabling", "calls"),
    ("sim.fire_s", "sim.fire", "self"),
    ("sim.fire_calls", "sim.fire", "calls"),
    ("sim.sample_s", "sim.sample", "self"),
    ("sim.sample_calls", "sim.sample", "calls"),
)

# Every ``--trace 1`` metric and its unit, in report order.
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    **{name: ("s" if kind == "self" else "count")
       for name, _, kind in LAYER_METRICS},
    "sim.enabling_calls_per_event": "ratio",
    "sim.events": "count",
    "concretize.updates": "count",
    "sim_events_per_s": "1/s",
    "sanx_bytes": "bytes",
    "trace.uncovered_s": "s",
    "trace.overhead_s": "s",
}

# Self times and the uncovered remainder must add up to total_s this closely.
ACCOUNTING_TOL_S = 1e-6


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


class Sample:
    """One ``sant`` command: its output, timing and the shim's report."""

    def __init__(self, code, stdout, stderr, start, total_s, report, spans):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.start = start
        self.total_s = total_s
        self.report = report
        self.spans = spans


class Runner:
    """Starts ``sant`` through the shim, one process at a time."""

    def __init__(self, src: str, workdir: str):
        self.src = src
        self.workdir = workdir

    def run(self, argv: list[str], mode: str = "plain") -> Sample:
        report_path = os.path.join(self.workdir, "report.json")
        spans_path = report_path + ".spans"
        out_path = os.path.join(self.workdir, "stdout.txt")
        err_path = os.path.join(self.workdir, "stderr.txt")
        for path in (report_path, spans_path):
            if os.path.exists(path):
                os.remove(path)
        cmd = [sys.executable, "-I", SHIM, self.src, report_path, mode, *argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL,
                                    cwd=self.workdir)
            timer = threading.Timer(SAMPLE_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status = os.waitpid(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.monotonic()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as handle:
            stdout = handle.read()
        with open(err_path, encoding="utf-8", errors="replace") as handle:
            stderr = handle.read()
        report, spans = {}, None
        if os.path.exists(report_path):
            with open(report_path, encoding="utf-8") as handle:
                report = json.load(handle)
        if "spans" in report:
            spans = read_spans(spans_path, report["spans"])
        return Sample(code, stdout, stderr, start, end - start, report,
                      spans)


def read_spans(path: str, count: int) -> tuple[array, ...]:
    columns = (array("H"), array("i"), array("d"), array("d"))
    with open(path, "rb") as handle:
        for column in columns:
            column.fromfile(handle, count)
    return columns


def layer_totals(sample: Sample) -> tuple[dict[str, list], float]:
    """Per layer: [self seconds, calls], from the sample's spans; and the
    seconds the root spans cover.

    A span's self time is its duration minus its children's durations.
    """
    layer, parent, start, end = sample.spans
    names = sample.report["layers"]
    child = [0.0] * len(end)
    root_s = 0.0
    for i in range(len(end)):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
        else:
            root_s += end[i] - start[i]
    totals = {name: [0.0, 0] for name in names}
    for i in range(len(end)):
        entry = totals[names[layer[i]]]
        entry[0] += end[i] - start[i] - child[i]
        entry[1] += 1
    return totals, root_s


def end_to_end(sample: Sample, output: str | None) -> dict[str, float]:
    """The end-to-end metrics of one plain sample."""
    report = sample.report
    setup_mark = report.get("sim_enter", report.get("concretize_return"))
    if setup_mark is None:
        raise BenchError("the shim saw neither simulate() nor concretize(); "
                         "setup_s cannot be measured")
    values = {"total_s": sample.total_s,
              "setup_s": setup_mark - sample.start,
              "peak_rss_mb": report["peak_rss_kib"] / 1024}
    if "sim_enter" in report:
        values["sim_events_per_s"] = sum(report["events"]) / (
            report["sim_exit"] - report["sim_enter"])
    if output is not None:
        values["sanx_bytes"] = os.path.getsize(output)
    return values


def layer_metrics(sample: Sample) -> tuple[dict[str, float | None], str]:
    """Per-layer metrics of one traced sample (None: no wrap target left),
    and what is wrong with its time accounting ("" if nothing)."""
    report = sample.report
    totals, root_s = layer_totals(sample)
    values: dict[str, float | None] = {}
    for name, layer, kind in LAYER_METRICS:
        entry = totals.get(layer)
        values[name] = None if entry is None else \
            entry[0] if kind == "self" else entry[1]
    import_s = report["import_end"] - sample.start
    values["cli.import_s"] = import_s
    values["trace.uncovered_s"] = sample.total_s - import_s - root_s
    events = sum(report.get("events", ()))
    values["sim.events"] = events
    values["concretize.updates"] = report.get("updates", 0)
    calls = values["sim.enabling_calls"]
    values["sim.enabling_calls_per_event"] = \
        None if calls is None else calls / events if events else 0.0
    self_times = [self_s for self_s, _ in totals.values()]
    error = import_s + values["trace.uncovered_s"] + sum(self_times) \
        - sample.total_s
    problems = []
    if abs(error) > ACCOUNTING_TOL_S:
        problems.append(f"self times + remainder - total_s = {error:.3g} s")
    if min(self_times, default=0.0) < -ACCOUNTING_TOL_S:
        problems.append("a span outlasts its parent")
    if values["trace.uncovered_s"] < 0:
        problems.append("spans outside the process lifetime")
    return values, "; ".join(problems)


def fixed_seed_counts(sample: Sample, output: str | None) -> dict:
    """What must repeat exactly on every sample of one run."""
    report = sample.report
    counts = {
        "sim.events": sum(report.get("events", ())),
        "case_counts": report.get("case_counts", {}),
        "concretize.updates": report.get("updates", 0),
        "stdout_sha256": hashlib.sha256(sample.stdout.encode()).hexdigest(),
    }
    if output is not None:
        with open(output, "rb") as handle:
            data = handle.read()
        counts["sanx_bytes"] = len(data)
        counts["sanx_sha256"] = hashlib.sha256(data).hexdigest()
    return counts


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def summarize(values: list[float]) -> dict:
    """Median, the highest percentile with >= 10 samples above it, count."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n > 20:     # below that, the percentile would not be above the median
        out["high"] = (f"p{100 * (n - 10) // n}", ordered[n - 11])
    return out


def source_identity(root: str) -> tuple[str, str]:
    """(commit, sha256 of src/santkit) of the checkout."""
    head = os.path.join(root, ".git", "HEAD")
    commit = "unknown (not a git checkout)"
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as handle:
                    commit = handle.read().strip()
    sha = hashlib.sha256()
    package = os.path.join(root, "src", "santkit")
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            sha.update(os.path.relpath(path, package).encode())
            with open(path, "rb") as handle:
                sha.update(handle.read())
    return commit, sha.hexdigest()[:16]


def fmt(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


class WorkloadRun:
    """One workload at one seed: prepare, warm up, sample, check, report."""

    def __init__(self, workload, seed: int, seconds: int, trace: bool,
                 runner: Runner, models: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.runner = runner
        self.models = models
        self.checks: list[Check] = []
        self.lines: list[str] = []
        self.missing_targets: list[str] = []

    def sample(self, mode: str) -> Sample:
        sample = self.runner.run(self.workload.argv, mode)
        if sample.code != 0 or not sample.report:
            raise BenchError(
                f"sant {' '.join(self.workload.argv)} exited {sample.code}"
                f": {sample.stderr.strip()[-2000:]}")
        return sample

    def execute(self) -> dict:
        wl = self.workload
        began = time.monotonic()
        wl.prepare(self.seed, self.models, self.runner.workdir,
                   self.runner.run)
        warm = self.sample("readback" if wl.readback else "plain")
        self.checks.extend(wl.check(warm))
        reference = fixed_seed_counts(warm, wl.output)

        plain_values: list[dict] = []
        traced_values: list[dict] = []
        traced_totals: list[float] = []
        trace_counts = None
        modes = ("plain", "trace") if self.trace else ("plain",)
        measure_start = time.monotonic()
        while True:
            round_start = time.monotonic()
            for mode in modes:
                sample = self.sample(mode)
                counts = fixed_seed_counts(sample, wl.output)
                self.checks.append(Check(
                    f"repeat ({mode})", counts == reference,
                    "fixed-seed counts and output equal the warm-up's"))
                if mode == "plain":
                    plain_values.append(end_to_end(sample, wl.output))
                    continue
                values, problems = layer_metrics(sample)
                self.missing_targets = sample.report["missing_targets"]
                self.checks.append(Check(
                    "span accounting", not problems, problems or
                    "self times >= 0, remainder >= 0, their sum = total_s"))
                calls = {k: v for k, v in values.items()
                         if PER_LAYER_UNITS[k] == "count"}
                trace_counts = trace_counts or calls
                self.checks.append(Check(
                    "repeat (span counts)", calls == trace_counts,
                    "span call counts equal the first traced sample's"))
                traced_values.append(values)
                traced_totals.append(sample.total_s)
            # Stop before a round that would end past --seconds.
            now = time.monotonic()
            if now + (now - round_start) - measure_start > self.seconds \
                    or now - began >= RUN_DEADLINE_S:
                break

        self.report_header(reference, len(plain_values), len(traced_values))
        e2e = self.report_end_to_end(plain_values)
        if not self.trace:
            return {name: {"value": e2e[name], "unit": unit}
                    for name, unit in END_TO_END}
        return self.report_layers(traced_values, traced_totals, e2e)

    def report_header(self, reference: dict, n_plain: int,
                      n_traced: int) -> None:
        wl = self.workload
        commit, src_sha = source_identity(os.getcwd())
        affinity = len(os.sched_getaffinity(0))
        self.lines += [
            f"== {wl.name}  seed={self.seed} seconds={self.seconds} "
            f"trace={int(self.trace)}",
            f"   why: {wl.why}",
            f"   commit={commit} src_sha256={src_sha} "
            f"python={platform.python_version()} nproc={affinity}",
            f"   command: sant {' '.join(wl.argv)}",
            f"   samples: {n_plain} plain"
            + (f", {n_traced} traced" if self.trace else "")
            + " (one warm-up discarded)",
            f"   fixed-seed counts: sim.events={reference['sim.events']} "
            f"concretize.updates={reference['concretize.updates']} "
            f"sanx_bytes={reference.get('sanx_bytes', 'n/a')} "
            f"cases={json.dumps(reference['case_counts'], sort_keys=True)} "
            f"digest={digest(reference)}",
        ]

    def report_end_to_end(self, plain_values: list[dict]) -> dict:
        medians = {}
        self.lines.append(f"   {'metric':24} {'unit':6} {'median':>12} "
                          f"{'high pct':>20} {'n':>4}")
        units = dict(END_TO_END, sim_events_per_s="1/s", sanx_bytes="bytes")
        for name, unit in units.items():
            values = [v[name] for v in plain_values if name in v]
            if not values:
                self.lines.append(f"   {name:24} {unit:6} "
                                  f"{'n/a (not on this workload)':>12}")
                continue
            stats = summarize(values)
            medians[name] = stats["median"]
            high = stats.get("high")
            high_text = f"{high[0]}={fmt(high[1])}" if high \
                else "n/a (n <= 20)"
            self.lines.append(f"   {name:24} {unit:6} "
                              f"{fmt(stats['median']):>12} {high_text:>20} "
                              f"{stats['n']:>4}")
        failed = sum(not c.ok for c in self.checks)
        ratio = failed / len(self.checks)
        self.lines.append(f"   {'check_fail_ratio':24} {'ratio':6} "
                          f"{fmt(ratio):>12}   ({failed} of {len(self.checks)}"
                          f" checks failed)")
        return medians

    def report_layers(self, traced_values: list[dict],
                      traced_totals: list[float], e2e: dict) -> dict:
        """Medians over the traced samples; the throughput and byte count
        come from the plain samples, the overhead from both."""
        self.lines.append(f"   {'per-layer metric':30} {'unit':6} "
                          f"{'median':>12} {'n':>4}")
        if self.missing_targets:
            self.lines.append("   wrap targets not found: "
                              + ", ".join(self.missing_targets))
        metrics = {}
        for name, unit in PER_LAYER_UNITS.items():
            if name == "trace.overhead_s":
                value = statistics.median(traced_totals) - e2e["total_s"]
                n = len(traced_totals)
            elif name in ("sim_events_per_s", "sanx_bytes"):
                value = e2e.get(name, 0)
                n = len(traced_totals)
            else:
                values = [v[name] for v in traced_values]
                value = None if None in values else statistics.median(values)
                n = len(values)
            self.lines.append(f"   {name:30} {unit:6} {fmt(value):>12} {n:>4}")
            metrics[name] = {"value": 0, "unit": unit, "absent": True} \
                if value is None else {"value": value, "unit": unit}
        return metrics

    def check_lines(self) -> list[str]:
        seen: dict[str, list[Check]] = {}
        for check in self.checks:
            seen.setdefault(check.name, []).append(check)
        lines = ["   checks:"]
        for name, group in seen.items():
            bad = [c for c in group if not c.ok]
            shown = bad[0] if bad else group[0]
            lines.append(f"     {'FAIL' if bad else 'ok  '} {name} "
                         f"[{len(group) - len(bad)}/{len(group)}]: "
                         f"{shown.detail}")
        return lines


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Layered benchmark for santkit (run from the checkout "
                    "root).")
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "santkit", "cli.py")):
        print(f"perfbench: no santkit source under {src}; run from the root "
              f"of a santkit checkout", file=sys.stderr)
        return 2
    models = os.path.join(src, "santkit", "models")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = os.path.abspath(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    runs = []
    try:
        for name in names:
            run = WorkloadRun(WORKLOADS[name](), args.seed, args.seconds,
                              bool(args.trace), Runner(src, workdir), models)
            metrics = run.execute()
            print("\n".join(run.lines + run.check_lines()), flush=True)
            runs.append((name, run.checks, metrics))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    checks = [c for _, run_checks, _ in runs for c in run_checks]
    failed = sum(not c.ok for c in checks)
    if len(runs) == 1:
        metrics = runs[0][2]
    else:
        metrics = {f"{name}/{metric}": value for name, _, run_metrics in runs
                   for metric, value in run_metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
