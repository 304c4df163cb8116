"""Run one ``sant`` command in this interpreter and report what it did.

Usage::

    python3 -I perfbench/shim.py SRC_DIR REPORT MODE SANT_ARG...

``SRC_DIR`` is put first on ``sys.path``, so the ``santkit`` under test is
the one in the checkout, never an installed copy.  The command's stdout,
stderr and exit code are those of ``sant`` itself.  After the command the
shim writes ``REPORT`` (JSON) and, when tracing, ``REPORT.spans``.

MODE is one of

``plain``
    Probes only: the time ``simulate()`` is entered and left, its event
    and case counts, and the time ``concretize`` returns with the number of
    updates in the instance.  Two wrapped calls per command.
``trace``
    The probes plus a span around every call of each ``TARGETS`` entry.
``readback``
    ``plain``, then, after the command has finished, re-read the ``.sanx``
    it wrote and compare it with the instance ``concretize`` returned.

Times are ``time.monotonic()`` readings.  On Linux that is
``CLOCK_MONOTONIC``, one clock for every process on the machine, so the
parent can set them against the moment it started this process.  The peak
RSS is read from ``/proc/self/status`` when the command returns.  The shim
therefore runs on Linux only.

The file is self-contained because ``-I`` keeps the script's directory off
``sys.path``.
"""

import functools
import json
import sys
import time
from array import array

clock = time.monotonic

# Layer spans: (layer, caller module, attribute).  Each entry is a public
# function as its caller module sees it, patched in that caller's namespace,
# so only calls made from that caller are timed (``eval_term`` inside
# ``terms`` recursion or ``fire``'s own ``is_enabled`` are not spans).
TARGETS = (
    ("modelfile.load", "santkit.cli", "load_template"),
    ("modelfile.load", "santkit.cli", "load_assignments"),
    ("modelfile.load", "santkit.cli", "coerce_assignment"),
    ("template.validate", "santkit.cli", "validate_template"),
    ("template.validate", "santkit.concretize", "validate_template"),
    ("concretize", "santkit.cli", "concretize"),
    ("concretize.index_map", "santkit.concretize", "build_index_map"),
    ("concretize.gates", "santkit.concretize", "concretize_input_gate"),
    ("concretize.gates", "santkit.concretize", "concretize_output_gate"),
    ("terms.eval", "santkit.concretize", "eval_term"),
    ("sancore.validate", "santkit.cli", "validate_san"),
    ("sancore.validate", "santkit.concretize", "validate_san"),
    ("sancore.validate", "santkit.sim", "validate_san"),
    ("sancore.instability", "santkit.sancore", "find_instability"),
    ("jsonio.encode", "santkit.cli", "san_to_json"),
    ("jsonio.encode", "santkit.cli", "dumps"),
    ("jsonio.decode", "santkit.cli", "load_json_file"),
    ("jsonio.decode", "santkit.cli", "json_to_san"),
    ("sim", "santkit.cli", "simulate"),
    ("sim.enabling", "santkit.sim", "is_enabled"),
    ("sim.enabling", "santkit.sim", "enabled_activities"),
    ("sim.fire", "santkit.sim", "fire"),
    ("sim.sample", "santkit.sim", "sample_firing_time"),
)

# The root span: everything ``sant`` does after its import.
ROOT_LAYER = "cli"


class Tracer:
    """Spans kept in four parallel arrays until the command ends.

    Span ``i`` has layer ``layers[layer[i]]``, parent span ``parent[i]``
    (-1 for the root) and runs from ``start[i]`` to ``end[i]``.
    """

    def __init__(self):
        self.layers = []
        self.layer = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.open = [-1]

    def wrap(self, layer, fn):
        if layer not in self.layers:
            self.layers.append(layer)
        layer_id = self.layers.index(layer)
        add_layer, add_parent = self.layer.append, self.parent.append
        add_start, add_end = self.start.append, self.end.append
        ends, open_spans = self.end, self.open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(ends)
            add_layer(layer_id)
            add_parent(open_spans[-1])
            add_end(0.0)
            open_spans.append(span)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                open_spans.pop()

        return traced

    def write(self, path):
        with open(path, "wb") as handle:
            for column in (self.layer, self.parent, self.start, self.end):
                column.tofile(handle)


def install_probes(cli, report):
    """Wrap ``simulate`` and ``concretize`` as the CLI calls them."""
    simulate = getattr(cli, "simulate", None)
    concretize = getattr(cli, "concretize", None)
    if simulate is not None:
        @functools.wraps(simulate)
        def probed_simulate(*args, **kwargs):
            report["sim_enter"] = clock()
            result = simulate(*args, **kwargs)
            report["sim_exit"] = clock()
            report["events"] = list(result.events)
            report["case_counts"] = {name: list(counts)
                                     for name, counts in result.case_counts}
            return result
        cli.simulate = probed_simulate
    if concretize is not None:
        @functools.wraps(concretize)
        def probed_concretize(*args, **kwargs):
            san = concretize(*args, **kwargs)
            report["concretize_return"] = clock()
            report["updates"] = sum(len(gate.updates) for gate in
                                    san.input_gates + san.output_gates)
            report["_instance"] = san
            return san
        cli.concretize = probed_concretize


def install_spans(tracer, report):
    """Wrap every target that exists; record the ones that do not."""
    missing = []
    for layer, module_name, attr in TARGETS:
        module = sys.modules.get(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.wrap(layer, fn))
    report["missing_targets"] = missing


def readback_equal(report, argv):
    """Whether the written ``.sanx`` decodes to the instance in hand."""
    from santkit.jsonio import json_to_san, load_json_file

    out = argv[argv.index("--out") + 1]
    instance = report.get("_instance")
    return instance is not None and \
        json_to_san(load_json_file(out)) == instance


def peak_rss_kib():
    """High-water RSS of this process since its exec.

    Unlike ``ru_maxrss``, this leaves out the parent's RSS, which Linux
    carries into a child started by vfork or fork.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    src, report_path, mode = sys.argv[1:4]
    argv = sys.argv[4:]
    sys.path.insert(0, src)
    import santkit.cli as cli

    report = {"import_end": clock()}
    install_probes(cli, report)
    run = cli.main
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        install_spans(tracer, report)
        run = tracer.wrap(ROOT_LAYER, run)
    code = run(argv)
    report["peak_rss_kib"] = peak_rss_kib()
    if mode == "readback":
        report["readback_equal"] = readback_equal(report, argv)
    report.pop("_instance", None)
    if tracer is not None:
        tracer.write(report_path + ".spans")
        report["layers"] = tracer.layers
        report["spans"] = len(tracer.end)
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
