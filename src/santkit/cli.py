"""Command-line front end: validate, instantiate, simulate, export.

Exit codes: 0 on success, 1 for user errors (unreadable or invalid input),
2 for internal errors.  Set ``SANT_COLOR=1`` to colorize diagnostics.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .concretize import concretize, instance_summary
from .errors import Diagnostic, ParseError, SantError, has_errors
from .export import san_to_dot, template_to_dot
from .jsonio import (dumps, json_to_san, load_json_file, san_to_json,
                     template_to_json)
from .modelfile import (AssignmentDocument, ModelDocument, coerce_assignment,
                        load_assignments, load_template)
from .sancore import validate_san
from .sim import RewardSpec, SimConfig, simulate
from .template import validate_template


def _color_enabled() -> bool:
    return os.environ.get("SANT_COLOR") == "1"


_COLORS = {"error": "\x1b[31m", "warning": "\x1b[33m"}


def _print_diagnostic(diag: Diagnostic, doc: ModelDocument | None) -> None:
    """Print ``diag`` to stderr, located in ``doc`` when there is one."""
    if doc is None:
        text = dataclasses.replace(diag, span=None).format()
    else:
        located = dataclasses.replace(
            diag, span=diag.span or doc.span_of(diag.element))
        text = f"{doc.path}:{'' if located.span else ' '}{located.format()}"
    if _color_enabled():
        color = _COLORS.get(diag.severity, "")
        text = f"{color}{text}\x1b[0m"
    print(text, file=sys.stderr)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _load_model(path: str) -> ModelDocument:
    if not os.path.exists(path):
        raise SantError(f"no such file: {path}")
    return load_template(path)


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        doc = _load_model(args.model)
    except ParseError as exc:
        return _fail(f"{args.model}:{exc}")
    diags = validate_template(doc.template)
    for diag in diags:
        _print_diagnostic(diag, doc)
    if has_errors(diags):
        return 1
    print(f"{args.model}: ok ({len(diags)} warning(s))" if diags
          else f"{args.model}: ok")
    return 0


def _resolve_instance(args: argparse.Namespace):
    """Either a ready .sanx instance or a template + named assignment."""
    if args.model.endswith(".sanx"):
        return json_to_san(load_json_file(args.model))
    doc = _load_model(args.model)
    if not args.assignments or not args.assignment:
        raise SantError(
            "a .sant model needs an assignment file and --assignment NAME")
    adoc: AssignmentDocument = load_assignments(args.assignments)
    if args.assignment not in adoc.assignments:
        known = ", ".join(adoc.assignments) or "none"
        raise SantError(
            f"no assignment named '{args.assignment}' (available: {known})")
    raw = adoc.assignments[args.assignment]
    assignment = coerce_assignment(doc.template, raw)
    return concretize(doc.template, assignment, name=args.assignment)


def cmd_instantiate(args: argparse.Namespace) -> int:
    san = _resolve_instance(args)
    out = args.out or f"{san.name}.sanx"
    _write_out(dumps(san_to_json(san)), out)
    for diag in validate_san(san):
        _print_diagnostic(diag, None)
    print(instance_summary(san))
    if out != "-":
        print(f"wrote {out}")
    return 0


def parse_reward(text: str) -> RewardSpec:
    parts = text.split(":")
    if parts[0] in ("tokens", "time_avg_tokens") and len(parts) == 2:
        return RewardSpec("time_avg_tokens", parts[1])
    if parts[0] == "throughput" and len(parts) == 2:
        return RewardSpec("throughput", parts[1])
    if parts[0] == "atleast" and len(parts) == 3:
        try:
            threshold = int(parts[2])
        except ValueError:
            raise SantError(f"bad reward '{text}': threshold "
                            f"'{parts[2]}' is not an integer") from None
        return RewardSpec("prob_tokens_at_least", parts[1],
                          threshold=threshold)
    raise SantError(
        f"bad reward '{text}' (use tokens:PLACE, throughput:ACTIVITY, "
        f"or atleast:PLACE:N)")


def cmd_simulate(args: argparse.Namespace) -> int:
    san = _resolve_instance(args)
    rewards = [parse_reward(r) for r in args.reward]
    cfg = SimConfig(seed=args.seed, horizon=args.horizon,
                    replications=args.reps, max_events=args.max_events)
    result = simulate(san, cfg, rewards)
    lines = [f"model: {san.name}  seed={cfg.seed} horizon={cfg.horizon} "
             f"reps={cfg.replications} events={sum(result.events)}"]
    lines.append(f"{'reward':40} {'estimate':>14} {'std':>12} {'reps':>6}")
    for est in result.rewards:
        lines.append(f"{est.name:40} {est.estimate:>14.6f} "
                     f"{est.std:>12.6f} {est.replications:>6}")
    text = "\n".join(lines) + "\n"
    _write_out(text, args.out)
    if args.out and args.out != "-":
        print(f"wrote {args.out}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    if args.model.endswith(".sanx"):
        san = json_to_san(load_json_file(args.model))
        text = san_to_dot(san) if args.format == "dot" \
            else dumps(san_to_json(san))
    else:
        doc = _load_model(args.model)
        text = template_to_dot(doc.template) if args.format == "dot" \
            else dumps(template_to_json(doc.template))
    _write_out(text, args.out)
    return 0


def cmd_bundled(args: argparse.Namespace) -> int:
    from importlib import resources

    root = resources.files("santkit") / "models"
    for entry in sorted(p.name for p in root.iterdir()):
        print(root / entry)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sant",
        description="Stochastic activity network templates: validate, "
                    "instantiate, simulate, export.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a template file")
    p.add_argument("model", help="template file (.sant)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("instantiate",
                       help="generate a concrete net from a template")
    p.add_argument("model", help="template file (.sant)")
    p.add_argument("assignments", nargs="?",
                   help="assignment file (.sasg)")
    p.add_argument("--assignment", help="assignment set name")
    p.add_argument("--out", help="output instance file (.sanx), '-' for stdout")
    p.set_defaults(func=cmd_instantiate)

    p = sub.add_parser("simulate", help="estimate rewards by simulation")
    p.add_argument("model", help="instance (.sanx) or template (.sant)")
    p.add_argument("assignments", nargs="?", help="assignment file (.sasg)")
    p.add_argument("--assignment", help="assignment set name")
    p.add_argument("--reward", action="append", default=[],
                   help="tokens:PLACE | throughput:ACTIVITY | atleast:PLACE:N")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--max-events", type=int, default=1_000_000)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("export", help="render to DOT or JSON")
    p.add_argument("model", help="instance (.sanx) or template (.sant)")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--out", help="output path, '-' for stdout")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("bundled", help="list the bundled example models")
    p.set_defaults(func=cmd_bundled)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SantError as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(str(exc))
    except Exception as exc:  # noqa: BLE001 - last-resort guard
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
