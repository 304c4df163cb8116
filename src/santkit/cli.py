"""Command-line front end: validate, instantiate, simulate, export.

Exit codes: 0 on success, 1 for user errors (unreadable or invalid input,
and command-line usage errors), 2 for internal errors.  Set
``SANT_COLOR=1`` to colorize diagnostics.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NoReturn

from .concretize import concretize, instance_summary
from .errors import Diagnostic, SantError, ValidationError, has_errors
from .export import san_to_dot, template_to_dot
from .jsonio import dumps, json_to_san, load_json_file, san_to_json
from .modelfile import (ModelDocument, coerce_assignment, load_assignments,
                        load_template, number_reader, template_to_json)
from .sancore import validate_san
from .sim import REWARDS, RewardSpec, SimConfig, simulate
from .template import validate_template


def _color_enabled() -> bool:
    return os.environ.get("SANT_COLOR") == "1"


_COLORS = {"error": "\x1b[31m", "warning": "\x1b[33m"}


def _print_diagnostic(diag: Diagnostic, doc: ModelDocument | None) -> None:
    """Print ``diag`` to stderr, located in ``doc`` when there is one."""
    text = diag.format()
    if doc is not None:
        span = doc.spans.get(diag.element)
        text = f"{doc.path}:{f'{span[0]}:{span[1]}:' if span else ''} {text}"
    if _color_enabled():
        color = _COLORS.get(diag.severity, "")
        text = f"{color}{text}\x1b[0m"
    print(text, file=sys.stderr)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _write_out(pieces: list[str], out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)


def cmd_validate(args: argparse.Namespace) -> int:
    doc = load_template(args.model)
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
    doc = load_template(args.model)
    if not args.assignments or not args.assignment:
        raise SantError(
            "a .sant model needs an assignment file and --assignment NAME")
    sets = load_assignments(args.assignments)
    if args.assignment not in sets:
        known = ", ".join(sets) or "none"
        raise SantError(
            f"no assignment named '{args.assignment}' (available: {known})")
    raw = sets[args.assignment]
    assignment = coerce_assignment(doc.template, raw)
    return concretize(doc.template, assignment, name=args.assignment)


def _checked(san) -> list[Diagnostic]:
    """The instance's validation warnings; an instance with errors is
    refused before anything is written."""
    diags = validate_san(san)
    if has_errors(diags):
        raise ValidationError(diags)
    return diags


def cmd_instantiate(args: argparse.Namespace) -> int:
    san = _resolve_instance(args)
    diags = _checked(san)
    out = args.out or f"{san.name}.sanx"
    _write_out(dumps(san_to_json(san)), out)
    for diag in diags:
        _print_diagnostic(diag, None)
    # An instance written to stdout is left there alone, a readable .sanx.
    print(instance_summary(san), file=sys.stderr if out == "-" else sys.stdout)
    if out != "-":
        print(f"wrote {out}")
    return 0


# CLI forms of the reward kinds, e.g. "atleast:PLACE:N".
_REWARD_FORMS = [":".join((kind.spellings[0], kind.target.upper(), "N")
                          [:kind.arity + 1]) for kind in REWARDS.values()]


def parse_reward(text: str) -> RewardSpec:
    prefix, *fields = text.split(":")
    for name, kind in REWARDS.items():
        if prefix in kind.spellings and len(fields) == kind.arity:
            if kind.arity == 1:
                return RewardSpec(name, fields[0])
            try:
                threshold = number_reader(int)(fields[1])
            except ValueError:
                raise SantError(f"bad reward '{text}': threshold "
                                f"'{fields[1]}' is not an integer") from None
            return RewardSpec(name, fields[0], threshold=threshold)
    raise SantError(f"bad reward '{text}' (use "
                    f"{', '.join(_REWARD_FORMS[:-1])}, or {_REWARD_FORMS[-1]})")


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
    _write_out(["\n".join(lines) + "\n"], args.out)
    if args.out and args.out != "-":
        print(f"wrote {args.out}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    diags: list[Diagnostic] = []
    if args.model.endswith(".sanx"):
        san = json_to_san(load_json_file(args.model))
        diags = _checked(san)
        pieces = [san_to_dot(san)] if args.format == "dot" \
            else dumps(san_to_json(san))
    else:
        doc = load_template(args.model)
        pieces = [template_to_dot(doc.template)] if args.format == "dot" \
            else dumps(template_to_json(doc.template))
    _write_out(pieces, args.out)
    for diag in diags:
        _print_diagnostic(diag, None)
    return 0


def cmd_bundled(args: argparse.Namespace) -> int:
    from importlib import resources

    root = resources.files("santkit") / "models"
    for entry in sorted(p.name for p in root.iterdir()):
        print(root / entry)
    return 0


class _Parser(argparse.ArgumentParser):
    """``argparse`` with usage errors exiting 1, a user error, not 2."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
                   help=" | ".join(_REWARD_FORMS))
    p.add_argument("--seed", type=number_reader(int), default=1)
    p.add_argument("--horizon", type=number_reader(float), required=True)
    p.add_argument("--reps", type=number_reader(int),
                   default=SimConfig.replications)
    p.add_argument("--max-events", type=number_reader(int),
                   default=SimConfig.max_events)
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
    except RecursionError:
        return _fail("input is nested too deeply")
    except Exception as exc:  # noqa: BLE001 - last-resort guard
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2

