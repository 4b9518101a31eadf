"""Command-line front end.

Four subcommands::

    normalize --instance <name> "pq(<point>; <element>)"
    equiv     --instance <name> "pq(...)" "pq(...)"
    apply     --instance <name> "<element>|frac(...)" "pq(...)"
    verify    [<preset>] [--config file.json] [--depth k]

Output is JSON by default (``--output text`` for a plain rendering); all
rational numbers are exact ``"p/q"`` strings.  Exit codes: 0 success,
1 domain error, 2 syntax error, 3 verifier counterexample found.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import DomainError, UsageError
from .grammar import (
    ParseError,
    canonical_json,
    element_text,
    parse_element,
    parse_frac,
    parse_pq,
    pq_text,
)
from .instances import INSTANCE_NAMES, create_instance
from .verifier import PRESET_NAMES, presentation_from_config, preset, verify

__all__ = ["build_parser", "entry", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudoquotients",
        description="Exact calculus on pseudoquotient spaces of injective semigroup actions.",
    )
    parser.add_argument(
        "--output", choices=("json", "text"), default="json", help="output format"
    )
    # accepted after the subcommand too; only overrides when actually given
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--output", choices=("json", "text"), default=argparse.SUPPRESS)
    commands = parser.add_subparsers(dest="command", required=True)

    def with_instance(sub):
        sub.add_argument(
            "--instance", required=True, choices=INSTANCE_NAMES, help="which action to use"
        )

    normalize = commands.add_parser(
        "normalize", parents=[shared], help="canonical value of a pseudoquotient"
    )
    with_instance(normalize)
    normalize.add_argument("pq", help="pq(<point>; <element>)")

    equiv = commands.add_parser(
        "equiv", parents=[shared], help="decide equivalence of two pseudoquotients"
    )
    with_instance(equiv)
    equiv.add_argument("left", help="pq(<point>; <element>)")
    equiv.add_argument("right", help="pq(<point>; <element>)")

    apply_cmd = commands.add_parser(
        "apply",
        parents=[shared],
        help="apply an extended element or a group fraction to a pseudoquotient",
    )
    with_instance(apply_cmd)
    apply_cmd.add_argument("map", help="<element> or frac(<element>, <element>)")
    apply_cmd.add_argument("pq", help="pq(<point>; <element>)")

    verify_cmd = commands.add_parser(
        "verify",
        parents=[shared],
        help="bounded check of injectivity, common multiples, and cancellation",
    )
    verify_cmd.add_argument(
        "preset", nargs="?", choices=PRESET_NAMES, help="a built-in presentation"
    )
    verify_cmd.add_argument("--config", help="JSON presentation config file")
    verify_cmd.add_argument("--depth", type=int, help="word-length bound override")
    return parser


def _instance_for(name: str, *values):
    dims = {getattr(v, "dim", None) for v in values} - {None}
    if len(dims) > 1:
        raise UsageError(f"mixed dimensions {sorted(dims)} in one invocation")
    return create_instance(name, dim=dims.pop() if dims else 1)


def _emit(payload: dict, output: str) -> None:
    if output == "json":
        print(json.dumps(payload, indent=2))
        return
    for key, value in payload.items():
        print(f"{key}: {json.dumps(value) if isinstance(value, (dict, list)) else value}")


def _cmd_normalize(args) -> int:
    p = parse_pq(args.instance, args.pq)
    instance = _instance_for(args.instance, p.denominator)
    _emit(
        {
            "instance": args.instance,
            "canonical": canonical_json(args.instance, instance.canonical_value(p)),
        },
        args.output,
    )
    return 0


def _cmd_equiv(args) -> int:
    left = parse_pq(args.instance, args.left)
    right = parse_pq(args.instance, args.right)
    instance = _instance_for(args.instance, left.denominator, right.denominator)
    witness = instance.ore_complete(left.denominator, right.denominator)
    _emit(
        {
            "instance": args.instance,
            "equivalent": instance.pq_equivalent(left, right),
            "witness": {
                "f_prime": element_text(args.instance, witness.f_prime),
                "g_prime": element_text(args.instance, witness.g_prime),
            },
        },
        args.output,
    )
    return 0


def _cmd_apply(args) -> int:
    p = parse_pq(args.instance, args.pq)
    map_text = args.map.strip()
    if map_text.startswith("frac("):
        frac = parse_frac(args.instance, map_text)
        instance = _instance_for(args.instance, frac.den, frac.num, p.denominator)
        result = instance.frac_apply(frac, p)
    else:
        element = parse_element(args.instance, map_text)
        instance = _instance_for(args.instance, element, p.denominator)
        result = instance.extend_apply(element, p)
    _emit(
        {
            "instance": args.instance,
            "result": pq_text(args.instance, result),
            "canonical": canonical_json(args.instance, instance.canonical_value(result)),
        },
        args.output,
    )
    return 0


def _cmd_verify(args) -> int:
    if bool(args.preset) == bool(args.config):
        raise DomainError("verify needs exactly one of a preset name or --config")
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.load(handle)
        if args.depth is not None:
            config = {**config, "max_depth": args.depth}
        presentation = presentation_from_config(config)
    else:
        presentation = preset(args.preset, args.depth)
    report = verify(presentation)
    _emit(report.to_json(), args.output)
    return 3 if report.has_counterexample else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "normalize": _cmd_normalize,
        "equiv": _cmd_equiv,
        "apply": _cmd_apply,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ParseError as error:
        print(f"syntax error: {error}", file=sys.stderr)
        return 2
    except (DomainError, UsageError, OSError, json.JSONDecodeError) as error:
        print(f"domain error: {error}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
