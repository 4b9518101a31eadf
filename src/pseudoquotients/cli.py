"""Command-line front end.

Four subcommands::

    normalize --instance <name> "pq(<point>; <element>)"
    equiv     --instance <name> "pq(...)" "pq(...)"
    apply     --instance <name> "<element>|frac(...)" "pq(...)"
    verify    [<preset>] [--config file.json] [--depth k]

Output is JSON by default (``--output text`` for a plain rendering); all
rational numbers are exact ``"p/q"`` strings.  Exit codes: 0 success,
1 domain error, 2 syntax error, 3 verifier counterexample found.
``main(argv)`` may be called many times in one process.  A plain
``normalize``, ``equiv`` or ``apply`` command line is read by
:func:`_plain_args`, which neither imports argparse nor builds a parser;
every other command line (``verify``, ``--help``, ``--instance=...``, an
error) goes to the argparse parser, which is built on the first such call
and reused.  The bounded verifier is imported only for ``verify``, so the
other subcommands never load it.
"""

from __future__ import annotations

import functools
import json
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

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
from .instances import INSTANCE_NAMES, PRESET_NAMES, create_instance

if TYPE_CHECKING:
    import argparse

__all__ = ["build_parser", "entry", "main"]


def build_parser() -> argparse.ArgumentParser:
    import argparse  # only help, verify and refused command lines need it

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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first request _plain_args refuses, not at import; parse_args
    # leaves it unchanged
    return build_parser()


# the positionals of each command _plain_args reads, in order, and the choices
# of the two options it reads
_POSITIONALS = {"normalize": ("pq",), "equiv": ("left", "right"), "apply": ("map", "pq")}
_CHOICES = {"--instance": frozenset(INSTANCE_NAMES), "--output": frozenset(("json", "text"))}


def _plain_args(argv):
    """The parsed ``argv`` of a plain request, or ``None`` for argparse to read it.

    A plain request is ``[--output F]... <normalize|equiv|apply> ...``
    where, after the command, the only options are ``--instance <name>``
    and ``--output <json|text>``, each value a separate token, in any place
    and order (the last of each wins), and the command's exact number of
    positionals, none starting with ``-``.  For such a list or tuple of
    strings the result's ``vars()`` equal those of
    ``_parser().parse_args(argv)``.  Anything else -- ``-h``, ``--``,
    ``--instance=...``, an abbreviated option, ``verify``, a value outside
    the choices, a missing or extra positional, an item that is not a
    string -- gives ``None``, so argparse stays the one path that prints
    help and usage errors.
    """
    if type(argv) not in (list, tuple) or not all(type(token) is str for token in argv):
        return None
    tokens = iter(argv)
    options = {"--output": "json"}
    command = next(tokens, None)
    while command == "--output":
        options[command] = value = next(tokens, None)
        if value not in _CHOICES[command]:
            return None
        command = next(tokens, None)
    names = _POSITIONALS.get(command)
    if names is None:
        return None
    positionals = []
    for token in tokens:
        choices = _CHOICES.get(token)
        if choices is not None:
            options[token] = value = next(tokens, None)
            if value not in choices:  # None if the value is missing
                return None
        elif token[:1] == "-":
            return None
        else:
            positionals.append(token)
    if "--instance" not in options or len(positionals) != len(names):
        return None
    return SimpleNamespace(
        output=options["--output"],
        command=command,
        instance=options["--instance"],
        **dict(zip(names, positionals)),
    )


def _instance_for(name: str, *values):
    dims = {getattr(v, "dim", None) for v in values} - {None}
    if len(dims) > 1:
        raise UsageError(f"mixed dimensions {sorted(dims)} in one invocation")
    return create_instance(name, dim=dims.pop() if dims else 1)


_quote = json.encoder.encode_basestring_ascii


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, in one recursive pass.

    The pure-Python encoder that ``json.dumps`` falls back to for an indent
    costs more than the rest of a small request's output.  Dict keys must
    be strings, as in every payload here; a value other than a dict, list,
    tuple, string, int, bool or ``None`` goes to ``json.dumps``.
    """
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = (f"{_quote(key)}: {_json_text(item, inner)}" for key, item in value.items())
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        return "[" + inner + ("," + inner).join(_json_text(item, inner) for item in value) + indent + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return json.dumps(value)


def _emit(payload: dict, output: str) -> None:
    if output == "json":
        print(_json_text(payload))
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
    from .verifier import presentation_from_config, verify

    if bool(args.preset) == bool(args.config):
        raise DomainError("verify needs exactly one of a preset name or --config")
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            try:
                config = json.load(handle)
            except UnicodeDecodeError as error:
                raise DomainError(
                    f"config file is not UTF-8 text: {error.reason} at byte {error.start}"
                ) from None
            except RecursionError:
                raise DomainError("config file nests JSON arrays or objects too deeply") from None
    else:
        config = {"preset": args.preset}
    if args.depth is not None and isinstance(config, dict):
        config = {**config, "max_depth": args.depth}
    report = verify(presentation_from_config(config))
    _emit(report.to_json(), args.output)
    return 3 if report.has_counterexample else 0


def main(argv=None) -> int:
    args = _plain_args(sys.argv[1:] if argv is None else argv)
    if args is None:
        args = _parser().parse_args(argv)
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
    except ValueError as error:
        if "integer string conversion" not in str(error):  # CPython's int <-> str digit limit
            raise
        digits = sys.get_int_max_str_digits()
        print(f"domain error: a number has over {digits} digits", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
