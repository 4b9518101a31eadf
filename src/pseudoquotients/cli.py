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
other subcommands never load it.  Each of those builds its instance once
and reads its texts through it; an affine request whose maps are not 1-D
builds a second instance, of their dimension.  Each handler returns its
payload and exit code, and ``main`` alone writes the payload.
"""

from __future__ import annotations

import functools
import json
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .core import DomainError, UsageError
from .instances import INSTANCE_NAMES, PRESET_NAMES, create_instance
from .syntax import ParseError, parse_frac, parse_pq, pq_text

if TYPE_CHECKING:
    import argparse

__all__ = ["build_parser", "entry", "main"]


_OUTPUTS = ("json", "text")
_PQ = "pq(<point>; <element>)"
# the plain commands in the order of their subparsers: each command's help, then
# its positionals and their help, in order; _plain_args reads the same names
_COMMANDS = {
    "normalize": ("canonical value of a pseudoquotient", {"pq": _PQ}),
    "equiv": ("decide equivalence of two pseudoquotients", {"left": _PQ, "right": _PQ}),
    "apply": (
        "apply an extended element or a group fraction to a pseudoquotient",
        {"map": "<element> or frac(<element>, <element>)", "pq": _PQ},
    ),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse  # only help, verify and refused command lines need it

    parser = argparse.ArgumentParser(
        prog="pseudoquotients",
        description="Exact calculus on pseudoquotient spaces of injective semigroup actions.",
    )
    parser.add_argument("--output", choices=_OUTPUTS, default="json", help="output format")
    # accepted after the subcommand too; only overrides when actually given
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--output", choices=_OUTPUTS, default=argparse.SUPPRESS)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (summary, positionals) in _COMMANDS.items():
        sub = commands.add_parser(name, parents=[shared], help=summary)
        sub.add_argument(
            "--instance", required=True, choices=INSTANCE_NAMES, help="which action to use"
        )
        for dest, text in positionals.items():
            sub.add_argument(dest, help=text)

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


# the choices of the two options _plain_args reads
_CHOICES = {"--instance": frozenset(INSTANCE_NAMES), "--output": frozenset(_OUTPUTS)}


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
    if command not in _COMMANDS:
        return None
    names = _COMMANDS[command][1]
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


# The handlers reach the instance's text hooks through these module globals,
# as they do parse_pq, parse_frac, pq_text and create_instance, because
# perfbench/spans.py wraps them here, until the --stats counters planned in
# ROADMAP.md replace that tracer.
def parse_element(instance, text):
    return instance.parse_element(text)


def element_text(instance, element) -> str:
    return instance.element_text(element)


def canonical_json(instance, value) -> dict:
    return instance.canonical_json(value)


def _instance_for(instance, *values):
    """``instance``, or a new one if the affine maps among ``values`` carry another dimension."""
    dims = {getattr(v, "dim", None) for v in values} - {None}
    if len(dims) > 1:
        raise UsageError(f"mixed dimensions {sorted(dims)} in one invocation")
    if not dims or dims == {instance.dim}:
        return instance
    return create_instance(instance.name, dim=dims.pop())


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


def _cmd_normalize(args) -> tuple[dict, int]:
    instance = create_instance(args.instance)
    p = parse_pq(instance, args.pq)
    instance = _instance_for(instance, p.denominator)
    canonical = canonical_json(instance, instance.canonical_value(p))
    return {"instance": args.instance, "canonical": canonical}, 0


def _cmd_equiv(args) -> tuple[dict, int]:
    instance = create_instance(args.instance)
    left = parse_pq(instance, args.left)
    right = parse_pq(instance, args.right)
    instance = _instance_for(instance, left.denominator, right.denominator)
    witness = instance.ore_complete(left.denominator, right.denominator)
    return {
        "instance": args.instance,
        "equivalent": instance.pq_equivalent(left, right),
        "witness": {
            "f_prime": element_text(instance, witness.f_prime),
            "g_prime": element_text(instance, witness.g_prime),
        },
    }, 0


def _cmd_apply(args) -> tuple[dict, int]:
    instance = create_instance(args.instance)
    p = parse_pq(instance, args.pq)
    map_text = args.map.strip()
    if map_text.startswith("frac("):
        frac = parse_frac(instance, map_text)
        instance = _instance_for(instance, frac.den, frac.num, p.denominator)
        result = instance.frac_apply(frac, p)
    else:
        element = parse_element(instance, map_text)
        instance = _instance_for(instance, element, p.denominator)
        result = instance.extend_apply(element, p)
    return {
        "instance": args.instance,
        "result": pq_text(instance, result),
        "canonical": canonical_json(instance, instance.canonical_value(result)),
    }, 0


def _cmd_verify(args) -> tuple[dict, int]:
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
    return report.to_json(), 3 if report.has_counterexample else 0


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
        payload, code = handlers[args.command](args)
        _emit(payload, args.output)
        return code
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
