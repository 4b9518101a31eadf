"""Lexing helpers shared by every instance's text syntax.

Each helper takes the absolute offset of its text within the whole
input, so a :class:`ParseError` raised anywhere inside ``pq(...)`` or
``frac(...)`` reports its position in the complete argument.  Rational
numbers are written ``p/q`` (or a bare integer); no floats anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .core import DomainError


class ParseError(ValueError):
    """A syntax error, carrying the offset at which parsing failed."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


def split_top_level(text: str, separator: str, offset: int = 0) -> list[tuple[str, int]]:
    """Split at separators outside brackets; return pieces with their offsets."""
    pieces = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced brackets", offset + i)
        elif ch == separator and depth == 0:
            pieces.append((text[start:i], offset + start))
            start = i + 1
    if depth != 0:
        raise ParseError("unbalanced brackets", offset + len(text))
    pieces.append((text[start:], offset + start))
    return pieces


def parse_int(text: str, offset: int) -> int:
    value = text.strip()
    if not re.fullmatch(r"-?\d+", value):
        raise ParseError(f"expected an integer, got {text.strip()!r}", offset)
    return int(value)


def parse_rational(text: str, offset: int) -> Fraction:
    value = text.strip()
    match = re.fullmatch(r"(-?\d+)\s*(?:/\s*(\d+))?", value)
    if not match:
        raise ParseError(f"expected a rational p/q, got {text.strip()!r}", offset)
    numerator = int(match.group(1))
    denominator = int(match.group(2)) if match.group(2) else 1
    if denominator == 0:
        raise DomainError("zero denominator in rational literal")
    return Fraction(numerator, denominator)


def unwrap(text: str, offset: int, opening: str, closing: str, expected: str) -> tuple[str, int]:
    """Peel ``opening ... closing`` off ``text``; return the inside with its offset."""
    stripped = text.strip()
    lead = offset + len(text) - len(text.lstrip())
    if not stripped.startswith(opening) or not stripped.endswith(closing):
        raise ParseError(f"expected {expected}", lead)
    return stripped[len(opening) : -len(closing)], lead + len(opening)


def parse_bracketed(
    text: str, offset: int, brackets: str = "[]", expected: str = "a [...] list"
) -> list[tuple[str, int]]:
    """Split ``[a, b, ...]``, or another pair of ``brackets``, into entries with their offsets."""
    inside, start = unwrap(text, offset, brackets[0], brackets[1], expected)
    return split_top_level(inside, ",", start) if inside.strip() else []


def word_letters(text: str, offset: int, letter: re.Pattern, word: str, letters: str):
    """Yield ``(match, exponent)`` for each space-separated letter of a word.

    ``letter`` must match one whole token and capture its optional
    exponent in the group ``exp``; a bare letter has exponent 1.
    ``word`` and ``letters`` describe the expected syntax in errors.
    """
    tokens = list(re.finditer(r"\S+", text))
    if not tokens:
        raise ParseError(f"expected {word}", offset)
    for token in tokens:
        match = letter.fullmatch(token.group())
        if not match:
            raise ParseError(f"expected {letters}, got {token.group()!r}", offset + token.start())
        exponent = int(match["exp"]) if match["exp"] is not None else 1
        if exponent < 0:
            raise DomainError(f"negative exponent {exponent} in {token.group()!r}")
        yield match, exponent
