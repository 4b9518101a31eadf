"""Text syntax shared by every instance, and the composite forms.

Each instance reads and prints its own elements and points (see
:mod:`pseudoquotients.instances`), with ``parse(print(value)) == value``.
:func:`parse_pq` / :func:`pq_text` and :func:`parse_frac` /
:func:`frac_text` read and print ``pq(<point>; <element>)`` and
``frac(<element>, <element>)`` through any :class:`core.Instance`, where
``frac(f, g)`` is the group element "apply g, then undo f".

Each lexing helper takes the absolute offset of its text within the whole
input, so a :class:`ParseError` raised anywhere inside ``pq(...)`` or
``frac(...)`` reports its position in the complete argument.  Rational
numbers are written ``p/q`` (or a bare integer); no floats anywhere.

One function splits every bracketed form: :func:`parse_bracketed` checks
the brackets, then walks the inside once, splitting at the separators
outside inner brackets.  Lists, tower points ``(level, payload)`` and,
through :func:`split_pair`, ``pq(...)``, ``frac(...)`` and ``aff(...)``
all go through it.  The list readers (:func:`read_int_list`,
:func:`read_int_lists`, :func:`read_rational_list`) accept a well-formed
list with one compiled pattern and one ``findall``; the text it refuses
goes to :func:`parse_bracketed` with :func:`parse_int` or
:func:`parse_rational`, the only path that raises.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .core import DomainError, GroupFraction, Instance, Pseudoquotient


_INT = r"-?[0-9]+"
# the optional "/q" is one group so that no two \s* meet: a refused text backtracks in linear time
_RATIONAL_ENTRY = r"-?[0-9]+(?:\s*/\s*[0-9]+)?"


def _list(entry: str) -> str:
    """``[entry, entry, ...]`` with free whitespace around each token."""
    return rf"\[\s*(?:{entry}\s*(?:,\s*{entry}\s*)*)?\]"


_INTEGER = re.compile(_INT)
_RATIONAL = re.compile(r"(-?[0-9]+)\s*(?:/\s*([0-9]+))?")
_TOKEN = re.compile(r"\S+")
_ROW = re.compile(r"\[([^\[\]]*)\]")
_INT_LIST = re.compile(rf"\s*{_list(_INT)}\s*")
_INT_LISTS = re.compile(rf"\s*{_list(_list(_INT))}\s*")
_RATIONAL_LIST = re.compile(rf"\s*{_list(_RATIONAL_ENTRY)}\s*")


class ParseError(ValueError):
    """A syntax error, carrying the offset at which parsing failed."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


def lead_offset(text: str, offset: int) -> int:
    """The offset of the first non-blank character of ``text``, which starts at ``offset``."""
    return offset + len(text) - len(text.lstrip())


def parse_int(text: str, offset: int) -> int:
    value = text.strip()
    if not _INTEGER.fullmatch(value):
        raise ParseError(f"expected an integer, got {value!r}", lead_offset(text, offset))
    return int(value)


def parse_rational(text: str, offset: int) -> Fraction:
    match = _RATIONAL.fullmatch(text.strip())
    if not match:
        raise ParseError(f"expected a rational p/q, got {text.strip()!r}", lead_offset(text, offset))
    return _fraction(*match.groups())


def _fraction(numerator: str, denominator: str | None) -> Fraction:
    """``p/q`` from its digits; an absent (``None`` or empty) ``q`` is 1."""
    p = int(numerator)
    q = int(denominator) if denominator else 1
    if q == 0:
        raise DomainError("zero denominator in rational literal")
    return Fraction(p, q)


def read_int_list(text: str, offset: int) -> tuple[int, ...]:
    """Read ``[a, b, ...]`` of integers; errors as :func:`parse_bracketed` and :func:`parse_int`."""
    if _INT_LIST.fullmatch(text):
        return tuple(map(int, _INTEGER.findall(text)))
    return tuple(parse_int(e, e_start) for e, e_start in parse_bracketed(text, offset))


def read_int_lists(text: str, offset: int) -> tuple[tuple[int, ...], ...]:
    """Read ``[[a, ...], ...]``, a list of :func:`read_int_list` rows."""
    if _INT_LISTS.fullmatch(text):
        rows = _ROW.findall(text, text.index("[") + 1)  # from inside the outer brackets
        return tuple(tuple(map(int, _INTEGER.findall(row))) for row in rows)
    return tuple(read_int_list(row, row_start) for row, row_start in parse_bracketed(text, offset))


def read_rational_list(text: str, offset: int) -> tuple[Fraction, ...]:
    """Read ``[p/q, ...]`` of rationals; errors as :func:`parse_bracketed` and :func:`parse_rational`."""
    if _RATIONAL_LIST.fullmatch(text):
        return tuple(_fraction(p, q) for p, q in _RATIONAL.findall(text))
    return tuple(parse_rational(e, e_start) for e, e_start in parse_bracketed(text, offset))


def split_pair(text: str, offset: int, head: str, separator: str, message: str) -> list[tuple[str, int]]:
    """Split ``head(a <separator> b)`` into its two pieces with their offsets, else ``message``."""
    pieces = parse_bracketed(text, offset, (f"{head}(", ")"), f"{head}(...)", separator)
    if len(pieces) != 2:
        raise ParseError(message, lead_offset(text, offset) + len(head) + 1)
    return pieces


def parse_bracketed(
    text: str, offset: int, brackets: str | tuple[str, str] = "[]",
    expected: str = "a [...] list", separator: str = ",",
) -> list[tuple[str, int]]:
    """Split ``[a, b, ...]``, or another ``(opening, closing)`` pair, into pieces with their offsets."""
    opening, closing = brackets
    stripped, start = text.strip(), lead_offset(text, offset)
    if not stripped.startswith(opening) or not stripped.endswith(closing):
        raise ParseError(f"expected {expected}", start)
    inside, start = stripped[len(opening) : -len(closing)], start + len(opening)
    if not inside.strip():
        return []
    pieces, depth, begin = [], 0, 0
    for i, ch in enumerate(inside):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced brackets", start + i)
        elif ch == separator and depth == 0:
            pieces.append((inside[begin:i], start + begin))
            begin = i + 1
    if depth != 0:
        raise ParseError("unbalanced brackets", start + len(inside))
    pieces.append((inside[begin:], start + begin))
    return pieces


def word_letters(text: str, offset: int, letter: re.Pattern, word: str, letters: str):
    """Yield ``(match, exponent)`` for each space-separated letter of a word.

    ``letter`` must match one whole token and capture its optional
    exponent in the group ``exp``; a bare letter has exponent 1.
    ``word`` and ``letters`` describe the expected syntax in errors.
    """
    tokens = list(_TOKEN.finditer(text))
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


def parse_pq(instance: Instance, text: str) -> Pseudoquotient:
    """Parse ``pq(<point>; <element>)`` in ``instance``'s syntax."""
    point, element = split_pair(text, 0, "pq", ";", "pq takes exactly 'pq(<point>; <element>)'")
    return Pseudoquotient(instance.parse_point(*point), instance.parse_element(*element))


def pq_text(instance: Instance, p: Pseudoquotient) -> str:
    return f"pq({instance.point_text(p.numerator)}; {instance.element_text(p.denominator)})"


def parse_frac(instance: Instance, text: str) -> GroupFraction:
    """Parse ``frac(<den element>, <num element>)`` in ``instance``'s syntax."""
    den, num = split_pair(text, 0, "frac", ",", "frac takes exactly 'frac(<element>, <element>)'")
    return GroupFraction(instance.parse_element(*den), instance.parse_element(*num))


def frac_text(instance: Instance, frac: GroupFraction) -> str:
    return f"frac({instance.element_text(frac.den)}, {instance.element_text(frac.num)})"
