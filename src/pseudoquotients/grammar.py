"""Text syntax for elements, points, pseudoquotients, and fractions.

Each instance describes its own element and point syntax (see the
modules in :mod:`pseudoquotients.instances`), with exact round-tripping:
``parse(print(value)) == value`` for every value.  This module looks
the instance up by its public name and adds two composite forms that
work for any instance: ``pq(<point>; <element>)`` and
``frac(<element>, <element>)``, where ``frac(f, g)`` denotes the group
element "apply g, then undo f".
"""

from __future__ import annotations

from .core import GroupFraction, Pseudoquotient
from .instances import create_instance
from .syntax import ParseError, split_pair

__all__ = [
    "ParseError",
    "canonical_json",
    "element_text",
    "frac_text",
    "parse_element",
    "parse_frac",
    "parse_point",
    "parse_pq",
    "point_text",
    "pq_text",
]


def parse_element(instance_name: str, text: str):
    """Parse one semigroup element in the instance's syntax."""
    return create_instance(instance_name).parse_element(text)


def element_text(instance_name: str, element) -> str:
    return create_instance(instance_name).element_text(element)


def parse_point(instance_name: str, text: str):
    """Parse one point of the instance's domain."""
    return create_instance(instance_name).parse_point(text)


def point_text(instance_name: str, point) -> str:
    return create_instance(instance_name).point_text(point)


def parse_pq(instance_name: str, text: str) -> Pseudoquotient:
    """Parse ``pq(<point>; <element>)``."""
    point, element = split_pair(text, 0, "pq", ";", "pq takes exactly 'pq(<point>; <element>)'")
    instance = create_instance(instance_name)
    return Pseudoquotient(instance.parse_point(*point), instance.parse_element(*element))


def pq_text(instance_name: str, p: Pseudoquotient) -> str:
    instance = create_instance(instance_name)
    return f"pq({instance.point_text(p.numerator)}; {instance.element_text(p.denominator)})"


def parse_frac(instance_name: str, text: str) -> GroupFraction:
    """Parse ``frac(<den element>, <num element>)``."""
    den, num = split_pair(text, 0, "frac", ",", "frac takes exactly 'frac(<element>, <element>)'")
    instance = create_instance(instance_name)
    return GroupFraction(instance.parse_element(*den), instance.parse_element(*num))


def frac_text(instance_name: str, frac: GroupFraction) -> str:
    instance = create_instance(instance_name)
    return f"frac({instance.element_text(frac.den)}, {instance.element_text(frac.num)})"


def canonical_json(instance_name: str, value) -> dict:
    """Render a canonical value; rationals become exact ``"p/q"`` strings."""
    return create_instance(instance_name).canonical_json(value)
