"""A tower of integer levels with one ascending bijection and per-level injections.

Points live on levels ``1, 2, 3, ...``; each level holds integer
payloads.  The acting semigroup is generated by

* ``F`` -- the ascent: apply the configured level-raising rule (default
  ``(payload, level) -> (payload + 1, level + 1)``);
* ``P_j`` -- the level-``j`` squeeze: apply the configured in-level
  injection to points on level ``j`` (default ``payload -> 2*payload - j``)
  and leave every other level alone.

The configured rules must make the square ``F o P_j == P_{j+1} o F``
commute, which is validated when a :class:`TowerConfig` is constructed.
Together with the squeezes commuting among themselves, every word has the
normal form "squeeze powers per level, then an ascent power", stored in
:class:`TowerMap` and multiplied by shifting the right factor's levels:
``(P1, n1) o (P2, n2) = (P1 * shift(P2, n1), n1 + n2)``.

Element equality is equality of these normal forms.  Note that the
normal form is finer than the action on points: a squeeze at a level the
ascent power has already passed (``P_j`` with ``j <= n`` in front of
``F^n``) acts as the identity on every actual point, yet stays a distinct
element.  That is deliberate -- the formal-solution space reaches below
level 1, where such factors do act (they change which class ``x / f``
names), and keeping them distinct is exactly what makes the semigroup
right cancellative and the fraction group faithful.  The bounded verifier
checks the *point* action and will truthfully report that it does not
separate such elements.

Canonical class values exist in closed form for the default rules: the
solution of ``(P, n)(xi) = x`` sits at level ``x.level - n`` with a
rational payload, recorded as a :class:`TowerValue`.  Custom configs get
the full calculus except canonical values, unless they supply their own
``canonical_record`` rule.  One obligation falls on custom rules:
fraction equality compares normal forms, which is complete only when
distinct normal forms act differently on the completed space -- true
for the default rules, but broken by degenerate choices such as a
squeeze equal to the identity.  Class equivalence itself
(``pq_equivalent``) is witness-based and stays correct for any valid
configuration.

Text syntax: an element is a word such as ``P1^1 P3^2 F^2`` or ``F P1``,
its letters composed in written order (a bare letter has exponent 1); a
point is ``(level, payload)``, as in ``(2, 5)``.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from ..core import DomainError, Instance, OreWitness, Preset, Pseudoquotient, UsageError
from ..syntax import ParseError, parse_bracketed, parse_int, word_letters

__all__ = [
    "Tower",
    "TowerConfig",
    "TowerMap",
    "TowerPoint",
    "TowerValue",
    "default_tower_config",
]


@dataclass(frozen=True)
class TowerPoint:
    """A point: integer payload on level >= 1."""

    level: int
    payload: int

    def __post_init__(self):
        if not isinstance(self.level, int) or self.level < 1:
            raise DomainError(f"level must be a positive integer, got {self.level}")
        if not isinstance(self.payload, int):
            raise DomainError("payload must be an integer")


@dataclass(frozen=True)
class TowerValue:
    """A formal solution: rational payload on an integer level (possibly <= 0)."""

    level: int
    payload: Fraction

    def __post_init__(self):
        object.__setattr__(self, "payload", Fraction(self.payload))


@dataclass(frozen=True)
class TowerMap:
    """Normal form: squeeze exponents per level, then an ascent power.

    ``level_powers`` is a sorted tuple of ``(level, exponent)`` pairs with
    positive exponents; ``shift`` is the ascent power.
    """

    level_powers: tuple[tuple[int, int], ...] = ()
    shift: int = 0

    def __post_init__(self):
        cleaned: dict[int, int] = {}
        for level, exponent in self.level_powers:
            if not isinstance(level, int) or level < 1:
                raise DomainError(f"squeeze level must be a positive integer, got {level}")
            if not isinstance(exponent, int) or exponent < 0:
                raise DomainError(f"squeeze exponent must be >= 0, got {exponent}")
            if exponent:
                cleaned[level] = cleaned.get(level, 0) + exponent
        if not isinstance(self.shift, int) or self.shift < 0:
            raise DomainError(f"ascent power must be >= 0, got {self.shift}")
        object.__setattr__(self, "level_powers", tuple(sorted(cleaned.items())))

    @classmethod
    def from_powers(cls, powers: Mapping[int, int], shift: int = 0) -> TowerMap:
        return cls(tuple(powers.items()), shift)

    def power_at(self, level: int) -> int:
        return dict(self.level_powers).get(level, 0)


def _default_ascend(pt: TowerPoint) -> TowerPoint:
    return TowerPoint(pt.level + 1, pt.payload + 1)


def _default_squeeze(pt: TowerPoint) -> TowerPoint:
    return TowerPoint(pt.level, 2 * pt.payload - pt.level)


def _default_record(pt: TowerPoint, squeezes: int, shift: int) -> TowerValue:
    # invert the level-l squeeze power, then the ascent power, over Q
    level = pt.level - shift
    return TowerValue(level, Fraction(pt.payload - pt.level, 2**squeezes) + level)


@dataclass(frozen=True)
class TowerConfig:
    """The concrete rules of one tower, validated at construction.

    ``ascend`` must raise the level by exactly one; ``squeeze`` must
    preserve it; both must be injective; and the square
    ``ascend o squeeze == squeeze o ascend`` (squeeze taken at the
    respective level) must commute.  All of this is checked exactly on
    ``check_levels x check_payloads``.
    """

    ascend: Callable[[TowerPoint], TowerPoint] = _default_ascend
    squeeze: Callable[[TowerPoint], TowerPoint] = _default_squeeze
    canonical_record: Callable[[TowerPoint, int, int], TowerValue] | None = None
    check_levels: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    check_payloads: tuple[int, ...] = (-3, -2, -1, 0, 1, 2, 3, 5, 8)

    def __post_init__(self):
        self.validate(self.check_levels, self.check_payloads)

    def validate(self, levels, payloads) -> None:
        """Exactly re-check level discipline, injectivity, and the commuting squares."""
        for level in levels:
            seen_up: dict[TowerPoint, int] = {}
            seen_in: dict[TowerPoint, int] = {}
            for payload in payloads:
                pt = TowerPoint(level, payload)
                up = self.ascend(pt)
                if up.level != level + 1:
                    raise DomainError(f"ascend must raise level {level} to {level + 1}, got {up.level}")
                inner = self.squeeze(pt)
                if inner.level != level:
                    raise DomainError(f"squeeze must preserve level {level}, got {inner.level}")
                if up in seen_up or inner in seen_in:
                    raise DomainError(f"rules are not injective on level {level}")
                seen_up[up] = payload
                seen_in[inner] = payload
                if self.ascend(inner) != self.squeeze(up):
                    raise DomainError(
                        f"square does not commute at {pt}: "
                        f"{self.ascend(inner)} != {self.squeeze(up)}"
                    )


_DEFAULT_CONFIG = TowerConfig(canonical_record=_default_record)


def default_tower_config() -> TowerConfig:
    """The default rules, with closed-form canonical records."""
    return _DEFAULT_CONFIG


_LETTER = re.compile(r"(?:F|P(?P<level>\d+))(?:\^(?P<exp>-?\d+))?")


def _letter(match: re.Match, exponent: int) -> TowerMap:
    if match["level"] is None:
        return TowerMap((), exponent)
    level = int(match["level"])
    if level < 1:
        raise DomainError(f"squeeze level must be >= 1, got {level}")
    return TowerMap(((level, exponent),), 0)


class Tower(Instance):
    """The tower instance for one configuration."""

    name = "tower"
    element_type = TowerMap
    point_type = TowerPoint

    def __init__(self, config: TowerConfig | None = None):
        self.config = config if config is not None else default_tower_config()

    def compose(self, f, g):
        self._check_element(f)
        self._check_element(g)
        merged: dict[int, int] = dict(f.level_powers)
        for level, exponent in g.level_powers:
            # ascending by f.shift renames g's squeeze levels
            shifted = level + f.shift
            merged[shifted] = merged.get(shifted, 0) + exponent
        return TowerMap.from_powers(merged, f.shift + g.shift)

    def apply(self, f, x):
        self._check_element(f)
        pt = self._check_point(x)
        for _ in range(f.shift):
            pt = self.config.ascend(pt)
        for _ in range(f.power_at(pt.level)):
            pt = self.config.squeeze(pt)
        return pt

    def ore_complete(self, f, g):
        self._check_element(f)
        self._check_element(g)
        f_prime = TowerMap.from_powers(
            {level + g.shift: k for level, k in f.level_powers}, f.shift
        )
        g_prime = TowerMap.from_powers(
            {level + f.shift: k for level, k in g.level_powers}, g.shift
        )
        return OreWitness(f_prime, g_prime)

    def canonical_value(self, p: Pseudoquotient) -> TowerValue:
        f = self._check_element(p.denominator)
        pt = self._check_point(p.numerator)
        record = self.config.canonical_record
        if record is None:
            raise UsageError("this tower configuration defines no canonical record")
        # only the squeeze power at the numerator's own level reaches the class
        return record(pt, f.power_at(pt.level), f.shift)

    @property
    def designated_element(self) -> TowerMap:
        return TowerMap()

    def random_element(self, rng: random.Random) -> TowerMap:
        powers = {level: rng.randint(0, 2) for level in rng.sample(range(1, 4), rng.randint(0, 2))}
        return TowerMap.from_powers(powers, rng.randint(0, 2))

    def random_point(self, rng: random.Random) -> TowerPoint:
        # levels reach past every squeeze level a few compositions can
        # produce, so sampled points can separate distinct composites
        return TowerPoint(rng.randint(1, 7), rng.randint(-8, 8))

    def parse_element(self, text: str, offset: int = 0) -> TowerMap:
        letters = word_letters(text, offset, _LETTER, "P<level>^k ... F^n", "F^n or P<level>^k")
        return functools.reduce(self.compose, (_letter(m, k) for m, k in letters))

    def element_text(self, f: TowerMap) -> str:
        return " ".join([*(f"P{level}^{k}" for level, k in f.level_powers), f"F^{f.shift}"])

    def parse_point(self, text: str, offset: int = 0) -> TowerPoint:
        pieces = parse_bracketed(text, offset, "()", "a (level, payload) point")
        if len(pieces) != 2:
            lead = offset + len(text) - len(text.lstrip())
            raise ParseError("expected exactly (level, payload)", lead)
        level, payload = parse_int(*pieces[0]), parse_int(*pieces[1])
        if level < 1:
            raise DomainError(f"level must be >= 1, got {level}")
        return TowerPoint(level, payload)

    def point_text(self, x: TowerPoint) -> str:
        return f"({x.level}, {x.payload})"

    def canonical_json(self, value: TowerValue) -> dict:
        return {"level": value.level, "payload": str(value.payload)}

    @classmethod
    def presets(cls) -> dict[str, Preset]:
        gens = (
            ("F", TowerMap((), 1)),
            ("P1", TowerMap(((1, 1),), 0)),
            ("P2", TowerMap(((2, 1),), 0)),
        )
        samples = tuple(
            TowerPoint(level, payload) for level in (1, 2, 3) for payload in (-2, 0, 3)
        )
        return {"tower": Preset(cls(), gens, samples=samples, depth=3, from_rules=cls.from_rules)}

    @classmethod
    def from_rules(cls, rules: dict) -> Tower:
        """The tower under a verifier config's affine rules (see ``presentation_from_config``)."""
        if not isinstance(rules, dict):
            raise DomainError("tower rules must be a JSON object")
        s = int(rules.get("ascend_add", 1))
        a = int(rules.get("squeeze_mul", 2))
        c = int(rules.get("squeeze_level_coeff", s * (1 - a)))
        e = int(rules.get("squeeze_const", 0))
        config = TowerConfig(
            ascend=lambda pt: TowerPoint(pt.level + 1, pt.payload + s),
            squeeze=lambda pt: TowerPoint(pt.level, a * pt.payload + c * pt.level + e),
        )
        return cls(config)
