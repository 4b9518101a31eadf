"""A tower of integer levels with one ascending bijection and per-level injections.

Points live on levels ``1, 2, 3, ...``; each level holds integer
payloads.  The acting semigroup is generated by

* ``F`` -- the ascent ``(level, x) -> (level + 1, x + s)``;
* ``P_j`` -- the level-``j`` squeeze ``x -> a*x + c*j + e`` on points of
  level ``j``, leaving every other level alone.

A :class:`TowerConfig` holds the integers ``s``, ``a`` and ``e``, by
default ``1, 2, 0``; ``c = s*(1 - a)`` is derived, because the square
``F o P_j == P_{j+1} o F`` commutes exactly for that value.  ``a = 0``
is refused, since the squeeze would not be injective, and so are the
squeezes of finite order, ``a = -1`` and ``a = 1`` with ``e = 0``.
With the squeezes commuting among themselves, every word has the normal
form "squeeze powers per level, then an ascent power", stored in
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

Powers are closed forms -- ``F^n`` adds ``n*s``, and ``P_j^k`` is
``x -> a^k*x + b*(a^k - 1)/(a - 1)`` with ``b = c*j + e`` -- so
:meth:`Tower.apply` costs the same for every exponent, and the canonical
value of ``x / (P, n)`` inverts them over Q: a :class:`TowerValue` at
level ``x.level - n`` with a rational payload.  A factor ``a^k`` of more
than ``core.MAX_POWER_BITS`` bits is a domain error.

The fraction calculus has closed forms, which override the generic Ore
route of ``core.Instance`` and return exactly its results.  Write
``P↑k`` for ``level_powers`` moved up ``k`` levels and ``⊕`` for adding
exponents level by level; with ``first = (D1, a1)^-1 o (N1, b1)`` and
``second = (D2, a2)^-1 o (N2, b2)``:

* ``frac_compose(first, second) = (D1↑a2 ⊕ D2↑b1, a1 + a2)^-1 o (N1↑a2 ⊕ N2↑b1, b1 + b2)``;
* ``frac_apply((D, a)^-1 o (N, b), x / (E, s)) = (N↑s, b)(x) / (E↑b ⊕ D↑s, s + a)``;
* ``frac_equal(first, second)`` holds iff ``a2 + b1 == a1 + b2`` and
  ``D2↑a1 ⊕ N1↑a2 == D1↑a2 ⊕ N2↑a1``.

Text syntax: an element is a word such as ``P1^1 P3^2 F^2`` or ``F P1``,
its letters composed in written order (a bare letter has exponent 1); a
point is ``(level, payload)``, as in ``(2, 5)``.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

from ..core import (
    DomainError,
    GroupFraction,
    Instance,
    OreWitness,
    Preset,
    Pseudoquotient,
    bounded_power,
    int_text,
    require_int,
    require_object,
    require_rational,
    require_sequence,
    unchecked,
    value_type,
)
from ..syntax import ParseError, lead_offset, parse_bracketed, parse_int, word_letters

__all__ = [
    "Tower",
    "TowerConfig",
    "TowerMap",
    "TowerPoint",
    "TowerValue",
    "default_tower_config",
]


@value_type
class TowerPoint:
    """A point: integer payload on level >= 1."""

    level: int
    payload: int

    def __post_init__(self):
        require_int(self.level, "level", 1)
        require_int(self.payload, "payload")


@value_type
class TowerValue:
    """A formal solution: rational payload on an integer level (possibly <= 0)."""

    level: int
    payload: Fraction

    def __post_init__(self):
        require_int(self.level, "value level")
        object.__setattr__(self, "payload", require_rational(self.payload, "value payload"))


@value_type
class TowerMap:
    """Normal form: squeeze exponents per level, then an ascent power.

    ``level_powers`` is a sorted tuple of ``(level, exponent)`` pairs with
    positive exponents; ``shift`` is the ascent power.
    """

    level_powers: tuple[tuple[int, int], ...] = ()
    shift: int = 0

    def __post_init__(self):
        cleaned: dict[int, int] = {}
        for pair in require_sequence(self.level_powers, "level_powers"):
            level, exponent = require_sequence(pair, "level_powers entry", 2)
            require_int(level, "squeeze level", 1)
            if require_int(exponent, "squeeze exponent", 0):
                cleaned[level] = cleaned.get(level, 0) + exponent
        require_int(self.shift, "ascent power", 0)
        object.__setattr__(self, "level_powers", tuple(sorted(cleaned.items())))

    def power_at(self, level: int) -> int:
        return dict(self.level_powers).get(level, 0)


@value_type
class TowerConfig:
    """Ascent ``x -> x + s``, level-``j`` squeeze ``x -> a*x + c*j + e``, ``c = s*(1 - a)``."""

    ascend_add: int = 1
    squeeze_mul: int = 2
    squeeze_const: int = 0

    def __post_init__(self):
        for name in self.__slots__:
            require_int(getattr(self, name), name)
        if self.squeeze_mul == 0:
            raise DomainError("squeeze_mul must be nonzero, or the squeeze is not injective")
        # the normal form keeps squeeze exponents, so a squeeze of finite order would
        # give distinct normal forms to maps that act alike
        if self.squeeze_mul == -1 or (self.squeeze_mul == 1 and self.squeeze_const == 0):
            raise DomainError(
                "squeeze_mul -1, or squeeze_mul 1 with squeeze_const 0, gives a squeeze "
                "of finite order, and the normal form would not be faithful"
            )

    @property
    def squeeze_level_coeff(self) -> int:
        return self.ascend_add * (1 - self.squeeze_mul)

    def ascend(self, pt: TowerPoint) -> TowerPoint:
        """One ascent step."""
        return TowerPoint(pt.level + 1, pt.payload + self.ascend_add)

    def squeeze(self, pt: TowerPoint) -> TowerPoint:
        """One squeeze step at the point's own level."""
        offset = self.squeeze_level_coeff * pt.level + self.squeeze_const
        return TowerPoint(pt.level, self.squeeze_mul * pt.payload + offset)

    def squeeze_power(self, level: int, k: int) -> tuple[int, int]:
        """``(m, t)`` such that ``k`` squeezes at ``level`` map ``x`` to ``m*x + t``."""
        a = self.squeeze_mul
        b = self.squeeze_level_coeff * level + self.squeeze_const
        if a == 1:
            return 1, k * b
        m = bounded_power(a, k, "squeeze factor")
        return m, b * (m - 1) // (a - 1)  # a - 1 divides a^k - 1 exactly


_DEFAULT_CONFIG = TowerConfig()
_point, _map, _ore_witness = unchecked(TowerPoint), unchecked(TowerMap), unchecked(OreWitness)
_pq, _fraction = unchecked(Pseudoquotient), unchecked(GroupFraction)


def default_tower_config() -> TowerConfig:
    """The default rules: ascent ``x -> x + 1``, squeeze ``x -> 2*x - level``."""
    return _DEFAULT_CONFIG


_LETTER = re.compile(r"(?:F|P(?P<level>[0-9]+))(?:\^(?P<exp>-?[0-9]+))?")


def _merged(low, low_lift: int, high, high_lift: int) -> dict[int, int]:
    """``low↑low_lift ⊕ high↑high_lift``: two ``level_powers`` shifted up, exponents added."""
    merged = {level + low_lift: k for level, k in low}
    for level, k in high:
        level += high_lift
        merged[level] = merged.get(level, 0) + k
    return merged


def _normal(merged: dict[int, int], shift: int) -> TowerMap:
    # levels shifted by a shift >= 0 stay >= 1, and sums of positive exponents
    # stay positive; sorting the pairs gives the normal form
    return _map(tuple(sorted(merged.items())), shift)


class Tower(Instance):
    """The tower instance for one configuration."""

    name = "tower"
    element_type = TowerMap
    point_type = TowerPoint

    def __init__(self, config: TowerConfig = _DEFAULT_CONFIG):
        self.config = config

    def compose(self, f, g):
        self._check_element(f)
        self._check_element(g)
        # ascending by f.shift renames g's squeeze levels
        return _normal(_merged(f.level_powers, 0, g.level_powers, f.shift), f.shift + g.shift)

    def action(self, f):
        powers, shift = dict(self._check_element(f).level_powers), f.shift
        lift, squeeze_power = shift * self.config.ascend_add, self.config.squeeze_power

        def act(pt: TowerPoint) -> TowerPoint:
            level = pt.level + shift
            k = powers.get(level, 0)
            if not (k or shift):
                return pt  # the same object, so the verifier's intern table finds it by identity
            m, t = squeeze_power(level, k)
            # a level >= 1 moved up by shift >= 0, and an integer payload
            return _point(level, m * (pt.payload + lift) + t)

        return act

    def ore_complete(self, f, g):
        self._check_element(f)
        self._check_element(g)
        # levels shifted by a shift >= 0 stay >= 1, and in sorted order; tuple() of
        # a list is sized once, of a generator it over-allocates and shrinks
        f_levels = tuple([(j + g.shift, k) for j, k in f.level_powers])
        g_levels = tuple([(j + f.shift, k) for j, k in g.level_powers])
        return _ore_witness(_map(f_levels, f.shift), _map(g_levels, g.shift))

    # --- the fraction calculus in closed form ---------------------------
    # Each is the generic Ore route with its witness multiplied out: the same
    # checks, in that route's order, and an equal result.

    def frac_compose(self, first: GroupFraction, second: GroupFraction) -> GroupFraction:
        """``(D1↑a2 ⊕ D2↑b1, a1 + a2)^-1 o (N1↑a2 ⊕ N2↑b1, b1 + b2)``.

        Here ``first = (D1, a1)^-1 o (N1, b1)`` and ``second = (D2, a2)^-1 o (N2, b2)``.
        """
        d2, n1 = self._check_element(second.den), self._check_element(first.num)
        d1, n2 = self._check_element(first.den), self._check_element(second.num)
        den = _merged(d2.level_powers, n1.shift, d1.level_powers, d2.shift)
        num = _merged(n1.level_powers, d2.shift, n2.level_powers, n1.shift)
        return _fraction(_normal(den, d2.shift + d1.shift), _normal(num, n1.shift + n2.shift))

    def frac_apply(self, frac: GroupFraction, p: Pseudoquotient) -> Pseudoquotient:
        """``(D, a)^-1 o (N, b)`` moves ``x / (E, s)`` to ``(N↑s, b)(x) / (E↑b ⊕ D↑s, s + a)``."""
        e, n = self._check_element(p.denominator), self._check_element(frac.num)
        x = self._check_point(p.numerator)
        level = x.level + n.shift
        k = n.power_at(level - e.shift)
        if k or n.shift:  # else (N↑s, b) fixes x, and the class keeps its numerator object
            m, t = self.config.squeeze_power(level, k)
            payload = m * (x.payload + n.shift * self.config.ascend_add) + t
            # a level >= 1 moved up by a shift >= 0, and an integer payload
            x = _point(level, payload)
        d = self._check_element(frac.den)
        den = _normal(_merged(e.level_powers, n.shift, d.level_powers, e.shift), e.shift + d.shift)
        return _pq(x, den)

    def frac_equal(self, first: GroupFraction, second: GroupFraction) -> bool:
        """Whether ``a2 + b1 == a1 + b2`` and ``D2↑a1 ⊕ N1↑a2 == D1↑a2 ⊕ N2↑a1``."""
        if first == second:  # equal fractions skip both merges, and so their input checks
            return True
        d2, d1 = self._check_element(second.den), self._check_element(first.den)
        n1, n2 = self._check_element(first.num), self._check_element(second.num)
        if d2.shift + n1.shift != d1.shift + n2.shift:
            return False
        left = _merged(d2.level_powers, d1.shift, n1.level_powers, d2.shift)
        return left == _merged(d1.level_powers, d2.shift, n2.level_powers, d1.shift)

    def canonical_value(self, p: Pseudoquotient) -> TowerValue:
        f = self._check_element(p.denominator)
        pt = self._check_point(p.numerator)
        # only the squeeze power at the numerator's own level reaches the class;
        # invert it, then the ascent power, over Q
        m, t = self.config.squeeze_power(pt.level, f.power_at(pt.level))
        payload = Fraction(pt.payload - t, m) - f.shift * self.config.ascend_add
        return TowerValue(pt.level - f.shift, payload)

    @property
    def designated_element(self) -> TowerMap:
        return _map((), 0)  # the empty word

    def random_element(self, rng: random.Random) -> TowerMap:
        powers = {level: rng.randint(0, 2) for level in rng.sample(range(1, 4), rng.randint(0, 2))}
        return TowerMap(tuple(powers.items()), rng.randint(0, 2))

    def random_point(self, rng: random.Random) -> TowerPoint:
        # levels reach past every squeeze level a few compositions can
        # produce, so sampled points can separate distinct composites
        return TowerPoint(rng.randint(1, 7), rng.randint(-8, 8))

    def parse_element(self, text: str, offset: int = 0) -> TowerMap:
        powers: dict[int, int] = {}  # the letters in written order: P_j moves up past earlier Fs
        shift = 0
        for m, k in word_letters(text, offset, _LETTER, "P<level>^k ... F^n", "F^n or P<level>^k"):
            if m["level"] is None:
                shift += k
                continue
            level = require_int(int(m["level"]), "squeeze level", 1) + shift
            if k:
                powers[level] = powers.get(level, 0) + k
        return _normal(powers, shift)

    def element_text(self, f: TowerMap) -> str:
        return " ".join([*(f"P{level}^{k}" for level, k in f.level_powers), f"F^{f.shift}"])

    def parse_point(self, text: str, offset: int = 0) -> TowerPoint:
        pieces = parse_bracketed(text, offset, "()", "a (level, payload) point")
        if len(pieces) != 2:
            raise ParseError("expected exactly (level, payload)", lead_offset(text, offset))
        return TowerPoint(parse_int(*pieces[0]), parse_int(*pieces[1]))

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
        names = TowerConfig.__slots__
        rules = require_object(rules, "tower rule", [*names, "squeeze_level_coeff"])
        config = TowerConfig(**{name: rules[name] for name in names if name in rules})
        c = config.squeeze_level_coeff
        coeff = rules.get("squeeze_level_coeff", c)
        if require_int(coeff, "squeeze_level_coeff") != c:
            raise DomainError(f"squeeze_level_coeff must equal s*(1 - a) = {int_text(c)}")
        return cls(config)
