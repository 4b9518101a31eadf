"""Monomial maps ``x -> m * x**n`` acting on the positive integers.

The semigroup of all such maps (``m, n >= 1``) acts injectively on
``{1, 2, 3, ...}``: each map is strictly increasing.  Formal solutions of
``m * xi**n = x`` are n-th roots of positive rationals, so classes of this
instance are identified by a :class:`RootValue` -- ``(x/m, n)`` read as
the positive n-th root of ``x/m`` -- and two representatives are
equivalent exactly when their root values agree under the cross-power
rule ``q1**n2 == q2**n1``.

Composition, the Ore witness and the action raise integers to exponents
taken from the input; a power of more than ``core.MAX_POWER_BITS`` bits
is a domain error.

The fraction calculus has closed forms, which override the generic Ore
route of ``core.Instance`` and return exactly its results.  With
``first = (a1, p1)^-1 o (b1, q1)`` and ``second = (a2, p2)^-1 o (b2, q2)``:

* ``frac_compose(first, second) = (a1^p2 a2^q1, p1 p2)^-1 o (b1^p2 b2^q1, q1 q2)``;
* ``frac_apply((a, d)^-1 o (b, q), x / (m, n)) = (b^n x^q) / (m^q a^n, n d)``;
* ``frac_equal(first, second)`` compares ``(a2^p1 b1^p2, p2 q1)`` with
  ``(a1^p2 b2^p1, p1 q2)``.

Text syntax: an element ``m*x^n`` (``m*`` and ``^n`` default to 1, as in
``x`` or ``5*x``), a point ``12``.
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
    UsageError,
    bounded_power,
    int_text,
    require_int,
    require_rational,
    unchecked,
    value_type,
)
from ..syntax import ParseError, lead_offset, parse_int

__all__ = ["PowerAffine", "PowerAffineMap", "RootValue"]


def _nth_root_exact(value: int, degree: int) -> int | None:
    """Exact integer ``degree``-th root of ``value >= 0``, or None."""
    if value in (0, 1) or degree == 1:
        return value
    lo, hi = 0, 1
    while hi**degree < value:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**degree < value:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**degree == value else None


@value_type
class PowerAffineMap:
    """The map ``x -> multiplier * x**exponent`` with both parameters >= 1.

    The parameters are recoverable from the action (evaluate at 1 and 2),
    so structural equality of maps coincides with equality of the denoted
    functions.
    """

    multiplier: int
    exponent: int

    def __post_init__(self):
        require_int(self.multiplier, "multiplier", 1)
        require_int(self.exponent, "exponent", 1)


@value_type
class RootValue:
    """The positive ``index``-th root of a nonnegative rational ``radicand``.

    Equality follows the value, not the representation:
    ``RootValue(q1, n1) == RootValue(q2, n2)`` iff ``q1**n2 == q2**n1``,
    so ``RootValue(4, 2) == RootValue(2, 1)``.  Equality and the hash
    compare the unique representatives of minimal index from :meth:`reduced`.
    """

    radicand: Fraction
    index: int

    def __post_init__(self):
        object.__setattr__(self, "radicand", require_rational(self.radicand, "radicand"))
        require_int(self.index, "root index", 1)
        if self.radicand < 0:
            raise DomainError("radicand must be nonnegative")

    def __eq__(self, other):
        if not isinstance(other, RootValue):
            return NotImplemented
        low, other_low = self.reduced(), other.reduced()
        return (low.radicand, low.index) == (other_low.radicand, other_low.index)

    def __hash__(self):
        low = self.reduced()
        return hash((low.radicand, low.index))

    def reduced(self) -> RootValue:
        """Strip common powers: the equal root value of smallest index."""
        if self.index == 1:
            return self
        num, den = self.radicand.numerator, self.radicand.denominator
        # an integer >= 2 has a d-th root only for d < its bit length, so
        # only the divisors of the index below that bound are candidates
        bound = min((v.bit_length() - 1 for v in (num, den) if v > 1), default=self.index)
        for d in range(min(bound, self.index), 1, -1):
            if self.index % d:
                continue
            root_num = _nth_root_exact(num, d)
            root_den = _nth_root_exact(den, d)
            if root_num is not None and root_den is not None:
                return RootValue(Fraction(root_num, root_den), self.index // d)
        return self


_map, _ore_witness = unchecked(PowerAffineMap), unchecked(OreWitness)
_pq, _fraction = unchecked(Pseudoquotient), unchecked(GroupFraction)

_ELEMENT = re.compile(r"\s*(?:([0-9]+)\s*\*\s*)?x\s*(?:\^\s*(-?[0-9]+))?\s*")


class PowerAffine(Instance):
    """The monomial-map instance on the positive integers."""

    name = "power-affine"
    element_type = PowerAffineMap
    point_type = int

    def _check_point(self, x) -> int:
        if type(x) is not int:  # a bool passes isinstance(x, int) but is not a point
            raise UsageError(f"expected int, got {type(x).__name__}")
        if x < 1:
            raise UsageError(f"point must be a positive integer, got {int_text(x)}")
        return x

    def compose(self, f, g):
        self._check_element(f)
        self._check_element(g)
        # f(g(x)) = mf * (mg * x**ng)**nf = mf * mg**nf * x**(nf*ng)
        # products and powers of integers >= 1 stay >= 1
        multiplier = f.multiplier * bounded_power(g.multiplier, f.exponent, "multiplier")
        return _map(multiplier, f.exponent * g.exponent)

    def action(self, f):
        m, n = self._check_element(f).multiplier, f.exponent
        return lambda x: m * bounded_power(x, n, "power")

    def determines(self, points) -> bool:
        """Two distinct points ``x < y`` determine ``m x^n``: ``(y/x)^n`` fixes ``n``, then ``m``.

        Every map is strictly increasing, so it keeps two points distinct.
        """
        return len(set(points)) >= 2

    def ore_complete(self, f, g):
        self._check_element(f)
        self._check_element(g)
        # (a^q, p) o (b, q) == (b^p, q) o (a, p) == (a^q b^p, p q)
        # powers of integers >= 1 stay >= 1
        a = bounded_power(f.multiplier, g.exponent, "multiplier")
        b = bounded_power(g.multiplier, f.exponent, "multiplier")
        return _ore_witness(_map(a, f.exponent), _map(b, g.exponent))

    # --- the fraction calculus in closed form ---------------------------
    # Each is the generic Ore route with its witness multiplied out: the same
    # checks and bounded powers, in that route's order, and an equal result.

    def frac_compose(self, first: GroupFraction, second: GroupFraction) -> GroupFraction:
        """``(a1^p2 a2^q1, p1 p2)^-1 o (b1^p2 b2^q1, q1 q2)``.

        Here ``first = (a1, p1)^-1 o (b1, q1)`` and ``second = (a2, p2)^-1 o (b2, q2)``.
        """
        a2, p2 = self._check_element(second.den).multiplier, second.den.exponent
        b1, q1 = self._check_element(first.num).multiplier, first.num.exponent
        den_lift = bounded_power(a2, q1, "multiplier")
        num_lift = bounded_power(b1, p2, "multiplier")
        a1, p1 = self._check_element(first.den).multiplier, first.den.exponent
        den_m = den_lift * bounded_power(a1, p2, "multiplier")
        b2, q2 = self._check_element(second.num).multiplier, second.num.exponent
        num_m = num_lift * bounded_power(b2, q1, "multiplier")
        # products and powers of integers >= 1 stay >= 1
        return _fraction(_map(den_m, p2 * p1), _map(num_m, q1 * q2))

    def frac_apply(self, frac: GroupFraction, p: Pseudoquotient) -> Pseudoquotient:
        """``(a, d)^-1 (b, q)`` moves the class ``x / (m, n)`` to ``(b^n x^q) / (m^q a^n, n d)``."""
        m, n = self._check_element(p.denominator).multiplier, p.denominator.exponent
        b, q = self._check_element(frac.num).multiplier, frac.num.exponent
        den_lift = bounded_power(m, q, "multiplier")
        num_lift = bounded_power(b, n, "multiplier")
        x = num_lift * bounded_power(self._check_point(p.numerator), q, "power")
        a, d = self._check_element(frac.den).multiplier, frac.den.exponent
        den_m = den_lift * bounded_power(a, n, "multiplier")
        # products and powers of integers >= 1 stay >= 1
        return _pq(x, _map(den_m, n * d))

    def frac_equal(self, first: GroupFraction, second: GroupFraction) -> bool:
        """Whether ``(a2^p1 b1^p2, p2 q1) == (a1^p2 b2^p1, p1 q2)``."""
        if first == second:  # pure optimization, observably equivalent
            return True
        a2, p2 = self._check_element(second.den).multiplier, second.den.exponent
        a1, p1 = self._check_element(first.den).multiplier, first.den.exponent
        left = bounded_power(a2, p1, "multiplier")
        right = bounded_power(a1, p2, "multiplier")
        b1, q1 = self._check_element(first.num).multiplier, first.num.exponent
        left *= bounded_power(b1, p2, "multiplier")
        b2, q2 = self._check_element(second.num).multiplier, second.num.exponent
        right *= bounded_power(b2, p1, "multiplier")
        return p2 * q1 == p1 * q2 and left == right

    def canonical_value(self, p: Pseudoquotient) -> RootValue:
        f = self._check_element(p.denominator)
        x = self._check_point(p.numerator)
        return RootValue(Fraction(x, f.multiplier), f.exponent)

    @property
    def designated_element(self) -> PowerAffineMap:
        return _map(1, 1)  # x -> x

    def random_element(self, rng: random.Random) -> PowerAffineMap:
        return PowerAffineMap(rng.randint(1, 4), rng.randint(1, 3))

    def random_point(self, rng: random.Random) -> int:
        return rng.randint(1, 30)

    def parse_element(self, text: str, offset: int = 0) -> PowerAffineMap:
        match = _ELEMENT.fullmatch(text)
        if not match:
            raise ParseError(f"expected m*x^n, got {text.strip()!r}", lead_offset(text, offset))
        multiplier = int(match.group(1)) if match.group(1) else 1
        exponent = int(match.group(2)) if match.group(2) else 1
        return PowerAffineMap(multiplier, exponent)

    def element_text(self, f: PowerAffineMap) -> str:
        return f"{f.multiplier}*x^{f.exponent}"

    def parse_point(self, text: str, offset: int = 0) -> int:
        value = parse_int(text, offset)
        if value < 1:
            raise DomainError(f"points are positive integers, got {value}")
        return value

    def point_text(self, x: int) -> str:
        return str(x)

    def canonical_json(self, value: RootValue) -> dict:
        def root(v: RootValue) -> dict:
            return {"radicand": str(v.radicand), "index": v.index}

        return {**root(value), "reduced": root(value.reduced())}

    @classmethod
    def presets(cls) -> dict[str, Preset]:
        gens = (("a", PowerAffineMap(2, 1)), ("b", PowerAffineMap(3, 2)))
        return {"power-affine": Preset(cls(), gens, samples=(1, 2, 3, 4, 5), depth=4)}
