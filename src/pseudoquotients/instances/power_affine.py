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

Text syntax: an element ``m*x^n`` (``m*`` and ``^n`` default to 1, as in
``x`` or ``5*x``), a point ``12``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction

from ..core import (
    DomainError,
    Instance,
    OreWitness,
    Preset,
    Pseudoquotient,
    UsageError,
    bounded_power,
    int_text,
    require_int,
    require_rational,
)
from ..syntax import ParseError, parse_int

__all__ = ["PowerAffine", "PowerAffineMap", "RootValue"]


def _nth_root_exact(value: int, degree: int) -> int | None:
    """Exact integer ``degree``-th root of ``value >= 0``, or None."""
    if value < 0:
        return None
    if value in (0, 1) or degree == 1:
        return value
    if value.bit_length() <= degree:
        return None  # 2**degree > value already, so no integer >= 2 is its root
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


@dataclass(frozen=True)
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


@dataclass(frozen=True, eq=False)
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


_ELEMENT = re.compile(r"\s*(?:(\d+)\s*\*\s*)?x\s*(?:\^\s*(-?\d+))?\s*")


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
        return PowerAffineMap(
            f.multiplier * bounded_power(g.multiplier, f.exponent, "multiplier"),
            f.exponent * g.exponent,
        )

    def apply(self, f, x):
        self._check_element(f)
        self._check_point(x)
        return f.multiplier * bounded_power(x, f.exponent, "power")

    def ore_complete(self, f, g):
        self._check_element(f)
        self._check_element(g)
        # (a^q, p) o (b, q) == (b^p, q) o (a, p) == (a^q b^p, p q)
        return OreWitness(
            PowerAffineMap(bounded_power(f.multiplier, g.exponent, "multiplier"), f.exponent),
            PowerAffineMap(bounded_power(g.multiplier, f.exponent, "multiplier"), g.exponent),
        )

    def canonical_value(self, p: Pseudoquotient) -> RootValue:
        f = self._check_element(p.denominator)
        x = self._check_point(p.numerator)
        return RootValue(Fraction(x, f.multiplier), f.exponent)

    @property
    def designated_element(self) -> PowerAffineMap:
        return PowerAffineMap(1, 1)

    def random_element(self, rng: random.Random) -> PowerAffineMap:
        return PowerAffineMap(rng.randint(1, 4), rng.randint(1, 3))

    def random_point(self, rng: random.Random) -> int:
        return rng.randint(1, 30)

    def parse_element(self, text: str, offset: int = 0) -> PowerAffineMap:
        match = _ELEMENT.fullmatch(text)
        if not match:
            lead = offset + len(text) - len(text.lstrip())
            raise ParseError(f"expected m*x^n, got {text.strip()!r}", lead)
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
