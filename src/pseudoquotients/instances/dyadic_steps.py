"""The shift/refine semigroup acting on rational step functions.

Points are finitely supported step functions on unit intervals starting
at 0: a coefficient tuple ``(c0, ..., cN)`` denotes the function with
value ``ck`` on ``[k, k+1)``.  Two generators act on them:

* ``t`` (shift): prepend one zero coefficient, i.e. translate right by 1;
* ``d`` (refine): send the value ``c`` on ``[k, k+1)`` to ``c/2`` on
  ``[2k, 2k+2)`` -- each coefficient becomes two halved copies.

They satisfy ``d o t == t^2 o d`` (a shifted function, once refined, is
shifted twice as far), so every word in them has the unique normal form
``t^m o d^n``, represented by :class:`DyadicStepMap`.  Normal forms
multiply by ``(m1, n1) o (m2, n2) = (m1 + 2**n1 * m2, n1 + n2)`` and the
uniqueness of the normal form gives right cancellation.

A :class:`StepFunction` holds its coefficients as integer numerators over
one common denominator in lowest terms.  So ``t^m d^n`` prepends ``m``
zero numerators, repeats each numerator ``2**n`` times and multiplies the
denominator by ``2**n``, cancelling their common power of two once; no
``Fraction`` is built per cell, and interning a point hashes integers.

Formal solutions live on finer dyadic grids and may extend left of 0:
inverting ``t^m d^n`` on a function ``x`` yields
``xi(s) = 2**n * x(2**n * s + m)``, a step function on the grid of width
``2**-n`` starting at cell ``-m``.  :class:`DyadicStepValue` stores that
solution in a normalized form (trimmed, coarsest possible grid), which
makes class equality a structural comparison.  Both generators preserve
the integral and the L1 norm, so a class inherits both from any of its
numerators.

Sizes are bounded: a factor ``2**n`` of more than ``core.MAX_POWER_BITS``
bits, and an image under :meth:`DyadicSteps.apply` of more than
:data:`MAX_CELLS` cells, are domain errors.  The image of the zero
function is the zero function, built without any cell.

Text syntax: an element is a word such as ``t^2 d^1`` or ``d t``, its
letters composed in written order (a bare letter has exponent 1); a
point lists its coefficients, ``[3,1/2]``.
"""

from __future__ import annotations

import functools
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat

from ..core import (
    DomainError,
    Instance,
    OreWitness,
    Preset,
    Pseudoquotient,
    UsageError,
    bounded_power,
    require_int,
    require_rational,
)
from ..syntax import parse_bracketed, parse_rational, word_letters

__all__ = ["MAX_CELLS", "DyadicStepMap", "DyadicSteps", "DyadicStepValue", "StepFunction"]

MAX_CELLS = 1 << 22  # the most cells an image under ``apply`` may have


@dataclass(frozen=True, init=False)
class StepFunction:
    """A finitely supported step function on ``[0, 1), [1, 2), ...``.

    Built from exact rational coefficients (ints or Fractions), and held
    as integer ``numerators`` over one positive ``denominator`` in lowest
    terms, with trailing zeros trimmed, so the representation is unique
    and equal functions have equal fields.  The zero function has no
    numerators and denominator 1.
    """

    numerators: tuple[int, ...]
    denominator: int

    def __init__(self, coefficients=()):
        coeffs = [require_rational(c, "a step coefficient") for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        # each prime power of the lcm divides some coefficient's own reduced
        # denominator, so the scaled numerators share no factor with it
        den = math.lcm(*(c.denominator for c in coeffs))
        self._hold(tuple(c.numerator * (den // c.denominator) for c in coeffs), den)

    def _hold(self, numerators: tuple[int, ...], denominator: int) -> StepFunction:
        """Store ``numerators / denominator``, given trimmed and in lowest terms."""
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "denominator", denominator)
        return self

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The value on each unit cell, as Fractions."""
        return tuple(Fraction(n, self.denominator) for n in self.numerators)

    def integral(self) -> Fraction:
        return Fraction(sum(self.numerators), self.denominator)

    def l1_norm(self) -> Fraction:
        return Fraction(sum(map(abs, self.numerators)), self.denominator)


@dataclass(frozen=True)
class DyadicStepMap:
    """The normal form ``t^shift o d^halvings``; both exponents >= 0."""

    shift: int = 0
    halvings: int = 0

    def __post_init__(self):
        require_int(self.shift, "shift exponent", 0)
        require_int(self.halvings, "refine exponent", 0)

    @classmethod
    def _unchecked(cls, shift: int, halvings: int) -> DyadicStepMap:
        """Unvalidated: the map of integers ``shift >= 0`` and ``halvings >= 0``."""
        f = object.__new__(cls)
        object.__setattr__(f, "shift", shift)
        object.__setattr__(f, "halvings", halvings)
        return f


@dataclass(frozen=True)
class DyadicStepValue:
    """A step function on the grid ``2**-scale * Z``, normalized.

    ``values[j]`` is the value on
    ``[(start + j) * 2**-scale, (start + j + 1) * 2**-scale)``.
    Normalization trims zeros at both ends and coarsens the grid while
    adjacent cells pair up, so equal functions have equal fields and the
    zero function is ``(scale=0, start=0, values=())``.
    """

    scale: int
    start: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        scale, start = require_int(self.scale, "scale", 0), require_int(self.start, "start")
        values = [require_rational(v, "a step value") for v in self.values]
        while values and values[-1] == 0:
            values.pop()
        while values and values[0] == 0:
            values.pop(0)
            start += 1
        while (
            scale > 0
            and values
            and start % 2 == 0
            and len(values) % 2 == 0
            and all(values[i] == values[i + 1] for i in range(0, len(values), 2))
        ):
            values = values[::2]
            start //= 2
            scale -= 1
        if not values:
            scale, start = 0, 0
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "values", tuple(values))

    def integral(self) -> Fraction:
        cell = Fraction(1, 2**self.scale)
        return sum(self.values, Fraction(0)) * cell

    def l1_norm(self) -> Fraction:
        cell = Fraction(1, 2**self.scale)
        return sum((abs(v) for v in self.values), Fraction(0)) * cell


_LETTER = re.compile(r"(?P<gen>[td])(?:\^(?P<exp>-?\d+))?")


class DyadicSteps(Instance):
    """The shift/refine instance on rational step functions."""

    name = "dyadic-steps"
    element_type = DyadicStepMap
    point_type = StepFunction

    def compose(self, f, g):
        self._check_element(f)
        self._check_element(g)
        # moving d^n1 past t^m2 doubles the shift n1 times
        lifted = bounded_power(2, f.halvings, "shift factor") * g.shift
        # sums and products of integers >= 0 stay >= 0
        return DyadicStepMap._unchecked(f.shift + lifted, f.halvings + g.halvings)

    def apply(self, f, x):
        self._check_element(f)
        self._check_point(x)
        if not x.numerators:
            return x  # the zero function, whatever f does to the grid
        blow = bounded_power(2, f.halvings, "refine factor")
        if f.shift + len(x.numerators) * blow > MAX_CELLS:
            raise DomainError(f"the image would have over {MAX_CELLS} cells")
        # halving every cell 2^n-fold divides the denominator once; the common
        # power of two is cancelled first, so the result is in lowest terms
        common = math.gcd(blow, *x.numerators)
        cells = x.numerators if common == 1 else tuple(n // common for n in x.numerators)
        # the 2^n copies in one C-level pass: zip 2^n references to the cells
        # when there are at least as many cells, else one repeat per cell
        if blow <= len(cells):
            copies = zip(*repeat(cells, blow))
        else:
            copies = map(repeat, cells, repeat(blow))
        numerators = (0,) * f.shift + tuple(chain.from_iterable(copies))
        return object.__new__(StepFunction)._hold(numerators, x.denominator * (blow // common))

    def ore_complete(self, f, g):
        self._check_element(f)
        self._check_element(g)
        # each gap is the larger halvings minus the smaller, and each shift a
        # product of integers >= 0 or a max(0, ...): every field stays >= 0
        if f.halvings <= g.halvings:
            gap = g.halvings - f.halvings
            return OreWitness(
                DyadicStepMap._unchecked(bounded_power(2, gap, "shift factor") * f.shift, 0),
                DyadicStepMap._unchecked(g.shift, gap),
            )
        gap = f.halvings - g.halvings
        lifted = bounded_power(2, gap, "shift factor") * g.shift
        # smallest witness: cancel the common shift part
        return OreWitness(
            DyadicStepMap._unchecked(max(0, f.shift - lifted), gap),
            DyadicStepMap._unchecked(max(0, lifted - f.shift), 0),
        )

    def canonical_value(self, p: Pseudoquotient) -> DyadicStepValue:
        """Invert the denominator: ``xi(s) = 2**n * x(2**n * s + m)``."""
        f = self._check_element(p.denominator)
        x = self._check_point(p.numerator)
        blow = bounded_power(2, f.halvings, "refine factor")
        return DyadicStepValue(
            scale=f.halvings,
            start=-f.shift,
            values=tuple(Fraction(n * blow, x.denominator) for n in x.numerators),
        )

    def integral(self, value) -> Fraction:
        """Integral of a step function, a solution value, or a class."""
        if isinstance(value, Pseudoquotient):
            return self._check_point(value.numerator).integral()
        if isinstance(value, (StepFunction, DyadicStepValue)):
            return value.integral()
        raise UsageError(f"cannot integrate {type(value).__name__}")

    def l1_norm(self, value) -> Fraction:
        """L1 norm of a step function, a solution value, or a class."""
        if isinstance(value, Pseudoquotient):
            return self._check_point(value.numerator).l1_norm()
        if isinstance(value, (StepFunction, DyadicStepValue)):
            return value.l1_norm()
        raise UsageError(f"cannot take the norm of {type(value).__name__}")

    @property
    def designated_element(self) -> DyadicStepMap:
        return DyadicStepMap._unchecked(0, 0)  # the empty word

    def random_element(self, rng: random.Random) -> DyadicStepMap:
        return DyadicStepMap(rng.randint(0, 3), rng.randint(0, 2))

    def random_point(self, rng: random.Random) -> StepFunction:
        pool = (
            Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0),
            Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3),
        )
        return StepFunction(tuple(rng.choice(pool) for _ in range(rng.randint(0, 3))))

    def parse_element(self, text: str, offset: int = 0) -> DyadicStepMap:
        letters = word_letters(text, offset, _LETTER, "t^m d^n", "t^k or d^k")
        return functools.reduce(
            self.compose,
            (DyadicStepMap(k, 0) if m["gen"] == "t" else DyadicStepMap(0, k) for m, k in letters),
        )

    def element_text(self, f: DyadicStepMap) -> str:
        return f"t^{f.shift} d^{f.halvings}"

    def parse_point(self, text: str, offset: int = 0) -> StepFunction:
        entries = parse_bracketed(text, offset)
        return StepFunction(tuple(parse_rational(e, e_start) for e, e_start in entries))

    def point_text(self, x: StepFunction) -> str:
        return "[" + ",".join(str(c) for c in x.coefficients) + "]"

    def canonical_json(self, value: DyadicStepValue) -> dict:
        return {"scale": value.scale, "start": value.start, "values": [str(v) for v in value.values]}

    @classmethod
    def presets(cls) -> dict[str, Preset]:
        gens = (("d", DyadicStepMap(0, 1)), ("t", DyadicStepMap(1, 0)))
        half = Fraction(1, 2)
        samples = tuple(map(StepFunction, [(half,), (), (-half, -2), (3 * half, -1, -1), (1,)]))
        return {"dyadic-steps": Preset(cls(), gens, samples=samples, depth=4)}
