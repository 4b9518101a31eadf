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

Points and classes are one type, :class:`StepFunction`: a step function
on an anchored dyadic grid, in a normal form that makes equal functions
have equal fields.  ``t^m d^n`` and its inverse, which gives the class of
``x / (t^m d^n)`` as ``xi(s) = 2**n * x(2**n * s + m)``, both keep that
form, so no action writes out a cell.  Both generators preserve the
integral and the L1 norm, so a class inherits both from any numerator.

The fraction calculus has closed forms, which override the generic Ore
route of ``core.Instance`` and return exactly its results:
``frac_compose``, ``frac_apply`` and ``frac_equal`` take the two branches
of the Ore witness (``halvings`` of the first element at most the
second's, or greater) as four integers and multiply them into each side
by the rule above, building one :class:`DyadicStepMap` per side.

Sizes are bounded: a factor ``2**n`` of more than ``core.MAX_POWER_BITS``
bits is a domain error, and so is writing out more than :data:`MAX_CELLS`
cells of one function (its ``coefficients``, its text, its canonical JSON).

Text syntax: an element is a word such as ``t^2 d^1`` or ``d t``, its
letters composed in written order (a bare letter has exponent 1); a
point lists its coefficients, ``[3,1/2]``.
"""

from __future__ import annotations

import functools
import math
import random
import re
from fractions import Fraction
from itertools import chain, repeat

from ..core import (
    DomainError,
    GroupFraction,
    Instance,
    OreWitness,
    Preset,
    Pseudoquotient,
    UsageError,
    bounded_power,
    require_int,
    require_rational,
    require_sequence,
    unchecked,
    value_type,
)
from ..syntax import read_rational_list, word_letters

__all__ = ["MAX_CELLS", "DyadicStepMap", "DyadicSteps", "StepFunction"]

MAX_CELLS = 1 << 22  # the most cells written out for one step function


@value_type
class StepFunction:
    """``numerators[j] / denominator`` on ``[offset + j * 2**width, offset + (j+1) * 2**width)``.

    Normal form: no zero cell at either end (``offset`` is the left end of
    the support), ``width`` as large as the values allow, the fraction in
    lowest terms with ``denominator > 0``, and ``offset`` an int when it is
    integral, a dyadic Fraction otherwise.  The zero function is
    ``(0, 0, (), 1)``.  ``StepFunction(coefficients)`` builds the point with
    value ``ck`` on ``[k, k+1)``; the points are the functions with
    ``width >= 0`` and an integer ``offset >= 0``.
    """

    width: int
    offset: int | Fraction
    numerators: tuple[int, ...]
    denominator: int

    def __init__(self, coefficients=()):
        coeffs = [
            require_rational(c, "a step coefficient")
            for c in require_sequence(coefficients, "step coefficients")
        ]
        # each prime power of the lcm divides some coefficient's own reduced
        # denominator, so the scaled numerators share no factor with it
        den = math.lcm(*(c.denominator for c in coeffs))
        nums = [c.numerator * (den // c.denominator) for c in coeffs]
        while nums and nums[-1] == 0:
            nums.pop()
        offset = next((j for j, k in enumerate(nums) if k), 0)
        del nums[:offset]
        width = 0
        while nums and len(nums) % 2 == 0 and nums[::2] == nums[1::2]:
            del nums[1::2]
            width += 1
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "numerators", tuple(nums))
        object.__setattr__(self, "denominator", den)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The value on each unit cell from 0, as Fractions; points only."""
        return tuple(_cells(_require_point(self), self.offset, self.width, Fraction))

    def integral(self) -> Fraction:
        return Fraction(sum(self.numerators), self.denominator) * Fraction(2) ** self.width

    def l1_norm(self) -> Fraction:
        total = Fraction(sum(map(abs, self.numerators)), self.denominator)
        return total * Fraction(2) ** self.width


def _moved(x: StepFunction, shift, n: int) -> StepFunction:
    """``s -> 2**-n * x((s - shift) / 2**n)``: ``t^shift d^n``, or with ``n < 0`` an inverse.

    Moving the grid and scaling every value keep the normal form; only
    the fraction is cancelled, once.
    """
    if not x.numerators:
        return x  # the zero function, whatever the map does to the grid
    power = bounded_power(2, abs(n), "refine factor")
    numerators, den = x.numerators, x.denominator
    if n >= 0:
        offset = x.offset * power + shift
        den *= power
    else:
        offset = Fraction(x.offset, power) + shift
        offset = offset.numerator if offset.denominator == 1 else offset
        numerators = tuple(k * power for k in numerators)
    common = math.gcd(den, *numerators)
    if common != 1:
        numerators = tuple(k // common for k in numerators)
        den //= common
    # moving the grid and scaling the values kept the normal form, and den is cancelled
    return _step(x.width + n, offset, numerators, den)


def _require_point(x: StepFunction) -> StepFunction:
    if x.width < 0 or type(x.offset) is not int or x.offset < 0:
        raise UsageError("expected a StepFunction on unit cells from 0, got a class value")
    return x


def _cells(x: StepFunction, lead: int, exponent: int, form):
    """``lead`` zeros, then ``2**exponent`` copies of each value; ``form`` builds each once."""
    # a nonzero function with 2**exponent > MAX_CELLS is refused before the shift
    if exponent >= MAX_CELLS.bit_length() or lead + (len(x.numerators) << exponent) > MAX_CELLS:
        raise DomainError(f"the image would have over {MAX_CELLS} cells")
    cells = (repeat(form(Fraction(k, x.denominator)), 1 << exponent) for k in x.numerators)
    return chain(repeat(form(Fraction(0)), lead), *cells)


@value_type
class DyadicStepMap:
    """The normal form ``t^shift o d^halvings``; both exponents >= 0."""

    shift: int = 0
    halvings: int = 0

    def __post_init__(self):
        require_int(self.shift, "shift exponent", 0)
        require_int(self.halvings, "refine exponent", 0)


_step, _map, _ore_witness = unchecked(StepFunction), unchecked(DyadicStepMap), unchecked(OreWitness)
_pq, _fraction = unchecked(Pseudoquotient), unchecked(GroupFraction)

_LETTER = re.compile(r"(?P<gen>[td])(?:\^(?P<exp>-?[0-9]+))?")


def _witness(f: DyadicStepMap, g: DyadicStepMap) -> tuple[int, int, int, int]:
    """``(f'.shift, f'.halvings, g'.shift, g'.halvings)`` of the smallest ``f' o g == g' o f``."""
    # each gap is the larger halvings minus the smaller, and each shift a
    # product of integers >= 0 or a max(0, ...): every field stays >= 0
    if f.halvings <= g.halvings:
        gap = g.halvings - f.halvings
        return bounded_power(2, gap, "shift factor") * f.shift, 0, g.shift, gap
    gap = f.halvings - g.halvings
    lifted = bounded_power(2, gap, "shift factor") * g.shift
    # cancel the common shift part
    return max(0, f.shift - lifted), gap, max(0, lifted - f.shift), 0


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
        return _map(f.shift + lifted, f.halvings + g.halvings)

    def action(self, f):
        shift, n = self._check_element(f).shift, f.halvings
        return lambda x: _moved(x, shift, n)

    def determines(self, points) -> bool:
        """Whether some point is nonzero: one nonzero function determines ``t^m d^n``.

        ``t^m d^n`` sends a nonzero function whose support ends are
        ``L < R`` to one whose ends are ``2**n * L + m < 2**n * R + m``, so
        one nonzero image fixes ``n`` by its length and then ``m`` by its
        left end, and the normal form is unique.  Every map scales values
        by ``2**-n``, so it sends a nonzero function to a nonzero one.  The
        zero function is fixed by every map, so zeros alone determine
        nothing; the preset's samples hold ``[1/2]``.
        """
        return any(x.numerators for x in points)

    def ore_complete(self, f, g):
        fs, fn, gs, gn = _witness(self._check_element(f), self._check_element(g))
        return _ore_witness(_map(fs, fn), _map(gs, gn))

    # --- the fraction calculus in closed form ---------------------------
    # Each is the generic Ore route with its witness kept as four integers: the
    # same checks and bounded powers, in that route's order, and an equal result.
    # A halvings of the witness is 0 or a gap whose 2^gap passed bounded_power
    # in _witness, so a bit shift lifts by it; shifted sums of integers >= 0
    # stay >= 0.

    def frac_compose(self, first: GroupFraction, second: GroupFraction) -> GroupFraction:
        """``(f' D1)^-1 o (g' N2)`` for the witness ``f' D2 == g' N1``, as two normal forms."""
        d2, n1 = self._check_element(second.den), self._check_element(first.num)
        fs, fn, gs, gn = _witness(d2, n1)
        d1, n2 = self._check_element(first.den), self._check_element(second.num)
        den = _map(fs + (d1.shift << fn), fn + d1.halvings)
        return _fraction(den, _map(gs + (n2.shift << gn), gn + n2.halvings))

    def frac_apply(self, frac: GroupFraction, p: Pseudoquotient) -> Pseudoquotient:
        """``D^-1 o N`` moves ``x / E`` to ``g'(x) / (f' D)``, for the witness ``f' E == g' N``."""
        e, n = self._check_element(p.denominator), self._check_element(frac.num)
        fs, fn, gs, gn = _witness(e, n)
        x = _moved(self._check_point(p.numerator), gs, gn)
        d = self._check_element(frac.den)
        return _pq(x, _map(fs + (d.shift << fn), fn + d.halvings))

    def frac_equal(self, first: GroupFraction, second: GroupFraction) -> bool:
        """Whether ``f' N1 == g' N2`` for the witness ``f' D2 == g' D1``."""
        if first == second:  # pure optimization, observably equivalent
            return True
        d2, d1 = self._check_element(second.den), self._check_element(first.den)
        fs, fn, gs, gn = _witness(d2, d1)
        n1, n2 = self._check_element(first.num), self._check_element(second.num)
        if fn + n1.halvings != gn + n2.halvings:
            return False
        return fs + (n1.shift << fn) == gs + (n2.shift << gn)

    def canonical_value(self, p: Pseudoquotient) -> StepFunction:
        """Invert the denominator: ``xi(s) = 2**n * x(2**n * s + m)``."""
        f = self._check_element(p.denominator)
        x = self._check_point(p.numerator)
        power = bounded_power(2, f.halvings, "refine factor")
        return _moved(x, Fraction(-f.shift, power), -f.halvings)

    def integral(self, value) -> Fraction:
        """Integral of a step function or a class."""
        if isinstance(value, Pseudoquotient):
            value = self._check_point(value.numerator)
        if isinstance(value, StepFunction):
            return value.integral()
        raise UsageError(f"cannot integrate {type(value).__name__}")

    def l1_norm(self, value) -> Fraction:
        """L1 norm of a step function or a class."""
        if isinstance(value, Pseudoquotient):
            value = self._check_point(value.numerator)
        if isinstance(value, StepFunction):
            return value.l1_norm()
        raise UsageError(f"cannot take the norm of {type(value).__name__}")

    def _check_point(self, x):
        return _require_point(super()._check_point(x))

    @property
    def designated_element(self) -> DyadicStepMap:
        return _map(0, 0)  # the empty word

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
        return StepFunction(read_rational_list(text, offset))

    def point_text(self, x: StepFunction) -> str:
        return "[" + ",".join(_cells(_require_point(x), x.offset, x.width, str)) + "]"

    def canonical_json(self, value: StepFunction) -> dict:
        """Values on the coarsest grid ``2**-scale * Z``, ``scale >= 0``, with every breakpoint."""
        nums = value.numerators
        cuts = [0, len(nums), *(j for j in range(1, len(nums)) if nums[j - 1] != nums[j])]
        cell = Fraction(2) ** value.width
        scale = max(Fraction(value.offset + j * cell).denominator.bit_length() - 1 for j in cuts)
        cells = list(_cells(value, 0, value.width + scale, str))
        return {"scale": scale, "start": int(value.offset * 2**scale), "values": cells}

    @classmethod
    def presets(cls) -> dict[str, Preset]:
        gens = (("d", DyadicStepMap(0, 1)), ("t", DyadicStepMap(1, 0)))
        half = Fraction(1, 2)
        samples = tuple(map(StepFunction, [(half,), (), (-half, -2), (3 * half, -1, -1), (1,)]))
        return {"dyadic-steps": Preset(cls(), gens, samples=samples, depth=4)}
