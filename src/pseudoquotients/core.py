"""Spaces of formal solutions for injective semigroup actions.

Take a set ``X`` and a semigroup ``S`` of injective maps acting on it.  A
pair ``(x, f)`` in ``X x S`` can be read as the formal solution of
``f(xi) = x``, whether or not such a ``xi`` exists in ``X``.  Two pairs
``(x, f)`` and ``(y, g)`` name the same solution exactly when
``f'(y) = g'(x)`` for elements ``f', g'`` of ``S`` satisfying
``f'g = g'f``.  Provided ``S`` admits such common left multiples for every
pair of its elements (the left Ore condition) and is right cancellative
(``f1 g = f2 g`` forces ``f1 = f2``), this relation is an equivalence, and
the quotient -- the pseudoquotient space of the action -- behaves like a
completion of ``X``:

* ``X`` embeds injectively via ``x -> (f x) / f``, independently of ``f``;
* every ``g`` in ``S`` extends to a bijection of the quotient, with
  ``g((x, f)) = (g' x, f')`` for any witness ``f'g = g'f`` and inverse
  ``(x, f) -> (x, f g)``;
* the extensions and their inverses generate a group, representable as
  left fractions ``den^-1 o num`` over ``S``.

This module implements that calculus once, generically.  A concrete
:class:`Instance` supplies the semigroup operation, the action, decidable
element equality (a faithful normal form), a deterministic Ore witness,
and a canonical form for classes (optionally also a normal form for
fractions), and describes its own text syntax, JSON shape and verifier
presets; equivalence testing, the embedding, extensions, and the
fraction group are derived here and shared by every instance.

All values are immutable and every operation is a pure function of its
inputs, so values can be shared freely across threads.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Collection, NamedTuple

__all__ = [
    "DomainError",
    "GroupFraction",
    "Instance",
    "MAX_POWER_BITS",
    "OreWitness",
    "Preset",
    "Pseudoquotient",
    "UsageError",
    "bounded_power",
    "frac_inverse",
]


class UsageError(TypeError):
    """Values from different instances (or of the wrong type) were mixed."""


class DomainError(ValueError):
    """A value lies outside an instance's domain (zero exponent, singular matrix, ...)."""


MAX_SHOWN_BITS = 256  # longer integers are named by their size in messages


def int_text(value: int) -> str:
    """``value`` in decimal for a message, or its sign and bit length if it is long.

    CPython refuses to print an int of over 4,300 digits, so a message that
    formats an input integer must not do so.
    """
    bits = abs(value).bit_length()
    if bits <= MAX_SHOWN_BITS:
        return str(value)
    return f"{'a negative' if value < 0 else 'an'} integer of {bits} bits"


def require_int(value: Any, what: str, minimum: int | None = None) -> int:
    """``value`` if it is an integer (a bool is not) of at least ``minimum``, else a DomainError."""
    # constructors call this on every value: an exact int passes the cheap first test
    if type(value) is not int and (not isinstance(value, int) or isinstance(value, bool)):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise DomainError(f"{what} must be >= {minimum}, got {int_text(value)}")
    return value


def require_rational(value: Any, what: str) -> Fraction:
    """``value`` as a Fraction if it is an int (a bool is not) or a Fraction, else a DomainError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise DomainError(f"{what} must be an integer or a Fraction, got {value!r}")


def require_object(value: Any, what: str, keys: Collection[str]) -> dict:
    """``value`` if it is a JSON object with no key outside ``keys``; ``what`` names one key."""
    if not isinstance(value, dict):
        raise DomainError(f"expected a JSON object of {what}s, got {type(value).__name__}")
    for key in value:
        if key not in keys:
            raise DomainError(f"unknown {what} {key!r}; expected one of {', '.join(keys)}")
    return value


MAX_POWER_BITS = 1 << 20  # the largest power an instance computes from its inputs


def bounded_power(base: int, k: int, what: str) -> int:
    """``base**k``, or a :class:`DomainError` if it has over ``MAX_POWER_BITS`` bits.

    The size test ``k * (bit_length - 1)`` is a lower bound on the bits of
    the power, so no power that fits is refused.
    """
    if k * (abs(base).bit_length() - 1) > MAX_POWER_BITS:
        # named by its size: the base may have more digits than int-to-str prints
        bits = abs(base).bit_length()
        raise DomainError(f"{what} b^{k} (b of {bits} bits) has over {MAX_POWER_BITS} bits")
    return base**k


@dataclass(frozen=True)
class Pseudoquotient:
    """A representative pair ``numerator / denominator``.

    Any (point, element) pair of one instance is a legal representative;
    whether two representatives name the same class is decided by
    :meth:`Instance.pq_equivalent`.
    """

    numerator: Any
    denominator: Any


@dataclass(frozen=True)
class OreWitness:
    """A pair certifying ``f_prime o g == g_prime o f`` for declared inputs (f, g)."""

    f_prime: Any
    g_prime: Any


@dataclass(frozen=True)
class GroupFraction:
    """A left fraction ``den^-1 o num``: one element of the extended bijection group."""

    den: Any
    num: Any


def frac_inverse(frac: GroupFraction) -> GroupFraction:
    """Invert a fraction by swapping its two sides; an involution."""
    return GroupFraction(frac.num, frac.den)


class Instance(ABC):
    """One concrete action (X, S), with the derived pseudoquotient calculus.

    Subclasses provide the hooks in the first block and set ``name``,
    ``element_type`` and ``point_type``.  Obligations on the hooks,
    spot-checked by the bounded verifier and the test suite:

    * every element acts injectively on the instance's points;
    * element equality is decidable and faithful -- two elements compare
      equal exactly when they denote the same map (on the action's
      completion, for instances whose point set is too small to separate
      all elements);
    * ``ore_complete`` is deterministic and its output satisfies the
      witness identity exactly;
    * the semigroup is right cancellative with respect to element
      equality, which is what makes the single-witness equivalence test
      and the fraction-equality rule below complete.
    """

    name: str = "abstract"
    element_type: type = object
    point_type: type = object

    # ------------------------------------------------------------------
    # hooks supplied by each instance
    # ------------------------------------------------------------------

    @abstractmethod
    def compose(self, f: Any, g: Any) -> Any:
        """Return ``f o g`` (apply ``g`` first); associative."""

    @abstractmethod
    def apply(self, f: Any, x: Any) -> Any:
        """Apply the map denoted by ``f`` to the point ``x``."""

    @abstractmethod
    def ore_complete(self, f: Any, g: Any) -> OreWitness:
        """Return a deterministic witness ``(f', g')`` with ``f' o g == g' o f``."""

    @abstractmethod
    def canonical_value(self, p: Pseudoquotient) -> Any:
        """Return the instance's normal form identifying the class of ``p``.

        Two pseudoquotients are equivalent iff their canonical values
        compare equal.
        """

    @property
    @abstractmethod
    def designated_element(self) -> Any:
        """The element used by :meth:`embed`; the embedding is independent of the choice."""

    @abstractmethod
    def random_element(self, rng: random.Random) -> Any:
        """Draw a small random semigroup element (for sampling and search)."""

    @abstractmethod
    def random_point(self, rng: random.Random) -> Any:
        """Draw a small random point of X."""

    def reduce_fraction(self, frac: GroupFraction) -> GroupFraction:
        """Return a fraction denoting the same bijection as ``frac``; by default ``frac``.

        :meth:`frac_compose` returns its result through this hook.  An
        instance may map each fraction to a normal form: a representative
        that two fractions share exactly when they denote the same
        bijection, so that chains of compositions stay small and
        :meth:`frac_equal` decides most pairs by structural comparison.
        """
        return frac

    # --- text syntax, JSON shape and verifier presets -------------------

    @abstractmethod
    def parse_element(self, text: str, offset: int = 0) -> Any:
        """Parse one element; ``offset`` is where ``text`` starts in the whole input."""

    @abstractmethod
    def element_text(self, f: Any) -> str:
        """Print an element in the syntax :meth:`parse_element` reads back."""

    @abstractmethod
    def parse_point(self, text: str, offset: int = 0) -> Any:
        """Parse one point; ``offset`` is where ``text`` starts in the whole input."""

    @abstractmethod
    def point_text(self, x: Any) -> str:
        """Print a point in the syntax :meth:`parse_point` reads back."""

    @abstractmethod
    def canonical_json(self, value: Any) -> dict:
        """Render a canonical value as JSON; rationals become exact ``"p/q"`` strings."""

    @classmethod
    @abstractmethod
    def presets(cls) -> dict[str, Preset]:
        """Ready-made presentations of this action for the bounded verifier, by label."""

    @classmethod
    def create(cls, dim: int = 1) -> Instance:
        """The instance acting on points of dimension ``dim``; most actions have none."""
        return cls()

    # --- type checks ----------------------------------------------------

    def _check_element(self, f: Any) -> Any:
        if not isinstance(f, self.element_type):
            raise UsageError(f"expected {self.element_type.__name__}, got {type(f).__name__}")
        return f

    def _check_point(self, x: Any) -> Any:
        if not isinstance(x, self.point_type):
            raise UsageError(f"expected {self.point_type.__name__}, got {type(x).__name__}")
        return x

    # ------------------------------------------------------------------
    # derived calculus
    # ------------------------------------------------------------------

    def witness_valid(self, f: Any, g: Any, witness: OreWitness) -> bool:
        """Check ``f' o g == g' o f`` exactly, via element equality."""
        return self.compose(witness.f_prime, g) == self.compose(witness.g_prime, f)

    def pq_equivalent(self, p: Pseudoquotient, q: Pseudoquotient) -> bool:
        """Decide whether ``p`` and ``q`` represent the same class.

        Uses the single deterministic witness from :meth:`ore_complete`;
        right cancellation makes the answer independent of which witness
        is used.
        """
        if p == q:  # pure optimization, observably equivalent
            return True
        w = self.ore_complete(p.denominator, q.denominator)
        return self.apply(w.f_prime, q.numerator) == self.apply(w.g_prime, p.numerator)

    def pq_left_multiply(self, p: Pseudoquotient, g: Any) -> Pseudoquotient:
        """Return the equivalent representative ``(g x) / (g f)`` of ``x / f``."""
        return Pseudoquotient(self.apply(g, p.numerator), self.compose(g, p.denominator))

    def embed(self, x: Any) -> Pseudoquotient:
        """Embed a point of X as ``(e x) / e`` for the designated element ``e``."""
        e = self.designated_element
        return Pseudoquotient(self.apply(e, x), e)

    def extend_apply(self, g: Any, p: Pseudoquotient) -> Pseudoquotient:
        """Apply the extension of ``g`` to the class of ``p = x / f``.

        With ``(f', g')`` such that ``f'g = g'f``, the image is
        ``(g' x) / f'``; the class does not depend on the witness or on
        the representative chosen for ``p``.
        """
        w = self.ore_complete(p.denominator, g)
        return Pseudoquotient(self.apply(w.g_prime, p.numerator), w.f_prime)

    def extend_inverse_apply(self, g: Any, p: Pseudoquotient) -> Pseudoquotient:
        """Apply the inverse of the extension of ``g``: ``x / f -> x / (f g)``."""
        return Pseudoquotient(p.numerator, self.compose(p.denominator, g))

    def solve(self, f: Any, x: Any) -> Pseudoquotient:
        """Return the unique class ``xi`` with ``f(xi) = x``, namely ``x / f``."""
        return Pseudoquotient(x, f)

    # --- the group of left fractions ----------------------------------

    def frac_from_element(self, g: Any) -> GroupFraction:
        """Include a semigroup element into the fraction group as ``e^-1 o (e g)``."""
        e = self.designated_element
        return GroupFraction(e, self.compose(e, g))

    def frac_identity(self) -> GroupFraction:
        """The identity fraction ``e^-1 o e``."""
        e = self.designated_element
        return GroupFraction(e, e)

    def frac_apply(self, frac: GroupFraction, p: Pseudoquotient) -> Pseudoquotient:
        """Apply the bijection ``den^-1 o num`` to the class of ``p``."""
        return self.extend_inverse_apply(frac.den, self.extend_apply(frac.num, p))

    def frac_compose(self, first: GroupFraction, second: GroupFraction) -> GroupFraction:
        """Compose two fractions (``second`` acts first).

        ``f1^-1 g1 o f2^-1 g2`` is rewritten into a single left fraction
        by picking ``(h, k)`` with ``h o g1 == k o f2``, giving
        ``(h f1)^-1 o (k g2)``; closure under composition is exactly what
        the Ore condition buys.  The result passes through
        :meth:`reduce_fraction`.
        """
        w = self.ore_complete(second.den, first.num)
        return self.reduce_fraction(
            GroupFraction(
                self.compose(w.f_prime, first.den),
                self.compose(w.g_prime, second.num),
            )
        )

    def frac_equal(self, first: GroupFraction, second: GroupFraction) -> bool:
        """Decide whether two fractions denote the same bijection.

        With ``(u, v)`` such that ``u o first.den == v o second.den``,
        the fractions agree everywhere iff ``u o first.num`` equals
        ``v o second.num`` as elements; completeness rests on right
        cancellation and on element equality being faithful.
        """
        if first == second:  # pure optimization, observably equivalent
            return True
        w = self.ore_complete(second.den, first.den)
        return self.compose(w.f_prime, first.num) == self.compose(w.g_prime, second.num)

    # --- sampling helpers ---------------------------------------------

    def random_pseudoquotient(self, rng: random.Random) -> Pseudoquotient:
        return Pseudoquotient(self.random_point(rng), self.random_element(rng))

    def random_fraction(self, rng: random.Random) -> GroupFraction:
        return GroupFraction(self.random_element(rng), self.random_element(rng))


class Preset(NamedTuple):
    """A finite presentation of one instance for the bounded verifier.

    The verifier acts with the named ``generators`` (elements of
    ``instance``) on ``samples``, over words of up to ``depth`` letters.
    ``from_rules``, if set, rebuilds the instance from a config's custom rules.
    """

    instance: Instance
    generators: tuple[tuple[str, Any], ...]
    samples: tuple
    depth: int
    from_rules: Callable[[Any], Instance] | None = None
