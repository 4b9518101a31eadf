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
element equality (a faithful normal form), a deterministic Ore witness
and a canonical form for classes, and describes its own text syntax,
JSON shape and verifier presets; applying an element to a point,
equivalence testing, the embedding, extensions, and the fraction group
are derived here and shared by every instance.  :func:`value_type`
declares the frozen, slotted value types, and :func:`unchecked` gives
each its one builder for values made without validation.

All values are immutable and every operation is a pure function of its
inputs, so values can be shared freely across threads.
"""

from __future__ import annotations

import functools
import random
from abc import ABC, abstractmethod
from fractions import Fraction
from types import CodeType, FunctionType, MemberDescriptorType
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
    "unchecked",
    "value_type",
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


def value_text(value: Any) -> str:
    """``repr(value)`` for a message, naming long integers (a Fraction's too) by their size."""
    if type(value) is int:
        return int_text(value)
    if isinstance(value, Fraction):
        return f"Fraction({int_text(value.numerator)}, {int_text(value.denominator)})"
    try:
        return repr(value)
    except ValueError:  # int-to-str refused a long integer inside the value
        return f"a {type(value).__name__} too long to print"


def require_int(value: Any, what: str, minimum: int | None = None) -> int:
    """``value`` if it is an integer (a bool is not) of at least ``minimum``, else a DomainError."""
    # constructors call this on every value: an exact int passes the cheap first test
    if type(value) is not int and (not isinstance(value, int) or isinstance(value, bool)):
        raise DomainError(f"{what} must be an integer, got {value_text(value)}")
    if minimum is not None and value < minimum:
        raise DomainError(f"{what} must be >= {minimum}, got {int_text(value)}")
    return value


def require_rational(value: Any, what: str) -> Fraction:
    """``value`` as a Fraction if it is an int (a bool is not) or a Fraction, else a DomainError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise DomainError(f"{what} must be an integer or a Fraction, got {value_text(value)}")


def require_sequence(value: Any, what: str, length: int | None = None) -> tuple | list:
    """``value`` if it is a tuple or a list (of ``length`` entries, if given), else a DomainError."""
    if not isinstance(value, (tuple, list)):
        raise DomainError(f"{what} must be a tuple or a list, got {type(value).__name__}")
    if length is not None and len(value) != length:
        raise DomainError(f"{what} must have {length} entries, got {len(value)}")
    return value


def require_object(value: Any, what: str, keys: Collection[str]) -> dict:
    """``value`` if it is a JSON object with no key outside ``keys``; ``what`` names one key."""
    if not isinstance(value, dict):
        raise DomainError(f"expected a JSON object of {what}s, got {type(value).__name__}")
    for key in value:
        if key not in keys:
            raise DomainError(f"unknown {what} {key!r}; expected one of {', '.join(keys)}")
    return value


@functools.cache
def unchecked(cls: type) -> Callable[..., Any]:
    """The builder of ``cls`` values from fields as given: no validation, no normalization.

    ``unchecked(cls)`` is made on first use and cached, one per class; it
    takes the fields of a slotted ``cls`` (its ``__slots__``, as
    :func:`value_type` or ``dataclass(slots=True)`` sets them) in declared
    order, by position or by name, and writes each through its slot
    descriptor, skipping the frozen ``__setattr__`` and any
    ``__post_init__``.  Hook results go through it, each under an
    invariant of its algebra that makes the fields valid, named at the
    call site; values from outside go through the public constructor.
    Builders of one arity share code compiled once, with the arguments
    renamed to the fields (:func:`_field_code`).
    """
    names = cls.__dict__.get("__slots__")
    if names is None:
        raise TypeError(f"{cls.__name__} has no __slots__: unchecked needs value_type or slots=True")
    namespace = {"_new": object.__new__, "_cls": cls}
    for i, name in enumerate(names):
        slot = cls.__dict__.get(name)
        if type(slot) is not MemberDescriptorType:
            raise TypeError(f"{cls.__name__}.{name} is not a slot: unchecked needs slots=True")
        namespace[f"_set{i}"] = slot.__set__
    build = FunctionType(_field_code("build", names), namespace, "build")
    build.__qualname__ = f"unchecked({cls.__qualname__})"
    return build


@functools.cache
def _method_code(method: str, arity: int) -> CodeType:
    """The code of ``method`` for ``arity`` fields, named ``_0``, ``_1``, ... wherever they appear.

    ``build`` (the builder of :func:`unchecked`) and the ``__init__`` codes
    write each argument through the slot setter ``_set<i>`` of their
    globals, and ``__init__+post`` then calls ``__post_init__``;
    ``__eq__`` and ``__hash__`` compare and hash the field tuple, as the
    methods ``dataclasses`` generates do.
    """
    args = ", ".join(f"_{i}" for i in range(arity))
    mine, theirs = ("".join(f"{side}._{i}, " for i in range(arity)) for side in ("self", "other"))
    writes = "".join(f"    _set{i}(self, _{i})\n" for i in range(arity))
    source = {
        "build": f"def build({args}):\n    self = _new(_cls)\n{writes}    return self\n",
        "__init__": f"def __init__(self, {args}):\n{writes}    pass\n",
        "__init__+post": f"def __init__(self, {args}):\n{writes}    self.__post_init__()\n",
        "__eq__": "def __eq__(self, other):\n"
        f"    if other.__class__ is self.__class__:\n        return ({mine}) == ({theirs})\n"
        "    return NotImplemented\n",
        "__hash__": f"def __hash__(self):\n    return hash(({mine}))\n",
    }[method]
    namespace: dict = {}
    exec(source, namespace)
    return namespace[method.partition("+")[0]].__code__


def _field_code(method: str, names: tuple[str, ...]) -> CodeType:
    """The shared code of ``method`` with ``_0``, ``_1``, ... renamed to the field ``names``.

    Compiling each class's own code would cost about 60 µs of import time
    per method.
    """
    code = _method_code(method, len(names))
    rename = {f"_{i}": name for i, name in enumerate(names)}.get
    return code.replace(
        co_names=tuple(rename(name, name) for name in code.co_names),
        co_varnames=tuple(rename(name, name) for name in code.co_varnames),
    )


def _value_repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
    return f"{self.__class__.__qualname__}({fields})"


def _value_setattr(self, name: str, value: Any) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _value_delattr(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def _value_getstate(self) -> list:
    return [getattr(self, name) for name in self.__slots__]


def _value_setstate(self, state: list) -> None:
    for name, value in zip(self.__slots__, state):
        object.__setattr__(self, name, value)


def value_type(cls: type) -> type:
    """``cls`` rebuilt as a frozen value type whose annotated fields are its ``__slots__``.

    The fields are the class body's annotations, in order, with the
    values assigned to them as defaults; a field without a default may
    not follow one with a default.  The class is rebuilt with those
    ``__slots__``, as ``dataclass(slots=True)`` does, and gains what a
    ``@dataclass(frozen=True, slots=True)`` would: an ``__init__`` taking
    the fields by position or by name (calling ``__post_init__`` if the
    class has one), ``__eq__`` and ``__hash__`` on the field tuple,
    ``__repr__`` as ``Name(field=value, ...)``, a ``__setattr__`` and a
    ``__delattr__`` that raise AttributeError, ``__getstate__`` and
    ``__setstate__`` for pickle and copy, and ``__match_args__``.  A method
    the class defines itself is never replaced; a class that defines
    ``__eq__`` alone stays unhashable, as Python makes it.

    ``__init__``, ``__eq__`` and ``__hash__`` share code compiled once per
    arity (:func:`_method_code`), with the names renamed to the fields, so
    only the first type of each arity compiles anything, and the methods
    run as fast as those ``dataclasses`` generates.  Nor does a module of
    value types import ``dataclasses``, which loads ``inspect`` and took
    longer than the rest of a one-shot request.
    """
    body = dict(cls.__dict__)
    names = tuple(cls.__annotations__)
    with_default = [name in body for name in names]
    if with_default != sorted(with_default):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    defaults = tuple(body.pop(name) for name in names if name in body) or None
    for name in ("__dict__", "__weakref__"):
        body.pop(name, None)
    body["__slots__"] = names
    value = type(cls)(cls.__name__, cls.__bases__, body)
    value.__qualname__ = cls.__qualname__
    namespace = {f"_set{i}": value.__dict__[name].__set__ for i, name in enumerate(names)}
    init = "__init__+post" if hasattr(value, "__post_init__") else "__init__"
    for method, key in (("__init__", init), ("__eq__", "__eq__"), ("__hash__", "__hash__")):
        if method not in body:
            given = defaults if method == "__init__" else None
            function = FunctionType(_field_code(key, names), namespace, method, given)
            function.__qualname__ = f"{cls.__qualname__}.{method}"
            setattr(value, method, function)
    shared = {
        "__repr__": _value_repr,
        "__setattr__": _value_setattr,
        "__delattr__": _value_delattr,
        "__getstate__": _value_getstate,
        "__setstate__": _value_setstate,
        "__match_args__": names,
    }
    for name, attribute in shared.items():
        if name not in body:
            setattr(value, name, attribute)
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


@value_type
class Pseudoquotient:
    """A representative pair ``numerator / denominator``.

    Any (point, element) pair of one instance is a legal representative;
    whether two representatives name the same class is decided by
    :meth:`Instance.pq_equivalent`.
    """

    numerator: Any
    denominator: Any


@value_type
class OreWitness:
    """A pair certifying ``f_prime o g == g_prime o f`` for declared inputs (f, g)."""

    f_prime: Any
    g_prime: Any


@value_type
class GroupFraction:
    """A left fraction ``den^-1 o num``: one element of the extended bijection group."""

    den: Any
    num: Any


# these types check none of their fields, so a builder gives what the constructor
# gives, at one slot write per field
_pq, _fraction = unchecked(Pseudoquotient), unchecked(GroupFraction)


def frac_inverse(frac: GroupFraction) -> GroupFraction:
    """Invert a fraction by swapping its two sides; an involution."""
    return _fraction(frac.num, frac.den)


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

    Values are validated once, where they enter.  An element's public
    constructor checks every value from outside (parsed text, configs,
    ``random_element``, user code).  The hooks ``compose``,
    ``ore_complete`` and ``designated_element`` build their results
    through :func:`unchecked` instead, each under a named invariant of its
    algebra that makes the result valid.  ``_check_element`` and
    ``_check_point`` still guard every hook's inputs.

    ``action`` binds an element's constants once into an unchecked
    point -> point callable; :meth:`apply` is derived from it here, as the
    two checks followed by that callable, and the verifier's preset
    generators are such callables.  No hook is optional.

    An instance may also override a derived method of the calculus
    (``extend_apply``, ``extend_inverse_apply``, ``frac_apply``,
    ``frac_compose``, ``frac_equal``) with a closed form that returns an
    equivalent result, such as a normal form of the class or fraction, or
    the Ore route's own result without building its witness.  The method
    here then stays its test oracle: called as
    ``Instance.extend_apply(instance, g, p)``, it takes the generic Ore
    route.
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
    def action(self, f: Any) -> Callable[[Any], Any]:
        """The map of ``f`` as a callable on points, with ``f`` checked once, here.

        The callable checks nothing further: callers pass only points of
        this instance, such as a presentation's checked samples and their
        images.
        """

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

    def apply(self, f: Any, x: Any) -> Any:
        """Apply the map denoted by ``f`` to the point ``x``; :meth:`action` checks ``f``."""
        return self.action(f)(self._check_point(x))

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
        return _pq(self.apply(g, p.numerator), self.compose(g, p.denominator))

    def embed(self, x: Any) -> Pseudoquotient:
        """Embed a point of X as ``(e x) / e`` for the designated element ``e``."""
        e = self.designated_element
        return _pq(self.apply(e, x), e)

    def extend_apply(self, g: Any, p: Pseudoquotient) -> Pseudoquotient:
        """Apply the extension of ``g`` to the class of ``p = x / f``.

        With ``(f', g')`` such that ``f'g = g'f``, the image is
        ``(g' x) / f'``; the class does not depend on the witness or on
        the representative chosen for ``p``.
        """
        w = self.ore_complete(p.denominator, g)
        return _pq(self.apply(w.g_prime, p.numerator), w.f_prime)

    def extend_inverse_apply(self, g: Any, p: Pseudoquotient) -> Pseudoquotient:
        """Apply the inverse of the extension of ``g``: ``x / f -> x / (f g)``."""
        return _pq(p.numerator, self.compose(p.denominator, g))

    def solve(self, f: Any, x: Any) -> Pseudoquotient:
        """Return the unique class ``xi`` with ``f(xi) = x``, namely ``x / f``."""
        return _pq(x, f)

    # --- the group of left fractions ----------------------------------

    def frac_from_element(self, g: Any) -> GroupFraction:
        """Include a semigroup element into the fraction group as ``e^-1 o (e g)``."""
        e = self.designated_element
        return _fraction(e, self.compose(e, g))

    def frac_identity(self) -> GroupFraction:
        """The identity fraction ``e^-1 o e``."""
        e = self.designated_element
        return _fraction(e, e)

    def frac_apply(self, frac: GroupFraction, p: Pseudoquotient) -> Pseudoquotient:
        """Apply the bijection ``den^-1 o num`` to the class of ``p``."""
        return self.extend_inverse_apply(frac.den, self.extend_apply(frac.num, p))

    def frac_compose(self, first: GroupFraction, second: GroupFraction) -> GroupFraction:
        """Compose two fractions (``second`` acts first).

        ``f1^-1 g1 o f2^-1 g2`` is rewritten into a single left fraction
        by picking ``(h, k)`` with ``h o g1 == k o f2``, giving
        ``(h f1)^-1 o (k g2)``; closure under composition is exactly what
        the Ore condition buys.
        """
        w = self.ore_complete(second.den, first.num)
        return _fraction(
            self.compose(w.f_prime, first.den), self.compose(w.g_prime, second.num)
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
        return _pq(self.random_point(rng), self.random_element(rng))

    def random_fraction(self, rng: random.Random) -> GroupFraction:
        return _fraction(self.random_element(rng), self.random_element(rng))


class Preset(NamedTuple):
    """A finite presentation of one instance for the bounded verifier.

    The verifier acts with the named ``generators`` (elements of
    ``instance``) on ``samples``, over words of up to ``depth`` letters.
    Each generator is compiled once, by the :meth:`Instance.action` hook
    that every instance defines, into a callable that checks nothing
    (:meth:`Instance.apply` is that callable behind a point check); the
    samples are checked when the presentation is built, and every other
    point it meets is an image of them.  ``from_rules``, if set, rebuilds
    the instance from a config's custom rules.
    """

    instance: Instance
    generators: tuple[tuple[str, Any], ...]
    samples: tuple
    depth: int
    from_rules: Callable[[Any], Instance] | None = None
