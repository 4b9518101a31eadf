"""Each value type behaves as a ``@dataclass(frozen=True, slots=True)`` twin of it does.

``core.value_type`` builds what ``dataclasses`` would, without importing
it.  Each twin below declares the same fields and defaults as its type
and reuses the type's own ``__post_init__`` (and ``StepFunction``'s own
``__init__``); ``RootValue``'s twin keeps the value equality of its type,
with the same hash.  Over the sampled values of ``tests/test_value_types.py``
each type must agree with its twin on ``==`` and ``hash``, ``repr``, pickle
and ``copy.deepcopy`` round trips, construction by position, by name and
from defaults (errors included), ``__match_args__``, and the refusal of
assignment and deletion.  A twin value is built from a value's fields by
``core.unchecked``, which takes a slotted dataclass too.
"""

import copy
import copyreg
import pickle
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from test_value_types import VALUE_TYPES, sample_values

from pseudoquotients import (
    AffineLatticeMap,
    DyadicStepMap,
    GroupFraction,
    OreWitness,
    PowerAffineMap,
    Pseudoquotient,
    RootValue,
    StepFunction,
    TowerConfig,
    TowerMap,
    TowerPoint,
    TowerValue,
    UsageError,
)
from pseudoquotients.core import unchecked


def _lowest(root) -> tuple:
    """``(radicand, index)`` of the equal root of least index, as ``RootValue`` reduces it."""
    low = RootValue.reduced(root)
    return low.radicand, low.index


class Twins:
    """One slotted dataclass per value type, under the type's own name."""

    @dataclass(frozen=True, slots=True)
    class Pseudoquotient:
        numerator: Any
        denominator: Any

    @dataclass(frozen=True, slots=True)
    class OreWitness:
        f_prime: Any
        g_prime: Any

    @dataclass(frozen=True, slots=True)
    class GroupFraction:
        den: Any
        num: Any

    @dataclass(frozen=True, slots=True)
    class AffineLatticeMap:
        matrix: Any
        offset: Any
        __post_init__ = AffineLatticeMap.__post_init__

    @dataclass(frozen=True, slots=True)
    class TowerPoint:
        level: int
        payload: int
        __post_init__ = TowerPoint.__post_init__

    @dataclass(frozen=True, slots=True)
    class TowerValue:
        level: int
        payload: Fraction
        __post_init__ = TowerValue.__post_init__

    @dataclass(frozen=True, slots=True)
    class TowerMap:
        level_powers: tuple = ()
        shift: int = 0
        __post_init__ = TowerMap.__post_init__

    @dataclass(frozen=True, slots=True)
    class TowerConfig:
        ascend_add: int = 1
        squeeze_mul: int = 2
        squeeze_const: int = 0
        __post_init__ = TowerConfig.__post_init__

    @dataclass(frozen=True, slots=True)
    class PowerAffineMap:
        multiplier: int
        exponent: int
        __post_init__ = PowerAffineMap.__post_init__

    @dataclass(frozen=True, slots=True)
    class RootValue:
        radicand: Fraction
        index: int
        __post_init__ = RootValue.__post_init__

        def __eq__(self, other):
            if not isinstance(other, Twins.RootValue):
                return NotImplemented
            return _lowest(self) == _lowest(other)

        def __hash__(self):
            return hash(_lowest(self))

    @dataclass(frozen=True, slots=True)
    class DyadicStepMap:
        shift: int = 0
        halvings: int = 0
        __post_init__ = DyadicStepMap.__post_init__

    @dataclass(frozen=True, slots=True)
    class StepFunction:
        width: int
        offset: Any
        numerators: tuple
        denominator: int
        __init__ = StepFunction.__init__


TWINS = {value_type: getattr(Twins, value_type.__name__) for value_type in VALUE_TYPES}
FAILURES = (TypeError, ValueError)  # a DomainError is a ValueError, a UsageError a TypeError


def fields(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value).__slots__)


def twin_of(value):
    """The twin value with the fields of ``value``, as they are."""
    return unchecked(TWINS[type(value)])(*fields(value))


def values(rng) -> list:
    """The sampled values of every type, and two roots that are equal as values only."""
    found = [value for value in sample_values(rng) if type(value) in TWINS]
    return [*found, RootValue(4, 2), RootValue(2, 1), RootValue(Fraction(1, 8), 3)]


def outcome(build, *args, **kwargs) -> tuple:
    """What ``build(*args, **kwargs)`` gives: a twin of the value made, or the error raised."""
    try:
        made = build(*args, **kwargs)
    except FAILURES as error:
        # a twin's methods are named Twins.<type>.<method>
        return type(error), str(error).replace("Twins.", "")
    return "made", made if type(made) in TWINS.values() else twin_of(made)


def calls(value) -> list[tuple[tuple, dict]]:
    """Constructor calls made from ``value``: right, by name, mixed, too many and unknown."""
    if type(value) is StepFunction:
        try:
            coefficients = list(value.coefficients)
        except UsageError:
            return []  # a class value, not a point: its constructor takes no fields
        return [((coefficients,), {}), ((), {"coefficients": coefficients}), ((coefficients, 1), {})]
    names, given = type(value).__slots__, fields(value)
    by_name = dict(zip(names, given))
    return [
        (given, {}),
        ((), by_name),
        (given[:1], dict(zip(names[1:], given[1:]))),
        (given[:-1], {}),
        ((*given, None), {}),
        ((), {**by_name, "bogus": 1}),
        (given, {names[0]: given[0]}),
    ]


def test_every_type_has_a_twin_of_the_same_fields():
    assert len(TWINS) == 12
    for value_type, twin in TWINS.items():
        assert value_type.__slots__ == twin.__slots__
        assert value_type.__match_args__ == twin.__match_args__
        assert twin.__qualname__ == f"Twins.{value_type.__name__}"


def test_equality_and_hash_agree_with_the_twins(rng):
    sampled = values(rng)
    assert {type(value) for value in sampled} == set(TWINS)
    for value in sampled:
        twin = twin_of(value)
        assert hash(value) == hash(twin)
        assert type(value).__eq__(value, object()) is type(twin).__eq__(twin, object()) is NotImplemented
        for other in sampled:
            if type(other) is type(value):
                assert (value == other) is (twin == twin_of(other))
                assert (value != other) is (twin != twin_of(other))
    assert RootValue(4, 2) == RootValue(2, 1) != RootValue(Fraction(1, 8), 3)


def test_repr_agrees_with_the_twins(rng):
    for value in values(rng):
        assert "Twins." + repr(value) == repr(twin_of(value))


def test_pickle_and_deepcopy_agree_with_the_twins(rng):
    round_trips = [copy.deepcopy, copy.copy]
    round_trips += [
        lambda value, protocol=protocol: pickle.loads(pickle.dumps(value, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for value in values(rng):
        twin = twin_of(value)
        assert value.__getstate__() == twin.__getstate__() == list(fields(value))
        assert value.__reduce_ex__(2)[:2] == (copyreg.__newobj__, (type(value),))
        for round_trip in round_trips:
            again, twin_again = round_trip(value), round_trip(twin)
            assert type(again) is type(value) and type(twin_again) is type(twin)
            assert twin_of(again) == twin_again and again == value
            assert hash(again) == hash(twin_again) == hash(value)
            assert "Twins." + repr(again) == repr(twin_again)


def test_construction_agrees_with_the_twins(rng):
    made = 0
    for value in values(rng):
        value_type = type(value)
        for args, kwargs in calls(value):
            ours = outcome(value_type, *args, **kwargs)
            assert ours == outcome(TWINS[value_type], *args, **kwargs), (value_type, args, kwargs)
            made += ours[0] == "made"
    assert made > 100
    for value_type, twin in TWINS.items():
        assert outcome(value_type) == outcome(twin)


def test_assignment_and_deletion_are_refused_as_by_the_twins(rng):
    for value in values(rng):
        twin, before = twin_of(value), fields(value)
        for name in type(value).__slots__:
            for refuse in (lambda v: setattr(v, name, None), lambda v: delattr(v, name)):
                errors = []
                for target in (value, twin):
                    try:
                        refuse(target)
                    except AttributeError as error:
                        errors.append(str(error))
                assert len(errors) == 2 and errors[0] == errors[1], errors
        assert fields(value) == before == fields(twin)
