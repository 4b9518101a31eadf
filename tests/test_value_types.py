"""Every value type is a frozen, slotted ``core.value_type`` that pickles and copies to an equal value.

Each type holds exactly its annotated fields in ``__slots__``.  The values
come both from the public constructors and from the hooks and closed
forms, which build through ``core.unchecked``; each must survive a
``pickle`` and a ``copy.deepcopy`` round trip equal and with the same hash,
refuse assignment to any of its fields with an AttributeError, and hold no
``__dict__``.  ``tests/test_value_type_twins.py`` compares each type with
a ``@dataclass(frozen=True, slots=True)`` twin.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from pseudoquotients import (
    AffineLattice,
    AffineLatticeMap,
    DyadicStepMap,
    DyadicSteps,
    GroupFraction,
    OreWitness,
    PowerAffine,
    PowerAffineMap,
    Pseudoquotient,
    RootValue,
    StepFunction,
    Tower,
    TowerConfig,
    TowerMap,
    TowerPoint,
    TowerValue,
    frac_inverse,
)
from pseudoquotients.core import value_type

VALUE_TYPES = (
    Pseudoquotient,
    OreWitness,
    GroupFraction,
    AffineLatticeMap,
    TowerPoint,
    TowerValue,
    TowerMap,
    TowerConfig,
    PowerAffineMap,
    RootValue,
    DyadicStepMap,
    StepFunction,
)


def sample_values(rng):
    """Values of every type, from public constructors, hooks and closed forms."""
    pa, af, dy, tw = PowerAffine(), AffineLattice(2), DyadicSteps(), Tower()
    yield from (
        Pseudoquotient(12, PowerAffineMap(3, 2)),
        OreWitness(PowerAffineMap(2, 1), PowerAffineMap(1, 3)),
        GroupFraction(DyadicStepMap(1, 2), DyadicStepMap(0, 1)),
        AffineLatticeMap(((2, 0), (0, 2)), (0, 0)),
        TowerPoint(2, -5),
        TowerValue(-1, Fraction(7, 3)),
        TowerMap(((1, 2), (3, 1)), 2),
        TowerConfig(ascend_add=-2, squeeze_mul=-3, squeeze_const=5),
        PowerAffineMap(4, 3),
        RootValue(Fraction(9, 4), 2),
        DyadicStepMap(3, 1),
        StepFunction((Fraction(1, 2), 3)),
    )
    for instance in (pa, af, dy, tw):
        f, g = instance.random_element(rng), instance.random_element(rng)
        frac, other = instance.random_fraction(rng), instance.random_fraction(rng)
        p = instance.random_pseudoquotient(rng)
        moved = instance.frac_apply(frac, p)
        yield from (
            instance.designated_element,
            instance.compose(f, g),
            instance.ore_complete(f, g),
            instance.frac_compose(frac, other),
            frac_inverse(frac),
            instance.extend_apply(f, p),
            instance.extend_inverse_apply(g, p),
            moved,
            moved.numerator,
            instance.canonical_value(moved),
            instance.apply(f, instance.random_point(rng)),
        )
    yield tw.config
    yield af.reduce_fraction(af.random_fraction(rng))


def test_the_samples_cover_every_value_type(rng):
    assert {type(value) for value in sample_values(rng)} >= set(VALUE_TYPES)


@pytest.mark.parametrize("value_type", VALUE_TYPES, ids=lambda t: t.__name__)
def test_value_types_hold_their_fields_in_slots(value_type):
    assert value_type.__slots__ == tuple(value_type.__annotations__)


def test_a_field_without_a_default_may_not_follow_one_with_a_default():
    class Misordered:
        level: int = 0
        payload: int

    with pytest.raises(TypeError, match="^Misordered: a field without a default follows one with a default$"):
        value_type(Misordered)


def test_values_round_trip_through_pickle_and_deepcopy(rng):
    for value in sample_values(rng):
        for again in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(again) is type(value)
            assert again == value and hash(again) == hash(value)


def test_values_refuse_assignment_and_hold_no_dict(rng):
    checked = 0
    for value in sample_values(rng):
        if type(value) not in VALUE_TYPES:
            continue  # a point of power-affine or of the affine lattice: an int or a tuple
        assert not hasattr(value, "__dict__")
        for name in type(value).__slots__:
            before = getattr(value, name)
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(value, name, before)
            assert getattr(value, name) is before
        checked += 1
    assert checked > 40
