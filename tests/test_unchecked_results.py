"""Hook results built without validation are exactly what the public constructors build.

``compose``, ``ore_complete`` and ``designated_element`` build their
elements through ``core.unchecked``, relying on invariants of each
instance's algebra; so do the affine lattice's ``reduce_fraction``,
``random_element`` and closed forms of ``extend_apply``,
``extend_inverse_apply`` and ``frac_compose``, and the tower's action on
points.  Rebuilt from its fields through the public constructor, which
validates and normalizes, every such value must come back equal and with
the same hash: a result that broke an invariant would be refused, or
normalized into a different value.  A builder from ``core.unchecked``
writes slots and skips ``__init__``, so each such value must also have
every field of its ``__slots__`` set, no ``__dict__``, and no more
memory than a slotted dataclass value built by a generated ``__init__``.
"""

import tracemalloc
from dataclasses import dataclass

import pytest

from pseudoquotients import (
    AffineLattice,
    AffineLatticeMap,
    DomainError,
    DyadicStepMap,
    GroupFraction,
    Instance,
    PowerAffineMap,
    StepFunction,
    Tower,
    TowerConfig,
    TowerMap,
    TowerPoint,
)
from pseudoquotients.core import unchecked
from pseudoquotients.instances.affine_lattice import identity_matrix, mat_scale

TRIALS = 20
CHAIN = 3


def assert_holds_its_fields(value):
    assert not hasattr(value, "__dict__")
    assert type(value).__slots__ == tuple(type(value).__annotations__)
    for name in type(value).__slots__:
        getattr(value, name)  # an unset slot raises AttributeError


def rebuilt(f):
    """``f`` rebuilt from its fields through its type's public constructor."""
    assert_holds_its_fields(f)
    return type(f)(*(getattr(f, name) for name in type(f).__slots__))


def hook_results(instance, rng):
    """Elements from every unchecked hook, on sampled inputs and on chains of their outputs."""
    yield instance.designated_element
    for _ in range(TRIALS):
        f, g = instance.random_element(rng), instance.random_element(rng)
        frac = instance.random_fraction(rng)
        for _ in range(CHAIN):
            h = instance.compose(f, g)
            w = instance.ore_complete(f, g)
            reduced = Instance.frac_compose(instance, frac, GroupFraction(f, g))
            if isinstance(instance, AffineLattice):
                reduced = instance.reduce_fraction(reduced)
            frac = instance.frac_compose(frac, GroupFraction(f, g))
            yield from (h, w.f_prime, w.g_prime, reduced.den, reduced.num, frac.den, frac.num)
            # class representatives, each moved from the last
            p = instance.extend_apply(f, instance.random_pseudoquotient(rng))
            p = instance.extend_inverse_apply(g, p)
            yield from (p.denominator, instance.frac_apply(frac, p).denominator)
            f, g = w.g_prime, instance.compose(g, instance.random_element(rng))


def test_hook_results_rebuild_equal(instance, rng):
    for f in hook_results(instance, rng):
        assert isinstance(f, instance.element_type)
        again = rebuilt(f)
        assert again == f and hash(again) == hash(f)


def test_sampled_elements_rebuild_equal(instance, rng):
    # random_element builds through the public constructor, or (affine) through
    # core.unchecked after its own determinant test
    for _ in range(TRIALS):
        f = instance.random_element(rng)
        assert rebuilt(f) == f


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_reduced_affine_denominator_is_a_positive_scalar(dim, rng):
    # the invariant behind the unchecked reduce_fraction: den = (D I, 0) with D > 0
    af = AffineLattice(dim)
    for _ in range(TRIALS):
        frac = af.random_fraction(rng)
        for _ in range(CHAIN):
            reduced = af.reduce_fraction(frac)
            scale = reduced.den.matrix[0][0]
            assert scale > 0
            assert reduced.den == AffineLatticeMap(mat_scale(identity_matrix(dim), scale), (0,) * dim)
            frac = af.frac_compose(reduced, af.random_fraction(rng))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_affine_class_denominator_is_a_positive_scalar(dim, rng):
    # the invariant behind the unchecked class results: pq(y; (D I, 0)) with D > 0
    af = AffineLattice(dim)
    for _ in range(TRIALS):
        p = af.random_pseudoquotient(rng)
        for _ in range(CHAIN):
            g, frac = af.random_element(rng), af.random_fraction(rng)
            for q in (af.extend_apply(g, p), af.extend_inverse_apply(g, p), af.frac_apply(frac, p)):
                scale = q.denominator.matrix[0][0]
                assert scale > 0
                scalar = AffineLatticeMap(mat_scale(identity_matrix(dim), scale), (0,) * dim)
                assert q.denominator == scalar
                again = rebuilt(q.denominator)
                assert again == q.denominator and hash(again) == hash(q.denominator)
            p = q


@pytest.mark.parametrize(
    "config", [TowerConfig(), TowerConfig(ascend_add=-2, squeeze_mul=-3, squeeze_const=5)]
)
def test_tower_moved_points_rebuild_equal(config, rng):
    # the invariant behind the unchecked moved point: a level >= 1 and an integer payload
    tower, moved = Tower(config), 0
    for _ in range(TRIALS):
        f, x = tower.random_element(rng), tower.random_point(rng)
        for _ in range(CHAIN):
            for y in (tower.apply(f, x), tower.action(f)(x)):
                assert type(y) is TowerPoint
                assert_holds_its_fields(y)
                again = TowerPoint(y.level, y.payload)
                assert again == y and hash(again) == hash(y)
            moved += y is not x
            x = y
    assert moved > TRIALS  # most draws move their point; the others return it as it is


@dataclass(frozen=True, slots=True)
class _Two:
    level: int
    payload: int


@dataclass(frozen=True, slots=True)
class _Four:
    width: int
    offset: int
    numerators: tuple
    denominator: int


def bytes_per_value(build, count=2000):
    """The memory each of ``count`` values of ``build()`` holds, list entry included."""
    tracemalloc.start()
    try:
        values = [build() for _ in range(count)]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(values) == count
    return held / count


@pytest.mark.parametrize(
    "build, reference",
    [
        (lambda: unchecked(TowerPoint)(1, 5), lambda: _Two(1, 5)),
        (
            lambda: unchecked(StepFunction)(width=0, offset=0, numerators=(), denominator=1),
            lambda: _Four(0, 0, (), 1),
        ),
        # the zero function: every field is a shared constant, only the value is new
        (lambda: StepFunction(()), lambda: _Four(0, 0, (), 1)),
    ],
    ids=["unchecked-tower-point", "unchecked-step-function", "public-step-function"],
)
def test_values_built_without_init_are_as_compact_as_generated_init_ones(build, reference):
    # a value with a __dict__ would hold over twice the bytes of a slotted one;
    # the verifier's search holds many points
    assert_holds_its_fields(build())
    assert bytes_per_value(build) <= 1.25 * bytes_per_value(reference)


def test_one_builder_per_class_takes_fields_by_position_or_by_name():
    build = unchecked(TowerMap)
    assert unchecked(TowerMap) is build
    by_position, by_name = build(((1, 2),), 3), build(shift=3, level_powers=((1, 2),))
    assert by_position == by_name == TowerMap(((1, 2),), 3)
    with pytest.raises(TypeError):
        build(((1, 2),))  # every field, no defaults


@dataclass(frozen=True)
class _Unslotted:
    level: int
    payload: int


def test_unchecked_needs_a_slotted_dataclass():
    with pytest.raises(TypeError, match="slots=True"):
        unchecked(_Unslotted)


class _WeaklyReferenced:
    __slots__ = ("level", "__weakref__")


def test_unchecked_needs_every_name_of_its_slots_to_be_a_field():
    # "__weakref__" in __slots__ makes a getset descriptor, which no builder can write
    with pytest.raises(TypeError, match=r"^_WeaklyReferenced\.__weakref__ is not a slot: unchecked needs slots=True$"):
        unchecked(_WeaklyReferenced)


def test_unchecked_builds_a_slotted_dataclass():
    # an instance module outside the package may still declare its values as dataclasses
    build = unchecked(_Two)
    assert build(1, 5) == build(payload=5, level=1) == _Two(1, 5)
    assert_holds_its_fields(build(1, 5))


@pytest.mark.parametrize(
    "build",
    [
        lambda: AffineLatticeMap(((0,),), (0,)),
        lambda: AffineLatticeMap(((1, 2), (2, 4)), (0, 0)),
        lambda: TowerMap(((0, 1),)),
        lambda: TowerMap(((1, -1),)),
        lambda: TowerMap((), -1),
        lambda: DyadicStepMap(-1, 0),
        lambda: DyadicStepMap(0, -1),
        lambda: PowerAffineMap(0, 1),
        lambda: PowerAffineMap(1, 0),
    ],
    ids=[
        "affine-singular-1d",
        "affine-singular-2d",
        "tower-level-0",
        "tower-negative-exponent",
        "tower-negative-shift",
        "dyadic-negative-shift",
        "dyadic-negative-halvings",
        "power-affine-multiplier-0",
        "power-affine-exponent-0",
    ],
)
def test_public_constructors_still_refuse_invalid_values(build):
    with pytest.raises(DomainError):
        build()
