"""The rules for outside input: ``require_int``, ``require_rational``, ``require_sequence``
and ``require_object``."""

from fractions import Fraction

import pytest

from pseudoquotients import (
    AffineLattice,
    AffineLatticeMap,
    DomainError,
    DyadicStepMap,
    PowerAffine,
    PowerAffineMap,
    RootValue,
    StepFunction,
    TowerMap,
    TowerPoint,
    TowerValue,
    UsageError,
    create_instance,
    preset,
    presentation_from_config,
)
from pseudoquotients.core import (
    MAX_SHOWN_BITS,
    bounded_power,
    int_text,
    require_int,
    require_object,
    require_rational,
    require_sequence,
    value_text,
)

HUGE = 10**5000  # more digits than CPython's int-to-str prints; 16610 bits

# every constructor that takes integers, with one integer field left open
CONSTRUCTORS = {
    "PowerAffineMap.multiplier": lambda v: PowerAffineMap(v, 1),
    "PowerAffineMap.exponent": lambda v: PowerAffineMap(1, v),
    "RootValue.index": lambda v: RootValue(2, v),
    "AffineLatticeMap.matrix": lambda v: AffineLatticeMap(((v,),), (0,)),
    "AffineLatticeMap.offset": lambda v: AffineLatticeMap(((1,),), (v,)),
    "AffineLattice.dim": lambda v: AffineLattice(v),
    "DyadicStepMap.shift": lambda v: DyadicStepMap(v, 0),
    "DyadicStepMap.halvings": lambda v: DyadicStepMap(0, v),
    "TowerPoint.level": lambda v: TowerPoint(v, 0),
    "TowerPoint.payload": lambda v: TowerPoint(1, v),
    "TowerMap.level": lambda v: TowerMap(((v, 1),), 0),
    "TowerMap.exponent": lambda v: TowerMap(((1, v),), 0),
    "TowerMap.shift": lambda v: TowerMap((), v),
    "TowerValue.level": lambda v: TowerValue(v, 0),
}


@pytest.mark.parametrize("field", CONSTRUCTORS)
def test_constructors_take_an_integer_of_one(field):
    CONSTRUCTORS[field](1)  # accepted


@pytest.mark.parametrize("bad", [2.0, "1", True], ids=["float", "string", "bool"])
@pytest.mark.parametrize("field", CONSTRUCTORS)
def test_constructors_reject_non_integers(field, bad):
    with pytest.raises(DomainError, match="must be an integer"):
        CONSTRUCTORS[field](bad)


def test_affine_entries_are_not_truncated():
    with pytest.raises(DomainError, match="matrix entry must be an integer, got 2.7"):
        AffineLatticeMap(((2.7,),), (0,))


def test_require_int_lower_bound():
    assert require_int(0, "n", 0) == 0
    with pytest.raises(DomainError, match=r"^n must be >= 1, got 0$"):
        require_int(0, "n", 1)


def test_require_int_names_a_huge_value_by_its_size():
    message = r"^shift exponent must be >= 0, got a negative integer of 16610 bits$"
    with pytest.raises(DomainError, match=message):
        DyadicStepMap(-HUGE, 0)


def test_int_text_prints_integers_up_to_the_limit():
    for value in (0, 7, -7, 2**MAX_SHOWN_BITS - 1, -(2**MAX_SHOWN_BITS - 1)):
        assert int_text(value) == str(value)
    assert int_text(2**MAX_SHOWN_BITS) == f"an integer of {MAX_SHOWN_BITS + 1} bits"
    assert int_text(-HUGE) == "a negative integer of 16610 bits"


def test_power_affine_points_are_positive_ints():
    pa, f = PowerAffine(), PowerAffineMap(2, 1)
    assert pa.apply(f, 1) == 2
    with pytest.raises(UsageError, match="^expected int, got bool$"):
        pa.apply(f, True)
    with pytest.raises(UsageError, match="^point must be a positive integer, got 0$"):
        pa.apply(f, 0)
    message = "^point must be a positive integer, got a negative integer of 16610 bits$"
    with pytest.raises(UsageError, match=message):
        pa.apply(f, -HUGE)


def test_affine_points_are_int_vectors():
    af = AffineLattice(2)
    e = af.designated_element
    assert af.apply(e, (1, 0)) == (1, 0)
    message = r"^expected an integer vector of length 2, got \(True, False\)$"
    with pytest.raises(UsageError, match=message):
        af.apply(e, (True, False))
    with pytest.raises(UsageError, match=r", got \(1,\)$"):
        af.apply(e, (1,))
    with pytest.raises(UsageError, match=r", got \(an integer of 16610 bits, 1, 2\)$"):
        af.apply(e, (HUGE, 1, 2))


# every constructor that takes rationals, with one rational field left open
RATIONAL_CONSTRUCTORS = {
    "StepFunction.coefficients": lambda v: StepFunction((v,)),
    "RootValue.radicand": lambda v: RootValue(v, 1),
    "TowerValue.payload": lambda v: TowerValue(1, v),
}


@pytest.mark.parametrize("good", [3, Fraction(1, 2)], ids=["int", "Fraction"])
@pytest.mark.parametrize("field", RATIONAL_CONSTRUCTORS)
def test_constructors_take_an_int_or_a_fraction(field, good):
    RATIONAL_CONSTRUCTORS[field](good)  # accepted


@pytest.mark.parametrize(
    "bad", [0.1, "1/2", "4", True, None],
    ids=["float", "fraction-string", "int-string", "bool", "none"],
)
@pytest.mark.parametrize("field", RATIONAL_CONSTRUCTORS)
def test_constructors_reject_non_rationals(field, bad):
    with pytest.raises(DomainError, match="must be an integer or a Fraction"):
        RATIONAL_CONSTRUCTORS[field](bad)


# every sequence field of a public constructor: (build with it, the field's name, a good value)
SEQUENCE_FIELDS = {
    "StepFunction.coefficients": (StepFunction, "step coefficients", (1, 2)),
    "AffineLatticeMap.matrix": (lambda v: AffineLatticeMap(v, (0,)), "matrix", ((1,),)),
    "AffineLatticeMap.matrix row": (lambda v: AffineLatticeMap((v,), (0,)), "matrix row", (1,)),
    "AffineLatticeMap.offset": (lambda v: AffineLatticeMap(((1,),), v), "offset", (0,)),
    "TowerMap.level_powers": (TowerMap, "level_powers", ((1, 2),)),
    "TowerMap.level_powers entry": (lambda v: TowerMap((v,)), "level_powers entry", (1, 2)),
}


@pytest.mark.parametrize("field", SEQUENCE_FIELDS)
def test_sequence_fields_take_a_tuple_or_a_list(field):
    build, _, good = SEQUENCE_FIELDS[field]
    as_list = [list(e) if isinstance(e, tuple) else e for e in good]
    assert build(good) == build(as_list)


@pytest.mark.parametrize(
    "bad", [None, 5, {1: 2}, "12", range(2), iter((1, 2))],
    ids=["none", "int", "dict", "string", "range", "iterator"],
)
@pytest.mark.parametrize("field", SEQUENCE_FIELDS)
def test_sequence_fields_reject_everything_else(field, bad):
    build, name, _ = SEQUENCE_FIELDS[field]
    message = f"^{name} must be a tuple or a list, got {type(bad).__name__}$"
    with pytest.raises(DomainError, match=message):
        build(bad)


def test_sequence_lengths_are_checked():
    assert require_sequence([1, 2], "pair", 2) == [1, 2]
    with pytest.raises(DomainError, match="^level_powers entry must have 2 entries, got 3$"):
        TowerMap(((1, 2, 3),))
    with pytest.raises(DomainError, match="^level_powers entry must have 2 entries, got 1$"):
        TowerMap(([1],))


def test_tower_values_keep_their_exact_fields():
    value = TowerValue(-2, 3)
    assert (value.level, value.payload) == (-2, Fraction(3))
    assert type(value.payload) is Fraction
    assert TowerValue(0, Fraction(1, 2)).payload == Fraction(1, 2)


def test_value_text_is_repr_for_short_values():
    for value in (2.7, "1", True, None, [1, 2], Fraction(27, 10), -5):
        assert value_text(value) == repr(value)


def test_long_fractions_are_named_by_size():
    # repr(Fraction(HUGE, 3)) would raise CPython's int-to-str ValueError
    assert value_text(Fraction(HUGE, 3)) == "Fraction(an integer of 16610 bits, 3)"
    message = r"^matrix entry must be an integer, got Fraction\(an integer of 16610 bits, 3\)$"
    with pytest.raises(DomainError, match=message):
        require_int(Fraction(HUGE, 3), "matrix entry")
    with pytest.raises(DomainError, match=message):
        AffineLatticeMap(((Fraction(HUGE, 3),),), (0,))
    with pytest.raises(UsageError, match=r", got \(Fraction\(an integer of 16610 bits, 3\),\)$"):
        AffineLattice(1).apply(AffineLattice(1).designated_element, (Fraction(HUGE, 3),))


def test_values_holding_long_integers_are_named_by_type():
    assert value_text([HUGE]) == "a list too long to print"
    with pytest.raises(DomainError, match=r"^offset entry must be an integer, got a list too long"):
        AffineLatticeMap(((1,),), ([HUGE],))
    with pytest.raises(DomainError, match=r"^radicand must be an integer or a Fraction, got a tuple"):
        require_rational((HUGE,), "radicand")


def test_bounded_power_names_a_huge_base_by_its_size():
    # 7**6000 has more digits than int-to-str prints, so the message must not print it
    message = r"^multiplier b\^1000000 \(b of 16845 bits\) has over 1048576 bits$"
    with pytest.raises(DomainError, match=message):
        bounded_power(7**6000, 10**6, "multiplier")


def test_require_object_returns_the_object_itself():
    value = {"a": 1}
    assert require_object(value, "key", ("a", "b")) is value
    assert require_object({}, "key", ()) == {}


@pytest.mark.parametrize("value", [[1], "a", 3, None, 2.5, True])
def test_require_object_rejects_non_objects(value):
    with pytest.raises(DomainError, match="^expected a JSON object of widget keys, got "):
        require_object(value, "widget key", ("a",))


def test_require_object_names_the_first_unknown_key():
    with pytest.raises(DomainError) as caught:
        require_object({"a": 1, "z": 2, "y": 3}, "widget key", ("a", "b"))
    assert str(caught.value) == "unknown widget key 'z'; expected one of a, b"



LONG = 10**1000  # 3322 bits; its repr has 1001 digits
LONG_VALUE_MESSAGES = {
    "instance-name": (
        lambda: create_instance(LONG), "unknown instance an integer of 3322 bits; choose one of "
    ),
    "preset-name": (
        lambda: presentation_from_config({"preset": LONG}),
        "unknown preset an integer of 3322 bits; choose one of ",
    ),
    "config-label": (
        lambda: presentation_from_config(
            {"domain": "int", "generators": [{"name": "g"}], "samples": [1], "label": LONG}
        ),
        "label must be a JSON string, got an integer of 3322 bits",
    ),
}


@pytest.mark.parametrize("build, message", LONG_VALUE_MESSAGES.values(), ids=LONG_VALUE_MESSAGES)
def test_names_and_labels_name_a_long_integer_by_its_size(build, message):
    with pytest.raises(DomainError) as caught:
        build()
    assert str(caught.value).startswith(message)
    assert len(str(caught.value)) < 200


def test_unknown_names_keep_the_repr_of_a_short_value():
    with pytest.raises(DomainError, match=r"^unknown preset 'nope'; "):
        preset("nope")
    with pytest.raises(DomainError, match=r"^unknown instance \['x'\]; "):
        create_instance(["x"])
