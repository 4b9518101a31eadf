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

The verifier's five records were ``@dataclass(frozen=True)`` classes, not
slotted; each now agrees with such a twin on the reports of every preset
and of configs that fail injectivity and cancellation: ``==`` and
``hash``, ``repr``, construction (the ``DomainError``s of
``Presentation.__post_init__`` included) and the refusal of assignment and
deletion.  ``VerifyReport.point_text`` stays out of ``==``, ``hash`` and
``repr``, as ``field(compare=False, repr=False)`` kept it, and
``dataclasses.replace`` still copies a ``Presentation`` through its
``__init__``.
"""

import copy
import copyreg
import dataclasses
import json
import pickle
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

import pytest

from test_value_types import VALUE_TYPES, sample_values

from pseudoquotients import (
    PRESET_NAMES,
    AffineLatticeMap,
    CancellationResult,
    DomainError,
    DyadicStepMap,
    GroupFraction,
    InjectivityResult,
    OreSearchResult,
    OreWitness,
    PowerAffineMap,
    Presentation,
    Pseudoquotient,
    RootValue,
    StepFunction,
    TowerConfig,
    TowerMap,
    TowerPoint,
    TowerValue,
    UsageError,
    VerifyReport,
    preset,
    presentation_from_config,
    verify,
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


class VerifierTwins:
    """One ``@dataclass(frozen=True)`` per verifier record, as the records were declared."""

    @dataclass(frozen=True)
    class Presentation:
        generators: Any
        sample_points: Any
        max_depth: int = 5
        label: str = "custom"
        point_text: Any = str
        determines: Any = None
        __post_init__ = Presentation.__post_init__

    @dataclass(frozen=True)
    class InjectivityResult:
        ok: bool
        word: Any = None
        left: Any = None
        right: Any = None

    @dataclass(frozen=True)
    class OreSearchResult:
        f: Any
        g: Any
        f_prime: Any
        g_prime: Any

    @dataclass(frozen=True)
    class CancellationResult:
        ok: bool
        f1: Any = None
        f2: Any = None
        g: Any = None

    @dataclass(frozen=True)
    class VerifyReport:
        label: str
        depth_used: int
        injectivity: Any
        ore: Any
        cancellation: Any
        samples_text: Any
        validated: bool
        point_text: Any = field(default=str, repr=False, compare=False)


RECORDS = (Presentation, InjectivityResult, OreSearchResult, CancellationResult, VerifyReport)
RECORD_TWINS = {record: getattr(VerifierTwins, record.__name__) for record in RECORDS}
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
NOT_INJECTIVE = {"domain": "int", "generators": [{"name": "z", "mul": 0}, {"name": "s", "add": 1}], "samples": [1, 2]}


def record_twin(value):
    """The twin of a record, with nested records (in tuples too) made twins; no ``__post_init__`` runs."""
    if type(value) is tuple:
        return tuple(map(record_twin, value))
    twin_type = RECORD_TWINS.get(type(value))
    if twin_type is None:
        return value
    twin = object.__new__(twin_type)
    for name in type(value).__slots__:
        object.__setattr__(twin, name, record_twin(getattr(value, name)))
    return twin


def plain_repr(twin) -> str:
    return repr(twin).replace("VerifierTwins.", "")


def presentations() -> list:
    """Each preset at depth 2, the fixtures, and an int config one of whose generators is not injective."""
    found = [preset(name, 2) for name in PRESET_NAMES]
    for path in sorted(FIXTURES.glob("*.json")):
        found.append(presentation_from_config(json.loads(path.read_text(encoding="utf-8"))))
    return [*found, presentation_from_config(NOT_INJECTIVE)]


@pytest.fixture(scope="module")
def records() -> list:
    """Presentations, their reports and every record inside those, failures included."""
    found = []
    for presentation in presentations():
        report = verify(presentation)
        found += [presentation, report, report.injectivity, *report.ore, report.cancellation]
    assert {type(record) for record in found} == set(RECORDS)
    for kind in (InjectivityResult, CancellationResult):
        assert {record.ok for record in found if type(record) is kind} == {True, False}
    assert {record.f_prime is None for record in found if type(record) is OreSearchResult} == {True, False}
    return found


def record_outcome(build, *args, **kwargs) -> tuple:
    """What ``build(*args, **kwargs)`` gives: the twin of the record made, or the error raised.

    A twin is built from the twins of the records it is given.
    """
    if build in RECORD_TWINS.values():
        args, kwargs = record_twin(args), {name: record_twin(value) for name, value in kwargs.items()}
    try:
        made = build(*args, **kwargs)
    except FAILURES as error:
        return type(error), str(error).replace("VerifierTwins.", "")
    return "made", made if type(made) in RECORD_TWINS.values() else record_twin(made)


def test_every_verifier_record_has_a_twin_of_the_same_fields():
    for record, twin in RECORD_TWINS.items():
        assert record.__slots__ == tuple(f.name for f in dataclasses.fields(twin))
        assert record.__match_args__ == twin.__match_args__
        assert "__dict__" not in record.__dict__  # slotted, where the twin is not


def test_verifier_records_agree_with_their_twins_on_equality_and_hash(records):
    for value in records:
        twin = record_twin(value)
        assert hash(value) == hash(twin)
        assert type(value).__eq__(value, object()) is NotImplemented
        for other in records:
            if type(other) is type(value):
                assert (value == other) is (twin == record_twin(other))
                assert (value != other) is (twin != record_twin(other))


def test_the_point_text_of_a_report_is_no_part_of_its_value(records):
    for report in (record for record in records if type(record) is VerifyReport):
        *rest, point_text = (getattr(report, name) for name in VerifyReport.__slots__)
        relabelled = VerifyReport(*rest, point_text=lambda point: "?")
        twin, twin_relabelled = record_twin(report), record_twin(relabelled)
        assert relabelled == report and hash(relabelled) == hash(report)
        assert (twin_relabelled == twin) is True and hash(twin_relabelled) == hash(twin)
        assert repr(relabelled) == repr(report) == plain_repr(twin) == plain_repr(twin_relabelled)
        assert "point_text" not in repr(report)
        assert relabelled.to_json()["samples"] == report.to_json()["samples"]


def test_verifier_records_agree_with_their_twins_on_repr(records):
    for value in records:
        assert repr(value) == plain_repr(record_twin(value))


def test_verifier_records_are_built_as_their_twins_build(records):
    made = 0
    for value in records:
        record = type(value)
        for args, kwargs in calls(value):
            ours = record_outcome(record, *args, **kwargs)
            assert ours == record_outcome(RECORD_TWINS[record], *args, **kwargs), (record, args, kwargs)
            made += ours[0] == "made"
    assert made > 100
    for record, twin in RECORD_TWINS.items():
        assert record_outcome(record) == record_outcome(twin)
        assert record_outcome(record, True) == record_outcome(twin, True)


def increment(x):
    return x + 1


PRESENTATION_CALLS = {
    "lists": (([("inc", increment)], [1, 2]), {}),
    "iterables": (({"inc": increment}.items(), range(1, 3)), {"max_depth": 2}),
    "no-generators": (((), [1]), {}),
    "duplicate-names": ((), {"generators": [("inc", increment), ("inc", abs)], "sample_points": [1]}),
    "no-samples": (([("inc", increment)], []), {}),
    "depth-0": (([("inc", increment)], [1]), {"max_depth": 0}),
    "depth-text": (([("inc", increment)], [1], "3"), {}),
    "depth-bool": (([("inc", increment)], [1], True), {}),
    "all-fields": (([("inc", increment)], [1], 4, "mine", hex), {}),
}


@pytest.mark.parametrize("args, kwargs", PRESENTATION_CALLS.values(), ids=PRESENTATION_CALLS)
def test_presentations_are_checked_and_stored_as_by_their_twin(args, kwargs):
    ours = record_outcome(Presentation, *args, **kwargs)
    if ours[0] == "made":
        # the twin of a made value holds its fields as they are: lists stay lists
        assert type(ours[1].generators) is tuple and type(ours[1].sample_points) is tuple
    assert ours == record_outcome(VerifierTwins.Presentation, *args, **kwargs)


def test_assignment_and_deletion_of_verifier_records_are_refused_as_by_their_twins(records):
    for value in records:
        twin, before = record_twin(value), tuple(getattr(value, name) for name in type(value).__slots__)
        for name in (*type(value).__slots__, "bogus"):
            for refuse in (lambda v: setattr(v, name, None), lambda v: delattr(v, name)):
                errors = []
                for target in (value, twin):
                    try:
                        refuse(target)
                    except AttributeError as error:
                        errors.append(str(error))
                assert len(errors) == 2 and errors[0] == errors[1], errors
        assert tuple(getattr(value, name) for name in type(value).__slots__) == before


def test_dataclasses_replace_copies_a_presentation_through_its_init():
    presentation = preset("dyadic-steps", 2)
    generators = [(name, action) for name, action in reversed(presentation.generators)]
    copied = dataclasses.replace(presentation, generators=generators)
    assert type(copied) is Presentation and type(copied.generators) is tuple
    assert copied.generators == tuple(generators) and copied.names == presentation.names[::-1]
    for name in ("sample_points", "max_depth", "label", "point_text"):
        assert getattr(copied, name) == getattr(presentation, name)
    assert dataclasses.replace(presentation) == presentation
    assert dataclasses.replace(presentation, max_depth=3).max_depth == 3
    with pytest.raises(DomainError, match="generator names must be distinct"):
        dataclasses.replace(presentation, generators=[*generators, generators[0]])
    with pytest.raises(DomainError):
        dataclasses.replace(presentation, max_depth=0)
