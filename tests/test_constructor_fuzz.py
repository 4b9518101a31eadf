"""Seeded fuzzing of the public constructors and factories with bad values.

Every public value type, ``AffineLattice``, ``Tower.from_rules`` and
``create_instance`` is called with each value, or each ordered pair of
values, of one pool: ``None``, strings, floats (``nan`` and ``inf``
too), bools, empty and nested containers, ``Fraction``, 0, -1, an int of
5,000 digits, ``object()`` and a few seeded random nests of those.  An
``AffineLattice`` of each dimension in the pool also applies a 1-D map
and takes the value of a 1-D class.  A call may build a value; if it
raises, the error is a ``DomainError`` or a ``UsageError``, never another
exception of Python's own.
"""

import random
from fractions import Fraction

import pytest

from pseudoquotients import (
    AffineLattice,
    AffineLatticeMap,
    DomainError,
    DyadicStepMap,
    PowerAffineMap,
    Pseudoquotient,
    RootValue,
    StepFunction,
    Tower,
    TowerConfig,
    TowerMap,
    TowerPoint,
    TowerValue,
    UsageError,
    create_instance,
)
from pseudoquotients.core import value_text

ATOMS = [
    None, "", "1", "x", "tower", b"1", 1.5, -0.0, float("nan"), float("inf"), float("-inf"),
    True, False, 0, -1, 10**4999, Fraction(1, 2), Fraction(-3), 1j, object(),
]
CONTAINERS = [(), [], {}, set(), ((),), [[]], ((1, 2),), [[1], [2, 3]], {"dim": 1}, {"squeeze_mul": -1}]


def _nest(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(ATOMS)
    entries = [_nest(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    return rng.choice([tuple, list])(entries)


_rng = random.Random(34)
POOL = ATOMS + CONTAINERS + [_nest(_rng, 3) for _ in range(11)]

_ONE_D = AffineLatticeMap(((1,),), (0,))
# each takes one pool value where its arguments are
UNARY = {
    "StepFunction": StepFunction,
    "AffineLattice": AffineLattice,
    "AffineLattice apply": lambda a: AffineLattice(a).apply(_ONE_D, (1,)),
    "AffineLattice canonical_value": lambda a: AffineLattice(a).canonical_value(Pseudoquotient((1,), _ONE_D)),
    "Tower.from_rules": Tower.from_rules,
    "create_instance": create_instance,
    "create_instance dim": lambda a: create_instance("affine-lattice", dim=a),
}
# each takes an ordered pair of pool values
BINARY = {
    "PowerAffineMap": PowerAffineMap,
    "AffineLatticeMap": AffineLatticeMap,
    "AffineLatticeMap entries": lambda a, b: AffineLatticeMap(((a, b), (b, a)), (a, b)),
    "DyadicStepMap": DyadicStepMap,
    "StepFunction coefficients": lambda a, b: StepFunction((a, b)),
    "TowerPoint": TowerPoint,
    "TowerMap": TowerMap,
    "TowerMap level power": lambda a, b: TowerMap(((a, b),), 0),
    "TowerConfig": TowerConfig,
    "TowerValue": TowerValue,
    "RootValue": RootValue,
    "Tower.from_rules rules": lambda a, b: Tower.from_rules({"squeeze_mul": a, "squeeze_level_coeff": b}),
    "create_instance name and dim": lambda a, b: create_instance(a, dim=b),
}


def escapes(build, args):
    """``[]``, or what ``build(*args)`` raised if that is not a ``DomainError`` or ``UsageError``."""
    try:
        build(*args)
    except (DomainError, UsageError):
        pass
    except Exception as error:  # anything else is a finding
        return [f"{', '.join(map(value_text, args))}: {type(error).__name__}: {error}"]
    return []


@pytest.mark.parametrize("name", sorted(UNARY))
def test_one_bad_value_raises_a_library_error(name):
    assert [bad for a in POOL for bad in escapes(UNARY[name], (a,))] == []


@pytest.mark.parametrize("name", sorted(BINARY))
def test_a_pair_of_bad_values_raises_a_library_error(name):
    assert [bad for a in POOL for b in POOL for bad in escapes(BINARY[name], (a, b))] == []
