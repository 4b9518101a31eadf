"""The paper's commutative case as a test-only instance: the integers under ``x -> kx``.

``ScaledIntegers`` acts on ℤ by the positive integers ``k``, each as
multiplication.  It defines the hooks of :class:`core.Instance` and no
closed form, so every derived method -- equivalence, the embedding, the
extensions and the fraction group -- takes the generic Ore route.  Its
pseudoquotient space is ℚ: the class ``x/k`` is the rational ``x/k``, and
the fraction ``den⁻¹∘num`` of ``(k, j)`` acts as multiplication by
``j/k``.  ``tests/conftest.py`` adds it to the instances of the
parametrised calculus suite; it has no CLI name, and no test of that
suite needs one.
"""

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from pseudoquotients import (
    DomainError,
    GroupFraction,
    Instance,
    OreWitness,
    Pseudoquotient,
    verify,
)
from pseudoquotients.core import Preset, require_int
from pseudoquotients.syntax import parse_int
from pseudoquotients.verifier import Presentation


@dataclass(frozen=True, slots=True)
class Scale:
    """Multiplication by a positive integer ``k``."""

    k: int

    def __post_init__(self):
        require_int(self.k, "scale", 1)


class ScaledIntegers(Instance):
    """ℤ under ``x -> kx`` for ``k >= 1``: the hooks only."""

    name = "scaled-integers"
    element_type = Scale
    point_type = int

    def compose(self, f, g):
        return Scale(self._check_element(f).k * self._check_element(g).k)

    def action(self, f):
        k = self._check_element(f).k
        return lambda x: k * x

    def ore_complete(self, f, g):
        common = math.lcm(self._check_element(f).k, self._check_element(g).k)
        return OreWitness(Scale(common // g.k), Scale(common // f.k))

    def canonical_value(self, p):
        return Fraction(self._check_point(p.numerator), self._check_element(p.denominator).k)

    @property
    def designated_element(self):
        return Scale(1)

    def random_element(self, rng):
        return Scale(rng.randint(1, 12))

    def random_point(self, rng):
        return rng.randint(-60, 60)

    def parse_element(self, text, offset=0):
        return Scale(parse_int(text, offset))

    def element_text(self, f):
        return str(self._check_element(f).k)

    def parse_point(self, text, offset=0):
        return parse_int(text, offset)

    def point_text(self, x):
        return str(self._check_point(x))

    def canonical_json(self, value):
        return {"rational": str(value)}

    @classmethod
    def presets(cls):
        generators = (("double", Scale(2)), ("triple", Scale(3)), ("sextuple", Scale(6)))
        return {"scaled-integers": Preset(cls(), generators, samples=(-2, 0, 1, 5), depth=4)}


Z = ScaledIntegers()
DERIVED = (
    "pq_equivalent", "pq_left_multiply", "embed", "extend_apply", "extend_inverse_apply",
    "solve", "frac_from_element", "frac_identity", "frac_apply", "frac_compose", "frac_equal",
)


def pq(x, k):
    return Pseudoquotient(x, Scale(k))


def frac(k, j):
    """The fraction ``Scale(k)⁻¹∘Scale(j)``."""
    return GroupFraction(Scale(k), Scale(j))


def test_every_derived_method_is_the_generic_one():
    for name in DERIVED:
        assert getattr(ScaledIntegers, name) is getattr(Instance, name), name


def test_classes_are_the_rationals():
    classes = [pq(x, k) for x in range(-6, 7) for k in range(1, 7)]
    for p in classes:
        assert Z.canonical_value(p) == Fraction(p.numerator, p.denominator.k)
    for p, q in itertools.product(classes, repeat=2):
        assert Z.pq_equivalent(p, q) is (Z.canonical_value(p) == Z.canonical_value(q))


def test_the_embedding_is_x_over_1():
    for x in range(-20, 21):
        assert Z.canonical_value(Z.embed(x)) == Fraction(x, 1)
        assert Z.pq_equivalent(Z.embed(x), pq(x, 1))
        assert Z.pq_equivalent(Z.embed(x), pq(7 * x, 7))


def test_elements_extend_to_multiplication_by_k_and_its_inverse():
    rng = random.Random(9)
    for _ in range(200):
        x, k, g = rng.randint(-50, 50), rng.randint(1, 12), rng.randint(1, 12)
        value = Fraction(x, k)
        assert Z.canonical_value(Z.extend_apply(Scale(g), pq(x, k))) == value * g
        assert Z.canonical_value(Z.extend_inverse_apply(Scale(g), pq(x, k))) == value / g
        assert Z.canonical_value(Z.solve(Scale(g), x)) == Fraction(x, g)


def test_fractions_are_the_positive_rationals_acting_by_multiplication():
    rng = random.Random(10)
    for _ in range(200):
        x, d = rng.randint(-50, 50), rng.randint(1, 12)
        (k1, j1), (k2, j2) = [(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(2)]
        first, second = frac(k1, j1), frac(k2, j2)
        # frac(k, j) acts as ·j/k
        assert Z.canonical_value(Z.frac_apply(first, pq(x, d))) == Fraction(x, d) * j1 / k1
        composed = Z.frac_compose(first, second)
        assert Fraction(composed.num.k, composed.den.k) == Fraction(j1, k1) * Fraction(j2, k2)
        assert Z.frac_equal(first, second) is (Fraction(j1, k1) == Fraction(j2, k2))
        scaled = frac(k1 * d, j1 * d)
        assert Z.frac_equal(first, scaled) and Z.frac_equal(scaled, first)


def test_text_hooks_round_trip():
    for k in (1, 2, 35, 10**30):
        assert Z.parse_element(Z.element_text(Scale(k))) == Scale(k)
    for x in (-7, 0, 12):
        assert Z.parse_point(Z.point_text(x)) == x
    assert Z.canonical_json(Z.canonical_value(pq(-6, 4))) == {"rational": "-3/2"}
    with pytest.raises(DomainError, match="scale must be >= 1, got 0"):
        Z.parse_element("0")


def test_the_verifier_passes_its_preset():
    spec = ScaledIntegers.presets()["scaled-integers"]
    report = verify(
        Presentation(
            generators=tuple((name, spec.instance.action(g)) for name, g in spec.generators),
            sample_points=spec.samples,
            max_depth=spec.depth,
            label="scaled-integers",
            point_text=spec.instance.point_text,
        )
    ).to_json()
    assert report["injectivity"]["status"] == "pass"
    assert report["cancellation"]["status"] == "pass"
    assert len(report["ore"]) == 3 and all("f_prime" in entry for entry in report["ore"])
    assert report["validated"] is True
