"""Per-instance input generation, text rendering and oracle glue.

A kit draws small random elements and points as plain parameters (never
through the package's own samplers, so a change to the package cannot
change the inputs), turns them into the package's values or into CLI
text, and checks program outputs against :mod:`oracle`.
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracle

DS_POOL = (
    Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0),
    Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3),
)


class Kit:
    """One built-in action as seen from outside: parameters, text and oracle."""

    key = ""  # short layer name used in metric names
    name = ""  # the CLI instance name

    def __init__(self, api, dim: int = 1):
        self.api = api
        self.dim = dim

    # subclasses: draw_element (``size`` fixes the exponent that drives the
    # cost, where the action has one), draw_point, element, point, element_text,
    # point_text, left_multiply, value, act, act_inv, pq_matches,
    # canonical_matches, make_instance

    def pq_text(self, x, f) -> str:
        return f"pq({self.point_text(x)}; {self.element_text(f)})"

    def frac_text(self, den, num) -> str:
        return f"frac({self.element_text(den)}, {self.element_text(num)})"

    def apply_frac(self, value, den, num):
        """The oracle image of a class under ``den^-1 o num``."""
        return self.act_inv(self.act(value, num), den)


class PowerAffineKit(Kit):
    key, name = "pa", "power-affine"

    def make_instance(self):
        return self.api.PowerAffine()

    def draw_element(self, rng: random.Random, size=None):
        return rng.randint(1, 4), size or rng.randint(1, 3)

    def draw_point(self, rng: random.Random):
        return rng.randint(1, 30)

    def element(self, f):
        return self.api.PowerAffineMap(*f)

    def point(self, x):
        return x

    def element_text(self, f) -> str:
        return f"{f[0]}*x^{f[1]}"

    def point_text(self, x) -> str:
        return str(x)

    def left_multiply(self, x, f, g):
        (a, b), (m, n) = g, f
        return a * x**b, (a * m**b, b * n)

    def value(self, x, f):
        return oracle.pa_class(x, *f)

    def act(self, value, f):
        return oracle.pa_act(value, *f)

    def act_inv(self, value, f):
        return oracle.pa_act_inv(value, *f)

    def pq_matches(self, pq, value) -> bool:
        f = pq.denominator
        return oracle.pa_matches(pq.numerator, f.multiplier, f.exponent, value)

    def canonical_matches(self, canonical: dict, value) -> bool:
        radicand = Fraction(canonical["radicand"])
        low = canonical["reduced"]
        low_radicand = Fraction(low["radicand"])
        return (
            oracle.pa_matches(radicand.numerator, radicand.denominator, canonical["index"], value)
            and low["index"] == oracle.pa_reduced_index(value)
            and oracle.pa_matches(low_radicand.numerator, low_radicand.denominator, low["index"], value)
        )


class AffineLatticeKit(Kit):
    key, name = "al", "affine-lattice"

    def make_instance(self):
        return self.api.AffineLattice(self.dim)

    def draw_element(self, rng: random.Random, size=None):
        while True:
            matrix = tuple(
                tuple(rng.randint(-5, 5) for _ in range(self.dim)) for _ in range(self.dim)
            )
            if not oracle.is_singular(matrix):
                return matrix, tuple(rng.randint(-5, 5) for _ in range(self.dim))

    def draw_point(self, rng: random.Random):
        return tuple(rng.randint(-9, 9) for _ in range(self.dim))

    def element(self, f):
        return self.api.AffineLatticeMap(*f)

    def point(self, x):
        return x

    def element_text(self, f) -> str:
        rows = ",".join("[" + ",".join(map(str, row)) + "]" for row in f[0])
        return f"aff([{rows}],[{','.join(map(str, f[1]))}])"

    def point_text(self, x) -> str:
        return "[" + ",".join(map(str, x)) + "]"

    def left_multiply(self, x, f, g):
        (a, c), (m, b) = g, f

        def mv(mat, v):
            return tuple(sum(r * e for r, e in zip(row, v)) for row in mat)

        product = tuple(
            tuple(sum(a[i][k] * m[k][j] for k in range(self.dim)) for j in range(self.dim))
            for i in range(self.dim)
        )
        shifted = tuple(u + w for u, w in zip(mv(a, b), c))
        return tuple(u + w for u, w in zip(mv(a, x), c)), (product, shifted)

    def value(self, x, f):
        return oracle.al_class(x, *f)

    def act(self, value, f):
        return oracle.al_act(value, *f)

    def act_inv(self, value, f):
        return oracle.al_act_inv(value, *f)

    def pq_matches(self, pq, value) -> bool:
        f = pq.denominator
        return oracle.al_class(pq.numerator, f.matrix, f.offset) == value

    def canonical_matches(self, canonical: dict, value) -> bool:
        return tuple(Fraction(c) for c in canonical["vector"]) == value


class DyadicStepsKit(Kit):
    key, name = "ds", "dyadic-steps"

    def make_instance(self):
        return self.api.DyadicSteps()

    def draw_element(self, rng: random.Random, size=None):
        return rng.randint(0, 3), rng.randint(0, 2) if size is None else size

    def draw_point(self, rng: random.Random):
        return tuple(rng.choice(DS_POOL) for _ in range(rng.randint(1, 3)))

    def element(self, f):
        return self.api.DyadicStepMap(*f)

    def point(self, x):
        return self.api.StepFunction(x)

    def element_text(self, f) -> str:
        return f"t^{f[0]} d^{f[1]}"

    def point_text(self, x) -> str:
        return "[" + ",".join(map(str, x)) + "]"

    def left_multiply(self, x, f, g):
        (a, b), (m, n) = g, f
        blow = 2**b
        refined = tuple(c / blow for c in x for _ in range(blow))
        return (Fraction(0),) * a + refined, (a + blow * m, b + n)

    def value(self, x, f):
        return oracle.ds_class(x, *f)

    def act(self, value, f):
        return oracle.ds_act(value, *f)

    def act_inv(self, value, f):
        return oracle.ds_act_inv(value, *f)

    def pq_matches(self, pq, value) -> bool:
        f = pq.denominator
        return oracle.ds_class(pq.numerator.coefficients, f.shift, f.halvings) == value

    def canonical_matches(self, canonical: dict, value) -> bool:
        got = oracle.ds_from_canonical(canonical["scale"], canonical["start"], canonical["values"])
        return got == value


class TowerKit(Kit):
    key, name = "tw", "tower"

    def make_instance(self):
        return self.api.Tower()

    def draw_element(self, rng: random.Random, size=None):
        levels = sorted(rng.sample(range(1, 4), rng.randint(0, 2)))
        return tuple((level, rng.randint(1, 2)) for level in levels), rng.randint(0, 2)

    def draw_point(self, rng: random.Random):
        return rng.randint(1, 7), rng.randint(-8, 8)

    def element(self, f):
        return self.api.TowerMap(*f)

    def point(self, x):
        return self.api.TowerPoint(*x)

    def element_text(self, f) -> str:
        return " ".join([f"P{level}^{k}" for level, k in f[0]] + [f"F^{f[1]}"])

    def point_text(self, x) -> str:
        return f"({x[0]}, {x[1]})"

    def left_multiply(self, x, f, g):
        (g_powers, s), (f_powers, shift) = g, f
        level, payload = x[0] + s, x[1] + s
        for _ in range(dict(g_powers).get(level, 0)):
            payload = 2 * payload - level
        merged = dict(g_powers)
        for lvl, k in f_powers:
            merged[lvl + s] = merged.get(lvl + s, 0) + k
        return (level, payload), (tuple(sorted(merged.items())), s + shift)

    def value(self, x, f):
        return oracle.tw_class(x[0], x[1], dict(f[0]), f[1])

    def act(self, value, f):
        return oracle.tw_act(value, dict(f[0]), f[1])

    def act_inv(self, value, f):
        return oracle.tw_act_inv(value, dict(f[0]), f[1])

    def pq_matches(self, pq, value) -> bool:
        f, x = pq.denominator, pq.numerator
        return oracle.tw_class(x.level, x.payload, dict(f.level_powers), f.shift) == value

    def canonical_matches(self, canonical: dict, value) -> bool:
        level = canonical["level"]
        return (level, Fraction(canonical["payload"]) - level) == value


KITS = (PowerAffineKit, AffineLatticeKit, DyadicStepsKit, TowerKit)
