"""Monomial-map instance: frozen examples plus pointwise-evaluation oracles."""

import random
import time
from fractions import Fraction

import pytest

from pseudoquotients import (
    DomainError,
    PowerAffine,
    PowerAffineMap,
    Pseudoquotient,
    RootValue,
    UsageError,
)
from pseudoquotients.core import MAX_POWER_BITS

pa = PowerAffine()


def evaluate(f: PowerAffineMap, x: int) -> int:
    # independent of the instance's apply
    return f.multiplier * x**f.exponent


def test_compose_frozen_example():
    assert pa.compose(PowerAffineMap(2, 3), PowerAffineMap(5, 2)) == PowerAffineMap(250, 6)


def test_compose_matches_pointwise_evaluation(rng):
    for _ in range(200):
        f, g = pa.random_element(rng), pa.random_element(rng)
        fg = pa.compose(f, g)
        for x in range(1, 11):
            assert evaluate(fg, x) == evaluate(f, evaluate(g, x))


def test_compose_associative(rng):
    for _ in range(200):
        f, g, h = (pa.random_element(rng) for _ in range(3))
        assert pa.compose(f, pa.compose(g, h)) == pa.compose(pa.compose(f, g), h)


def test_apply_frozen_example():
    assert pa.apply(PowerAffineMap(3, 2), 2) == 12


def test_apply_injective_on_samples(rng):
    for _ in range(100):
        f = pa.random_element(rng)
        images = [pa.apply(f, x) for x in range(1, 20)]
        assert len(set(images)) == len(images)


def test_ore_frozen_example():
    f, g = PowerAffineMap(2, 3), PowerAffineMap(5, 2)
    w = pa.ore_complete(f, g)
    assert w.f_prime == PowerAffineMap(4, 3)
    assert w.g_prime == PowerAffineMap(125, 2)
    assert pa.compose(w.f_prime, g) == pa.compose(w.g_prime, f) == PowerAffineMap(500, 6)


def test_ore_symmetric_and_identity_cases():
    f = PowerAffineMap(3, 2)
    w = pa.ore_complete(f, f)
    assert w.f_prime == w.g_prime == PowerAffineMap(9, 2)
    e = PowerAffineMap(1, 1)
    w = pa.ore_complete(e, f)
    assert pa.witness_valid(e, f, w)


def test_ore_witness_valid_randomized(rng):
    for _ in range(300):
        f, g = pa.random_element(rng), pa.random_element(rng)
        assert pa.witness_valid(f, g, pa.ore_complete(f, g))


def test_right_cancellation_structural(rng):
    # f1 o g == f2 o g forces f1 == f2; checked contrapositively on random pairs
    for _ in range(200):
        f1, f2, g = (pa.random_element(rng) for _ in range(3))
        if f1 != f2:
            assert pa.compose(f1, g) != pa.compose(f2, g)


def test_canonical_frozen_examples():
    assert pa.canonical_value(Pseudoquotient(12, PowerAffineMap(3, 2))) == RootValue(4, 2)
    assert pa.canonical_value(Pseudoquotient(12, PowerAffineMap(3, 2))) == RootValue(2, 1)
    assert pa.canonical_value(Pseudoquotient(7, PowerAffineMap(1, 1))) == RootValue(7, 1)
    assert pa.canonical_value(Pseudoquotient(8, PowerAffineMap(1, 3))) == RootValue(2, 1)


def test_root_value_equality_constructed(rng):
    # equal values built by raising a reduced root to a power must compare equal
    for _ in range(200):
        num, den = rng.randint(1, 9), rng.randint(1, 9)
        index = rng.randint(1, 3)
        power = rng.randint(1, 3)
        base = Fraction(num, den)
        assert RootValue(base**power, index * power) == RootValue(base, index)
        assert hash(RootValue(base**power, index * power)) == hash(RootValue(base, index))


def test_root_value_inequality():
    assert RootValue(Fraction(2), 1) != RootValue(Fraction(3), 1)
    assert RootValue(Fraction(2), 2) != RootValue(Fraction(2), 3)
    assert RootValue(Fraction(4), 2) != RootValue(Fraction(4), 3)


def cross_power_equal(a: RootValue, b: RootValue) -> bool:
    """The defining rule ``q1**n2 == q2**n1``: the oracle for equality by reduced form."""
    return a.radicand**b.index == b.radicand**a.index


def test_equality_matches_the_cross_power_rule():
    rng = random.Random(5150)

    def draw() -> RootValue:
        other = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        radicand = rng.choice((Fraction(0), Fraction(1), other))
        return RootValue(radicand, rng.randint(1, 6))

    equal_pairs = 0
    for _ in range(3000):
        a = draw()
        if rng.random() < 0.5:  # an equal value in another representation, most of the time
            power = rng.randint(1, 4)
            b = RootValue(a.radicand**power, a.index * power)
        else:
            b = draw()
        assert (a == b) == (b == a) == cross_power_equal(a, b)
        if a == b:
            equal_pairs += 1
            assert hash(a) == hash(b)
    assert 1500 < equal_pairs < 3000


def test_equality_of_huge_indices_is_fast():
    # the cross-power rule would raise 2 to the power 10^9 + 1
    start = time.perf_counter()
    assert RootValue(2, 10**9) != RootValue(3, 10**9 + 1)
    assert RootValue(4, 2 * 10**9) == RootValue(2, 10**9)
    assert RootValue(0, 10**9) == RootValue(0, 7) != RootValue(1, 10**9)
    assert time.perf_counter() - start < 1.0


def test_root_value_reduced_is_minimal():
    assert RootValue(Fraction(4), 2).reduced() == RootValue(Fraction(2), 1)
    assert RootValue(Fraction(4), 2).reduced().index == 1
    assert RootValue(Fraction(8, 27), 3).reduced() == RootValue(Fraction(2, 3), 1)
    assert RootValue(Fraction(4, 9), 6).reduced() == RootValue(Fraction(2, 3), 3)
    assert RootValue(Fraction(12), 2).reduced().index == 2  # sqrt(12) is irrational
    assert RootValue(Fraction(1), 5).reduced() == RootValue(Fraction(1), 1)


def exact_root_by_bisection(value: int, degree: int):
    """Reference integer root: bisection with no shortcut, or None."""
    if value in (0, 1) or degree == 1:
        return value
    lo, hi = 0, 1
    while hi**degree < value:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**degree < value:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**degree == value else None


def reduced_by_full_scan(value: RootValue) -> RootValue:
    """Reference reduction: try every degree d <= index that divides it, largest first."""
    if value.index == 1:
        return value
    num, den = value.radicand.numerator, value.radicand.denominator
    for d in range(value.index, 1, -1):
        if value.index % d:
            continue
        root_num = exact_root_by_bisection(num, d)
        root_den = exact_root_by_bisection(den, d)
        if root_num is not None and root_den is not None:
            return RootValue(Fraction(root_num, root_den), value.index // d)
    return value


def test_reduced_matches_the_full_scan():
    rng = random.Random(20260)
    for _ in range(3000):
        k = rng.randint(1, 12)
        radicand = Fraction(rng.randint(0, 40) ** k, rng.randint(1, 40) ** rng.choice((k, 1)))
        value = RootValue(radicand, k * rng.randint(1, 12))
        fast, reference = value.reduced(), reduced_by_full_scan(value)
        assert (fast.radicand, fast.index) == (reference.radicand, reference.index)


def test_reduced_is_fast_for_a_huge_index():
    # the full scan tried all 10^8 candidate degrees (seconds); only degrees
    # below the radicand's bit length can have a root
    value = pa.canonical_value(Pseudoquotient(12, PowerAffineMap(3, 10**8)))
    start = time.perf_counter()
    low = value.reduced()
    assert time.perf_counter() - start < 1.0
    assert (low.radicand, low.index) == (Fraction(2), 5 * 10**7)
    assert pa.canonical_json(value) == {
        "radicand": "4",
        "index": 10**8,
        "reduced": {"radicand": "2", "index": 5 * 10**7},
    }


def test_reduced_is_fast_for_an_index_of_twenty_one_digits():
    # trial division up to isqrt(10^20) did not finish within 10 s
    value = pa.canonical_value(Pseudoquotient(12, PowerAffineMap(3, 10**20)))
    start = time.perf_counter()
    low = value.reduced()
    assert time.perf_counter() - start < 1.0
    assert (low.radicand, low.index) == (Fraction(2), 5 * 10**19)


def test_powers_beyond_the_size_limit_are_refused():
    # 2^(2^20) has 2^20 + 1 bits and is computed; the lower-bound size
    # test refuses only powers that certainly exceed the limit
    assert pa.apply(PowerAffineMap(1, MAX_POWER_BITS), 2) == 2**MAX_POWER_BITS
    huge = PowerAffineMap(3, 10**12)
    with pytest.raises(DomainError):
        pa.apply(huge, 2)
    with pytest.raises(DomainError):
        pa.compose(huge, PowerAffineMap(2, 1))
    with pytest.raises(DomainError):
        pa.ore_complete(PowerAffineMap(2, 1), huge)
    # a base of 1 stays small under any exponent
    assert pa.apply(huge, 1) == 3
    assert pa.compose(huge, PowerAffineMap(1, 5)) == PowerAffineMap(3, 5 * 10**12)


def test_extend_apply_frozen_example():
    # doubling the class sqrt(12/3) = 2 gives the class with value 4
    doubling = PowerAffineMap(2, 1)
    p = Pseudoquotient(12, PowerAffineMap(3, 2))
    out = pa.extend_apply(doubling, p)
    assert pa.canonical_value(out) == RootValue(4, 1)


def test_extend_inverse_frozen_example():
    # undoing x -> 2x on the embedded 4 lands on the class of 2
    g = PowerAffineMap(2, 1)
    p = Pseudoquotient(4, PowerAffineMap(1, 1))
    out = pa.extend_inverse_apply(g, p)
    assert out == Pseudoquotient(4, PowerAffineMap(2, 1))
    assert pa.canonical_value(out) == RootValue(2, 1)


def test_domain_validation():
    with pytest.raises(DomainError):
        PowerAffineMap(0, 1)
    with pytest.raises(DomainError):
        PowerAffineMap(2, 0)
    with pytest.raises(UsageError):
        pa.apply(PowerAffineMap(2, 1), 0)
    with pytest.raises(UsageError):
        pa.apply(PowerAffineMap(2, 1), "3")


def test_mixed_instance_rejected():
    from pseudoquotients import DyadicStepMap

    with pytest.raises(UsageError):
        pa.compose(PowerAffineMap(2, 1), DyadicStepMap(1, 0))
