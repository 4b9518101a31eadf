"""Shift/refine instance: letter-by-letter oracles against the normal forms."""

import math
from fractions import Fraction

import pytest

from pseudoquotients import (
    DomainError,
    DyadicStepMap,
    DyadicSteps,
    DyadicStepValue,
    Pseudoquotient,
    StepFunction,
)
from pseudoquotients.instances import dyadic_steps

dy = DyadicSteps()


# letter-by-letter oracle, straight from the definitions
def shift_once(coeffs):
    return (Fraction(0),) + tuple(coeffs)


def refine_once(coeffs):
    return tuple(c / 2 for c in coeffs for _ in range(2))


def apply_word(word, coeffs):
    """Apply a word such as 'ttd' (leftmost letter acts last)."""
    for letter in reversed(word):
        coeffs = shift_once(coeffs) if letter == "t" else refine_once(coeffs)
    return StepFunction(coeffs)


def word_of(element: DyadicStepMap) -> str:
    return "t" * element.shift + "d" * element.halvings


def test_apply_frozen_refine_example():
    assert dy.apply(DyadicStepMap(0, 1), StepFunction((3,))) == StepFunction(
        (Fraction(3, 2), Fraction(3, 2))
    )


def test_apply_matches_letter_oracle(rng):
    for _ in range(300):
        f = dy.random_element(rng)
        x = dy.random_point(rng)
        assert dy.apply(f, x) == apply_word(word_of(f), x.coefficients)


def test_compose_frozen_relation():
    # refine then shift once equals shifting twice then refining
    assert dy.compose(DyadicStepMap(0, 1), DyadicStepMap(1, 0)) == DyadicStepMap(2, 1)


def test_compose_matches_concatenated_words(rng):
    for _ in range(200):
        f, g = dy.random_element(rng), dy.random_element(rng)
        fg = dy.compose(f, g)
        x = dy.random_point(rng)
        assert dy.apply(fg, x) == apply_word(word_of(f) + word_of(g), x.coefficients)


def test_compose_associative(rng):
    for _ in range(200):
        f, g, h = (dy.random_element(rng) for _ in range(3))
        assert dy.compose(f, dy.compose(g, h)) == dy.compose(dy.compose(f, g), h)


def test_generators_injective(rng):
    seen_t, seen_d = {}, {}
    for _ in range(200):
        x = dy.random_point(rng)
        for table, f in ((seen_t, DyadicStepMap(1, 0)), (seen_d, DyadicStepMap(0, 1))):
            image = dy.apply(f, x)
            assert table.setdefault(image, x) == x
    assert len(seen_t) > 1 and len(seen_d) > 1


def test_ore_equal_refine_powers():
    f, g = DyadicStepMap(2, 1), DyadicStepMap(5, 1)
    w = dy.ore_complete(f, g)
    assert (w.f_prime, w.g_prime) == (DyadicStepMap(2, 0), DyadicStepMap(5, 0))
    assert dy.compose(w.f_prime, g) == dy.compose(w.g_prime, f) == DyadicStepMap(7, 1)


def test_ore_frozen_unequal_example():
    f, g = DyadicStepMap(1, 2), DyadicStepMap(3, 0)
    w = dy.ore_complete(f, g)
    assert (w.f_prime, w.g_prime) == (DyadicStepMap(0, 2), DyadicStepMap(11, 0))
    assert dy.compose(w.f_prime, g) == dy.compose(w.g_prime, f) == DyadicStepMap(12, 2)


def test_ore_equal_maps():
    f = DyadicStepMap(3, 1)
    w = dy.ore_complete(f, f)
    assert w.f_prime == w.g_prime == DyadicStepMap(3, 0)


def test_ore_witness_valid_randomized(rng):
    for _ in range(500):
        f = DyadicStepMap(rng.randint(0, 6), rng.randint(0, 4))
        g = DyadicStepMap(rng.randint(0, 6), rng.randint(0, 4))
        assert dy.witness_valid(f, g, dy.ore_complete(f, g))


def test_canonical_frozen_examples():
    assert dy.canonical_value(
        Pseudoquotient(StepFunction((3, 1)), DyadicStepMap(0, 0))
    ) == DyadicStepValue(0, 0, (Fraction(3), Fraction(1)))
    assert dy.canonical_value(
        Pseudoquotient(StepFunction((3,)), DyadicStepMap(0, 1))
    ) == DyadicStepValue(1, 0, (Fraction(6),))
    assert dy.canonical_value(
        Pseudoquotient(StepFunction((1,)), DyadicStepMap(2, 0))
    ) == DyadicStepValue(0, -2, (Fraction(1),))


def test_step_value_normalization():
    assert DyadicStepValue(1, 0, (Fraction(6), Fraction(6))) == DyadicStepValue(0, 0, (Fraction(6),))
    assert DyadicStepValue(2, 4, (Fraction(1), Fraction(1), Fraction(1), Fraction(1))) == DyadicStepValue(0, 1, (Fraction(1),))
    assert DyadicStepValue(1, 1, (Fraction(2), Fraction(2))) == DyadicStepValue(1, 1, (Fraction(2), Fraction(2)))  # odd start cannot coarsen
    assert DyadicStepValue(3, 0, ()) == DyadicStepValue(0, 0, ())
    assert DyadicStepValue(0, 5, (Fraction(0), Fraction(2), Fraction(0))) == DyadicStepValue(0, 6, (Fraction(2),))


def test_canonical_refines_on_common_grid(rng):
    # equal classes must produce structurally equal normalized values
    for _ in range(200):
        x = dy.random_point(rng)
        f = dy.random_element(rng)
        g = dy.random_element(rng)
        p = Pseudoquotient(x, f)
        q = dy.pq_left_multiply(p, g)
        assert dy.canonical_value(p) == dy.canonical_value(q)


def test_integral_and_norm_frozen_examples():
    p = Pseudoquotient(StepFunction((3, 1)), DyadicStepMap(2, 3))
    assert dy.integral(p) == 4
    assert dy.integral(Pseudoquotient(StepFunction(()), DyadicStepMap(1, 1))) == 0
    assert dy.l1_norm(Pseudoquotient(StepFunction(()), DyadicStepMap(1, 1))) == 0
    assert dy.l1_norm(Pseudoquotient(StepFunction((-2, 1)), DyadicStepMap(3, 2))) == 3


def test_integral_and_norm_invariance(rng):
    for _ in range(200):
        p = dy.random_pseudoquotient(rng)
        value = dy.canonical_value(p)
        assert dy.integral(p) == value.integral() == p.numerator.integral()
        assert dy.l1_norm(p) == value.l1_norm() == p.numerator.l1_norm()


def test_trailing_zeros_trimmed():
    assert StepFunction((1, 0, 0)) == StepFunction((1,))
    assert StepFunction((0, 0)) == StepFunction(())


def test_negative_exponents_rejected():
    with pytest.raises(DomainError):
        DyadicStepMap(-1, 0)
    with pytest.raises(DomainError):
        DyadicStepMap(0, -2)


def test_apply_refuses_images_over_the_cell_limit(monkeypatch):
    assert dyadic_steps.MAX_CELLS == 1 << 22
    monkeypatch.setattr(dyadic_steps, "MAX_CELLS", 8)
    two = StepFunction((Fraction(1), Fraction(2)))
    assert len(dy.apply(DyadicStepMap(0, 2), two).coefficients) == 8
    assert len(dy.apply(DyadicStepMap(6, 0), two).coefficients) == 8
    for f in (DyadicStepMap(1, 2), DyadicStepMap(7, 0), DyadicStepMap(0, 3)):
        with pytest.raises(DomainError, match="^the image would have over 8 cells$"):
            dy.apply(f, two)


def test_zero_function_stays_zero_under_any_map():
    zero = StepFunction(())
    # no cell is built, so neither exponent is limited here
    assert dy.apply(DyadicStepMap(10**12, 10**12), zero) == zero


def test_powers_of_two_beyond_the_size_limit_are_domain_errors():
    huge = DyadicStepMap(0, 10**10)
    one = StepFunction((Fraction(1),))
    for call in (
        lambda: dy.compose(huge, DyadicStepMap(1, 0)),
        lambda: dy.apply(huge, one),
        lambda: dy.ore_complete(huge, DyadicStepMap(1, 0)),
        lambda: dy.ore_complete(DyadicStepMap(1, 0), huge),
        lambda: dy.canonical_value(Pseudoquotient(one, huge)),
    ):
        with pytest.raises(DomainError, match="has over 1048576 bits"):
            call()


def test_apply_halves_each_coefficient_once():
    out = dy.apply(DyadicStepMap(1, 3), StepFunction((Fraction(1), Fraction(3))))
    assert out.coefficients == (0,) + (Fraction(1, 8),) * 8 + (Fraction(3, 8),) * 8
    # integers over one denominator, in lowest terms
    assert (out.numerators, out.denominator) == ((0,) + (1,) * 8 + (3,) * 8, 8)
    # a power of two shared by every numerator cancels against the refinement
    out = dy.apply(DyadicStepMap(0, 2), StepFunction((2, Fraction(4, 3))))
    assert out.coefficients == (Fraction(1, 2),) * 4 + (Fraction(1, 3),) * 4
    assert (out.numerators, out.denominator) == ((3,) * 4 + (2,) * 4, 6)


def test_given_fractions_are_kept_and_other_numbers_converted():
    half = Fraction(1, 2)
    assert StepFunction((half, 3)).coefficients == (half, Fraction(3))
    assert all(type(c) is Fraction for c in StepFunction((half, 3)).coefficients)
    assert (StepFunction((half, 3)).numerators, StepFunction((half, 3)).denominator) == ((1, 6), 2)
    assert (StepFunction(()).numerators, StepFunction(()).denominator) == ((), 1)
    assert DyadicStepValue(1, 0, (half,)).values[0] is half
    assert type(DyadicStepValue(0, 0, (3,)).values[0]) is Fraction


def test_points_are_integers_over_one_denominator_in_lowest_terms(rng):
    for _ in range(300):
        f, x = dy.random_element(rng), dy.random_point(rng)
        for point in (x, dy.apply(f, x)):
            assert point.denominator > 0
            assert math.gcd(point.denominator, *point.numerators) == 1
            assert not point.numerators or point.numerators[-1] != 0
            # equal functions have equal fields, whichever way they were built
            rebuilt = StepFunction(point.coefficients)
            assert rebuilt.numerators == point.numerators
            assert rebuilt.denominator == point.denominator
            assert hash(rebuilt) == hash(point)
