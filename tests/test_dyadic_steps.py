"""Shift/refine instance: letter-by-letter oracles against the normal forms."""

import math
from fractions import Fraction

import pytest

from pseudoquotients import (
    DomainError,
    DyadicStepMap,
    DyadicSteps,
    Pseudoquotient,
    StepFunction,
    UsageError,
)
from pseudoquotients.instances import dyadic_steps

dy = DyadicSteps()
LETTERS = {"t": DyadicStepMap(1, 0), "d": DyadicStepMap(0, 1)}


# letter-by-letter oracle, straight from the definitions
def shift_once(coeffs):
    return (Fraction(0),) + tuple(coeffs)


def refine_once(coeffs):
    return tuple(c / 2 for c in coeffs for _ in range(2))


def word_coefficients(word, coeffs):
    """Apply a word such as 'ttd' (leftmost letter acts last) to unit-cell coefficients."""
    for letter in reversed(word):
        coeffs = shift_once(coeffs) if letter == "t" else refine_once(coeffs)
    return tuple(coeffs)


def apply_word(word, coeffs):
    return StepFunction(word_coefficients(word, coeffs))


def word_of(element: DyadicStepMap) -> str:
    return "t" * element.shift + "d" * element.halvings


def element_of(word: str) -> DyadicStepMap:
    element = DyadicStepMap()
    for letter in word:
        element = dy.compose(element, LETTERS[letter])
    return element


def fields(value: StepFunction) -> tuple:
    return value.width, value.offset, value.numerators, value.denominator


# unit/dyadic-grid reference for class values: values on the grid 2^-scale
# from cell ``start``, trimmed at both ends and coarsened while the start is
# even and adjacent cells pair up
def reference(scale, start, values):
    values = list(values)
    while values and values[-1] == 0:
        values.pop()
    while values and values[0] == 0:
        values.pop(0)
        start += 1
    while scale > 0 and values and start % 2 == 0 and len(values) % 2 == 0 and (
        values[::2] == values[1::2]
    ):
        values = values[::2]
        start //= 2
        scale -= 1
    if not values:
        scale, start = 0, 0
    return scale, start, tuple(values)


def reference_class(coeffs, word):
    """The class of ``coeffs / word``: undo the word's letters one at a time, leftmost first."""
    scale, start, values = 0, 0, [Fraction(c) for c in coeffs]
    for letter in word:
        if letter == "t":  # (t^-1 xi)(s) = xi(s + 1): one unit is 2^scale cells
            start -= 2**scale
        else:  # (d^-1 xi)(s) = 2 xi(2 s): the same cells on a grid twice as fine
            scale, values = scale + 1, [2 * v for v in values]
    return reference(scale, start, values)


def reference_json(ref):
    scale, start, values = ref
    return {"scale": scale, "start": start, "values": [str(v) for v in values]}


def on_grid(scale, start, values):
    """The class with ``values`` on the grid ``2**-scale`` from cell ``start``, via the API."""
    point = StepFunction((0,) * max(start, 0) + tuple(Fraction(v, 2**scale) for v in values))
    return dy.canonical_value(Pseudoquotient(point, DyadicStepMap(max(-start, 0), scale)))


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
    value = dy.canonical_value(Pseudoquotient(StepFunction((3, 1)), DyadicStepMap(0, 0)))
    assert value == StepFunction((3, 1))  # an embedded point is its own class value
    assert fields(value) == (0, 0, (3, 1), 1)
    value = dy.canonical_value(Pseudoquotient(StepFunction((3,)), DyadicStepMap(0, 1)))
    assert fields(value) == (-1, 0, (6,), 1)
    assert dy.canonical_json(value) == {"scale": 1, "start": 0, "values": ["6"]}
    value = dy.canonical_value(Pseudoquotient(StepFunction((1,)), DyadicStepMap(2, 0)))
    assert fields(value) == (0, -2, (1,), 1)
    assert dy.canonical_json(value) == {"scale": 0, "start": -2, "values": ["1"]}


def test_step_value_normalization():
    assert on_grid(1, 0, (6, 6)) == on_grid(0, 0, (6,)) == StepFunction((6,))
    assert fields(on_grid(2, 4, (1, 1, 1, 1))) == fields(on_grid(0, 1, (1,))) == (0, 1, (1,), 1)
    # a grid anchored at the left end merges cells an odd start keeps apart
    value = on_grid(1, 1, (2, 2))
    assert fields(value) == (0, Fraction(1, 2), (2,), 1)
    assert dy.canonical_json(value) == {"scale": 1, "start": 1, "values": ["2", "2"]}
    assert fields(on_grid(3, 0, ())) == fields(StepFunction(())) == (0, 0, (), 1)
    assert on_grid(0, 5, (0, 2, 0)) == on_grid(0, 6, (2,)) == StepFunction((0,) * 6 + (2,))
    # an integral offset is an int, whichever grid it came from
    assert type(on_grid(1, 2, (3, 3)).offset) is int
    assert fields(on_grid(1, -6, (1, 1, 2, 2))) == (0, -3, (1, 2), 1)
    assert fields(StepFunction((0, 5, 5, 5, 5, 0))) == (2, 1, (5,), 1)


def test_class_values_match_the_unit_grid_reference(rng):
    pool = [Fraction(k, 2) for k in range(-4, 7)] + [Fraction(1, 3)]
    for _ in range(400):
        coeffs = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
        letters = list("d" * rng.randint(0, 6) + "t" * rng.randint(0, 4))
        rng.shuffle(letters)
        word = "".join(letters)
        p = Pseudoquotient(StepFunction(coeffs), element_of(word))
        ref_p = reference_class(coeffs, word)
        value = dy.canonical_value(p)
        assert dy.canonical_json(value) == reference_json(ref_p)
        if rng.random() < 0.5:
            # the same class: left-multiply by a word, letter by letter
            g = "".join(rng.choice("td") for _ in range(rng.randint(0, 3)))
            other_coeffs, other_word = word_coefficients(g, coeffs), g + word
        else:
            other_coeffs = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
            other_word = "".join(rng.choice("ttd") for _ in range(rng.randint(0, 4)))
        q = Pseudoquotient(StepFunction(other_coeffs), element_of(other_word))
        ref_q = reference_class(other_coeffs, other_word)
        same = ref_p == ref_q
        assert dy.pq_equivalent(p, q) == same
        other = dy.canonical_value(q)
        assert dy.canonical_json(other) == reference_json(ref_q)
        assert (value == other) == (fields(value) == fields(other)) == same
        if same:
            assert hash(value) == hash(other)


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


@pytest.mark.parametrize("measure, verb", [("integral", "integrate"), ("l1_norm", "take the norm of")])
def test_integral_and_norm_refuse_what_is_neither_a_function_nor_a_class(measure, verb):
    for value in (3, Fraction(1, 2), DyadicStepMap(1, 0), (1, 2), None):
        with pytest.raises(UsageError, match=f"^cannot {verb} {type(value).__name__}$"):
            getattr(dy, measure)(value)


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


def test_writing_out_more_cells_than_the_limit_is_refused(monkeypatch):
    assert dyadic_steps.MAX_CELLS == 1 << 22
    monkeypatch.setattr(dyadic_steps, "MAX_CELLS", 8)
    two = StepFunction((Fraction(1), Fraction(2)))
    for f in (DyadicStepMap(0, 2), DyadicStepMap(6, 0)):
        image = dy.apply(f, two)
        assert len(image.coefficients) == 8
        assert dy.point_text(image).count(",") == 7
    over = "^the image would have over 8 cells$"
    for f in (DyadicStepMap(1, 2), DyadicStepMap(7, 0), DyadicStepMap(0, 3), DyadicStepMap(0, 40)):
        image = dy.apply(f, two)  # acting writes no cell
        with pytest.raises(DomainError, match=over):
            image.coefficients
        with pytest.raises(DomainError, match=over):
            dy.point_text(image)
    # the canonical grid has cells of width 1/2 from 1/2: 8, 9 and 16 of them
    assert len(dy.canonical_json(on_grid(1, 1, (1,) * 8))["values"]) == 8
    for value in (on_grid(1, 1, (1,) * 9), on_grid(1, 1, (1,) * 16)):
        with pytest.raises(DomainError, match=over):
            dy.canonical_json(value)


def test_images_past_the_cell_limit_are_compared_without_cells():
    one = StepFunction((1,))
    image = dy.apply(DyadicStepMap(0, 30), one)
    assert fields(image) == (30, 0, (1,), 2**30)
    left = Pseudoquotient(one, element_of("d" * 30 + "t"))
    assert not dy.pq_equivalent(left, Pseudoquotient(one, DyadicStepMap(1, 0)))
    assert dy.pq_equivalent(left, Pseudoquotient(image, element_of("d" * 60 + "t")))


def test_class_values_are_not_points():
    value = dy.canonical_value(Pseudoquotient(StepFunction((1,)), DyadicStepMap(1, 1)))
    assert fields(value) == (-1, Fraction(-1, 2), (2,), 1)
    message = "^expected a StepFunction on unit cells from 0, got a class value$"
    for call in (
        lambda: dy.apply(DyadicStepMap(0, 1), value),
        lambda: dy.point_text(value),
        lambda: value.coefficients,
        lambda: dy.canonical_value(Pseudoquotient(value, DyadicStepMap(0, 0))),
    ):
        with pytest.raises(UsageError, match=message):
            call()
    for value in (on_grid(0, -1, (1,)), on_grid(1, 0, (1, 2))):
        with pytest.raises(UsageError, match="got a class value"):
            dy.apply(DyadicStepMap(0, 0), value)


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
    # one integer per anchored cell of width 2^3 from 1, over one denominator in lowest terms
    assert fields(out) == (3, 1, (1, 3), 8)
    # a power of two shared by every numerator cancels against the refinement
    out = dy.apply(DyadicStepMap(0, 2), StepFunction((2, Fraction(4, 3))))
    assert out.coefficients == (Fraction(1, 2),) * 4 + (Fraction(1, 3),) * 4
    assert fields(out) == (2, 0, (3, 2), 6)


def test_given_fractions_are_kept_and_other_numbers_converted():
    half = Fraction(1, 2)
    assert StepFunction((half, 3)).coefficients == (half, Fraction(3))
    assert all(type(c) is Fraction for c in StepFunction((half, 3)).coefficients)
    assert (StepFunction((half, 3)).numerators, StepFunction((half, 3)).denominator) == ((1, 6), 2)
    assert (StepFunction(()).numerators, StepFunction(()).denominator) == ((), 1)


def test_points_are_integers_over_one_denominator_in_lowest_terms(rng):
    for _ in range(300):
        f, x = dy.random_element(rng), dy.random_point(rng)
        for point in (x, dy.apply(f, x)):
            assert point.denominator > 0
            assert math.gcd(point.denominator, *point.numerators) == 1
            assert not point.numerators or 0 not in (point.numerators[0], point.numerators[-1])
            # equal functions have equal fields, whichever way they were built
            rebuilt = StepFunction(point.coefficients)
            # slotted, with no __dict__; reading fields() below reads every slot
            assert not hasattr(point, "__dict__")
            assert StepFunction.__slots__ == ("width", "offset", "numerators", "denominator")
            assert fields(rebuilt) == fields(point)
            assert hash(rebuilt) == hash(point)
