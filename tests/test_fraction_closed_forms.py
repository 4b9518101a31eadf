"""The closed-form fraction calculus of tower, dyadic and power-affine against the Ore route.

``Tower``, ``DyadicSteps`` and ``PowerAffine`` override ``frac_compose``,
``frac_apply`` and ``frac_equal``.  Each override must return exactly
(``==``) what the generic method of ``core.Instance`` returns, and raise
the same error with the same text when an input is of the wrong type or a
power is too large.
"""

import random

import pytest
from test_core_calculus import ore_equal

from pseudoquotients import (
    DomainError,
    DyadicSteps,
    GroupFraction,
    Instance,
    PowerAffine,
    Pseudoquotient,
    Tower,
    UsageError,
)
from pseudoquotients.cli import main

CLOSED_FORMS = {
    "tower": Tower(),
    "tower-a3-e1": Tower.from_rules({"squeeze_mul": 3, "squeeze_const": 1}),
    "tower-a-2": Tower.from_rules({"squeeze_mul": -2, "ascend_add": 2}),
    "dyadic-steps": DyadicSteps(),
    "power-affine": PowerAffine(),
}
TRIALS = 300
WRONG = "not an element"  # neither an element nor a point of any instance here


@pytest.fixture(params=sorted(CLOSED_FORMS), ids=sorted(CLOSED_FORMS))
def closed(request):
    return CLOSED_FORMS[request.param]


def outcome(call, *args):
    """The value ``call(*args)`` returns, or the type and text of what it raises."""
    try:
        return call(*args)
    except (DomainError, UsageError) as error:
        return type(error), str(error)


def test_frac_compose_and_frac_apply_equal_the_ore_route(closed, rng):
    for _ in range(TRIALS):
        first, second = closed.random_fraction(rng), closed.random_fraction(rng)
        p = closed.random_pseudoquotient(rng)
        assert closed.frac_compose(first, second) == Instance.frac_compose(closed, first, second)
        assert closed.frac_apply(first, p) == Instance.frac_apply(closed, first, p)


def test_chains_of_four_equal_the_ore_route(closed, rng):
    for _ in range(TRIALS // 4):
        frac = oracle = closed.random_fraction(rng)
        p = q = closed.random_pseudoquotient(rng)
        for _ in range(4):
            step = closed.random_fraction(rng)
            frac, oracle = closed.frac_compose(frac, step), Instance.frac_compose(closed, oracle, step)
            p, q = closed.frac_apply(step, p), Instance.frac_apply(closed, step, q)
            assert frac == oracle and p == q
        assert closed.frac_apply(frac, p) == Instance.frac_apply(closed, frac, p)


def test_frac_equal_agrees_with_the_ore_route_on_equal_and_unequal_pairs(closed, rng):
    verdicts = []
    for _ in range(TRIALS):
        first = closed.random_fraction(rng)
        pad = closed.random_element(rng)
        same = Instance.frac_compose(closed, GroupFraction(pad, pad), first)
        # the numerator padded alone: a different bijection unless pad is the identity
        skewed = GroupFraction(first.den, closed.compose(pad, first.num))
        for second in (first, same, skewed, closed.random_fraction(rng)):
            verdict = closed.frac_equal(first, second)
            assert verdict == Instance.frac_equal(closed, first, second)
            assert verdict == ore_equal(closed, first, second) == ore_equal(closed, second, first)
            if first != second:
                verdicts.append(verdict)
    # both verdicts are common among pairs the structural shortcut does not decide
    assert verdicts.count(True) > TRIALS // 2 and verdicts.count(False) > TRIALS // 2


@pytest.mark.parametrize("slot", range(6))
def test_a_wrong_type_raises_what_the_ore_route_raises(closed, rng, slot):
    # slots 0-3 are the sides of the two fractions, 4 and 5 the class's point and element
    for _ in range(10):
        values = [closed.random_element(rng) for _ in range(4)]
        values += [closed.random_point(rng), closed.random_element(rng)]
        values[slot] = WRONG
        first, second = GroupFraction(*values[:2]), GroupFraction(*values[2:4])
        p = Pseudoquotient(*values[4:])
        for name in ("frac_compose", "frac_equal"):
            got = outcome(getattr(closed, name), first, second)
            assert got == outcome(getattr(Instance, name), closed, first, second)
        got = outcome(closed.frac_apply, first, p)
        assert got == outcome(Instance.frac_apply, closed, first, p)


# an element whose power in the witness or the action passes the bound
HUGE = {
    "tower": "P1^3000000",
    "tower-a3-e1": "P1^3000000",
    "dyadic-steps": "d^2000000",
    "power-affine": "2*x^999999",
}


@pytest.mark.parametrize("key", sorted(HUGE))
def test_a_power_past_the_bound_raises_what_the_ore_route_raises(rng, key):
    closed = CLOSED_FORMS[key]
    huge = closed.parse_element(HUGE[key])
    raised = 0
    for _ in range(40):
        sides = [closed.random_element(rng) for _ in range(4)]
        sides[rng.randrange(4)] = huge
        first, second = GroupFraction(*sides[:2]), GroupFraction(*sides[2:])
        p = closed.random_pseudoquotient(rng)
        for name in ("frac_compose", "frac_equal"):
            got = outcome(getattr(closed, name), first, second)
            assert got == outcome(getattr(Instance, name), closed, first, second)
            raised += type(got) is tuple
        got = outcome(closed.frac_apply, first, p)
        assert got == outcome(Instance.frac_apply, closed, first, p)
        raised += type(got) is tuple
    assert raised


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("apply", "--instance", "power-affine", "frac(2*x^3, 2*x^999999)", "pq(7; 2*x^3)"),
            "power b^999999 (b of 3 bits) has over 1048576 bits",
        ),
        (
            ("apply", "--instance", "dyadic-steps", "frac(t^1, d^2000000)", "pq([1]; t)"),
            "shift factor b^2000000 (b of 2 bits) has over 1048576 bits",
        ),
        (
            ("apply", "--instance", "tower", "frac(F^1, P1^3000000)", "pq((1, 3); P1)"),
            "squeeze factor b^3000000 (b of 2 bits) has over 1048576 bits",
        ),
    ],
    ids=["power-affine", "dyadic-steps", "tower"],
)
def test_apply_of_a_fraction_past_the_power_bound_exits_1(capsys, argv, message):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"domain error: {message}\n")


@pytest.mark.parametrize("seed", range(3))
def test_long_chains_equal_the_ore_route(seed):
    # power-affine multipliers pass the power bound near step 15 on either route
    for closed, steps in ((Tower(), 100), (DyadicSteps(), 100), (PowerAffine(), 12)):
        rng = random.Random(seed)
        fracs = [closed.random_fraction(rng) for _ in range(steps)]
        left = oracle = fracs[0]
        for frac in fracs[1:]:
            left, oracle = closed.frac_compose(left, frac), Instance.frac_compose(closed, oracle, frac)
            assert left == oracle
        right = fracs[-1]
        for frac in reversed(fracs[:-1]):
            right = closed.frac_compose(frac, right)
        assert closed.frac_equal(left, right) is Instance.frac_equal(closed, left, right) is True
        p = q = start = closed.random_pseudoquotient(rng)
        for frac in reversed(fracs):
            p, q = closed.frac_apply(frac, p), Instance.frac_apply(closed, frac, q)
            assert p == q
        assert closed.frac_apply(left, start) == Instance.frac_apply(closed, left, start)
