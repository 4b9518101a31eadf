"""Tower instance: commuting squares, normal forms versus pointwise action."""

import time
from fractions import Fraction

import pytest

from pseudoquotients import (
    DomainError,
    Pseudoquotient,
    Tower,
    TowerConfig,
    TowerMap,
    TowerPoint,
    TowerValue,
    default_tower_config,
)

tw = Tower()

CONFIGS = [
    TowerConfig(s, a, e) for s in (-2, -1, 0, 1, 3) for a in (-3, -1, 1, 2, 5) for e in (-4, 0, 7)
]


def test_squares_commute_for_every_config():
    # the derived level coefficient c = s*(1 - a) is what makes F o P_j == P_{j+1} o F
    assert default_tower_config() == TowerConfig(1, 2, 0)
    assert default_tower_config().squeeze_level_coeff == -1
    for config in CONFIGS:
        for level in range(1, 7):
            for payload in range(-10, 11):
                pt = TowerPoint(level, payload)
                up, inner = config.ascend(pt), config.squeeze(pt)
                assert (up.level, inner.level) == (level + 1, level)
                assert config.ascend(inner) == config.squeeze(up)


def test_bad_config_rejected():
    for fields in (
        {"squeeze_mul": 0},  # the one non-injective squeeze
        {"ascend_add": "1"},
        {"squeeze_mul": 2.0},
        {"squeeze_const": 0.5},
        {"ascend_add": True},
        {"squeeze_mul": None},
    ):
        with pytest.raises(DomainError):
            TowerConfig(**fields)
        with pytest.raises(DomainError):
            Tower.from_rules(fields)


def test_from_rules_checks_the_given_level_coefficient():
    assert Tower.from_rules({"ascend_add": 2, "squeeze_mul": 3}).config == TowerConfig(2, 3, 0)
    assert Tower.from_rules({"squeeze_level_coeff": -1}).config == default_tower_config()
    for c in (5, "-1", -1.0, None):
        with pytest.raises(DomainError):
            Tower.from_rules({"squeeze_level_coeff": c})


def iterate(config, f, pt):
    """Reference action: one ascent or squeeze step at a time."""
    for _ in range(f.shift):
        pt = config.ascend(pt)
    for _ in range(f.power_at(pt.level)):
        pt = config.squeeze(pt)
    return pt


def iterate_rational(config, f, level, payload):
    """The same steps on a formal solution, whose level may be <= 0."""
    level, payload = level + f.shift, payload + f.shift * config.ascend_add
    for _ in range(f.power_at(level)):
        payload = config.squeeze_mul * payload + config.squeeze_level_coeff * level
        payload += config.squeeze_const
    return level, payload


def test_closed_forms_match_iteration(rng):
    # a = 1 and a < 0 included: translations, and involutions for a = -1
    for config in CONFIGS:
        inst = Tower(config)
        for _ in range(40):
            f, x = inst.random_element(rng), inst.random_point(rng)
            assert inst.apply(f, x) == iterate(config, f, x)
            p, q = inst.random_pseudoquotient(rng), inst.random_pseudoquotient(rng)
            assert inst.pq_equivalent(p, q) == (inst.canonical_value(p) == inst.canonical_value(q))
            # the canonical value solves f(xi) = x over Q and is shared by the whole class
            xi = inst.canonical_value(p)
            solved = iterate_rational(config, p.denominator, xi.level, xi.payload)
            assert solved == (p.numerator.level, p.numerator.payload)
            r = inst.pq_left_multiply(p, inst.random_element(rng))
            assert inst.pq_equivalent(p, r) and inst.canonical_value(r) == xi


def test_huge_ascents_are_closed_form():
    f = TowerMap(((1, 1),), 3)
    far = TowerMap((), 10_000_000)
    start = time.perf_counter()
    assert tw.apply(far, TowerPoint(1, 2)) == TowerPoint(10_000_001, 10_000_002)
    image = tw.extend_apply(far, Pseudoquotient(TowerPoint(1, 2), f))
    assert tw.canonical_value(image) == TowerValue(9_999_998, Fraction(19_999_997, 2))
    p = Pseudoquotient(TowerPoint(1, 2), far)
    assert not tw.pq_equivalent(p, Pseudoquotient(TowerPoint(1, 2), f))
    assert tw.pq_equivalent(p, Pseudoquotient(TowerPoint(2, 3), TowerMap((), 10_000_001)))
    assert time.perf_counter() - start < 1.0


def test_squeeze_powers_beyond_the_size_limit_are_refused():
    f = TowerMap(((1, 10**12),), 0)
    with pytest.raises(DomainError):
        tw.apply(f, TowerPoint(1, 2))
    with pytest.raises(DomainError):
        tw.canonical_value(Pseudoquotient(TowerPoint(1, 2), f))
    # for a = -1 and a = 1 the factor a^k stays small, so any power is computed
    involution = Tower(TowerConfig(squeeze_mul=-1, squeeze_const=3))
    assert involution.apply(f, TowerPoint(1, 2)) == TowerPoint(1, 2)
    translation = Tower(TowerConfig(squeeze_mul=1, squeeze_const=3))
    assert translation.apply(f, TowerPoint(1, 2)) == TowerPoint(1, 2 + 3 * 10**12)


def test_normal_form_constructor():
    assert TowerMap(((2, 0), (1, 3)), 1) == TowerMap(((1, 3),), 1)  # zero powers drop
    assert TowerMap(((3, 1), (1, 2)), 0).level_powers == ((1, 2), (3, 1))  # sorted
    with pytest.raises(DomainError):
        TowerMap(((0, 1),), 0)
    with pytest.raises(DomainError):
        TowerMap((), -1)


def test_rewriting_relation():
    # ascending past a level-2 squeeze turns it into a level-3 squeeze
    lhs = tw.compose(TowerMap((), 1), TowerMap(((2, 1),), 0))
    rhs = tw.compose(TowerMap(((3, 1),), 0), TowerMap((), 1))
    assert lhs == rhs == TowerMap(((3, 1),), 1)


def test_apply_semantics():
    # squeeze at level 2 twice: payload p -> 2p-2 -> 4p-6
    f = TowerMap(((2, 2),), 0)
    assert tw.apply(f, TowerPoint(2, 5)) == TowerPoint(2, 14)
    assert tw.apply(f, TowerPoint(3, 5)) == TowerPoint(3, 5)  # wrong level: untouched
    g = TowerMap(((3, 1),), 1)  # ascend once, then squeeze on level 3
    assert tw.apply(g, TowerPoint(2, 5)) == TowerPoint(3, 9)


def test_compose_matches_pointwise(rng):
    for _ in range(300):
        f, g = tw.random_element(rng), tw.random_element(rng)
        x = tw.random_point(rng)
        assert tw.apply(tw.compose(f, g), x) == tw.apply(f, tw.apply(g, x))


def test_compose_associative(rng):
    for _ in range(200):
        f, g, h = (tw.random_element(rng) for _ in range(3))
        assert tw.compose(f, tw.compose(g, h)) == tw.compose(tw.compose(f, g), h)


def test_ore_frozen_example():
    f = TowerMap(((1, 1),), 1)
    g = TowerMap(((2, 1),), 0)
    w = tw.ore_complete(f, g)
    assert w.f_prime == TowerMap(((1, 1),), 1)
    assert w.g_prime == TowerMap(((3, 1),), 0)
    both = tw.compose(w.f_prime, g)
    assert both == tw.compose(w.g_prime, f) == TowerMap(((1, 1), (3, 1)), 1)


def test_ore_pure_ascents():
    f, g = TowerMap((), 2), TowerMap((), 5)
    w = tw.ore_complete(f, g)
    assert (w.f_prime, w.g_prime) == (f, g)
    assert tw.compose(w.f_prime, g) == TowerMap((), 7)


def test_ore_equal_maps():
    f = TowerMap(((2, 1),), 1)
    w = tw.ore_complete(f, f)
    assert w.f_prime == w.g_prime


def test_ore_witness_valid_randomized(rng):
    for _ in range(500):
        f, g = tw.random_element(rng), tw.random_element(rng)
        assert tw.witness_valid(f, g, tw.ore_complete(f, g))


def test_canonical_embed_is_the_point():
    pt = TowerPoint(2, 5)
    assert tw.canonical_value(tw.embed(pt)) == TowerValue(2, Fraction(5))


def test_canonical_solves_generators():
    # squeeze at level 1: 2*xi - 1 = 3  =>  xi = 2
    value = tw.canonical_value(tw.solve(TowerMap(((1, 1),), 0), TowerPoint(1, 3)))
    assert value == TowerValue(1, Fraction(2))
    # ascend: xi at level 1 with payload 4 ascends to (2, 5)
    value = tw.canonical_value(tw.solve(TowerMap((), 1), TowerPoint(2, 5)))
    assert value == TowerValue(1, Fraction(4))
    # non-integer solutions become rational records below the tower
    value = tw.canonical_value(tw.solve(TowerMap(((1, 2),), 1), TowerPoint(1, 2)))
    assert value == TowerValue(0, Fraction(1, 4))


def test_canonical_ignores_unreachable_squeezes():
    # a squeeze on a level the numerator never sees does not change the class
    pt = TowerPoint(1, 4)
    plain = Pseudoquotient(pt, TowerMap((), 0))
    decorated = Pseudoquotient(pt, TowerMap(((5, 2),), 0))
    assert tw.canonical_value(plain) == tw.canonical_value(decorated)
    assert tw.pq_equivalent(plain, decorated)


def test_canonical_matches_equivalence(rng):
    for _ in range(300):
        p = tw.random_pseudoquotient(rng)
        q = tw.random_pseudoquotient(rng)
        assert tw.pq_equivalent(p, q) == (tw.canonical_value(p) == tw.canonical_value(q))
