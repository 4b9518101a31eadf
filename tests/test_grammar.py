"""Expression grammars: frozen parses, error positions, and round-trips."""

from fractions import Fraction

import pytest

from pseudoquotients import (
    AffineLatticeMap,
    DomainError,
    DyadicStepMap,
    GroupFraction,
    PowerAffineMap,
    Pseudoquotient,
    StepFunction,
    TowerMap,
    TowerPoint,
    create_instance,
)
from pseudoquotients.grammar import (
    ParseError,
    canonical_json,
    element_text,
    frac_text,
    parse_element,
    parse_frac,
    parse_point,
    parse_pq,
    point_text,
    pq_text,
)


def test_power_affine_element_forms():
    assert parse_element("power-affine", "3*x^2") == PowerAffineMap(3, 2)
    assert parse_element("power-affine", "x") == PowerAffineMap(1, 1)
    assert parse_element("power-affine", "5*x") == PowerAffineMap(5, 1)
    assert parse_element("power-affine", " x^4 ") == PowerAffineMap(1, 4)


def test_power_affine_domain_errors():
    with pytest.raises(DomainError):
        parse_element("power-affine", "0*x^2")
    with pytest.raises(DomainError):
        parse_element("power-affine", "3*x^0")
    with pytest.raises(DomainError):
        parse_point("power-affine", "0")


def test_affine_element_and_validation():
    assert parse_element("affine-lattice", "aff([[2]],[1])") == AffineLatticeMap(((2,),), (1,))
    assert parse_element("affine-lattice", "aff([[1,0],[0,1]],[2,-3])") == AffineLatticeMap(
        ((1, 0), (0, 1)), (2, -3)
    )
    with pytest.raises(DomainError):
        parse_element("affine-lattice", "aff([[1,0],[0,0]],[0,0])")


def test_dyadic_element_forms():
    assert parse_element("dyadic-steps", "t^2 d^1") == DyadicStepMap(2, 1)
    assert parse_element("dyadic-steps", "t^0 d^0") == DyadicStepMap(0, 0)
    assert parse_element("dyadic-steps", "d") == DyadicStepMap(0, 1)
    # words are composed in written order: d t == t^2 d
    assert parse_element("dyadic-steps", "d t") == DyadicStepMap(2, 1)
    with pytest.raises(DomainError):
        parse_element("dyadic-steps", "t^-1")


def test_tower_element_forms():
    assert parse_element("tower", "P1^1 P3^2 F^2") == TowerMap(((1, 1), (3, 2)), 2)
    assert parse_element("tower", "F") == TowerMap((), 1)
    assert parse_element("tower", "P2") == TowerMap(((2, 1),), 0)
    # written order is composition order: F P1 == P2 F
    assert parse_element("tower", "F P1") == TowerMap(((2, 1),), 1)
    with pytest.raises(DomainError):
        parse_element("tower", "P0^1")


def test_points():
    assert parse_point("power-affine", "12") == 12
    assert parse_point("affine-lattice", "[5,0]") == (5, 0)
    assert parse_point("dyadic-steps", "[3,1/2]") == StepFunction((Fraction(3), Fraction(1, 2)))
    assert parse_point("dyadic-steps", "[]") == StepFunction(())
    assert parse_point("tower", "(2, 5)") == TowerPoint(2, 5)
    with pytest.raises(DomainError):
        parse_point("tower", "(0, 5)")


def test_pq_and_frac():
    p = parse_pq("power-affine", "pq(12; 3*x^2)")
    assert p == Pseudoquotient(12, PowerAffineMap(3, 2))
    frac = parse_frac("affine-lattice", "frac(aff([[2]],[1]), aff([[3]],[0]))")
    assert frac == GroupFraction(AffineLatticeMap(((2,),), (1,)), AffineLatticeMap(((3,),), (0,)))


def test_syntax_errors_carry_positions():
    with pytest.raises(ParseError) as excinfo:
        parse_element("power-affine", "3*y^2")
    assert excinfo.value.position == 0
    with pytest.raises(ParseError) as excinfo:
        parse_element("dyadic-steps", "t^2 q^1")
    assert excinfo.value.position == 4
    with pytest.raises(ParseError):
        parse_pq("power-affine", "pq(12, 3*x^2)")  # comma instead of semicolon
    with pytest.raises(ParseError):
        parse_point("affine-lattice", "[1,[2]")


@pytest.mark.parametrize(
    "name, text, position",
    [
        ("dyadic-steps", "pq([1,2]; t^2 q^1)", 14),
        ("tower", "pq((1,2); F^1 Q^1)", 14),
        ("affine-lattice", "pq([1]; aff([[x]],[0]))", 14),
        ("power-affine", "pq(3; 3*y^2)", 6),
        ("tower", "pq((1,2,3); F^1)", 3),
        ("dyadic-steps", "pq([1,x]; t)", 6),
        ("power-affine", "frac(2*x^1, 3*y^2)", 12),
        ("affine-lattice", "frac(aff([[1]],[0]), aff([[1]],[z]))", 32),
        ("dyadic-steps", "frac(t^1, t^1 q)", 14),
        ("tower", "frac(F^1 Q, F)", 9),
    ],
)
def test_nested_syntax_errors_report_offsets_in_the_whole_text(name, text, position):
    parse = parse_pq if text.startswith("pq(") else parse_frac
    with pytest.raises(ParseError) as excinfo:
        parse(name, text)
    assert excinfo.value.position == position


def test_round_trips(rng):
    for name in ("power-affine", "affine-lattice", "dyadic-steps", "tower"):
        instance = create_instance(name, dim=2)
        for _ in range(50):
            element = instance.random_element(rng)
            assert parse_element(name, element_text(name, element)) == element
            point = instance.random_point(rng)
            assert parse_point(name, point_text(name, point)) == point
            p = Pseudoquotient(point, element)
            assert parse_pq(name, pq_text(name, p)) == p
            frac = instance.random_fraction(rng)
            assert parse_frac(name, frac_text(name, frac)) == frac


def test_canonical_json_shapes():
    pa = create_instance("power-affine")
    value = pa.canonical_value(Pseudoquotient(12, PowerAffineMap(3, 2)))
    assert canonical_json("power-affine", value) == {
        "radicand": "4",
        "index": 2,
        "reduced": {"radicand": "2", "index": 1},
    }
    af = create_instance("affine-lattice")
    value = af.canonical_value(Pseudoquotient((5,), AffineLatticeMap(((2,),), (1,))))
    assert canonical_json("affine-lattice", value) == {"vector": ["2"]}
    dy = create_instance("dyadic-steps")
    value = dy.canonical_value(Pseudoquotient(StepFunction((3,)), DyadicStepMap(0, 1)))
    assert canonical_json("dyadic-steps", value) == {"scale": 1, "start": 0, "values": ["6"]}
    tw = create_instance("tower")
    value = tw.canonical_value(tw.solve(TowerMap(((1, 1),), 0), TowerPoint(1, 3)))
    assert canonical_json("tower", value) == {"level": 1, "payload": "2"}
