"""Integer affine instance: adjugate/determinant oracles, witness formulas, fraction normal form."""

import math
import time
from fractions import Fraction

import pytest

from pseudoquotients import (
    AffineLattice,
    AffineLatticeMap,
    DomainError,
    GroupFraction,
    Pseudoquotient,
    UsageError,
)
from pseudoquotients.instances.affine_lattice import (
    adjugate,
    det_adjugate,
    determinant,
    identity_matrix,
    mat_scale,
)


def det_oracle(matrix):
    """Determinant by rational Gaussian elimination, independent of Bareiss."""
    n = len(matrix)
    a = [[Fraction(e) for e in row] for row in matrix]
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= factor * a[k][j]
    return det


def rational_inverse(matrix):
    """Matrix inverse over Q by Gauss-Jordan, independent of the adjugate."""
    n = len(matrix)
    a = [[Fraction(e) for e in row] + [Fraction(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    for k in range(n):
        pivot_row = next(i for i in range(k, n) if a[i][k] != 0)
        a[k], a[pivot_row] = a[pivot_row], a[k]
        pivot = a[k][k]
        a[k] = [e / pivot for e in a[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                factor = a[i][k]
                a[i] = [e - factor * p for e, p in zip(a[i], a[k])]
    return tuple(tuple(row[n:]) for row in a)


def _minor(matrix, row: int, col: int):
    return tuple(
        tuple(entry for j, entry in enumerate(r) if j != col)
        for i, r in enumerate(matrix)
        if i != row
    )


def cofactor_adjugate(matrix):
    """Adjugate by cofactors (n^2 minor determinants), independent of the Gauss-Jordan pass."""
    n = len(matrix)
    if n == 1:
        return ((1,),)
    return tuple(
        tuple((-1) ** (i + j) * determinant(_minor(matrix, j, i)) for j in range(n))
        for i in range(n)
    )


def random_matrix(rng, dim, bound=5):
    while True:
        m = tuple(tuple(rng.randint(-bound, bound) for _ in range(dim)) for _ in range(dim))
        if determinant(m) != 0:
            return m


def test_determinant_against_gaussian_oracle(rng):
    for _ in range(150):
        dim = rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-6, 6) for _ in range(dim)) for _ in range(dim))
        assert determinant(m) == det_oracle(m)


def test_adjugate_identity(rng):
    from pseudoquotients.instances.affine_lattice import mat_mul, mat_scale

    for _ in range(100):
        dim = rng.randint(1, 4)
        m = random_matrix(rng, dim)
        d = determinant(m)
        assert mat_mul(adjugate(m), m) == mat_scale(identity_matrix(dim), d)
        assert mat_mul(m, adjugate(m)) == mat_scale(identity_matrix(dim), d)


def _row_swapped(rng, dim, bits):
    """A nonsingular matrix whose first pivots are zero: rows of a triangular one, rotated."""
    while True:
        m = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                m[i][j] = rng.getrandbits(bits) - (1 << (bits - 1))
            m[i][i] = m[i][i] or 1
        # rotating the rows puts a zero on the leading diagonal for dim >= 2
        m = tuple(map(tuple, m[1:] + m[:1]))
        if determinant(m) != 0:
            return m


def test_det_adjugate_matches_the_cofactor_oracle(rng):
    for dim in range(1, 6):
        for bits in (4, 1000):
            cases = [_row_swapped(rng, dim, bits)]
            cases += [random_matrix(rng, dim, 1 << bits) for _ in range(3 if bits > 4 else 30)]
            for m in cases:
                det, adj = det_adjugate(m)
                assert det == determinant(m) == det_oracle(m)
                assert adj == adjugate(m) == cofactor_adjugate(m)
                assert all(type(e) is int for row in adj for e in row)
            if dim >= 2:
                assert cases[0][0][0] == 0


def test_det_adjugate_known_values():
    assert det_adjugate(((7,),)) == (7, ((1,),))
    assert det_adjugate(((0, 1), (1, 0))) == (-1, ((0, -1), (-1, 0)))
    cycle = ((0, 2, 0), (0, 0, 3), (5, 0, 0))
    assert det_adjugate(cycle) == (30, ((0, 0, 6), (15, 0, 0), (0, 10, 0)))


SINGULAR = (
    ((0,),),
    ((1, 2), (2, 4)),
    ((0, 0), (0, 0)),
    ((0, 1, 2), (0, 3, 4), (0, 5, 6)),
    ((1, 2, 3), (4, 5, 6), (7, 8, 9)),
)


@pytest.mark.parametrize("matrix", SINGULAR)
def test_adjugate_of_a_singular_matrix_is_refused(matrix):
    assert determinant(matrix) == 0
    with pytest.raises(DomainError, match="^matrix must have nonzero determinant$"):
        adjugate(matrix)
    with pytest.raises(DomainError):
        det_adjugate(matrix)


def test_apply_frozen_example():
    af = AffineLattice(1)
    assert af.apply(AffineLatticeMap(((2,),), (1,)), (5,)) == (11,)


def test_compose_matches_pointwise(rng):
    for dim in (1, 2, 3):
        af = AffineLattice(dim)
        for _ in range(60):
            f, g = af.random_element(rng), af.random_element(rng)
            fg = af.compose(f, g)
            for _ in range(4):
                x = af.random_point(rng)
                assert af.apply(fg, x) == af.apply(f, af.apply(g, x))


def test_ore_frozen_1d_example():
    af = AffineLattice(1)
    f = AffineLatticeMap(((2,),), (1,))
    g = AffineLatticeMap(((3,),), (0,))
    w = af.ore_complete(f, g)
    assert w.f_prime == AffineLatticeMap(((2,),), (3,))
    assert w.g_prime == AffineLatticeMap(((3,),), (0,))
    both = af.compose(w.f_prime, g)
    assert both == af.compose(w.g_prime, f)
    assert all(both.matrix[0][0] * x + both.offset[0] == 6 * x + 3 for x in range(-3, 4))


def test_ore_equal_maps_symmetric():
    af = AffineLattice(2)
    f = AffineLatticeMap(((1, 1), (0, 1)), (2, -1))
    w = af.ore_complete(f, f)
    assert w.f_prime == w.g_prime


def test_ore_frozen_2d_example():
    af = AffineLattice(2)
    f = AffineLatticeMap(((1, 1), (0, 1)), (0, 0))
    g = AffineLatticeMap(((2, 0), (0, 1)), (1, 0))
    w = af.ore_complete(f, g)
    assert af.compose(w.f_prime, g) == af.compose(w.g_prime, f)


def test_ore_matches_rational_formula_and_is_integral(rng):
    # the closed form m1*m2*M2^-1 x + m1*m2*M1^-1 b1 computed over Q must
    # coincide with the integer adjugate construction entry by entry
    for _ in range(120):
        dim = rng.randint(1, 3)
        af = AffineLattice(dim)
        f, g = af.random_element(rng), af.random_element(rng)
        m1, m2 = det_oracle(f.matrix), det_oracle(g.matrix)
        inv1, inv2 = rational_inverse(f.matrix), rational_inverse(g.matrix)

        def times(scalar, matrix):
            return tuple(tuple(scalar * e for e in row) for row in matrix)

        def times_vec(matrix, vector):
            return tuple(sum(row[k] * vector[k] for k in range(dim)) for row in matrix)

        w = af.ore_complete(f, g)
        assert w.f_prime.matrix == times(m1 * m2, inv2)
        assert w.f_prime.offset == times_vec(times(m1 * m2, inv1), f.offset)
        assert w.g_prime.matrix == times(m1 * m2, inv1)
        assert w.g_prime.offset == times_vec(times(m1 * m2, inv2), g.offset)
        for part in (w.f_prime, w.g_prime):
            assert all(isinstance(e, int) for row in part.matrix for e in row)
            assert all(isinstance(e, int) for e in part.offset)
        assert af.witness_valid(f, g, w)


def test_canonical_frozen_examples():
    af = AffineLattice(1)
    assert af.canonical_value(
        Pseudoquotient((5,), AffineLatticeMap(((2,),), (1,)))
    ) == (Fraction(2),)
    assert af.canonical_value(
        Pseudoquotient((7,), AffineLatticeMap(((3,),), (1,)))
    ) == (Fraction(2),)
    f = AffineLatticeMap(((3,),), (4,))
    assert af.canonical_value(Pseudoquotient((4,), f)) == (Fraction(0),)


def test_canonical_solves_the_affine_equation(rng):
    # M * xi + b == x over Q, with xi the canonical value
    for dim in (1, 2, 3):
        af = AffineLattice(dim)
        for _ in range(60):
            f = af.random_element(rng)
            x = af.random_point(rng)
            xi = af.canonical_value(Pseudoquotient(x, f))
            recombined = tuple(
                sum(Fraction(f.matrix[i][j]) * xi[j] for j in range(dim)) + f.offset[i]
                for i in range(dim)
            )
            assert recombined == tuple(Fraction(c) for c in x)


def test_frac_inverse_frozen_example():
    # undoing x -> 2x+1 on the embedded 5 lands on the class of 2
    from pseudoquotients import frac_inverse

    af = AffineLattice(1)
    g = AffineLatticeMap(((2,),), (1,))
    backward = frac_inverse(af.frac_from_element(g))
    out = af.frac_apply(backward, af.embed((5,)))
    assert af.canonical_value(out) == (Fraction(2),)


def test_canonical_of_embedded_point_is_the_point(rng):
    for dim in (1, 2, 3):
        af = AffineLattice(dim)
        for _ in range(40):
            x = af.random_point(rng)
            assert af.canonical_value(af.embed(x)) == tuple(Fraction(c) for c in x)


def test_extension_acts_rationally_on_canonical_values(rng):
    # the extension of g moves the class exactly like g read over Q
    for dim in (1, 2, 3):
        af = AffineLattice(dim)
        for _ in range(40):
            p = af.random_pseudoquotient(rng)
            g = af.random_element(rng)
            xi = af.canonical_value(p)
            moved = tuple(
                sum(Fraction(g.matrix[i][j]) * xi[j] for j in range(dim)) + g.offset[i]
                for i in range(dim)
            )
            assert af.canonical_value(af.extend_apply(g, p)) == moved


def test_singular_matrix_rejected():
    with pytest.raises(DomainError):
        AffineLatticeMap(((1, 0), (0, 0)), (0, 0))


def test_dimension_mismatch_rejected():
    af = AffineLattice(2)
    with pytest.raises(UsageError):
        af.apply(AffineLatticeMap(((2,),), (1,)), (1, 2))
    with pytest.raises(UsageError):
        af.apply(AffineLatticeMap(((1, 0), (0, 1)), (0, 0)), (1,))


# ---------------------------------------------------------------------
# the fraction normal form
# ---------------------------------------------------------------------


def rational_map(frac):
    """``den^-1 o num`` as the rational pair ``(R, r)`` of ``x -> R x + r``, over Q."""
    inverse = rational_inverse(frac.den.matrix)
    shift = tuple(b - a for b, a in zip(frac.num.offset, frac.den.offset))
    return rational_compose((inverse, (0,) * len(shift)), (frac.num.matrix, shift))


def rational_compose(first, second):
    """``first o second`` for rational pairs ``(R, r)``."""
    (r1, v1), (r2, v2) = first, second
    n = len(v1)
    matrix = tuple(
        tuple(sum(r1[i][k] * r2[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )
    offset = tuple(sum(r1[i][k] * v2[k] for k in range(n)) + v1[i] for i in range(n))
    return matrix, offset


def map_entries(f):
    return [*(e for row in f.matrix for e in row), *f.offset]


def test_reduce_fraction_frozen_examples():
    af = AffineLattice(1)
    # (2x+1)^-1 o (4x+3) is x -> 2x+1; (-2x)^-1 o (4x+2) is x -> -2x-1
    reduced = af.reduce_fraction(
        GroupFraction(AffineLatticeMap(((2,),), (1,)), AffineLatticeMap(((4,),), (3,)))
    )
    assert reduced == GroupFraction(
        AffineLatticeMap(((1,),), (0,)), AffineLatticeMap(((2,),), (1,))
    )
    reduced = af.reduce_fraction(
        GroupFraction(AffineLatticeMap(((-2,),), (0,)), AffineLatticeMap(((4,),), (2,)))
    )
    assert reduced == GroupFraction(
        AffineLatticeMap(((1,),), (0,)), AffineLatticeMap(((-2,),), (-1,))
    )
    # x -> x/2 + 1/3 needs the denominator 6
    reduced = af.reduce_fraction(
        GroupFraction(AffineLatticeMap(((6,),), (0,)), AffineLatticeMap(((3,),), (2,)))
    )
    assert reduced == GroupFraction(
        AffineLatticeMap(((6,),), (0,)), AffineLatticeMap(((3,),), (2,))
    )


def test_reduced_fraction_is_the_lowest_terms_rational_map(rng):
    for dim in (1, 2, 3):
        af = AffineLattice(dim)
        for _ in range(40):
            frac = af.random_fraction(rng)
            reduced = af.reduce_fraction(frac)
            scale = reduced.den.matrix[0][0]
            assert scale > 0
            scalar = AffineLatticeMap(mat_scale(identity_matrix(dim), scale), (0,) * dim)
            assert reduced.den == scalar
            assert math.gcd(scale, *map_entries(reduced.num)) == 1
            assert rational_map(reduced) == rational_map(frac)
            # any representative of the same bijection has the same normal form
            pad = af.random_element(rng)
            padded = GroupFraction(af.compose(pad, frac.den), af.compose(pad, frac.num))
            assert af.reduce_fraction(padded) == reduced


@pytest.mark.parametrize("dim", [2, 3])
def test_24_step_chains_stay_small_and_exact(dim, rng):
    af = AffineLattice(dim)
    for _ in range(3):
        fracs = [af.random_fraction(rng) for _ in range(24)]
        start = time.perf_counter()
        chain = fracs[0]
        for frac in fracs[1:]:
            chain = af.frac_compose(chain, frac)
        assert time.perf_counter() - start < 1.0
        entries = map_entries(chain.den) + map_entries(chain.num)
        assert max(abs(e).bit_length() for e in entries) < 256
        expected = rational_map(fracs[0])
        for frac in fracs[1:]:
            expected = rational_compose(expected, rational_map(frac))
        assert rational_map(chain) == expected
