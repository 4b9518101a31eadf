"""Integer affine instance: det/adjugate oracles, witness formulas, normal and closed forms."""

import math
import random
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
from pseudoquotients.core import Instance
from pseudoquotients.instances import affine_lattice
from pseudoquotients.instances.affine_lattice import (
    _bareiss_det_adjugate,
    adjugate,
    det_adjugate,
    determinant,
    identity_matrix,
    mat_scale,
)


def det_oracle(matrix):
    """Determinant by rational Gaussian elimination, independent of the fraction-free pass."""
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
        tuple((-1) ** (i + j) * int(det_oracle(_minor(matrix, j, i))) for j in range(n))
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
    # sizes up to 3 take the cofactor formulas, larger ones the Bareiss pass;
    # the pass is checked on every size, as the reference for the formulas
    for dim in range(1, 6):
        dets = []
        for bits in (4, 1000):
            cases = [_row_swapped(rng, dim, bits)]
            cases += [random_matrix(rng, dim, 1 << bits) for _ in range(3 if bits > 4 else 30)]
            for m in cases:
                det, adj = det_adjugate(m)
                assert det == determinant(m) == det_oracle(m)
                assert adj == adjugate(m) == cofactor_adjugate(m)
                assert all(type(e) is int for row in adj for e in row)
                assert _bareiss_det_adjugate(m) == (det, adj)
                dets.append(det)
                if dim >= 2:
                    # swapping two rows flips the sign of the determinant
                    swapped = (m[1], m[0], *m[2:])
                    assert det_adjugate(swapped) == _bareiss_det_adjugate(swapped)
                    assert det_adjugate(swapped)[0] == -det
            if dim >= 2:
                assert cases[0][0][0] == 0
        assert min(dets) < 0 < max(dets)


def _kernel_operands(rng, dim):
    """Square matrices and vectors up to +-2^200 in size, with zero rows and scalars of both signs."""
    for bits in (3, 64, 200):
        for _ in range(40):
            a, b = ([[rng.randint(-(1 << bits), 1 << bits) for _ in range(dim)]
                     for _ in range(dim)] for _ in range(2))
            if rng.random() < 0.25:
                a[rng.randrange(dim)] = [0] * dim
            if rng.random() < 0.25:
                b[rng.randrange(dim)] = [0] * dim
            x, v = (tuple(rng.randint(-(1 << bits), 1 << bits) for _ in range(dim)) for _ in range(2))
            d = rng.choice((0, 1, -1, rng.randint(-(1 << bits), -2), rng.randint(2, 1 << bits)))
            yield tuple(map(tuple, a)), tuple(map(tuple, b)), x, d, v


def test_product_kernels_match_the_nd_reference(rng):
    # sizes up to 3 take explicit formulas, larger ones the n-D helpers, the reference here
    for dim in (1, 2, 3):
        for a, b, x, d, v in _kernel_operands(rng, dim):
            product = affine_lattice.mat_mul(a, b)
            assert product == affine_lattice._nd_mat_mul(a, b)
            assert product == tuple(
                tuple(sum(a[i][k] * b[k][j] for k in range(dim)) for j in range(dim))
                for i in range(dim)
            )
            assert all(type(row) is tuple for row in product)
            image = affine_lattice.mat_vec_add(a, x, d, v)
            assert type(image) is tuple
            assert image == affine_lattice._nd_mat_vec_add(a, x, d, v)
            assert affine_lattice.mat_vec(a, x) == affine_lattice._nd_mat_vec_add(a, x, 0, v)
            assert affine_lattice.mat_vec(a, x) == tuple(
                sum(a[i][k] * x[k] for k in range(dim)) for i in range(dim)
            )


def _lowest_terms_reference(d, vector, matrix=()):
    g = math.gcd(d, *vector, *(e for row in matrix for e in row))
    g = -g if d < 0 else g
    return d // g, tuple(c // g for c in vector), tuple(tuple(e // g for e in r) for r in matrix)


def test_lowest_terms_returns_coprime_inputs_and_divides_the_rest(rng):
    assert affine_lattice.lowest_terms(-3, (2, -4)) == (3, (-2, 4), ())
    assert affine_lattice.lowest_terms(6, (4,), ((2, 0), (0, 8))) == (3, (2,), ((1, 0), (0, 4)))
    signs = {1: 0, -1: 0}
    for _ in range(600):
        dim = rng.randint(1, 4)
        bits = rng.choice((4, 200))
        scale = rng.choice((1, 1, rng.randint(2, 1 << bits)))
        d = scale * rng.choice((-1, 1)) * rng.randint(1, 1 << bits)
        vector = tuple(scale * rng.randint(-(1 << bits), 1 << bits) for _ in range(dim))
        matrix = rng.choice(((), tuple(
            tuple(scale * rng.randint(-(1 << bits), 1 << bits) for _ in range(dim))
            for _ in range(dim)
        )))
        result = affine_lattice.lowest_terms(d, vector, matrix)
        assert result == _lowest_terms_reference(d, vector, matrix)
        assert result[0] > 0
        assert all(type(part) is tuple for part in result[1:])
        assert all(type(row) is tuple for row in result[2])
        if math.gcd(d, *vector, *(e for row in matrix for e in row)) == 1:
            signs[1 if d > 0 else -1] += 1
            if d > 0:
                # coprime with d > 0: the inputs come back as they are
                assert result[1] is vector and result[2] is matrix
    assert min(signs.values()) > 50


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
    # the cofactor formulas and the Bareiss pass refuse with one message
    for kernel in (adjugate, det_adjugate, _bareiss_det_adjugate):
        with pytest.raises(DomainError, match="^matrix must have nonzero determinant$"):
            kernel(matrix)


NOT_SQUARE = (
    (),
    ((),),
    ((1, 2),),
    ((1, 2), (3,)),
    ((1, 2, 3), (4, 5, 6)),
    ((1, 0), (0, 1), (0, 0)),
    ((1, 0, 0), (0, 1), (0, 0, 1)),
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 1)),
)


@pytest.mark.parametrize("matrix", NOT_SQUARE)
def test_a_matrix_that_is_not_square_is_refused(matrix):
    for kernel in (determinant, adjugate, det_adjugate, _bareiss_det_adjugate):
        with pytest.raises(DomainError, match="^matrix must be square and nonempty$"):
            kernel(matrix)


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


# the first two maps random_element draws from random.Random(seed), by dimension and seed
DRAWN = {
    (1, 0): [(((1,),), (1,)), (((-5,),), (-1,))],
    (1, 1): [(((-3,),), (4,)), (((-4,),), (-1,))],
    (1, 2): [(((-5,),), (-4,)), (((-4,),), (0,))],
    (2, 0): [(((1, 1), (-5, -1)), (3, 2)), (((1, -1), (2, 0)), (4, -2))],
    (2, 1): [(((-3, 4), (-4, -1)), (-4, 2)), (((2, 2), (5, 1)), (-2, -4))],
    (2, 2): [(((-5, -4), (-4, 0)), (-3, 5)), (((-1, -1), (4, -2)), (4, -5))],
    (3, 0): [
        (((1, 1, -5), (-1, 3, 2), (1, -1, 2)), (0, 4, -2)),
        (((3, -3, -1), (-3, -4, 4), (-1, 3, 4)), (-3, -1, -4)),
    ],
    (3, 1): [
        (((-3, 4, -4), (-1, -4, 2), (2, 2, 5)), (1, -2, -4)),
        (((2, -5, 1), (1, 4, -5), (2, -1, -2)), (4, -4, 0)),
    ],
    (3, 2): [
        (((-5, -4, -4), (0, -3, 5), (-1, -1, 4)), (-2, 4, -5)),
        (((4, 5, -3), (1, 5, 1), (3, 0, 3)), (2, 3, -1)),
    ],
}


@pytest.mark.parametrize("dim, seed", sorted(DRAWN))
def test_random_element_draws_are_pinned(dim, seed):
    af, rng = AffineLattice(dim), random.Random(seed)
    drawn = [af.random_element(rng) for _ in DRAWN[dim, seed]]
    assert drawn == [AffineLatticeMap(matrix, offset) for matrix, offset in DRAWN[dim, seed]]


def test_random_element_takes_one_determinant_per_matrix_drawn(monkeypatch):
    calls = dict.fromkeys(["determinant", "det_adjugate"], 0)
    for name in calls:

        def counted(matrix, name=name, original=getattr(affine_lattice, name)):
            calls[name] += 1
            return original(matrix)

        monkeypatch.setattr(affine_lattice, name, counted)
    af, rng = AffineLattice(3), random.Random(0)
    for _ in range(100):
        af.random_element(rng)
    # one determinant test per matrix drawn (singular ones are drawn again), none after
    assert calls["det_adjugate"] == calls["determinant"] > 100


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


# ---------------------------------------------------------------------
# closed forms on normal forms, against the generic Ore route
# ---------------------------------------------------------------------


def scalar_map(dim, d):
    return AffineLatticeMap(mat_scale(identity_matrix(dim), d), (0,) * dim)


def is_normal(af, p):
    """``p`` is ``pq(y; (D I, 0))`` with ``D > 0`` and ``gcd(D, y) == 1``."""
    d = p.denominator.matrix[0][0]
    return d > 0 and p.denominator == scalar_map(af.dim, d) and math.gcd(d, *p.numerator) == 1


def check_class(af, result, oracle):
    assert is_normal(af, result)
    assert Instance.pq_equivalent(af, result, oracle)
    assert af.canonical_value(result) == af.canonical_value(oracle)
    # idempotent: the identity moves a normal form to itself
    e = af.designated_element
    assert af.extend_apply(e, result) == result
    assert af.extend_inverse_apply(e, result) == result
    assert af.frac_apply(af.frac_identity(), result) == result


def check_against_oracles(af, g, p, frac, other):
    check_class(af, af.extend_apply(g, p), Instance.extend_apply(af, g, p))
    check_class(af, af.extend_inverse_apply(g, p), Instance.extend_inverse_apply(af, g, p))
    check_class(af, af.frac_apply(frac, p), Instance.frac_apply(af, frac, p))
    # the normal form of a fraction is unique: equal field for field to the oracle's, reduced
    for first, second in ((frac, other), (other, frac)):
        oracle = Instance.frac_compose(af, first, second)
        assert af.frac_compose(first, second) == af.reduce_fraction(oracle)


def upper(dim, diagonal, offset, shear=0):
    """The map with ``diagonal`` on its diagonal, ``shear`` just above it, and ``offset``."""
    matrix = tuple(
        tuple(diagonal[i] if j == i else shear if j == i + 1 else 0 for j in range(dim))
        for i in range(dim)
    )
    return AffineLatticeMap(matrix, offset[:dim])


# (point, diagonal, offset, shear) of a class x / f, cut to the dimension
HAND_CLASSES = (
    ((2, 4, 6), (2, 2, 2), (0, 0, 0), 0),  # 2-D: pq([2,4]; aff([[2,0],[0,2]],[0,0]))
    ((4, 6, 8), (-2, -2, -2), (0, 0, 0), 0),  # a negative scalar
    ((3, -1, 2), (-3, 1, 2), (1, 2, 3), 1),  # a negative determinant
    ((5, 1, -1), (3, 3, 3), (2, 1, -1), 0),  # a scalar with an offset
    ((5, -7, 0), (1, 1, 1), (0, 0, 0), 0),  # the identity
)
HAND_ELEMENTS = (
    ((1, 1, 1), (0, 0, 0), 0),
    ((-3, 1, 2), (1, 2, 3), 1),
    ((2, 2, 2), (3, -1, 4), 0),
    ((-3, -3, -3), (0, 0, 0), 0),
    ((1, 1, 1), (3, 0, 0), 2),
)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_closed_forms_match_the_ore_route_on_hand_cases(dim):
    af = AffineLattice(dim)
    elements = [upper(dim, *shape) for shape in HAND_ELEMENTS]
    for x, *shape in HAND_CLASSES:
        p = Pseudoquotient(x[:dim], upper(dim, *shape))
        for g in elements:
            for h in elements:
                check_against_oracles(af, g, p, GroupFraction(g, h), GroupFraction(h, g))


def test_hand_case_values():
    af = AffineLattice(2)
    # 2/2 and 4/2 is the class (1, 2) over 1
    p = Pseudoquotient((2, 4), scalar_map(2, 2))
    assert af.extend_apply(af.designated_element, p) == Pseudoquotient((1, 2), scalar_map(2, 1))
    # (-2 I)^-1 (4, 6) = (-2, -3): the sign moves off D
    p = Pseudoquotient((4, 6), scalar_map(2, -2))
    assert af.extend_apply(af.designated_element, p) == Pseudoquotient((-2, -3), scalar_map(2, 1))
    # the frozen CLI example: (2, 0) moved by aff([[1,2],[0,1]],[3,0])
    p = Pseudoquotient((5, 0), AffineLatticeMap(((2, 0), (0, 1)), (1, 0)))
    g = AffineLatticeMap(((1, 2), (0, 1)), (3, 0))
    assert af.extend_apply(g, p) == Pseudoquotient((5, 0), scalar_map(2, 1))
    # x / (f g) for g = 2x + 1 in 1-D: (5 - 1)/2 = 2, then (2 - 1)/2
    af1 = AffineLattice(1)
    q = af1.extend_inverse_apply(AffineLatticeMap(((2,),), (1,)), af1.embed((2,)))
    assert q == Pseudoquotient((1,), scalar_map(1, 2))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_closed_forms_match_the_ore_route_on_random_chains(dim, rng):
    af = AffineLattice(dim)
    for _ in range(8):
        p = af.random_pseudoquotient(rng)
        frac = af.random_fraction(rng)
        for _ in range(6):
            g, other = af.random_element(rng), af.random_fraction(rng)
            check_against_oracles(af, g, p, frac, other)
            # continue from normal forms as well as raw ones
            p = af.frac_apply(other, p) if rng.random() < 0.7 else af.random_pseudoquotient(rng)
            frac = af.frac_compose(frac, other) if rng.random() < 0.7 else af.random_fraction(rng)


def representative_bits(p):
    return max(abs(e).bit_length() for e in (*p.numerator, p.denominator.matrix[0][0]))


def common_denominator_bits(value):
    """Bits of the rational vector written over the least common denominator of its entries."""
    d = math.lcm(*(c.denominator for c in value))
    numerators = (c.numerator * (d // c.denominator) for c in value)
    return max(d.bit_length(), *(abs(c).bit_length() for c in numerators))


def entry_bits(value):
    return max(max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in value)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("step", ["extend_apply", "frac_apply"])
def test_100_step_chains_stay_as_small_as_their_classes(dim, seed, step):
    af = AffineLattice(dim)
    rng = random.Random(seed)
    draw = af.random_element if step == "extend_apply" else af.random_fraction
    moves = [draw(rng) for _ in range(100)]
    p = af.random_pseudoquotient(rng)
    elapsed = 0.0
    for move in moves:
        start = time.perf_counter()
        p = getattr(af, step)(move, p)
        elapsed += time.perf_counter() - start
        value = af.canonical_value(p)
        # the normal form is the class over its least common denominator,
        # which has at most dim times the bits of the largest entry
        assert representative_bits(p) == common_denominator_bits(value)
        assert representative_bits(p) <= dim * entry_bits(value)
    assert elapsed < 1.0
