"""Integer affine maps ``x -> M x + b`` with ``det M != 0`` on the lattice ``Z^n``.

Such a map is injective on the lattice because ``M`` is invertible over
the rationals.  Common left multiples exist in closed form: for
``f = (M1, b1)`` and ``g = (M2, b2)`` with determinants ``m1, m2``, the
maps

    ``f' = (m1 * adj(M2),  m2 * adj(M1) b1)``
    ``g' = (m2 * adj(M1),  m1 * adj(M2) b2)``

satisfy ``f' g == g' f``; writing them with integer adjugates rather than
rational inverses makes every witness entry an integer by construction.
A determinant comes with its adjugate, from explicit cofactors for
``n <= 3`` and from one fraction-free Gauss-Jordan pass for larger ``n``;
the same computation validates each map.  Matrix products likewise take
explicit formulas for ``n <= 3`` and the n-D helpers otherwise.
Classes are identified with rational vectors: the class of
``(x, (M, b))`` is the exact solution ``M^-1 (x - b)`` in ``Q^n``.  Its
normal form is ``pq(y; (D I, 0))`` with ``D > 0`` and ``gcd(D, y) == 1``,
the class ``y / D``; ``extend_apply``, ``extend_inverse_apply`` and
``frac_apply`` return it.

A fraction ``(A, a)^-1 o (B, b)`` is the rational affine map
``x -> A^-1 (B x + b - a)``.  Its normal form writes that map over the
least common denominator ``D > 0`` of its entries, as
``(D I, 0)^-1 o (N, v)`` with ``gcd(D, N, v) == 1``; composed fractions are
kept in this form, so a chain of compositions stays as small as its result.

On these forms the derived calculus has closed forms, which override the
generic Ore route of :class:`~pseudoquotients.core.Instance` (kept there as
the tests' oracle).  ``(N, v)`` moves the class ``y / D`` to
``(N y + D v) / D``, with no elimination, and a fraction ``(N, v) / d``
moves it to ``(N y + D v) / (d D)``; ``x / f`` moves back to
``x / (f g)``, read off with one :func:`det_adjugate`; and two maps
``(N, v) / D`` compose to ``(N1 N2, N1 v2 + D2 v1) / (D1 D2)``.  Each is
brought to lowest terms by one gcd.  Reading a pair whose matrix is a
scalar ``c I``, as every normal form's is, costs no elimination.

Text syntax: an element ``aff([[2,0],[0,1]],[1,0])`` (matrix rows, then
the offset vector), a point ``[5,0]``.
"""

from __future__ import annotations

import math
import random
from functools import cached_property
from fractions import Fraction
from itertools import chain
from operator import mul

from ..core import (
    DomainError,
    GroupFraction,
    Instance,
    OreWitness,
    Preset,
    Pseudoquotient,
    UsageError,
    require_int,
    require_sequence,
    unchecked,
    value_text,
    value_type,
)
from ..syntax import read_int_list, read_int_lists, split_pair

__all__ = ["AffineLattice", "AffineLatticeMap", "adjugate", "determinant"]

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


# ----------------------------------------------------------------------
# exact integer linear algebra
# ----------------------------------------------------------------------

def det_adjugate(matrix) -> tuple[int, Matrix]:
    """``(det M, adj M)`` of a square integer matrix; a singular one raises DomainError.

    Sizes 1 to 3 take the explicit cofactor formulas; larger sizes take the
    fraction-free pass of :func:`_bareiss_det_adjugate`.
    """
    n = len(matrix)
    if not 0 < n <= 3:
        return _bareiss_det_adjugate(matrix)
    try:
        if n == 1:
            ((a,),) = matrix
            det, adj = a, ((1,),)
        elif n == 2:
            (a, b), (c, d) = matrix
            det, adj = a * d - b * c, ((d, -b), (-c, a))
        else:
            (a, b, c), (d, e, f), (g, h, i) = matrix
            # the first row's cofactors (adj's first column) expand the determinant
            c1, c2, c3 = e * i - f * h, f * g - d * i, d * h - e * g
            det = a * c1 + b * c2 + c * c3
            adj = (
                (c1, c * h - b * i, b * f - c * e),
                (c2, a * i - c * g, c * d - a * f),
                (c3, b * g - a * h, a * e - b * d),
            )
    except ValueError:  # a row of another length
        raise DomainError("matrix must be square and nonempty") from None
    if det == 0:
        raise DomainError("matrix must have nonzero determinant")
    return det, adj


def _bareiss_det_adjugate(matrix) -> tuple[int, Matrix]:
    """``(det M, adj M)`` by one fraction-free Gauss-Jordan pass on ``[M | I]``, for any size.

    Each step eliminates the pivot column from every other row and divides
    by the previous pivot, which is exact (Bareiss 1968); the pass ends at
    ``[d I | d M^-1]`` with ``d`` the determinant of the row-swapped
    matrix.  A singular matrix has no such end and raises DomainError.
    """
    n = _require_square(matrix)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    sign, prev = 1, 1
    for k in range(n):
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if rows[i][k] != 0), None)
            if swap is None:
                raise DomainError("matrix must have nonzero determinant")
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for i, row in enumerate(rows):
            if i != k:
                factor = row[k]
                rows[i] = [(pivot * a - factor * b) // prev for a, b in zip(row, pivot_row)]
        prev = pivot
    return sign * prev, tuple(tuple(sign * e for e in row[n:]) for row in rows)


def _require_square(matrix) -> int:
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise DomainError("matrix must be square and nonempty")
    return n


def determinant(matrix) -> int:
    """Integer determinant by :func:`det_adjugate`, or 0 if singular; M square and nonempty."""
    _require_square(matrix)
    try:
        return det_adjugate(matrix)[0]
    except DomainError:
        return 0


def adjugate(matrix) -> Matrix:
    """Integer adjugate: ``adj(M) @ M == M @ adj(M) == det(M) * I``; M square and nonsingular."""
    return det_adjugate(matrix)[1]


def mat_mul(a, b) -> Matrix:
    """``a @ b`` for square matrices of one size; explicit products for n <= 3."""
    n = len(a)
    if not 0 < n <= 3:
        return _nd_mat_mul(a, b)
    if n == 1:
        return ((a[0][0] * b[0][0],),)
    if n == 2:
        (a1, a2), (a3, a4) = a
        (b1, b2), (b3, b4) = b
        return ((a1 * b1 + a2 * b3, a1 * b2 + a2 * b4), (a3 * b1 + a4 * b3, a3 * b2 + a4 * b4))
    (a1, a2, a3), (a4, a5, a6), (a7, a8, a9) = a
    (b1, b2, b3), (b4, b5, b6), (b7, b8, b9) = b
    return (
        (a1 * b1 + a2 * b4 + a3 * b7, a1 * b2 + a2 * b5 + a3 * b8, a1 * b3 + a2 * b6 + a3 * b9),
        (a4 * b1 + a5 * b4 + a6 * b7, a4 * b2 + a5 * b5 + a6 * b8, a4 * b3 + a5 * b6 + a6 * b9),
        (a7 * b1 + a8 * b4 + a9 * b7, a7 * b2 + a8 * b5 + a9 * b8, a7 * b3 + a8 * b6 + a9 * b9),
    )


def mat_vec(a, v) -> Vector:
    """``a @ v``, as :func:`mat_vec_add` with ``d == 0``."""
    return mat_vec_add(a, v, 0, v)


def mat_scale(a, c: int) -> Matrix:
    return tuple(tuple(c * entry for entry in row) for row in a)


def mat_vec_add(a, x, d: int, v) -> Vector:
    """``a @ x + d * v``; explicit products for n <= 3."""
    n = len(a)
    if not 0 < n <= 3:
        return _nd_mat_vec_add(a, x, d, v)
    if n == 1:
        return (a[0][0] * x[0] + d * v[0],)
    if n == 2:
        (a1, a2), (a3, a4) = a
        x1, x2 = x
        v1, v2 = v
        return (a1 * x1 + a2 * x2 + d * v1, a3 * x1 + a4 * x2 + d * v2)
    (a1, a2, a3), (a4, a5, a6), (a7, a8, a9) = a
    x1, x2, x3 = x
    v1, v2, v3 = v
    return (
        a1 * x1 + a2 * x2 + a3 * x3 + d * v1,
        a4 * x1 + a5 * x2 + a6 * x3 + d * v2,
        a7 * x1 + a8 * x2 + a9 * x3 + d * v3,
    )


def _nd_mat_mul(a, b) -> Matrix:
    columns = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, column)) for column in columns) for row in a)


def _nd_mat_vec_add(a, x, d: int, v) -> Vector:
    return tuple([sum(map(mul, row, x)) + d * c for row, c in zip(a, v)])


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def scalar_of(matrix) -> int:
    """``c`` if the matrix is ``c I`` with ``c != 0``, else 0."""
    n = len(matrix)
    flat = tuple(chain.from_iterable(matrix))
    c = flat[0]
    # with c != 0 on the diagonal, n^2 - n zeros are exactly the off-diagonal entries
    if c and flat.count(0) == n * n - n and flat[:: n + 1].count(c) == n:
        return c
    return 0


def lowest_terms(d: int, vector: Vector, matrix: Matrix = ()) -> tuple[int, Vector, Matrix]:
    """``(d, vector, matrix)`` divided by their gcd, signed so that the new ``d`` is positive."""
    g = math.gcd(d, *vector, *chain.from_iterable(matrix))
    if d < 0:
        g = -g
    if g == 1:
        return d, vector, matrix
    vector = tuple([c // g for c in vector])
    return d // g, vector, tuple([tuple([e // g for e in r]) for r in matrix])


# ----------------------------------------------------------------------
# the instance
# ----------------------------------------------------------------------

@value_type
class AffineLatticeMap:
    """The map ``x -> matrix @ x + offset`` with a nonsingular integer matrix.

    The pair is recoverable from the action (image of 0 and of the basis
    vectors), so structural equality equals extensional equality.
    """

    matrix: Matrix
    offset: Vector

    def __post_init__(self):
        rows = require_sequence(self.matrix, "matrix")
        matrix = tuple(tuple(require_sequence(row, "matrix row")) for row in rows)
        offset = tuple(require_sequence(self.offset, "offset"))
        # every composition builds a map: an exact int passes the cheap test
        for row in matrix:
            for e in row:
                if type(e) is not int:
                    require_int(e, "matrix entry")
        for e in offset:
            if type(e) is not int:
                require_int(e, "offset entry")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "offset", offset)
        n = _require_square(matrix)
        if len(offset) != n:
            raise DomainError(f"offset length {len(offset)} does not match matrix size {n}")
        det_adjugate(matrix)  # raises for det 0

    @property
    def dim(self) -> int:
        return len(self.offset)


class _ZeroOffset(tuple):
    """The zero offset, equal to the plain tuple, of the normal forms ``(D I, 0)`` built here.

    Only maps with a nonzero scalar matrix get it (``_scalar``'s, the
    designated element, and a numerator read off one of those as it is);
    the public constructor stores ``tuple(offset)``, a plain tuple.
    """

    __slots__ = ()


_map, _ore_witness = unchecked(AffineLatticeMap), unchecked(OreWitness)
_pq, _fraction = unchecked(Pseudoquotient), unchecked(GroupFraction)


class AffineLattice(Instance):
    """The integer affine instance on ``Z^dim``."""

    name = "affine-lattice"
    element_type = AffineLatticeMap
    point_type = tuple

    def __init__(self, dim: int = 1):
        self.dim = require_int(dim, "dimension", 1)

    @cached_property
    def _identity(self) -> Matrix:
        return identity_matrix(self.dim)

    @cached_property
    def _zero_offset(self) -> _ZeroOffset:
        return _ZeroOffset((0,) * self.dim)

    @classmethod
    def create(cls, dim: int = 1) -> AffineLattice:
        return cls(dim)

    def _check_element(self, f) -> AffineLatticeMap:
        if not isinstance(f, AffineLatticeMap):
            raise UsageError(f"expected AffineLatticeMap, got {type(f).__name__}")
        if len(f.offset) != self.dim:
            raise UsageError(f"map has dimension {len(f.offset)}, instance has {self.dim}")
        return f

    def _check_point(self, x) -> Vector:
        if len(super()._check_point(x)) != self.dim or not all(type(c) is int for c in x):
            # repr(x), except that long integers are named by their size
            shown = ", ".join(map(value_text, x))
            shown = f"({shown},)" if len(x) == 1 else f"({shown})"
            raise UsageError(f"expected an integer vector of length {self.dim}, got {shown}")
        return x

    def compose(self, f, g):
        self._check_element(f)
        self._check_element(g)
        # det(AB) = det A * det B != 0
        matrix, offset = mat_mul(f.matrix, g.matrix), mat_vec_add(f.matrix, g.offset, 1, f.offset)
        return _map(matrix, offset)

    def action(self, f):
        """``x -> M x + b``, by :func:`mat_vec_add`."""
        matrix, offset = self._check_element(f).matrix, f.offset
        return lambda x: mat_vec_add(matrix, x, 1, offset)

    def ore_complete(self, f, g):
        self._check_element(f)
        self._check_element(g)
        m1, adj1 = det_adjugate(f.matrix)
        m2, adj2 = det_adjugate(g.matrix)
        # m1*m2*M2^-1 == m1*adj(M2) and m1*m2*M1^-1 == m2*adj(M1): all integral
        f_offset = tuple(m2 * c for c in mat_vec(adj1, f.offset))
        g_offset = tuple(m1 * c for c in mat_vec(adj2, g.offset))
        # c * adj(M) is nonsingular for c != 0: det adj(M) = det(M)^(n-1)
        f_prime, g_prime = _map(mat_scale(adj2, m1), f_offset), _map(mat_scale(adj1, m2), g_offset)
        return _ore_witness(f_prime, g_prime)

    # --- the normal forms and the closed forms on them -----------------

    def _read_off(self, f: AffineLatticeMap, x: Vector, matrix: Matrix = ()):
        """``(d, P (x - b), P matrix)``, where ``P / d == M^-1`` for ``f = (M, b)``.

        So ``f^-1(x) == P (x - b) / d``, and ``f^-1 o (matrix, x)`` is the map
        ``(P matrix, P (x - b)) / d``.  A scalar ``M == c I`` is read as
        ``P = I`` and ``d = c``, and a map with a :class:`_ZeroOffset` with
        no test and no subtraction; any other ``M`` costs one
        :func:`det_adjugate`.
        """
        m = self._check_element(f).matrix
        if type(f.offset) is _ZeroOffset:
            return m[0][0], x, matrix
        shifted = tuple([a - b for a, b in zip(x, f.offset)])
        c = scalar_of(m)
        if c:
            return c, shifted, matrix
        d, adj = det_adjugate(m)
        return d, mat_vec(adj, shifted), mat_mul(adj, matrix) if matrix else matrix

    def _scalar(self, d: int) -> AffineLatticeMap:
        # the denominator (d I, 0) of a normal form: d > 0, so det = d^n != 0
        n = self.dim
        matrix = tuple([(0,) * i + (d,) + (0,) * (n - 1 - i) for i in range(n)])
        return _map(matrix, self._zero_offset)

    def _normal_pq(self, d: int, y: Vector) -> Pseudoquotient:
        """``pq(y; (D I, 0))`` for the class ``y / d``, in lowest terms with ``D > 0``."""
        d, y, _ = lowest_terms(d, y)
        return _pq(y, self._scalar(d))

    def _normal_fraction(self, d: int, v: Vector, n: Matrix) -> GroupFraction:
        """``(D I, 0)^-1 o (N, v)`` for the map ``x -> (n x + v) / d``, in lowest terms."""
        d, v, n = lowest_terms(d, v, n)
        # det(n / g) != 0, since n is nonsingular
        return _fraction(self._scalar(d), _map(n, v))

    def _map_of(self, frac: GroupFraction) -> tuple[int, Vector, Matrix]:
        """``(d, v, N)`` with ``den^-1 o num`` the map ``x -> (N x + v) / d``."""
        num = self._check_element(frac.num)
        return self._read_off(frac.den, num.offset, num.matrix)

    def reduce_fraction(self, frac: GroupFraction) -> GroupFraction:
        """The lowest-terms fraction ``(D I, 0)^-1 o (N, v)`` of the map ``x -> (N x + v) / D``.

        ``den^-1 o num`` is the rational affine map ``x -> A^-1 (B x + b - a)``
        for ``den = (A, a)`` and ``num = (B, b)``; over the least common
        denominator ``D > 0`` of its entries it is unique, so two fractions
        denote one bijection exactly when their reductions are equal.
        """
        return self._normal_fraction(*self._map_of(frac))

    def canonical_value(self, p: Pseudoquotient) -> tuple[Fraction, ...]:
        """The exact rational solution ``M^-1 (x - b)`` of ``M xi + b = x``."""
        d, y, _ = self._read_off(p.denominator, self._check_point(p.numerator))
        return tuple(Fraction(c, d) for c in y)

    def extend_apply(self, g: AffineLatticeMap, p: Pseudoquotient) -> Pseudoquotient:
        """``g = (N, v)`` moves the class ``y / D`` to ``(N y + D v) / D``, in normal form.

        Free of elimination when ``p`` is a normal form; reading any other
        ``p`` off costs one :func:`det_adjugate`.
        """
        d, y, _ = self._read_off(p.denominator, self._check_point(p.numerator))
        self._check_element(g)
        return self._normal_pq(d, mat_vec_add(g.matrix, y, d, g.offset))

    def extend_inverse_apply(self, g: AffineLatticeMap, p: Pseudoquotient) -> Pseudoquotient:
        """``x / f -> x / (f g)``, in normal form: one :func:`det_adjugate` reads it off."""
        d, y, _ = self._read_off(self.compose(p.denominator, g), self._check_point(p.numerator))
        return self._normal_pq(d, y)

    def frac_compose(self, first: GroupFraction, second: GroupFraction) -> GroupFraction:
        """The maps ``(N1, v1) / D1 o (N2, v2) / D2 = (N1 N2, N1 v2 + D2 v1) / (D1 D2)``.

        The product comes out in normal form.  Reading a fraction as its map
        costs one :func:`det_adjugate`, and none for a normal form.
        """
        d1, v1, n1 = self._map_of(first)
        d2, v2, n2 = self._map_of(second)
        # N1 N2 is nonsingular, as N1 and N2 are
        return self._normal_fraction(d1 * d2, mat_vec_add(n1, v2, d2, v1), mat_mul(n1, n2))

    def frac_apply(self, frac: GroupFraction, p: Pseudoquotient) -> Pseudoquotient:
        """``(N, v) / d`` moves the class ``y / D`` to ``(N y + D v) / (d D)``, in normal form."""
        d, v, n = self._map_of(frac)
        big_d, y, _ = self._read_off(p.denominator, self._check_point(p.numerator))
        return self._normal_pq(d * big_d, mat_vec_add(n, y, big_d, v))

    @property
    def designated_element(self) -> AffineLatticeMap:
        # det I = 1; the normal form (1 I, 0)
        return _map(self._identity, self._zero_offset)

    def random_element(self, rng: random.Random) -> AffineLatticeMap:
        while True:
            matrix = tuple(
                tuple(rng.randint(-5, 5) for _ in range(self.dim)) for _ in range(self.dim)
            )
            if determinant(matrix) != 0:
                break
        offset = tuple(rng.randint(-5, 5) for _ in range(self.dim))
        # nonzero determinant checked above; integer entries drawn here
        return _map(matrix, offset)

    def random_point(self, rng: random.Random) -> Vector:
        return tuple(rng.randint(-9, 9) for _ in range(self.dim))

    def parse_element(self, text: str, offset: int = 0) -> AffineLatticeMap:
        (matrix_text, matrix_start), (vector_text, vector_start) = split_pair(
            text, offset, "aff", ",", "aff takes a matrix and an offset vector"
        )
        # matrix rows and the offset vector are written like points
        matrix = read_int_lists(matrix_text, matrix_start)
        return AffineLatticeMap(matrix, read_int_list(vector_text, vector_start))

    def element_text(self, f: AffineLatticeMap) -> str:
        rows = ",".join(self.point_text(row) for row in f.matrix)
        return f"aff([{rows}],{self.point_text(f.offset)})"

    def parse_point(self, text: str, offset: int = 0) -> Vector:
        return read_int_list(text, offset)

    def point_text(self, x: Vector) -> str:
        return "[" + ",".join(str(c) for c in x) + "]"

    def canonical_json(self, value: tuple[Fraction, ...]) -> dict:
        return {"vector": [str(c) for c in value]}

    @classmethod
    def presets(cls) -> dict[str, Preset]:
        gens = (("a", AffineLatticeMap(((1,),), (1,))), ("b", AffineLatticeMap(((2,),), (0,))))
        gens_2d = (
            ("a", AffineLatticeMap(((1, 1), (0, 1)), (0, 0))),
            ("b", AffineLatticeMap(((2, 0), (0, 1)), (1, 0))),
        )
        samples = ((-2,), (-1,), (0,), (1,), (3,))
        samples_2d = ((0, 0), (1, 0), (0, 1), (2, -1), (-1, 3))
        return {
            "affine-lattice": Preset(cls(1), gens, samples=samples, depth=4),
            "affine-lattice-2d": Preset(cls(2), gens_2d, samples=samples_2d, depth=4),
        }
