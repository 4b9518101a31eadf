"""Integer affine maps ``x -> M x + b`` with ``det M != 0`` on the lattice ``Z^n``.

Such a map is injective on the lattice because ``M`` is invertible over
the rationals.  Common left multiples exist in closed form: for
``f = (M1, b1)`` and ``g = (M2, b2)`` with determinants ``m1, m2``, the
maps

    ``f' = (m1 * adj(M2),  m2 * adj(M1) b1)``
    ``g' = (m2 * adj(M1),  m1 * adj(M2) b2)``

satisfy ``f' g == g' f``; writing them with integer adjugates rather than
rational inverses makes every witness entry an integer by construction.
One fraction-free Gauss-Jordan pass gives a determinant and its adjugate
together.  Classes are identified with rational vectors: the class of
``(x, (M, b))`` is the exact solution ``M^-1 (x - b)`` in ``Q^n``.

A fraction ``(A, a)^-1 o (B, b)`` is the rational affine map
``x -> A^-1 (B x + b - a)``.  Its normal form writes that map over the
least common denominator ``D > 0`` of its entries, as
``(D I, 0)^-1 o (N, v)`` with ``gcd(D, N, v) == 1``; composed fractions are
kept in this form, so a chain of compositions stays as small as its result.

Text syntax: an element ``aff([[2,0],[0,1]],[1,0])`` (matrix rows, then
the offset vector), a point ``[5,0]``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
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
    value_text,
)
from ..syntax import ParseError, parse_bracketed, parse_int, split_top_level, unwrap

__all__ = ["AffineLattice", "AffineLatticeMap", "adjugate", "determinant"]

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


# ----------------------------------------------------------------------
# exact integer linear algebra
# ----------------------------------------------------------------------

def determinant(matrix) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    a = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # divisions below are exact for Bareiss pivoting
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det_adjugate(matrix) -> tuple[int, Matrix]:
    """``(det M, adj M)`` by one fraction-free Gauss-Jordan pass on ``[M | I]``.

    Each step eliminates the pivot column from every other row and divides
    by the previous pivot, which is exact (Bareiss 1968); the pass ends at
    ``[d I | d M^-1]`` with ``d`` the determinant of the row-swapped
    matrix.  A singular matrix has no such end and raises DomainError.
    """
    n = len(matrix)
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


def adjugate(matrix) -> Matrix:
    """Integer adjugate: ``adj(M) @ M == M @ adj(M) == det(M) * I``; M nonsingular."""
    return det_adjugate(matrix)[1]


def mat_mul(a, b) -> Matrix:
    columns = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, column)) for column in columns) for row in a)


def mat_vec(a, v) -> Vector:
    return tuple(sum(map(mul, row, v)) for row in a)


def mat_scale(a, c: int) -> Matrix:
    return tuple(tuple(c * entry for entry in row) for row in a)


def vec_add(u, v) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


# ----------------------------------------------------------------------
# the instance
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AffineLatticeMap:
    """The map ``x -> matrix @ x + offset`` with a nonsingular integer matrix.

    The pair is recoverable from the action (image of 0 and of the basis
    vectors), so structural equality equals extensional equality.
    """

    matrix: Matrix
    offset: Vector

    def __post_init__(self):
        matrix = tuple(map(tuple, self.matrix))
        offset = tuple(self.offset)
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
        n = len(matrix)
        if n == 0 or any(len(row) != n for row in matrix):
            raise DomainError("matrix must be square and nonempty")
        if len(offset) != n:
            raise DomainError(f"offset length {len(offset)} does not match matrix size {n}")
        if determinant(matrix) == 0:
            raise DomainError("matrix must have nonzero determinant")

    @classmethod
    def _unchecked(cls, matrix: Matrix, offset: Vector) -> AffineLatticeMap:
        """Unvalidated: a square tuple matrix of nonzero determinant and a tuple offset."""
        f = object.__new__(cls)
        object.__setattr__(f, "matrix", matrix)
        object.__setattr__(f, "offset", offset)
        return f

    @property
    def dim(self) -> int:
        return len(self.offset)


class AffineLattice(Instance):
    """The integer affine instance on ``Z^dim``."""

    name = "affine-lattice"
    element_type = AffineLatticeMap
    point_type = tuple

    def __init__(self, dim: int = 1):
        self.dim = require_int(dim, "dimension", 1)

    @classmethod
    def create(cls, dim: int = 1) -> AffineLattice:
        return cls(dim)

    def _check_element(self, f) -> AffineLatticeMap:
        if super()._check_element(f).dim != self.dim:
            raise UsageError(f"map has dimension {f.dim}, instance has {self.dim}")
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
        return AffineLatticeMap._unchecked(
            mat_mul(f.matrix, g.matrix), vec_add(mat_vec(f.matrix, g.offset), f.offset)
        )

    def apply(self, f, x):
        self._check_element(f)
        self._check_point(x)
        return vec_add(mat_vec(f.matrix, x), f.offset)

    def ore_complete(self, f, g):
        self._check_element(f)
        self._check_element(g)
        m1, adj1 = det_adjugate(f.matrix)
        m2, adj2 = det_adjugate(g.matrix)
        # m1*m2*M2^-1 == m1*adj(M2) and m1*m2*M1^-1 == m2*adj(M1): all integral
        f_offset = tuple(m2 * c for c in mat_vec(adj1, f.offset))
        g_offset = tuple(m1 * c for c in mat_vec(adj2, g.offset))
        # c * adj(M) is nonsingular for c != 0: det adj(M) = det(M)^(n-1)
        return OreWitness(
            AffineLatticeMap._unchecked(mat_scale(adj2, m1), f_offset),
            AffineLatticeMap._unchecked(mat_scale(adj1, m2), g_offset),
        )

    def reduce_fraction(self, frac: GroupFraction) -> GroupFraction:
        """The lowest-terms fraction ``(D I, 0)^-1 o (N, v)`` of the map ``x -> (N x + v) / D``.

        ``den^-1 o num`` is the rational affine map ``x -> A^-1 (B x + b - a)``
        for ``den = (A, a)`` and ``num = (B, b)``; over the least common
        denominator ``D > 0`` of its entries it is unique, so two fractions
        denote one bijection exactly when their reductions are equal.
        """
        den = self._check_element(frac.den)
        num = self._check_element(frac.num)
        det, adj = det_adjugate(den.matrix)
        matrix = mat_mul(adj, num.matrix)
        offset = mat_vec(adj, tuple(b - a for b, a in zip(num.offset, den.offset)))
        g = math.gcd(det, *chain.from_iterable(matrix), *offset)
        if det < 0:
            g = -g
        # D = det / g > 0, and det(N / g) != 0 since N = adj(A) B is nonsingular
        return GroupFraction(
            AffineLatticeMap._unchecked(
                mat_scale(identity_matrix(self.dim), det // g), (0,) * self.dim
            ),
            AffineLatticeMap._unchecked(
                tuple(tuple(e // g for e in row) for row in matrix), tuple(c // g for c in offset)
            ),
        )

    def canonical_value(self, p: Pseudoquotient) -> tuple[Fraction, ...]:
        """The exact rational solution ``M^-1 (x - b)`` of ``M xi + b = x``."""
        f = self._check_element(p.denominator)
        x = self._check_point(p.numerator)
        det, adj = det_adjugate(f.matrix)
        numerators = mat_vec(adj, tuple(a - b for a, b in zip(x, f.offset)))
        return tuple(Fraction(c, det) for c in numerators)

    @property
    def designated_element(self) -> AffineLatticeMap:
        # det I = 1
        return AffineLatticeMap._unchecked(identity_matrix(self.dim), (0,) * self.dim)

    def random_element(self, rng: random.Random) -> AffineLatticeMap:
        while True:
            matrix = tuple(
                tuple(rng.randint(-5, 5) for _ in range(self.dim)) for _ in range(self.dim)
            )
            if determinant(matrix) != 0:
                break
        return AffineLatticeMap(matrix, tuple(rng.randint(-5, 5) for _ in range(self.dim)))

    def random_point(self, rng: random.Random) -> Vector:
        return tuple(rng.randint(-9, 9) for _ in range(self.dim))

    def parse_element(self, text: str, offset: int = 0) -> AffineLatticeMap:
        inside, start = unwrap(text, offset, "aff(", ")", "aff(...)")
        pieces = split_top_level(inside, ",", start)
        if len(pieces) != 2:
            raise ParseError("aff takes a matrix and an offset vector", start)
        (matrix_text, matrix_start), (vector_text, vector_start) = pieces
        rows = parse_bracketed(matrix_text, matrix_start)
        # matrix rows and the offset vector are written like points
        matrix = tuple(self.parse_point(row, row_start) for row, row_start in rows)
        return AffineLatticeMap(matrix, self.parse_point(vector_text, vector_start))

    def element_text(self, f: AffineLatticeMap) -> str:
        rows = ",".join(self.point_text(row) for row in f.matrix)
        return f"aff([{rows}],{self.point_text(f.offset)})"

    def parse_point(self, text: str, offset: int = 0) -> Vector:
        return tuple(parse_int(e, e_start) for e, e_start in parse_bracketed(text, offset))

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
