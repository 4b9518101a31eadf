"""Integer affine maps ``x -> M x + b`` with ``det M != 0`` on the lattice ``Z^n``.

Such a map is injective on the lattice because ``M`` is invertible over
the rationals.  Common left multiples exist in closed form: for
``f = (M1, b1)`` and ``g = (M2, b2)`` with determinants ``m1, m2``, the
maps

    ``f' = (m1 * adj(M2),  m2 * adj(M1) b1)``
    ``g' = (m2 * adj(M1),  m1 * adj(M2) b2)``

satisfy ``f' g == g' f``; writing them with integer adjugates rather than
rational inverses makes every witness entry an integer by construction.
Classes are identified with rational vectors: the class of ``(x, (M, b))``
is the exact solution ``M^-1 (x - b)`` in ``Q^n``.

Text syntax: an element ``aff([[2,0],[0,1]],[1,0])`` (matrix rows, then
the offset vector), a point ``[5,0]``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from ..core import (
    DomainError,
    Instance,
    OreWitness,
    Preset,
    Pseudoquotient,
    UsageError,
    require_int,
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


def _minor(matrix, row: int, col: int):
    return tuple(
        tuple(entry for j, entry in enumerate(r) if j != col)
        for i, r in enumerate(matrix)
        if i != row
    )


def adjugate(matrix) -> Matrix:
    """Integer adjugate: ``adj(M) @ M == M @ adj(M) == det(M) * I``."""
    n = len(matrix)
    if n == 1:
        return ((1,),)
    return tuple(
        tuple((-1) ** (i + j) * determinant(_minor(matrix, j, i)) for j in range(n))
        for i in range(n)
    )


def mat_mul(a, b) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def mat_vec(a, v) -> Vector:
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


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
        matrix = tuple(tuple(require_int(e, "matrix entry") for e in row) for row in self.matrix)
        offset = tuple(require_int(e, "offset entry") for e in self.offset)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "offset", offset)
        n = len(matrix)
        if n == 0 or any(len(row) != n for row in matrix):
            raise DomainError("matrix must be square and nonempty")
        if len(offset) != n:
            raise DomainError(f"offset length {len(offset)} does not match matrix size {n}")
        if determinant(matrix) == 0:
            raise DomainError("matrix must have nonzero determinant")

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
        if len(super()._check_point(x)) != self.dim or not all(isinstance(c, int) for c in x):
            raise UsageError(f"expected an integer vector of length {self.dim}, got {x!r}")
        return x

    def compose(self, f, g):
        self._check_element(f)
        self._check_element(g)
        return AffineLatticeMap(
            mat_mul(f.matrix, g.matrix), vec_add(mat_vec(f.matrix, g.offset), f.offset)
        )

    def apply(self, f, x):
        self._check_element(f)
        self._check_point(x)
        return vec_add(mat_vec(f.matrix, x), f.offset)

    def ore_complete(self, f, g):
        self._check_element(f)
        self._check_element(g)
        m1, m2 = determinant(f.matrix), determinant(g.matrix)
        adj1, adj2 = adjugate(f.matrix), adjugate(g.matrix)
        # m1*m2*M2^-1 == m1*adj(M2) and m1*m2*M1^-1 == m2*adj(M1): all integral
        f_prime = AffineLatticeMap(mat_scale(adj2, m1), mat_vec(mat_scale(adj1, m2), f.offset))
        g_prime = AffineLatticeMap(mat_scale(adj1, m2), mat_vec(mat_scale(adj2, m1), g.offset))
        return OreWitness(f_prime, g_prime)

    def canonical_value(self, p: Pseudoquotient) -> tuple[Fraction, ...]:
        """The exact rational solution ``M^-1 (x - b)`` of ``M xi + b = x``."""
        f = self._check_element(p.denominator)
        x = self._check_point(p.numerator)
        det = determinant(f.matrix)
        numerators = mat_vec(adjugate(f.matrix), tuple(a - b for a, b in zip(x, f.offset)))
        return tuple(Fraction(c, det) for c in numerators)

    @property
    def designated_element(self) -> AffineLatticeMap:
        return AffineLatticeMap(identity_matrix(self.dim), (0,) * self.dim)

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
