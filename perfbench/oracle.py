"""Reference evaluator for the four built-in actions, independent of the package.

Every class value is computed here with plain integer and ``Fraction``
arithmetic from the meaning of the action, never by calling the code under
test.  Program outputs are read only through their public fields.

* power-affine: the class of ``x / (m*x^n)`` is the root value
  ``(x/m)^(1/n)``.  It is held as prime exponents
  ``{p: e_p}`` (its logarithm in the basis of primes), so that applying
  ``m*x^n`` is ``e -> n*e + ord(m)`` and two root values are compared by
  cross powers ``x * prod p^(-n e_p) == m * prod p^(n e_p)`` without
  raising huge radicands to huge indices.
* affine-lattice: the class of ``x / (M, b)`` is the rational vector
  ``M^-1 (x - b)``, found by Gaussian elimination over Q.
* dyadic-steps: the class of ``x / (t^m d^n)`` is the step function
  ``xi(s) = 2^n x(2^n s + m)`` on the grid of width ``2^-n``, held as
  ``(scale, {cell: value})`` and brought to its coarsest grid to compare.
* tower: with the default rules the payload offset ``u = payload - level``
  is unchanged by the ascent and doubled by a squeeze, so a class is
  ``(level, u)`` with ``level`` possibly <= 0 and ``u`` rational; this is
  the default-record formula.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


# ----------------------------------------------------------------------
# power-affine: root values as prime exponents
# ----------------------------------------------------------------------

def factor_small(n: int) -> dict:
    """Exponents of ``n >= 1`` over SMALL_PRIMES; the generated inputs have no other factor."""
    out: dict = {}
    for p in SMALL_PRIMES:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            out[p] = k
    if n != 1:
        raise ValueError(f"operand has a prime factor above {SMALL_PRIMES[-1]}")
    return out


def pa_point(x: int) -> dict:
    """The root value of the embedded point ``x``."""
    return {p: Fraction(k) for p, k in factor_small(x).items()}


def pa_act(e: dict, m: int, n: int) -> dict:
    """Apply ``m*x^n`` to a root value."""
    out = {p: n * k for p, k in e.items()}
    for p, k in factor_small(m).items():
        out[p] = out.get(p, 0) + k
    return {p: k for p, k in out.items() if k}


def pa_act_inv(e: dict, m: int, n: int) -> dict:
    """Solve ``m*xi^n = value`` for ``xi``."""
    out = dict(e)
    for p, k in factor_small(m).items():
        out[p] = out.get(p, 0) - k
    return {p: Fraction(k) / n for p, k in out.items() if k}


def pa_class(x: int, m: int, n: int) -> dict:
    """The class of the small representative ``x / (m*x^n)``."""
    return pa_act_inv(pa_point(x), m, n)


def pa_matches(num: int, den: int, index: int, e: dict) -> bool:
    """Does ``(num/den)^(1/index)`` equal the root value ``e``? (cross powers)"""
    lhs, rhs = num, den
    for p, k in e.items():
        power = k * index
        if power.denominator != 1:
            return False
        if power > 0:
            rhs *= p ** int(power)
        else:
            lhs *= p ** int(-power)
    return lhs == rhs


def pa_reduced_index(e: dict) -> int:
    """The least index ``k`` with ``e * k`` integral: the reduced root's index."""
    return lcm(1, *(Fraction(k).denominator for k in e.values()))


# ----------------------------------------------------------------------
# affine-lattice: Gaussian elimination over Q
# ----------------------------------------------------------------------

def solve(matrix, rhs) -> tuple:
    """The unique rational ``v`` with ``matrix v == rhs``; raises on a singular matrix."""
    n = len(matrix)
    rows = [[Fraction(a) for a in row] + [Fraction(r)] for row, r in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [a / lead for a in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return tuple(row[n] for row in rows)


def is_singular(matrix) -> bool:
    try:
        solve(matrix, [0] * len(matrix))
    except ValueError:
        return True
    return False


def al_act(v: tuple, matrix, offset) -> tuple:
    return tuple(
        sum((Fraction(a) * c for a, c in zip(row, v)), Fraction(0)) + b
        for row, b in zip(matrix, offset)
    )


def al_act_inv(v: tuple, matrix, offset) -> tuple:
    return solve(matrix, [c - b for c, b in zip(v, offset)])


def al_class(x, matrix, offset) -> tuple:
    return al_act_inv(tuple(Fraction(c) for c in x), matrix, offset)


# ----------------------------------------------------------------------
# dyadic-steps: step functions on dyadic grids
# ----------------------------------------------------------------------

def ds_normal(scale: int, cells: dict) -> tuple:
    """Drop zero cells and coarsen while adjacent cells pair up."""
    cells = {j: v for j, v in cells.items() if v}
    while scale > 0 and cells and all(cells.get(j ^ 1) == v for j, v in cells.items()):
        cells = {j >> 1: v for j, v in cells.items() if j % 2 == 0}
        scale -= 1
    if not cells:
        scale = 0
    return scale, tuple(sorted(cells.items()))


def ds_point(coefficients) -> tuple:
    return ds_normal(0, {k: Fraction(c) for k, c in enumerate(coefficients)})


def ds_act(value: tuple, shift: int, halvings: int) -> tuple:
    """``(t^a d^b xi)(s) = 2^-b xi((s - a) / 2^b)``."""
    scale, cells = value
    cut = Fraction(1, 2**halvings)
    out: dict = {}
    if halvings <= scale:
        new_scale = scale - halvings
        base = shift * 2**new_scale
        for j, v in cells:
            out[base + j] = v * cut
    else:
        new_scale = 0
        width = 2 ** (halvings - scale)
        for j, v in cells:
            for i in range(width):
                out[shift + j * width + i] = v * cut
    return ds_normal(new_scale, out)


def ds_act_inv(value: tuple, shift: int, halvings: int) -> tuple:
    """``(t^a d^b)^-1 xi (u) = 2^b xi(2^b u + a)``."""
    scale, cells = value
    blow = 2**halvings
    base = shift * 2**scale
    return ds_normal(scale + halvings, {j - base: v * blow for j, v in cells})


def ds_class(coefficients, shift: int, halvings: int) -> tuple:
    return ds_act_inv(ds_point(coefficients), shift, halvings)


def ds_from_canonical(scale: int, start: int, values) -> tuple:
    return ds_normal(scale, {start + i: Fraction(v) for i, v in enumerate(values)})


# ----------------------------------------------------------------------
# tower (default rules): (level, payload - level)
# ----------------------------------------------------------------------

def tw_act(value: tuple, powers: dict, shift: int) -> tuple:
    level, u = value
    level += shift
    return level, u * 2 ** powers.get(level, 0)


def tw_act_inv(value: tuple, powers: dict, shift: int) -> tuple:
    level, u = value
    return level - shift, u / 2 ** powers.get(level, 0)


def tw_point(level: int, payload: int) -> tuple:
    return level, Fraction(payload - level)


def tw_class(level: int, payload: int, powers: dict, shift: int) -> tuple:
    return tw_act_inv(tw_point(level, payload), powers, shift)
