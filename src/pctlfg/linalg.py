"""Exact linear algebra over rationals.

One fraction-free Gauss-Jordan elimination on integer rows (Bareiss, Math.
Comp. 22, 1968, in its Gauss-Jordan form) serves both the square solves of
the absorption kernel (`markov.absorption`, shared by model checking, first
passage and the ETR oracle) and the kernel vectors of the Caratheodory
reduction.  Each row is first scaled to integers by the LCM of its
denominators; a row that is already integer, as every row the absorption
kernel builds is, skips that pass.  The step with pivot p in row k then
replaces every other row by (p * row - f * row_k) // p', where f is the
row's entry in the pivot column and p' the previous pivot (1 at the
start).  Every entry stays a minor of the scaled matrix, so the division
is exact and no gcd is taken inside the loop; each output entry becomes
one Fraction at the end.  The pivot of a column is the entry of smallest
absolute value among the rows not yet pivoted.  Any nonzero pivot gives
the same answers: the pivot columns and the solutions do not depend on the
row chosen.  No floating point, no tolerance thresholds.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Matrix = list[list[Fraction]]


class SingularMatrixError(ValueError):
    pass


def _integer_rows(rows) -> list[list[int]]:
    """Each row scaled to integers by the LCM of its denominators; a row of
    ints is passed through as it is."""
    out = []
    for row in rows:
        if all(type(x) is int for x in row):
            out.append(row)
            continue
        scale = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (scale // x.denominator) for x in row])
    return out


def _eliminate(rows: list[list[int]], ncols: int) -> list[tuple[int, int]]:
    """Reduces the integer `rows` in place over their first `ncols` columns,
    in column order, carrying every further column along.  Returns the
    pivots as (row, column) pairs; a column without a nonzero entry below
    the rows already pivoted is skipped.  Afterwards every pivot entry
    equals the last pivot."""
    n = len(rows)
    pivots: list[tuple[int, int]] = []
    prev = 1
    for col in range(ncols):
        rank = len(pivots)
        pivot_row = min(
            (r for r in range(rank, n) if rows[r][col]),
            key=lambda r: abs(rows[r][col]),
            default=None,
        )
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        prow = rows[rank]
        pivot = prow[col]
        for r in range(n):
            row = rows[r]
            f = row[col]
            if r == rank or (not f and pivot == prev):
                continue
            rows[r] = [(pivot * x - f * y) // prev for x, y in zip(row, prow)]
        prev = pivot
        pivots.append((rank, col))
    return pivots


def solve(a: Matrix, rhs: Matrix) -> Matrix:
    """Solves A X = RHS for a square nonsingular A; RHS holds one column per
    unknown system.  Entries are ints or Fractions.  Returns X, of
    Fractions, with the same column count."""
    n = len(a)
    if n == 0:
        return []
    aug = _integer_rows(list(a[i]) + list(rhs[i]) for i in range(n))
    pivots = _eliminate(aug, n)
    if len(pivots) < n:
        col = min(set(range(n)) - {c for _, c in pivots})
        raise SingularMatrixError(f"singular at column {col}")
    return [[Fraction(v, row[i]) for v in row[n:]] for i, row in enumerate(aug)]


def null_vector(a: Matrix, width: int) -> list[Fraction] | None:
    """A nonzero rational solution of A x = 0 for a matrix with `width`
    columns, or None if the kernel is trivial.  Deterministic: reduces in
    column order and assigns 1 to the first free column."""
    rows = _integer_rows(a)
    pivots = _eliminate(rows, width)
    pivot_cols = {col for _, col in pivots}
    free = next((c for c in range(width) if c not in pivot_cols), None)
    if free is None:
        return None
    x = [Fraction(0)] * width
    x[free] = Fraction(1)
    for row, col in pivots:
        x[col] = Fraction(-rows[row][free], rows[row][col])
    return x
