"""Exact linear algebra over rationals.

One fraction-free elimination on integer rows (Bareiss, Math. Comp. 22,
1968), run forward only, serves both the square solves of the absorption
kernel (`markov.absorption`, shared by model checking, first passage and
the ETR oracle) and the kernel vectors of the Caratheodory reduction.
`solve` takes integer rows, which the absorption kernel builds;
`null_vector` first scales each rational row to integers by the LCM of its
denominators.  The step with pivot p in row k then replaces every row
below it by (p * row - f * row_k) // p', where f is the row's entry in the
pivot column and p' the previous pivot (1 at the start), over the columns
right of the pivot column only.  Every entry stays a minor of the scaled
matrix, so the division is exact and no gcd is taken inside the loop, and
the pivot of row k is the leading (k+1)-minor of the row-permuted matrix.
A row with f = 0 would only be multiplied by p / p'; these factors
telescope over consecutive steps, so the row is left as it is until a step
with f != 0 updates it or it becomes the pivot row.  Back substitution
then stays in integers: for the determinant d (the last pivot), d * x is
an integer vector by Cramer's rule, so each row's division by its pivot is
exact, and each answer becomes one Fraction at the end.  The pivot of a
column is the entry of smallest absolute value among the rows not yet
pivoted.  Any nonzero pivot gives the same answers: the pivot columns and
the solutions do not depend on the row chosen.  No floating point, no
tolerance thresholds.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class SingularMatrixError(ValueError):
    pass


def _eliminate(rows: list[list[int]], ncols: int) -> int:
    """Brings the integer `rows` to row-echelon form over their first
    `ncols` columns, in column order, carrying every further column along,
    and stops at the first column without a nonzero entry in the rows not
    yet pivoted.  Returns that column, or `ncols`: it is also the rank
    found, row k holding the pivot of column k.  Entries left of a row's
    pivot are not cleared, and `rows` gets new row lists; the caller's row
    lists are not changed."""
    n = len(rows)
    prev = 1
    # row r's true entries are its entries times prev / base[r], the product
    # of the factors p / p' of the steps that left it alone; base[r] is the
    # pivot of the last step that updated it (1 before any)
    base = [1] * n
    for col in range(ncols):
        pivot_row = min(
            (r for r in range(col, n) if rows[r][col]),
            key=lambda r: abs(rows[r][col] * prev // base[r]),
            default=None,
        )
        if pivot_row is None:
            return col
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        base[col], base[pivot_row] = base[pivot_row], base[col]
        prow = rows[col]
        if base[col] != prev:
            scale = base[col]
            prow = rows[col] = prow[:col] + [x * prev // scale for x in prow[col:]]
        pivot = prow[col]
        right = col + 1
        tail = prow[right:]
        for r in range(right, n):
            row = rows[r]
            f = row[col]
            if f:
                scale = base[r]
                rows[r] = row[:right] + [(pivot * x - f * y) // scale
                                         for x, y in zip(row[right:], tail)]
                base[r] = pivot
        prev = pivot
    return ncols


def _back_substitute(rows: list[list[int]], k: int) -> tuple[int, list[list[int]]]:
    """For rows from `_eliminate` with pivots in their first `k` columns,
    solves the triangular k x k system against every column from `k` on.
    Returns the determinant d, the last pivot, and the solutions times d,
    which are integers: one list per unknown, one entry per column."""
    det = rows[k - 1][k - 1]
    ys: list[list[int]] = [[]] * k
    for i in range(k - 1, -1, -1):
        row = rows[i]
        acc = [det * b for b in row[k:]]
        for j in range(i + 1, k):
            u = row[j]
            if u:
                acc = [a - u * y for a, y in zip(acc, ys[j])]
        pivot = row[i]
        ys[i] = [a // pivot for a in acc]
    return det, ys


def solve(a: list[list[int]], rhs: list[list[int]]) -> list[list[Fraction]]:
    """Solves A X = RHS for a square nonsingular A; RHS holds one column per
    unknown system.  Entries must be ints, TypeError otherwise: the
    elimination's exact divisions would floor Fractions.  Returns X, of
    Fractions, with the same column count."""
    n = len(a)
    if n == 0:
        return []
    aug = []
    for a_row, rhs_row in zip(a, rhs):
        row = a_row + rhs_row
        # a sum of ints is an int, and an int plus any other number is not
        if type(sum(row)) is not int:
            raise TypeError("solve takes int entries; the elimination would "
                            "floor other numbers")
        aug.append(row)
    rank = _eliminate(aug, n)
    if rank < n:
        raise SingularMatrixError(f"singular at column {rank}")
    det, ys = _back_substitute(aug, n)
    return [[Fraction(y, det) for y in row] for row in ys]


def null_vector(a: list[list[Fraction]], width: int) -> list[Fraction] | None:
    """A nonzero rational solution of A x = 0 for a matrix with `width`
    columns, or None if the kernel is trivial.  Entries are Fractions or
    ints.  Deterministic: reduces in column order, assigns 1 to the first
    free column and 0 to every other free column."""
    rows = []
    for row in a:
        scale = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (scale // x.denominator) for x in row])
    free = _eliminate(rows, width)
    if free == width:
        return None
    x = [Fraction(0)] * width
    x[free] = Fraction(1)
    if free:
        # the columns before `free` are pivot columns; every later column,
        # pivot or free, is 0 in this solution
        det, ys = _back_substitute([row[:free + 1] for row in rows[:free]], free)
        for col, (y,) in enumerate(ys):
            x[col] = Fraction(-y, det)
    return x
