"""Exact linear algebra over rationals.

One Gauss-Jordan elimination on Fraction matrices serves both the square
solves of the absorption kernel (`markov.absorption`, shared by model
checking, first passage and the ETR oracle) and the kernel vectors of the
Caratheodory reduction.  No floating point, no tolerance thresholds.
Pivots are chosen by the magnitude of numerator*denominator, which keeps
intermediate fractions small in practice; any nonzero pivot is
mathematically valid.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]


class SingularMatrixError(ValueError):
    pass


def _pivot_weight(x: Fraction) -> int:
    return abs(x.numerator * x.denominator)


def _eliminate(rows: Matrix, ncols: int) -> list[tuple[int, int]]:
    """Reduces `rows` in place over its first `ncols` columns, in column
    order, carrying every further column along.  Returns the pivots as
    (row, column) pairs; a column without a nonzero entry below the rows
    already pivoted is skipped."""
    n = len(rows)
    pivots: list[tuple[int, int]] = []
    for col in range(ncols):
        rank = len(pivots)
        pivot_row = max(
            (r for r in range(rank, n) if rows[r][col] != 0),
            key=lambda r: _pivot_weight(rows[r][col]),
            default=None,
        )
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        prow = rows[rank]
        pivot = prow[col]
        for r in range(n):
            row = rows[r]
            if r == rank or row[col] == 0:
                continue
            factor = row[col] / pivot
            for c in range(col, len(row)):
                row[c] -= factor * prow[c]
        pivots.append((rank, col))
    return pivots


def solve(a: Matrix, rhs: Matrix) -> Matrix:
    """Solves A X = RHS for a square nonsingular A; RHS holds one column per
    unknown system.  Returns X with the same column count."""
    n = len(a)
    if n == 0:
        return []
    m = len(rhs[0]) if rhs else 0
    aug = [list(a[i]) + list(rhs[i]) for i in range(n)]
    pivots = _eliminate(aug, n)
    if len(pivots) < n:
        col = min(set(range(n)) - {c for _, c in pivots})
        raise SingularMatrixError(f"singular at column {col}")
    return [[aug[i][n + j] / aug[i][i] for j in range(m)] for i in range(n)]


def null_vector(a: Matrix, width: int) -> list[Fraction] | None:
    """A nonzero rational solution of A x = 0 for a matrix with `width`
    columns, or None if the kernel is trivial.  Deterministic: reduces in
    column order and assigns 1 to the first free column."""
    rows = [list(r) for r in a]
    pivots = _eliminate(rows, width)
    pivot_cols = {col for _, col in pivots}
    free = next((c for c in range(width) if c not in pivot_cols), None)
    if free is None:
        return None
    x = [Fraction(0)] * width
    x[free] = Fraction(1)
    for row, col in pivots:
        x[col] = -rows[row][free] / rows[row][col]
    return x
