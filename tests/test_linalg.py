import random
from fractions import Fraction

import pytest

from pctlfg.linalg import SingularMatrixError, null_vector, solve


def test_known_system():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    x = solve(a, [[Fraction(5)], [Fraction(10)]])
    assert x == [[Fraction(1)], [Fraction(3)]]


def test_singular_raises():
    a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    with pytest.raises(SingularMatrixError):
        solve(a, [[Fraction(1)], [Fraction(1)]])


def test_random_systems_exact():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 6)
        a = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(n)]
        x_true = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        b = [sum((a[i][j] * x_true[j] for j in range(n)), Fraction(0))
             for i in range(n)]
        try:
            x = solve(a, [[v] for v in b])
        except SingularMatrixError:
            continue
        assert [row[0] for row in x] == x_true


def test_multiple_right_hand_sides():
    a = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    result = solve(a, [[Fraction(3), Fraction(0)], [Fraction(1), Fraction(2)]])
    assert result == [[Fraction(2), Fraction(-2)], [Fraction(1), Fraction(2)]]


def test_null_vector():
    rows = [[Fraction(1, 5), Fraction(4, 5), Fraction(1, 2)],
            [Fraction(1), Fraction(1), Fraction(1)]]
    v = null_vector(rows, 3)
    assert v is not None and any(x != 0 for x in v)
    for row in rows:
        assert sum((c * x for c, x in zip(row, v)), Fraction(0)) == 0


def test_null_vector_trivial_kernel():
    rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert null_vector(rows, 2) is None
