import random
from fractions import Fraction
from math import lcm

import pytest

from helpers import reference_null_vector, reference_solve

from pctlfg.linalg import SingularMatrixError, null_vector, solve


def _integer_system(a, rhs):
    """The rational system A X = RHS with each equation multiplied by the
    LCM of its denominators: integer rows, as `solve` takes, and the same
    solutions."""
    n = len(a[0]) if a else 0
    rows = []
    for row in (a_row + rhs_row for a_row, rhs_row in zip(a, rhs)):
        scale = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (scale // x.denominator) for x in row])
    return [row[:n] for row in rows], [row[n:] for row in rows]


def test_known_system():
    x = solve([[2, 1], [1, 3]], [[5], [10]])
    assert x == [[Fraction(1)], [Fraction(3)]]
    assert all(type(v) is Fraction for row in x for v in row)


def test_singular_raises():
    with pytest.raises(SingularMatrixError):
        solve([[1, 2], [2, 4]], [[1], [1]])


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
            x = solve(*_integer_system(a, [[v] for v in b]))
        except SingularMatrixError:
            continue
        assert [row[0] for row in x] == x_true


def test_multiple_right_hand_sides():
    result = solve([[1, 1], [0, 1]], [[3, 0], [1, 2]])
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


def _random_matrix(rng, rows, cols, rank):
    """A rows x cols Fraction matrix of rank at most `rank`: random
    combinations of `rank` random rows, some columns zeroed or repeated."""
    basis = [[Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(cols)]
             for _ in range(rank)]
    out = []
    for _ in range(rows):
        weights = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in basis]
        out.append([sum((w * b[c] for w, b in zip(weights, basis)), Fraction(0))
                    for c in range(cols)])
    for c in range(cols):
        roll = rng.random()
        if roll < 0.05:
            for row in out:
                row[c] = Fraction(0)
        elif roll < 0.1 and c:
            for row in out:
                row[c] = row[c - 1]
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SingularMatrixError as exc:
        return ("singular", str(exc))


def test_solve_equals_fraction_reference():
    rng = random.Random(61)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        a = _random_matrix(rng, n, n, n if rng.random() < 0.5 else rng.randint(1, n))
        m = rng.randint(1, 3)
        rhs = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m)]
               for _ in range(n)]
        got = _outcome(solve, *_integer_system(a, rhs))
        assert got == _outcome(reference_solve, a, rhs)
        singular += isinstance(got, tuple)
    assert 50 < singular < 200


def test_null_vector_equals_fraction_reference():
    rng = random.Random(67)
    trivial = 0
    for _ in range(300):
        rows, width = rng.randint(1, 6), rng.randint(1, 7)
        a = _random_matrix(rng, rows, width, rng.randint(0, min(rows, width)))
        got = null_vector(a, width)
        assert got == reference_null_vector(a, width)
        trivial += got is None
    assert 0 < trivial < 150


def _absorption_system(rng, n, width):
    """An integer system shaped like the ones `markov.absorption` builds:
    row i is d * (I - P) restricted to the n unknowns, with out-degree at
    most 3 and the mass leaving the unknowns spread over `width` right-hand
    columns.  A set of unknowns that no row leaves makes it singular."""
    a, rhs = [], []
    for i in range(n):
        d = rng.randint(2, 9)
        coefficients = [0] * n
        coefficients[i] = d
        values = [0] * width
        targets = rng.sample(range(n + width), rng.randint(1, 3))
        shares = [rng.randint(1, 3) for _ in targets]
        scale = d // sum(shares) or 1
        for t, share in zip(targets, shares):
            if t < n:
                coefficients[t] -= share * scale
            else:
                values[t - n] += share * scale
        a.append(coefficients)
        rhs.append(values)
    return a, rhs


def test_solve_equals_fraction_reference_on_absorption_systems():
    rng = random.Random(71)
    singular = 0
    for _ in range(40):
        n = rng.randint(10, 40)
        a, rhs = _absorption_system(rng, n, rng.choice((1, 4)))
        got = _outcome(solve, a, rhs)
        assert got == _outcome(reference_solve, a, rhs)
        singular += isinstance(got, tuple)
    assert 0 < singular < 20


def _sparse_matrix(rng, rows, cols, rank):
    """A rows x cols matrix of rank at most `rank` whose rows each combine
    one or two sparse basis rows, so most pivot-column entries are 0."""
    basis = [[Fraction(rng.randint(-6, 6), rng.randint(1, 5)) if rng.random() < 0.3
              else Fraction(0) for _ in range(cols)] for _ in range(rank)]
    out = []
    for _ in range(rows):
        row = [Fraction(0)] * cols
        for b in rng.sample(basis, min(len(basis), rng.randint(1, 2))):
            w = Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3))
            row = [x + w * y for x, y in zip(row, b)]
        out.append(row)
    return out


def test_null_vector_equals_fraction_reference_when_rank_deficient():
    rng = random.Random(73)
    for _ in range(200):
        width = rng.randint(2, 12)
        rows = rng.randint(1, 12)
        a = _sparse_matrix(rng, rows, width, rng.randint(0, min(rows, width - 1)))
        got = null_vector(a, width)
        assert got is not None and got == reference_null_vector(a, width)


def test_solve_rejects_non_int_entries():
    # the elimination's exact divisions would floor these to [[3], [0]] and
    # [[0], [1]]
    with pytest.raises(TypeError, match="int entries"):
        solve([[Fraction(1, 3), Fraction(1, 2)], [Fraction(1, 5), Fraction(1, 7)]],
              [[1], [1]])
    with pytest.raises(TypeError, match="int entries"):
        solve([[1, 0], [0, 1]], [[Fraction(1, 2)], [1]])
    with pytest.raises(TypeError, match="int entries"):
        solve([[1, 0], [0, 1]], [[0.5], [1]])
