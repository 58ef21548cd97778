import random
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.expressions.kronecker import kronecker_product

from padicnorm import linalg
from padicnorm.errors import DimensionMismatchError, SingularMatrixError

import fuzz
import oracles


def test_mat_validation():
    with pytest.raises(DimensionMismatchError):
        linalg.mat([[1, 2], [3]])
    with pytest.raises(TypeError):
        linalg.to_fraction(0.5)
    assert linalg.to_fraction("3/4") == Fraction(3, 4)
    # every public function checks its input like mat: ragged matrices and floats are refused
    ragged, column, square = ((1, 2), (3,)), ((1,), (1,)), ((1, 2), (3, 4))
    for call in (
        lambda: linalg.matmul(ragged, column),
        lambda: linalg.matvec(ragged, (1, 1)),
        lambda: linalg.kron(ragged, square),
        lambda: linalg.kron(square, ragged),
        lambda: linalg.block_diag(ragged, square),
        lambda: linalg.block_diag(square, ragged),
        lambda: linalg.det(ragged),
        lambda: linalg.inverse(ragged),
    ):
        with pytest.raises(DimensionMismatchError):
            call()
    floating = ((1, 0.5), (3, 4))
    for call in (
        lambda: linalg.matmul(floating, square),
        lambda: linalg.matmul(square, floating),
        lambda: linalg.matvec(floating, (1, 1)),
        lambda: linalg.matvec(square, (1, 0.5)),
        lambda: linalg.kron(floating, square),
        lambda: linalg.block_diag(square, floating),
        lambda: linalg.det(floating),
        lambda: linalg.inverse(floating),
    ):
        with pytest.raises(TypeError, match="floats are not exact"):
            call()
    with pytest.raises(DimensionMismatchError):
        linalg.matmul(((1, 2),), ())  # a 1x2 matrix times one with no rows


def test_clearing_refuses_floats_and_keeps_ints():
    # the kernels' boundary reads each entry once, by as_integer_ratio, which floats have
    # too: it refuses them as to_fraction does
    for call in (
        lambda: linalg.cleared([[0.5]]),
        lambda: linalg.int_rows([(Fraction(1), 0.5)]),
        lambda: linalg.int_rows([(1, 2), (3, 4.0)]),
    ):
        with pytest.raises(TypeError, match="floats are not exact"):
            call()
    rows = linalg.int_rows([(True, 3, Fraction(-1, 2)), (False, 2, 1), ()])
    assert rows == [([2, 6, -1], 2), ([0, 2, 1], 1), ([], 1)]
    assert all(type(x) is int for v, _ in rows for x in v)
    assert linalg.cleared(((Fraction(1, 3), 1), (Fraction(1, 6), 0))) == [([2, 1], 6), ([1, 0], 1)]


def test_outside_matrices_clear_in_one_pass():
    # cleared_square returns what cleared(square(m)) does, from any exact entries and
    # one-shot rows, and refuses what square refuses with the same error: a float first,
    # even in a ragged or wrong-size matrix, then a ragged matrix, then a wrong size
    rng = random.Random(12)
    for n in (0, 1, 3, 6):
        m = tuple(tuple(fuzz.rational(rng) for _ in range(n)) for _ in range(n))
        assert linalg.cleared_square(m, n) == linalg.cleared_square(m) == linalg.cleared(m)
    mixed = ((1, "1/2"), (Fraction(2, 3), True))
    want = linalg.cleared(linalg.square(mixed))
    assert linalg.cleared_square(mixed, 2) == want == [([3, 2], 3), ([1, 2], 2)]
    assert linalg.cleared_square(iter(row) for row in mixed) == want
    assert linalg.int_rows([iter((1, "1/2", Fraction(1, 3)))]) == [([6, 3, 2], 6)]
    for rows, n, error, message in (
        (((1, 0.5), (3,)), None, TypeError, "floats are not exact"),
        (((1, 2), (3, 4), (5, 0.5)), 2, TypeError, "floats are not exact"),
        (((1, 2), (3,)), 2, DimensionMismatchError, "ragged matrix"),
        (((1, 2, 3), (4, 5, 6)), 2, DimensionMismatchError, "frame must be 2x2"),
        (((1, 2), (3, 4), (5, 6)), None, DimensionMismatchError, "frame must be square"),
    ):
        for clear in (linalg.cleared_square, linalg.square):
            with pytest.raises(error, match=message):
                clear(rows, n, "frame")


def test_identity_and_transpose():
    i3 = linalg.identity(3)
    assert i3 == linalg.transpose(i3)
    m = linalg.mat([[1, 2], [3, 4]])
    assert linalg.transpose(linalg.transpose(m)) == m
    assert linalg.transpose(m) == ((Fraction(1), Fraction(3)), (Fraction(2), Fraction(4)))
    assert linalg.from_columns(linalg.transpose(m)) == m


def test_inverse_and_det():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = fuzz.invertible(rng, n)
        inv = linalg.inverse(m)
        assert linalg.matmul(m, inv) == linalg.identity(n)
        assert linalg.matmul(inv, m) == linalg.identity(n)
        assert linalg.det(m) != 0
        b = fuzz.invertible(rng, n)
        assert linalg.det(linalg.matmul(m, b)) == linalg.det(m) * linalg.det(b)


def test_singular_matrix_raises():
    with pytest.raises(SingularMatrixError):
        linalg.inverse(linalg.mat([[1, 2], [2, 4]]))
    assert linalg.det(linalg.mat([[1, 2], [2, 4]])) == 0


def test_triangular_det():
    m = linalg.mat([[2, 5, 1], [0, Fraction(1, 3), 7], [0, 0, -4]])
    assert linalg.det(m) == Fraction(-8, 3)


def test_matvec_matmul_agree():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = fuzz.invertible(rng, n)
        v = fuzz.vector(rng, n)
        col = linalg.from_columns([v])
        assert linalg.transpose(linalg.matmul(m, col))[0] == linalg.matvec(m, v)
    # a vector whose length is not the matrix's column count is refused, either way
    for v in ((1,), (1, 2, 3)):
        with pytest.raises(DimensionMismatchError):
            linalg.matvec(((1, 0), (0, 1)), v)


def test_kron_compatibility():
    rng = random.Random(13)
    for _ in range(30):
        na, nb = rng.randint(1, 3), rng.randint(1, 3)
        a = fuzz.invertible(rng, na)
        b = fuzz.invertible(rng, nb)
        v = fuzz.vector(rng, na)
        w = fuzz.vector(rng, nb)
        lhs = linalg.matvec(linalg.kron(a, b), oracles.kron_vec(v, w))
        rhs = oracles.kron_vec(linalg.matvec(a, v), linalg.matvec(b, w))
        assert lhs == rhs
    assert len(linalg.kron(fuzz.invertible(rng, 2), fuzz.invertible(rng, 3))) == 6


def test_block_diag():
    a = linalg.mat([[1, 2], [3, 4]])
    b = linalg.mat([[5]])
    m = linalg.block_diag(a, b)
    assert m == linalg.mat([[1, 2, 0], [3, 4, 0], [0, 0, 5]])
    assert linalg.block_diag(a, ()) == a


def _entry(rng):
    """Zero, a small signed int, or a 30-digit numerator over a mixed denominator."""
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-9, 9))
    num = rng.choice((-1, 1)) * rng.randrange(10**29, 10**30)
    return Fraction(num, rng.choice((1, 2, 3, 7, 12, 10**9 + 7, 2**40)))


def _random_matrix(rng, n, cols=None):
    m = [[_entry(rng) for _ in range(n if cols is None else cols)] for _ in range(n)]
    for i in range(rng.randint(0, n - 1) if n > 1 else 0):
        m[i][0] = Fraction(0)  # zero leading entries force row swaps
    return tuple(tuple(row) for row in m)


def _to_sympy(m):
    cols = len(m[0]) if m else 0
    return sympy.Matrix(len(m), cols, [sympy.Rational(x.numerator, x.denominator) for row in m for x in row])


def _from_sympy(s):
    return tuple(tuple(Fraction(int(x.p), int(x.q)) for x in s.row(i)) for i in range(s.rows))


def test_kernel_agrees_with_sympy():
    rng = random.Random(14)
    for n in (0, 1, 2, 5, 8):
        for _ in range(6):
            a = _random_matrix(rng, n)
            b = _random_matrix(rng, n, cols=rng.randint(1, 3))
            v = tuple(_entry(rng) for _ in range(n))
            sa = _to_sympy(a)
            assert linalg.matmul(a, b) == _from_sympy(sa * _to_sympy(b))
            assert linalg.matvec(a, v) == tuple(r[0] for r in _from_sympy(sa * _to_sympy((v,)).T))
            assert linalg.kron(a, b) == _from_sympy(kronecker_product(sa, _to_sympy(b)))
            assert linalg.block_diag(a, b) == _from_sympy(sympy.diag(sa, _to_sympy(b)))
            d = sa.det()
            assert linalg.det(a) == Fraction(int(d.p), int(d.q))
            if d == 0:
                with pytest.raises(SingularMatrixError):
                    linalg.inverse(a)
            else:
                assert linalg.inverse(a) == _from_sympy(sa.inv())


def _near_diagonal(rng, n):
    """A diagonal of entries other than 1 and -1, plus a few off-diagonal entries: at most
    elimination steps most rows have nothing to clear while the pivot changes."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = Fraction(rng.choice((-1, 1)) * rng.randint(2, 9), rng.choice((1, 2, 3, 7)))
    for _ in range(rng.randint(0, n)):
        i, j = rng.sample(range(n), 2)
        m[i][j] = _entry(rng)
    return tuple(tuple(row) for row in m)


def test_near_diagonal_agrees_with_sympy():
    rng = random.Random(17)
    for n in (2, 3, 5, 8, 16):
        for _ in range(4):
            a = _near_diagonal(rng, n)
            sa = _to_sympy(a)
            d = sa.det()
            assert linalg.det(a) == Fraction(int(d.p), int(d.q))
            if d != 0:
                assert linalg.inverse(a) == _from_sympy(sa.inv())


def test_singular_kernel_cases():
    rng = random.Random(15)
    for n in (1, 2, 5, 8):
        for _ in range(4):
            rows = [list(r) for r in _random_matrix(rng, n)]
            if n == 1:
                rows[0][0] = Fraction(0)
            else:  # the last row is a combination of earlier ones
                c = _entry(rng)
                rows[-1] = [c * x - y / 3 for x, y in zip(rows[0], rows[n - 2])]
            m = tuple(tuple(r) for r in rows)
            assert _to_sympy(m).det() == 0
            assert linalg.det(m) == 0
            with pytest.raises(SingularMatrixError, match="matrix is singular"):
                linalg.inverse(m)


def test_large_inverse_round_trip():
    rng = random.Random(16)
    for n in (12, 16):
        m = _random_matrix(rng, n)
        assert linalg.det(m) != 0
        assert linalg.matmul(m, linalg.inverse(m)) == linalg.identity(n)
