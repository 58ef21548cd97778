import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.expressions.kronecker import kronecker_product

from padicnorm import FieldConfig, SplitNorm, Value, act, apartment_coords, linalg, slots
from padicnorm.building import norm_from_apartment
from padicnorm.errors import DimensionMismatchError, PreconditionError, SingularMatrixError
from padicnorm.norms import ball_basis, evaluate, op_table
from padicnorm.stabilizer import is_stabilizer_element

import fuzz
import oracles


def test_mat_validation():
    with pytest.raises(TypeError):
        linalg.to_fraction(0.5)
    assert linalg.to_fraction("3/4") == Fraction(3, 4)
    # every Fraction view reads its input through cleared: ragged matrices and floats are refused
    ragged, column, square = ((1, 2), (3,)), ((1,), (1,)), ((1, 2), (3, 4))
    for call in (
        lambda: linalg.matmul(ragged, column),
        lambda: linalg.matvec(ragged, (1, 1)),
        lambda: linalg.kron(ragged, square),
        lambda: linalg.kron(square, ragged),
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
        lambda: linalg.det(floating),
        lambda: linalg.inverse(floating),
    ):
        with pytest.raises(TypeError, match="floats are not exact"):
            call()
    with pytest.raises(DimensionMismatchError):
        linalg.matmul(((1, 2),), ())  # a 1x2 matrix times one with no rows


def test_clearing_refuses_floats_and_keeps_ints():
    # the kernels' boundary reads each entry once, by as_integer_ratio, which floats have
    # too: it refuses them as to_fraction does.  A row or vector given as a str or bytes is
    # refused too, where it would be read one character or byte at a time: "11" as (1, 1),
    # "1,1" as three entries, the last of them ","
    alpha = SplitNorm(FieldConfig(2), 2, oracles.identity(2), (Fraction(0), Fraction(1, 2)))
    for call, message in (
        (lambda: linalg.cleared([[0.5]]), "floats are not exact"),
        (lambda: linalg.cleared_vector((Fraction(1), 0.5)), "floats are not exact"),
        (lambda: linalg.cleared(linalg.transpose(((1, 2), (3, 4.0)))), "floats are not exact"),
        (lambda: evaluate(alpha, "11"), "not str"),
        (lambda: evaluate(alpha, "1,1"), "not str"),
        (lambda: evaluate(alpha, b"\x01\x01"), "not bytes"),
        (lambda: SplitNorm(FieldConfig(2), 2, ("10", "01"), alpha.values), "not str"),
        (lambda: norm_from_apartment("01", FieldConfig(2)), "not str"),
    ):
        with pytest.raises(TypeError, match=message):
            call()
    rows = [linalg.cleared_vector(v) for v in ((True, 3, Fraction(-1, 2)), (False, 2, 1), ())]
    assert rows == [([2, 6, -1], 2), ([0, 2, 1], 1), ([], 1)]
    assert all(type(x) is int for v, _ in rows for x in v)
    assert linalg.cleared(((Fraction(1, 3), 1), (Fraction(1, 6), 0))) == [([2, 1], 6), ([1, 0], 1)]


def test_outside_matrices_clear_in_one_pass():
    # cleared reads each entry once, from any exact entries and one-shot rows, into the
    # columns over the lcm of their denominators; cleared_square adds only the size check.
    # The errors come in one order: a float first, even in a ragged or wrong-size matrix,
    # then a ragged matrix, then a wrong size
    rng = random.Random(12)
    for n in (0, 1, 3, 6):
        m = tuple(tuple(fuzz.rational(rng) for _ in range(n)) for _ in range(n))
        cols = linalg.cleared(m)
        assert linalg.cleared_square(m, n) == linalg.cleared_square(m) == cols
        assert tuple(tuple(Fraction(x, d) for x in c) for c, d in cols) == linalg.transpose(m)
        assert all(math.gcd(d, *c) == 1 for c, d in cols)
    mixed = ((1, "1/2"), (Fraction(2, 3), True))
    want = [([3, 2], 3), ([1, 2], 2)]
    assert linalg.cleared(mixed) == linalg.cleared_square(mixed, 2) == want
    assert linalg.cleared(iter(row) for row in mixed) == want
    assert linalg.cleared_square(iter(row) for row in mixed) == want
    assert linalg.square_ratios(mixed) == [[(1, 1), (1, 2)], [(2, 3), (1, 1)]]
    assert linalg.cleared(((1, Fraction(1, 2), 3), (2, Fraction(1, 4), 0))) == [
        ([1, 2], 1),
        ([2, 1], 4),
        ([3, 0], 1),
    ]
    assert linalg.cleared(((), ())) == linalg.cleared(()) == linalg.cleared_square(()) == []
    assert linalg.cleared_vector(iter((1, "1/2", Fraction(1, 3)))) == ([6, 3, 2], 6)
    for rows, n, error, message in (
        (((1, 0.5), (3,)), None, TypeError, "floats are not exact"),
        (((1, 2), (3, 4), (5, 0.5)), 2, TypeError, "floats are not exact"),
        (((1, 2), (3,)), 2, DimensionMismatchError, "ragged matrix"),
        (((1, 2, 3), (4, 5, 6)), 2, DimensionMismatchError, "frame must be 2x2"),
        (((1, 2), (3, 4), (5, 6)), None, DimensionMismatchError, "frame must be square"),
        (((), (), ()), None, DimensionMismatchError, "frame must be square"),
    ):
        for read in (linalg.cleared_square, linalg.square_ratios):
            with pytest.raises(error, match=message):
                read(rows, n, "frame")
        if "frame" not in message:
            with pytest.raises(error, match=message):
                linalg.cleared(rows)


def test_identity_and_transpose():
    i3 = oracles.identity(3)
    assert i3 == linalg.transpose(i3)
    m = ((1, 2), (3, 4))
    assert linalg.transpose(linalg.transpose(m)) == m
    assert linalg.transpose(m) == ((Fraction(1), Fraction(3)), (Fraction(2), Fraction(4)))


def test_transpose_refuses_a_ragged_matrix():
    # like every other reader of a matrix, rather than truncate it
    with pytest.raises(DimensionMismatchError, match="^ragged matrix$"):
        linalg.transpose(((1, 2), (3,)))


def test_the_gate_refuses_an_exponent_past_the_digit_limit():
    # Fraction expands an exponent in full: every string the library reads passes the one
    # gate, which refuses an exponent past the digit limit before it is expanded
    norm = SplitNorm(FieldConfig(2), 2, oracles.identity(2), (0, Fraction(1, 2)))
    for s in ("1e4301", "-1e-4301"):
        for call in (
            lambda: linalg.to_fraction(s),
            lambda: SplitNorm(FieldConfig(2), 2, ((s, 0), (0, 1)), (0, 0)),
            lambda: evaluate(norm, (s, 1)),
            lambda: Value(s),
            lambda: ball_basis(norm, s),
        ):
            with pytest.raises(PreconditionError, match=f"^exponent beyond 4300 in '{s}'$"):
                call()
    assert linalg.to_fraction("1e4300") == 10**4300
    assert linalg.to_fraction("1e-4300") == Fraction(1, 10**4300)
    # Fraction reads any Unicode decimal digits in an exponent, and so does the gate
    with pytest.raises(PreconditionError, match="^exponent beyond 4300 in "):
        linalg.to_fraction("1e\u0664\u0663\u0660\u0661")  # 4301 in Arabic-Indic digits


def test_inverse_and_det():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = fuzz.invertible(rng, n)
        inv = linalg.inverse(m)
        assert linalg.matmul(m, inv) == oracles.identity(n)
        assert linalg.matmul(inv, m) == oracles.identity(n)
        assert linalg.det(m) != 0
        b = fuzz.invertible(rng, n)
        assert linalg.det(linalg.matmul(m, b)) == linalg.det(m) * linalg.det(b)


def test_singular_matrix_raises():
    with pytest.raises(SingularMatrixError):
        linalg.inverse(((1, 2), (2, 4)))
    assert linalg.det(((1, 2), (2, 4))) == 0


def test_triangular_det():
    m = ((2, 5, 1), (0, Fraction(1, 3), 7), (0, 0, -4))
    assert linalg.det(m) == Fraction(-8, 3)


def test_det_signs_the_last_pivot_by_the_pivot_order():
    # a scaled permutation matrix pivots on the rows in the order of its permutation, so
    # det reads the sign of every order of up to four rows
    for n in range(1, 5):
        for perm in itertools.permutations(range(n)):
            m = tuple(tuple(Fraction(i + 2, 3) * (j == perm[i]) for j in range(n)) for i in range(n))
            assert linalg.det(m) == oracles.det(m)
    assert linalg.det(()) == 1


def test_matvec_matmul_agree():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = fuzz.invertible(rng, n)
        v = fuzz.vector(rng, n)
        col = linalg.transpose([v])
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
        assert linalg.matmul(m, linalg.inverse(m)) == oracles.identity(n)


def test_nonsingular_mod_reads_the_determinant_mod_q():
    # the modulus is any prime q: small residues, p itself, or the default 2^61 - 1, where a
    # determinant divisible by q reads as singular and decides nothing
    rng = random.Random(18)
    q = linalg.CERTIFICATE_PRIME
    for n in (0, 1, 2, 3, 5):
        for _ in range(12):
            cols = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            d = int(sympy.Matrix(n, n, [x for c in cols for x in c]).det()) if n else 1
            for p in (2, 3, 5):
                assert linalg.nonsingular_mod(cols, p) is (d % p != 0)
            assert linalg.nonsingular_mod(cols) is (d != 0)
    assert not linalg.nonsingular_mod([[q, 0], [0, 1]])
    assert linalg.nonsingular_mod([[q, 0], [0, 1]], 3)
    # up to two rows the determinant is read in closed form, 1, x or ad - bc, which must
    # reduce mod q: here the entries lie near multiples of q, at p and at q itself
    for n in (0, 1, 2):
        for _ in range(40):
            cols = [[rng.randint(-4, 4) + q * rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            d = int(sympy.Matrix(n, n, [x for c in cols for x in c]).det()) if n else 1
            for mod in (2, 3, 5, q):
                assert linalg.nonsingular_mod(cols, mod) is (d % mod != 0)
    assert linalg.nonsingular_mod([]) and linalg.nonsingular_mod([], 2)
    assert not linalg.nonsingular_mod([[-q]]) and linalg.nonsingular_mod([[-q]], 2)
    assert not linalg.nonsingular_mod([[3]], 3) and linalg.nonsingular_mod([[3]])
    assert not linalg.nonsingular_mod([[1, 1], [1, 1 + q]])  # ad - bc = q
    assert linalg.nonsingular_mod([[1, 1], [1, 1 + q]], 2)
    assert not linalg.nonsingular_mod([[2, 1], [4, 5]], 3)  # ad - bc = 6
    assert linalg.nonsingular_mod([[2, 1], [4, 5]])


def _counted(monkeypatch, name):
    calls = []
    kernel = getattr(linalg, name)
    monkeypatch.setattr(linalg, name, lambda cols: calls.append(cols) or kernel(cols))
    return calls


def test_invertible_proves_mod_q_and_inverts_only_what_it_cannot(monkeypatch):
    # a determinant nonzero mod q proves the columns invertible, with no inverse; one that
    # vanishes there is decided by the exact inverse rows, returned, or SingularMatrixError
    q = linalg.CERTIFICATE_PRIME
    inverses = _counted(monkeypatch, "inverse_rows")
    rng = random.Random(19)
    for n in (1, 2, 3, 5, 8):
        for _ in range(4):
            assert linalg.invertible(linalg.cleared(fuzz.invertible(rng, n))) is None
    assert linalg.invertible([]) is None and inverses == []
    diagonal = linalg.cleared(((q, 0), (0, 1)))
    assert linalg.invertible(diagonal) == [([1, 0], q), ([0, 1], 1)]
    assert inverses == [diagonal]
    for singular in (((1, 2), (2, 4)), ((q, 2 * q, 0), (2 * q, 4 * q, q), (0, 0, 3 * q))):
        with pytest.raises(SingularMatrixError, match="matrix is singular"):
            linalg.invertible(linalg.cleared(singular))
    assert len(inverses) == 3


def test_invertibility_is_proven_through_invertible(monkeypatch):
    # a proven frame, columns that do not split and a non-member each ask linalg.invertible
    seen = _counted(monkeypatch, "invertible")
    rng = random.Random(20)
    nrm = fuzz.norm(rng, 3, 3)
    g = fuzz.invertible(rng, 3)
    act(g, nrm)  # proves g invertible, as a frame
    assert seen == [linalg.cleared(g)]
    seen.clear()
    frame = fuzz.invertible(rng, 3)
    assert apartment_coords(nrm, frame) is None
    _, _, table, _ = slots.slot_table(nrm._row_side, ([0] * 3, 1), linalg.cleared(frame), 3)
    assert seen == [[(c, 1) for c in table]]
    seen.clear()
    assert not is_stabilizer_element(nrm, g)
    # the table of B^-1 (g - 1) B that refused g, with d_j e_j added at slot (j, j): that of
    # B^-1 g B, whose determinant is det g times the nonzero denominators
    g_cols = linalg.cleared(g)
    for j, (c, e) in enumerate(g_cols):
        c[j] -= e
    _, _, table, dens = op_table(nrm, nrm, g_cols)
    for j, ((_, d), e) in enumerate(zip(nrm._inv_rows, dens)):
        table[j][j] += d * e
    assert seen == [[(c, 1) for c in table]]
