"""Small exact linear algebra over Fraction.  Matrices are row-major
tuples of tuples; a basis is a matrix whose columns are the basis
vectors.  Everything here is dimension-agnostic and 0x0-safe.

The inner loops run over int.  A vector is *cleared* as (ints, den):
integers over one positive denominator, the lcm of its entries' when
cleared from Fractions by int_rows, which reads each entry once.  A
square matrix from outside, an acting g, an h or a frame, crosses the
boundary in one pass, cleared_square: it reads each entry once, refuses
floats, ragged and wrong-size matrices with the errors of square, and
returns cleared columns with no Fraction matrix in between.  Each
operation has one kernel on cleared vectors: times_cleared,
kron_cleared, block_cleared, inverse_rows, an in-place fraction-free
Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968) from cleared
columns to cleared rows, updating n entries per row and step, and
det_cleared, the forward half of that elimination.
nonsingular_mod runs forward elimination modulo the prime 2^61 - 1 on
word-sized residues: a nonzero determinant there proves the exact one
nonzero, so a matrix is shown invertible without its inverse.
The Fraction functions matmul, matvec, kron, block_diag, inverse and
det are views of them: each checks its input once through mat or
square, which refuse ragged matrices and floats, and reads the kernel's
result back as Fractions."""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import DimensionMismatchError, SingularMatrixError

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]
Cleared = list[tuple[list[int], int]]

# the modulus of nonsingular_mod, a Mersenne prime: residues fit a machine word
CERTIFICATE_PRIME = 2**61 - 1


def to_fraction(x) -> Fraction:
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass int, str or Fraction")
    return Fraction(x)


# the exact types _ratios reads without to_fraction
_RATIO = {Fraction: Fraction.as_integer_ratio, int: int.as_integer_ratio, bool: int.as_integer_ratio}


def vec(entries) -> Vector:
    return tuple(to_fraction(x) for x in entries)


def _check_ragged(rows) -> None:
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise DimensionMismatchError("ragged matrix")


def _check_square(rows, n: int | None, what: str) -> None:
    size = len(rows) if n is None else n
    if len(rows) != size or any(len(row) != size for row in rows):
        shape = "square" if n is None else f"{n}x{n}"
        raise DimensionMismatchError(f"{what} must be {shape}")


def mat(rows) -> Matrix:
    out = tuple(vec(r) for r in rows)
    _check_ragged(out)
    return out


def square(rows, n: int | None = None, what: str = "matrix") -> Matrix:
    """Coerce to a matrix that is n x n, or square of any size when n is None."""
    m = mat(rows)
    _check_square(m, n, what)
    return m


def identity(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    if not m:
        return ()
    return tuple(zip(*m))


def from_columns(cols) -> Matrix:
    return transpose(mat(cols))


def _ratios(row) -> list[tuple[int, int]]:
    """The (numerator, denominator) of each entry, from one as_integer_ratio call: ints and
    Fractions directly, anything else as to_fraction reads it, which refuses floats."""
    if not isinstance(row, (list, tuple)):
        row = list(row)  # the fallback reads the row a second time
    try:
        return [_RATIO[type(x)](x) for x in row]
    except KeyError:
        return [to_fraction(x).as_integer_ratio() for x in row]


def _clear(ratios) -> tuple[list[int], int]:
    """Integers over the lcm of the ratios' denominators; numerators as they are at lcm 1."""
    d = math.lcm(*(b for _, b in ratios))
    return ([a * (d // b) for a, b in ratios] if d > 1 else [a for a, _ in ratios], d)


def int_rows(m) -> Cleared:
    """Each row as integers over the lcm of its denominators: (ints, lcm), each entry read
    once (see _ratios)."""
    return [_clear(_ratios(row)) for row in m]


def cleared(m) -> Cleared:
    """The columns of a matrix, each cleared: integers over the lcm of its denominators."""
    return int_rows(transpose(m))


def cleared_square(rows, n: int | None = None, what: str = "matrix") -> Cleared:
    """The cleared columns of a matrix from outside, from one read of each entry: the checks
    and errors of square, floats refused first, then a ragged matrix, then one not n x n (or
    not square, when n is None), with no Fraction matrix built."""
    ratios = [_ratios(row) for row in rows]
    _check_ragged(ratios)
    _check_square(ratios, n, what)
    return [_clear(col) for col in zip(*ratios)]


def from_cleared(vectors) -> Matrix:
    """The Fraction rows of cleared vectors (ints, den)."""
    return tuple(tuple(Fraction(x, d) for x in v) for v, d in vectors)


def from_cleared_columns(cols: Cleared, rows: int) -> Matrix:
    """The row-major Fraction matrix with these cleared columns and this many rows.  A
    column of no integers, from a product by a matrix with no columns, is zero."""
    zero = [0] * rows
    return transpose(from_cleared((v or zero, d) for v, d in cols)) or ((),) * rows


def reduced(ints: list[int], den: int) -> tuple[list[int], int]:
    """A cleared vector with the common factor of its integers and denominator divided out."""
    g = math.gcd(den, *ints)
    return ([x // g for x in ints], den // g) if g > 1 else (ints, den)


def times_cleared(left, cols) -> Cleared:
    """The cleared columns of L @ X, from the cleared columns of L and of X."""
    den = math.lcm(*(d for _, d in left))  # L is an integer matrix over den
    rows = list(zip(*([x * (den // d) for x in v] for v, d in left)))
    return [reduced([sum(map(mul, r, c)) for r in rows], den * e) for c, e in cols]


def inverse_rows(cols) -> Cleared:
    """The cleared rows of M^-1, from the cleared columns (c_j, e_j) of M = C diag(1/e).

    In-place fraction-free Gauss-Jordan (Bareiss) on [C^T | I].  The
    pivot of column k is taken from a row r_k not yet pivoted, with no
    swap.  Once column k is cleared it is a multiple of a unit vector,
    so its slot stores column r_k of the right half instead, the one
    that comes alive at this step: each step updates n entries per row,
    not 2n.  At the end, with d the last pivot, the slots hold E with
    E C^T = d Q, where Q[r_k][k] = 1; row k of (C^T)^-1 is row r_k of E
    over d, and M^-1 = diag(e) C^-1.
    """
    n = len(cols)
    rows = [list(c) for c, _ in cols]
    free = list(range(n))
    order = []
    prev = 1
    for k in range(n):
        pivot = next((r for r in free if rows[r][k]), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        free.remove(pivot)
        order.append(pivot)
        top = rows[pivot]
        pk = top[k]
        for r, row in enumerate(rows):
            if r == pivot:
                continue
            f = row[k]
            if f:
                row = [(pk * x - f * y) // prev for x, y in zip(row, top)]
                row[k] = -f  # the identity column: (pk * 0 - f * prev) // prev
                rows[r] = row
            elif pk != prev:  # nothing to clear, but the rescale keeps the invariant
                rows[r] = [pk * x // prev for x in row]
        top[k] = prev  # the identity column at the pivot row, scaled like the others
        prev = pk
    step = [0] * n  # step[r_k] = k
    for k, r in enumerate(order):
        step[r] = k
    sign = -1 if prev < 0 else 1
    return [
        reduced([rows[r][step[i]] * sign * e for r in order], sign * prev)
        for i, (_, e) in enumerate(cols)
    ]


def det_cleared(cols) -> Fraction:
    """det C / prod e_j from the cleared columns (c_j, e_j) of M = C diag(1/e), by forward
    elimination (Bareiss) on C^T, updating only the rows below the pivot and the columns
    right of it; a row swap flips the sign, and the last pivot is det C up to it."""
    rows = [list(c) for c, _ in cols]
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if rows[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        pk, tail = rows[k][k], rows[k][k + 1 :]
        for row in rows[k + 1 :]:
            f = row[k]
            if f:
                row[k + 1 :] = [(pk * x - f * y) // prev for x, y in zip(row[k + 1 :], tail)]
            elif pk != prev:  # nothing to clear, but the rescale keeps the invariant
                row[k + 1 :] = [pk * x // prev for x in row[k + 1 :]]
        prev = pk
    return Fraction(sign * prev, math.prod(e for _, e in cols))


def nonsingular_mod(cols: Cleared) -> bool:
    """Is det C nonzero modulo q = CERTIFICATE_PRIME, for the cleared columns (c_j, e_j) of
    M = C diag(1/e)?  True proves M invertible, as det C != 0 mod q implies det C != 0; False
    decides nothing, and the exact inverse_rows must decide.  Forward elimination on C^T
    mod q: a row update scales the row by the pivot, a unit mod q, so no inverse is taken."""
    q = CERTIFICATE_PRIME
    rows = [[x % q for x in c] for c, _ in cols]
    n = len(rows)
    for k in range(n):
        pivot = next((r for r in range(k, n) if rows[r][k]), None)
        if pivot is None:
            return False
        rows[k], rows[pivot] = rows[pivot], rows[k]
        pk, tail = rows[k][k], rows[k][k + 1 :]
        for row in rows[k + 1 :]:
            f = row[k]
            if f:
                row[k + 1 :] = [(pk * x - f * y) % q for x, y in zip(row[k + 1 :], tail)]
    return True


def kron_cleared(u: Cleared, v: Cleared) -> Cleared:
    """The pairwise tensor products of two lists of cleared vectors, u outer: the cleared
    columns of kron(A, B) from those of A and B, and its cleared inverse rows from theirs."""
    return [([x * y for x in a for y in b], d * e) for a, d in u for b, e in v]


def block_cleared(u: Cleared, v: Cleared, m: int, n: int) -> Cleared:
    """The vectors of u, of length m, each followed by n zeros, then those of v, of length
    n, each after m zeros: the cleared columns of the block diagonal matrix of A and B from
    those of A and B, and its cleared inverse rows from theirs."""
    return [(w + [0] * n, d) for w, d in u] + [([0] * m + w, d) for w, d in v]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    a, b = mat(a), mat(b)
    if a and len(a[0]) != len(b):
        raise DimensionMismatchError(f"cannot multiply {len(a[0])} columns by {len(b)} rows")
    return from_cleared_columns(times_cleared(cleared(a), cleared(b)), len(a))


def matvec(m: Matrix, v: Vector) -> Vector:
    m, v = mat(m), vec(v)
    if m and len(m[0]) != len(v):
        raise DimensionMismatchError(f"matrix is {len(m)}x{len(m[0])}, vector has length {len(v)}")
    product = times_cleared(cleared(m), int_rows((v,)))
    return tuple(row[0] for row in from_cleared_columns(product, len(m)))


def kron(a: Matrix, b: Matrix) -> Matrix:
    a, b = mat(a), mat(b)
    return from_cleared_columns(kron_cleared(cleared(a), cleared(b)), len(a) * len(b))


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    a, b = mat(a), mat(b)
    cols = block_cleared(cleared(a), cleared(b), len(a), len(b))
    return from_cleared_columns(cols, len(a) + len(b))


def det(m: Matrix) -> Fraction:
    return det_cleared(cleared(square(m)))


def inverse(m: Matrix) -> Matrix:
    return from_cleared(inverse_rows(cleared(square(m))))

