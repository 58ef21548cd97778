"""Small exact linear algebra over Fraction.  Matrices are row-major
tuples of tuples; a basis is a matrix whose columns are the basis
vectors.  Everything here is dimension-agnostic and 0x0-safe.

Fraction is the type at every function boundary; the inner loops run
over int.  Each row or column is cleared of denominators once, products
are integer dot products, and `inverse` and `det` share one
fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968)
on the cleared columns, since a basis vector is scaled as a whole."""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import DimensionMismatchError, SingularMatrixError

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


def to_fraction(x) -> Fraction:
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass int, str or Fraction")
    return Fraction(x)


def vec(entries) -> Vector:
    return tuple(to_fraction(x) for x in entries)


def mat(rows) -> Matrix:
    out = tuple(vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise DimensionMismatchError("ragged matrix")
    return out


def square(rows, n: int | None = None, what: str = "matrix") -> Matrix:
    """Coerce to a matrix that is n x n, or square of any size when n is None."""
    m = mat(rows)
    size = len(m) if n is None else n
    if len(m) != size or any(len(row) != size for row in m):
        shape = "square" if n is None else f"{n}x{n}"
        raise DimensionMismatchError(f"{what} must be {shape}")
    return m


def identity(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    if not m:
        return ()
    return tuple(zip(*m))


def columns(m: Matrix) -> tuple[Vector, ...]:
    return transpose(m)


def from_columns(cols) -> Matrix:
    return transpose(mat(cols))


def int_rows(m) -> list[tuple[list[int], int]]:
    """Each row as integers over the lcm of its denominators: (ints, lcm)."""
    out = []
    for row in m:
        d = math.lcm(*(x.denominator for x in row))
        out.append(([x.numerator * (d // x.denominator) for x in row], d))
    return out


def matvec(m: Matrix, v: Vector) -> Vector:
    if m and len(m[0]) != len(v):
        raise DimensionMismatchError(f"matrix is {len(m)}x{len(m[0])}, vector has length {len(v)}")
    ((w, e),) = int_rows((v,))
    return tuple(Fraction(sum(map(mul, r, w)), d * e) for r, d in int_rows(m))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return tuple(() for _ in a)
    if len(a[0]) != len(b):
        raise DimensionMismatchError(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    cols = int_rows(transpose(b))
    return tuple(
        tuple(Fraction(sum(map(mul, r, c)), d * e) for c, e in cols) for r, d in int_rows(a)
    )


def scalar_mul(c, m: Matrix) -> Matrix:
    c = to_fraction(c)
    return tuple(tuple(c * x for x in row) for row in m)


def _bareiss(rows: list[list[int]], n: int) -> tuple[list[list[int]], int] | None:
    """Fraction-free Gauss-Jordan on the first n columns of integer rows.

    Returns the reduced rows and the determinant of the leading n x n
    block, or None when that block is singular.  At the end the block
    is det times the identity, so the remaining columns hold det times
    the block's inverse applied to them."""
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if rows[r][k]), None)
        if pivot is None:
            return None
        if pivot != k:  # a swap with one row negated keeps the determinant
            rows[k], rows[pivot] = [-x for x in rows[pivot]], rows[k]
        top = rows[k]
        pk = top[k]
        for r in range(n):
            f = rows[r][k]
            if r != k and f:
                rows[r] = [(pk * x - f * y) // prev for x, y in zip(rows[r], top)]
            elif r != k and pk != prev:  # nothing to clear, but the rescale keeps the invariant
                rows[r] = [pk * x // prev for x in rows[r]]
        prev = pk
    return rows, prev


def inverse(m: Matrix) -> Matrix:
    n = len(m)
    if any(len(r) != n for r in m):
        raise DimensionMismatchError("inverse needs a square matrix")
    # column j of m is column j of an integer matrix C over e_j, so m^-1 = diag(e) C^-1
    cols = int_rows(transpose(m))
    reduced = _bareiss([c + [int(i == j) for j in range(n)] for i, (c, _) in enumerate(cols)], n)
    if reduced is None:
        raise SingularMatrixError("matrix is singular")
    rows, d = reduced  # the right half of rows is d (C^T)^-1
    return tuple(tuple(Fraction(e * row[n + i], d) for row in rows) for i, (_, e) in enumerate(cols))


def det(m: Matrix) -> Fraction:
    n = len(m)
    if any(len(r) != n for r in m):
        raise DimensionMismatchError("det needs a square matrix")
    cols = int_rows(transpose(m))
    reduced = _bareiss([c for c, _ in cols], n)
    if reduced is None:
        return Fraction(0)
    return Fraction(reduced[1], math.prod(e for _, e in cols))


def kron(a: Matrix, b: Matrix) -> Matrix:
    ra = len(a)
    ca = len(a[0]) if a else 0
    rb = len(b)
    cb = len(b[0]) if b else 0
    return tuple(
        tuple(a[i][j] * b[k][l] for j in range(ca) for l in range(cb))
        for i in range(ra)
        for k in range(rb)
    )


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    na, nb = len(a), len(b)
    ca = len(a[0]) if a else 0
    cb = len(b[0]) if b else 0
    zero = Fraction(0)
    top = tuple(tuple(a[i]) + (zero,) * cb for i in range(na))
    bottom = tuple((zero,) * ca + tuple(b[i]) for i in range(nb))
    return top + bottom
