"""Small exact linear algebra over Fraction.  Matrices are row-major
tuples of tuples; a basis is a matrix whose columns are the basis
vectors.  Everything here is dimension-agnostic and 0x0-safe."""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatchError, SingularMatrixError

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


def to_fraction(x) -> Fraction:
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


def matvec(m: Matrix, v: Vector) -> Vector:
    if m and len(m[0]) != len(v):
        raise DimensionMismatchError(f"matrix is {len(m)}x{len(m[0])}, vector has length {len(v)}")
    return tuple(sum((row[k] * v[k] for k in range(len(v))), Fraction(0)) for row in m)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return tuple(() for _ in a)
    if len(a[0]) != len(b):
        raise DimensionMismatchError(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    bt = transpose(b)
    return tuple(
        tuple(sum((row[k] * col[k] for k in range(len(b))), Fraction(0)) for col in bt)
        for row in a
    )


def scalar_mul(c, m: Matrix) -> Matrix:
    c = to_fraction(c)
    return tuple(tuple(c * x for x in row) for row in m)


def inverse(m: Matrix) -> Matrix:
    n = len(m)
    if any(len(r) != n for r in m):
        raise DimensionMismatchError("inverse needs a square matrix")
    work = [list(row) + list(identity(n)[i]) for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv_p = 1 / work[col][col]
        work[col] = [x * inv_p for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def det(m: Matrix) -> Fraction:
    n = len(m)
    if any(len(r) != n for r in m):
        raise DimensionMismatchError("det needs a square matrix")
    work = [list(row) for row in m]
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            result = -result
        result *= work[col][col]
        for r in range(col + 1, n):
            if work[r][col] != 0:
                f = work[r][col] / work[col][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return result


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


def kron_vec(v: Vector, w: Vector) -> Vector:
    return tuple(x * y for x in v for y in w)


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    na, nb = len(a), len(b)
    ca = len(a[0]) if a else 0
    cb = len(b[0]) if b else 0
    zero = Fraction(0)
    top = tuple(tuple(a[i]) + (zero,) * cb for i in range(na))
    bottom = tuple((zero,) * ca + tuple(b[i]) for i in range(nb))
    return top + bottom
