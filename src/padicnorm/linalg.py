"""Small exact linear algebra over Fraction.  Matrices are row-major
tuples of tuples; a basis is a matrix whose columns are the basis
vectors.  Everything here is dimension-agnostic and 0x0-safe.

to_fraction is the one gate for an outside scalar, library and CLI
alike: it reads num or num/den as integers, and refuses a float and an
exponent past the digit limit, which Fraction would expand in full.

The inner loops run over int.  A vector is *cleared* as (ints, den):
integers over one positive denominator, the lcm of its entries', by the
one rule clear.  cleared is the one read of a matrix, cleared_vector
of a vector and ratio of one scalar, with no Fraction matrix on the
way: each entry is read once, by as_integer_ratio, floats refused
first, then a ragged matrix, as transpose refuses one.  cleared_square adds the size check of
square_ratios, which returns the checked (numerator, denominator) rows
themselves.  Each operation has one kernel on cleared vectors:
times_cleared, kron_cleared, block_cleared, and inverse_rows, from
cleared columns to cleared rows by _eliminated, the one exact
elimination: an in-place fraction-free Gauss-Jordan (Bareiss, Math.
Comp. 22, 1968) updating n entries per row and step.
nonsingular_mod reads a determinant modulo a prime q on integer
columns, in closed form up to two rows and by forward elimination past
that: with q = p it decides a matrix of residues over F_p.  invertible
is the one rule that proves a matrix invertible: a nonzero determinant
modulo the word-sized prime 2^61 - 1 proves it with no inverse, and
only one that vanishes there is decided by the exact inverse_rows.
The Fraction functions matmul, matvec, kron, det and inverse are
views of the kernels, and no module of the package calls them: each
reads its input through cleared and its result back as Fractions, det
the last pivot of _eliminated.  They stay only because the benchmark
reads them, its tracer wrapping all five and its lattice check
calling matmul and det."""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from operator import mul

from .errors import DimensionMismatchError, PreconditionError, SingularMatrixError

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]
Cleared = list[tuple[list[int], int]]

# the default modulus of nonsingular_mod, a Mersenne prime: residues fit a machine word
CERTIFICATE_PRIME = 2**61 - 1


# num or num/den, read as integers; an exponent, in any of the digits Fraction reads
_PLAIN = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?")
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)")


def digit_limit() -> int:
    """Python's int-to-str digit limit, or its default when the limit is switched off."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def to_fraction(x) -> Fraction:
    """The gate for an outside scalar (module docstring): TypeError on a float,
    PreconditionError on an exponent past digit_limit, else Fraction's own errors."""
    if type(x) is Fraction:
        return x
    if isinstance(x, str):
        plain = _PLAIN.fullmatch(x)
        if plain:
            return Fraction(int(plain[1]), int(plain[2] or 1))
        exponent, limit = _EXPONENT.search(x), digit_limit()
        if exponent and (len(exponent[1]) > limit or abs(int(exponent[1])) > limit):
            raise PreconditionError(f"exponent beyond {limit} in {x!r}")
    elif isinstance(x, float):
        raise TypeError("floats are not exact; pass int, str or Fraction")
    return Fraction(x)


# the exact types _ratios reads without to_fraction
_RATIO = {Fraction: Fraction.as_integer_ratio, int: int.as_integer_ratio, bool: int.as_integer_ratio}


def _rectangular(rows):
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise DimensionMismatchError("ragged matrix")
    return rows


def units(n: int) -> Cleared:
    """The cleared columns of the n x n identity."""
    return [([int(i == j) for i in range(n)], 1) for j in range(n)]


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*_rectangular(m)))


def _ratios(row) -> list[tuple[int, int]]:
    """The (numerator, denominator) of each entry, from one as_integer_ratio call: ints and
    Fractions directly, anything else as to_fraction reads it, which refuses floats."""
    if not isinstance(row, (list, tuple)):
        row = list(row)  # the fallback reads the row a second time
    try:
        return [_RATIO[type(x)](x) for x in row]
    except KeyError:
        return [to_fraction(x).as_integer_ratio() for x in row]


def clear(ratios) -> tuple[list[int], int]:
    """Integers over the lcm of the ratios' denominators; numerators as they are at lcm 1."""
    d = math.lcm(*(b for _, b in ratios))
    return ([a * (d // b) for a, b in ratios] if d > 1 else [a for a, _ in ratios], d)


def cleared_vector(v) -> tuple[list[int], int]:
    """The vector as integers over the lcm of its denominators: (ints, lcm), each entry read
    once (see _ratios)."""
    return clear(_ratios(v))


def ratio(x) -> tuple[int, int]:
    """(num, den) of one outside scalar in lowest terms, read as _ratios reads an entry."""
    return _ratios((x,))[0]


def aligned(u, v) -> tuple[list[int], list[int], int]:
    """The integers of two cleared vectors over the lcm m of their denominators: (x, y, m)."""
    (x, d), (y, e) = u, v
    m = math.lcm(d, e)
    return [a * (m // d) for a in x], [b * (m // e) for b in y], m


def _read(rows) -> list[list[tuple[int, int]]]:
    """Each entry's ratio (_ratios), row by row: floats refused first, then a ragged matrix."""
    return _rectangular([_ratios(row) for row in rows])


def cleared(rows) -> Cleared:
    """The cleared columns of a matrix, from one read of each entry (_read)."""
    return [clear(col) for col in zip(*_read(rows))]


def square_ratios(rows, n: int | None = None, what: str = "matrix") -> list[list[tuple[int, int]]]:
    """_read's ratios, checked after _read's checks to be n x n, or square if n is None."""
    ratios = _read(rows)
    size = len(ratios) if n is None else n
    if len(ratios) != size or any(len(row) != size for row in ratios):
        shape = "square" if n is None else f"{n}x{n}"
        raise DimensionMismatchError(f"{what} must be {shape}")
    return ratios


def cleared_square(rows, n: int | None = None, what: str = "matrix") -> Cleared:
    """cleared, of a matrix that square_ratios checks to be n x n."""
    return [clear(col) for col in zip(*square_ratios(rows, n, what))]


def from_cleared_vector(v) -> Vector:
    """The Fractions of a cleared vector (ints, den), one Fraction(x, den) per entry."""
    ints, den = v
    return tuple(Fraction(x, den) for x in ints)


def from_cleared(vectors) -> Matrix:
    """The Fraction rows of cleared vectors (ints, den)."""
    return tuple(map(from_cleared_vector, vectors))


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


def _eliminated(cols):
    """The in-place fraction-free Gauss-Jordan elimination (Bareiss) on [C^T | I], for the
    cleared columns (c_j, e_j) of M = C diag(1/e): (rows, order, d), or None for a singular
    C.  The pivot of column k is taken from a row r_k = order[k] not yet pivoted, with no
    swap.  Once column k is cleared it is a multiple of a unit vector, so its slot stores
    column r_k of the right half instead, the one that comes alive at this step: each step
    updates n entries per row, not 2n.  At the end, with d the last pivot, the slots hold E
    with E C^T = d Q, where Q[r_k][k] = 1, so d is det C times the sign of order."""
    n = len(cols)
    rows = [list(c) for c, _ in cols]
    free = list(range(n))
    order = []
    prev = 1
    for k in range(n):
        pivot = next((r for r in free if rows[r][k]), None)
        if pivot is None:
            return None
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
    return rows, order, prev


def inverse_rows(cols) -> Cleared:
    """The cleared rows of M^-1, from the cleared columns (c_j, e_j) of M = C diag(1/e), by
    _eliminated: row k of (C^T)^-1 is row r_k of E over d, and M^-1 = diag(e) C^-1.  A
    singular C raises SingularMatrixError."""
    eliminated = _eliminated(cols)
    if eliminated is None:
        raise SingularMatrixError("matrix is singular")
    rows, order, prev = eliminated
    step = [0] * len(order)  # step[r_k] = k
    for k, r in enumerate(order):
        step[r] = k
    sign = -1 if prev < 0 else 1
    return [
        reduced([rows[r][step[i]] * sign * e for r in order], sign * prev)
        for i, (_, e) in enumerate(cols)
    ]


def nonsingular_mod(cols: list[list[int]], q: int = CERTIFICATE_PRIME) -> bool:
    """Is det C nonzero modulo the prime q, for the integer columns c_j of C?  With the
    default q, the word-sized Mersenne prime CERTIFICATE_PRIME, True proves C invertible, as
    det C != 0 mod q implies det C != 0, and False decides nothing (invertible reads it so,
    then decides exactly).  With q = p it decides whether a matrix of residues mod p is
    invertible over F_p.  Up to two rows det C is read in closed form (1, x, or ad - bc);
    past that, forward elimination on C^T mod q, in place on one reduced copy: a row update
    scales the row by the pivot, a unit mod q, so no inverse is taken."""
    n = len(cols)
    if n == 2:
        (a, c), (b, d) = cols
        return (a * d - b * c) % q != 0
    if n < 2:
        return not cols or cols[0][0] % q != 0
    rows = [[x % q for x in c] for c in cols]
    for k in range(n):
        for r in range(k, n):
            if rows[r][k]:
                break
        else:
            return False
        pivot, rows[r] = rows[r], rows[k]  # the pivot row is not read again from rows
        pk = pivot[k]
        for row in rows[k + 1 :]:
            f = row[k]
            if f:
                for i in range(k + 1, n):
                    row[i] = (pk * row[i] - f * pivot[i]) % q
    return True


def invertible(cols: Cleared) -> Cleared | None:
    """Prove the cleared columns of M invertible: None when nonsingular_mod finds det C
    nonzero modulo CERTIFICATE_PRIME, which proves it nonzero, with no inverse made; else the
    exact inverse_rows, which decide, raising SingularMatrixError for a singular C."""
    if nonsingular_mod([c for c, _ in cols]):
        return None
    return inverse_rows(cols)


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
    a_cols, b_cols = cleared(a), cleared(b)
    if a and len(a_cols) != len(b):
        raise DimensionMismatchError(f"cannot multiply {len(a_cols)} columns by {len(b)} rows")
    return from_cleared_columns(times_cleared(a_cols, b_cols), len(a))


def matvec(m: Matrix, v: Vector) -> Vector:
    cols, (x, e) = cleared(m), cleared_vector(v)
    if m and len(cols) != len(x):
        raise DimensionMismatchError(f"matrix is {len(m)}x{len(cols)}, vector has length {len(x)}")
    return tuple(row[0] for row in from_cleared_columns(times_cleared(cols, [(x, e)]), len(m)))


def kron(a: Matrix, b: Matrix) -> Matrix:
    return from_cleared_columns(kron_cleared(cleared(a), cleared(b)), len(a) * len(b))


def det(m: Matrix) -> Fraction:
    """The last pivot of _eliminated, signed by its row order, over prod e_j; 0 if singular."""
    cols = cleared_square(m)
    _, order, last = _eliminated(cols) or (None, (), 0)  # a singular C: det 0
    swaps = sum(a > b for i, a in enumerate(order) for b in order[i + 1 :])  # inversions
    return Fraction(-last if swaps % 2 else last, math.prod(e for _, e in cols))


def inverse(m: Matrix) -> Matrix:
    return from_cleared(inverse_rows(cleared_square(m)))

