"""Independent oracles the implementation must agree with.

Normal forms are allowed here and nowhere in the package: the Smith
oracle recomputes relative positions from elementary divisors, and the
ball oracles decide stabilizer membership and equality lattice by
lattice.  They build each ball here, from a norm's basis and values;
inverses come from sympy and products are taken here, in Fractions.
The value oracles (ball exponents, class counts, graded pieces) read
the values as plain Fractions, by math.ceil and floor, x % 1 and
sorting, where the package computes in integers.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import ceil, floor, lcm, prod
from operator import mul

import sympy
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError


def integral(x: Fraction, p: int) -> bool:
    """Does x lie in the valuation ring?  Zero does, as 0 = 0/1."""
    return x.denominator % p != 0


def valuation(x: Fraction, p: int) -> int:
    """Exponent of p in the nonzero rational x."""
    return sympy.multiplicity(p, x.numerator) - sympy.multiplicity(p, x.denominator)


def kron_vec(v, w) -> tuple:
    """Tensor product of two vectors, in the coordinate order of linalg.kron."""
    return tuple(x * y for x in v for y in w)


def canonical_rational(s: str) -> Fraction | None:
    """The rational s writes when it is written as str(Fraction) writes it, else None.
    Fraction expands exponents in full, so s must hold none."""
    try:
        x = Fraction(s)
    except (ValueError, ZeroDivisionError):
        return None
    return x if str(x) == s else None


def det(m) -> Fraction:
    """Determinant by sympy's own elimination."""
    d = sympy.Matrix(m).det()
    return Fraction(int(d.p), int(d.q))


def inverse(m) -> tuple:
    """Inverse by sympy's own elimination over QQ, as rows of Fractions; a singular m raises
    DMNonInvertibleMatrixError."""
    rows = [[sympy.QQ(x.numerator, x.denominator) for x in map(Fraction, row)] for row in m]
    inv = DomainMatrix(rows, (len(rows), len(rows)), sympy.QQ).inv().to_list()
    return tuple(tuple(Fraction(int(x.numerator), int(x.denominator)) for x in row) for row in inv)


def identity(n: int) -> tuple:
    """The n x n identity as int rows, which every matrix reader of the package accepts."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def product(a, b) -> tuple:
    """The matrix product of two row-major matrices of Fractions."""
    return tuple(tuple(sum(map(mul, row, col)) for col in zip(*b)) for row in a)


def rank(m) -> int:
    """Rank by sympy's own elimination."""
    return sympy.Matrix(m).rank()


def slot_max(src, dst, h) -> Fraction | None:
    """The greatest slot weight b_i - a_j - valuation(x_ij) over the nonzero entries x_ij of
    dst.basis^-1 @ h @ src.basis, a the values of src and b those of dst, every slot valued:
    the dense operator size of h from src to dst; None at h = 0."""
    m = product(inverse(dst.basis), product(h, src.basis))
    p = src.cfg.prime
    weights = [
        b - a - valuation(x, p)
        for b, row in zip(dst.values, m)
        for a, x in zip(src.values, row)
        if x
    ]
    return max(weights, default=None)


def ball_exponents(values, g, closed: bool = True) -> list[int]:
    """The exponents k_i of the ball B diag(p^k_i) at level g: ceil(a_i - g) for the closed
    ball, floor(a_i - g) + 1 for the open one."""
    g = Fraction(g)
    return [ceil(a - g) if closed else floor(a - g) + 1 for a in values]


def ball(nrm, g, closed: bool = True) -> tuple:
    """The closed (or open) ball of nrm at level g, B diag(p^k), from the norm's basis B and
    the ball_exponents k of its values."""
    p = nrm.cfg.prime
    scales = [Fraction(p) ** k for k in ball_exponents(nrm.values, g, closed)]
    return tuple(tuple(map(mul, row, scales)) for row in nrm.basis)


def degree(x) -> Fraction:
    """The class of x mod 1, represented in (-1, 0]."""
    r = Fraction(x) % 1
    return r - 1 if r else r


def class_counts(values) -> dict:
    """Multiplicity of each class a % 1 among the values, keys ascending in [0, 1)."""
    return dict(sorted(Counter(a % 1 for a in values).items()))


def special_fiber_units(values, p: int) -> int:
    """|(L/pL)^x| for the order L of a norm with these values: p^(n^2 - sum m_c^2) times prod_c
    |GL_{m_c}(F_p)|, m_c the multiplicity of class c, as L/J is prod_c M_{m_c}(F_p) for the
    radical J, and |GL_m(F_p)| = prod_{i<m} (p^m - p^i)."""
    ms = class_counts(values).values()
    levi = prod(p**m - p**i for m in ms for i in range(m))
    return p ** (len(values) ** 2 - sum(m * m for m in ms)) * levi


def graded_ball_dims(values, g) -> dict:
    """(m, m) for each degree of the class c - g, c a value class of multiplicity m, degrees
    descending in (-1, 0]."""
    pieces = {degree(c - Fraction(g)): (m, m) for c, m in class_counts(values).items()}
    return dict(sorted(pieces.items(), reverse=True))


def graded_dims(values) -> dict:
    """Slot counts by the degree of a_i - a_j over all pairs, degrees descending in (-1, 0]."""
    counts = Counter(degree(a - b) for a in values for b in values)
    return dict(sorted(counts.items(), reverse=True))


def extension_value_classes(values, e) -> dict:
    """Multiplicity of each class (e a % 1) / e, keys ascending in [0, 1/e)."""
    return dict(sorted(Counter((a * e) % 1 / e for a in values).items()))


def preserves_all_balls(nrm, g) -> bool:
    """Brute-force stabilizer test: g and its inverse must carry the
    ball lattice of every value class into itself."""
    g = tuple(tuple(map(Fraction, row)) for row in g)
    try:
        g_inv = inverse(g)
    except DMNonInvertibleMatrixError:
        return False
    p = nrm.cfg.prime
    for cls in nrm.value_classes:
        b = ball(nrm, cls)
        b_inv = inverse(b)
        for h in (g, g_inv):
            t = product(b_inv, product(h, b))
            if not all(integral(x, p) for row in t for x in row):
                return False
    return True


def balls_equal(a, b) -> bool:
    """Brute-force equality: the closed balls of both norms agree at one
    level per value class of either norm.

    The closed ball of a split norm at level g is the lattice spanned by
    p^(ceil(a_i - g)) e_i, and shifting g by -1 multiplies the ball by p.
    A split norm is recovered from its ball chain: the size of a nonzero
    v is the least g with v in ball(g), and that chain can only jump at
    levels congruent mod 1 to one of the a_i.  If two norms differ at
    some vector v, they differ at g = min of the two sizes of v, which
    is a value of one of them; hence comparing balls at one
    representative in [0, 1) of every value class of either norm is both
    sound and complete.
    """
    p = a.cfg.prime
    for g in sorted({x - floor(x) for x in a.values + b.values}):
        ball_a, ball_b = ball(a, g), ball(b, g)
        for outer, inner in ((ball_a, ball_b), (ball_b, ball_a)):
            t = product(inverse(outer), inner)
            if not all(integral(x, p) for row in t for x in row):
                return False
    return True


def smith_cartan(a, b) -> tuple[Fraction, ...]:
    """Relative position of two integer-valued norms via the elementary
    divisors of the transition matrix between their unit balls.

    An integer-valued norm is the lattice norm of its ball at 0, so the
    sorted exponent vector of the divisors is the position.
    """
    assert all(v.denominator == 1 for v in a.values)
    assert all(v.denominator == 1 for v in b.values)
    p = a.cfg.prime
    t = product(inverse(ball(a, 0)), ball(b, 0))
    d = lcm(*(x.denominator for row in t for x in row))
    m = sympy.Matrix([[int(x * d) for x in row] for row in t])
    s = smith_normal_form(m, domain=sympy.ZZ)
    shift = sympy.multiplicity(p, d)
    exps = [Fraction(sympy.multiplicity(p, int(s[i, i])) - shift) for i in range(a.dim)]
    return tuple(sorted(exps, reverse=True))
