"""Independent oracles the implementation must agree with.

Normal forms are allowed here and nowhere in the package: the Smith
oracle recomputes relative positions from elementary divisors, and the
ball oracles decide stabilizer membership and equality lattice by
lattice.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, lcm

import sympy
from sympy.matrices.normalforms import smith_normal_form

from padicnorm import linalg, norms
from padicnorm.errors import DomainError


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
    """Inverse by sympy's own elimination, as rows of Fractions."""
    inv = sympy.Matrix(m).inv()
    return tuple(tuple(Fraction(int(x.p), int(x.q)) for x in inv.row(i)) for i in range(inv.rows))


def preserves_all_balls(nrm, g) -> bool:
    """Brute-force stabilizer test: g and its inverse must carry the
    ball lattice of every value class into itself."""
    g = linalg.mat(g)
    try:
        g_inv = linalg.inverse(g)
    except DomainError:
        return False
    p = nrm.cfg.prime
    for cls in nrm.value_classes:
        ball = norms.ball_basis(nrm, cls)
        for h in (g, g_inv):
            t = linalg.matmul(ball.inv, linalg.matmul(h, ball.matrix))
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
        ball_a, ball_b = norms.ball_basis(a, g), norms.ball_basis(b, g)
        for outer, inner in ((ball_a, ball_b), (ball_b, ball_a)):
            t = linalg.matmul(outer.inv, inner.matrix)
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
    la = norms.ball_basis(a, 0)
    lb = norms.ball_basis(b, 0)
    t = linalg.matmul(la.inv, lb.matrix)
    d = lcm(*(x.denominator for row in t for x in row))
    m = sympy.Matrix([[int(x * d) for x in row] for row in t])
    s = smith_normal_form(m, domain=sympy.ZZ)
    shift = sympy.multiplicity(p, d)
    exps = [Fraction(sympy.multiplicity(p, int(s[i, i])) - shift) for i in range(a.dim)]
    return tuple(sorted(exps, reverse=True))
