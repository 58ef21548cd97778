"""op_size, hom_norm and evaluate against slot weights read off the Fraction product.

Slot (i, j) of dst.inv_basis @ h @ src.basis weighs dst_i - src_j - val(x_ij).  Here the
products are plain Fraction sums and the valuations come from the sympy oracle, while
the library reads them from integer dot products and denominators.
"""

import random
from fractions import Fraction

from padicnorm import FieldConfig, SplitNorm, linalg
from padicnorm.norms import evaluate, op_size
from padicnorm.stabilizer import hom_norm
from padicnorm.valuation import BOTTOM

import oracles

# (p, far): 2 takes the bit path of the integer valuation and 10^18 + 3 is a prime past one
# machine word; far entries have valuation 500-3000, which at 10^18 + 3 means 54,000-digit
# entries whose inverses take seconds, so that prime runs near entries only
CASES = ((2, False), (2, True), (3, False), (3, True), (10**18 + 3, False))


def _entry(rng, p, far):
    """Zero, or a signed unit times p^k over a mixed denominator; k is 500-3000 when far."""
    if rng.randrange(4) == 0:
        return Fraction(0)
    k = rng.randint(500, 3000) if far else rng.randint(-2, 3)
    num = rng.choice((-1, 1)) * rng.randint(1, 50) * Fraction(p) ** k
    return num / rng.choice((1, 2, 3, 12, p, p * p))


def _matrix(rng, n, p, far):
    return tuple(tuple(_entry(rng, p, far) for _ in range(n)) for _ in range(n))


def _norm(rng, n, p, far):
    while True:
        basis = _matrix(rng, n, p, far)
        if linalg.det(basis) != 0:
            values = [Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 4, 7))) for _ in range(n)]
            return SplitNorm(FieldConfig(p), n, basis, values)


def _product(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def _slot_max(row_values, m, col_values, p):
    weights = [
        b - a - oracles.valuation(x, p)
        for b, row in zip(row_values, m)
        for a, x in zip(col_values, row)
        if x
    ]
    return max(weights, default=BOTTOM)


def test_slot_weights_agree_with_fraction_products():
    rng = random.Random(91)
    for p, far in CASES:
        for n in (0, 1, 2, 3, 4):
            for _ in range(3):
                src, dst = _norm(rng, n, p, far), _norm(rng, n, p, far)
                h = _matrix(rng, n, p, far)
                zero = ((0,) * n,) * n
                inv = dst.inv_basis
                image = _product(h, src.basis)
                want = _slot_max(dst.values, _product(inv, src.basis), src.values, p)
                assert op_size(src, dst) == want
                assert op_size(src, dst, h) == _slot_max(dst.values, _product(inv, image), src.values, p)
                assert op_size(src, dst, zero) == BOTTOM
                own = _product(src.inv_basis, image)
                assert hom_norm(src, h) == _slot_max(src.values, own, src.values, p)
                v = [_entry(rng, p, far) for _ in range(n)]
                coords = _product(inv, [[x] for x in v])
                assert evaluate(dst, v) == _slot_max(dst.values, coords, (0,), p)
                assert evaluate(dst, (0,) * n) == BOTTOM
