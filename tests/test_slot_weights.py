"""op_size, hom_norm and evaluate against slot weights read off the Fraction product.

Slot (i, j) of dst.inv_basis @ h @ src.basis weighs dst_i - src_j - val(x_ij).  Here the
products are plain Fraction sums and the valuations come from the sympy oracle, while
the library reads them from integer dot products and denominators.  evaluate computes a
coordinate only while its row can win and values a slot only after a p^k test: it is
held against a dense oracle that values every coordinate, it multiplies out only the
rows it reads, and a slot far above the best weight builds no p^k.  The slot test
itself, _gain, is held against integers of known valuation, and it values the
remainder mod p^k, not the slot.
"""

import random
from fractions import Fraction

import pytest
import sympy

from padicnorm import FieldConfig, SplitNorm, slots
from padicnorm.building import norm_from_apartment
from padicnorm.norms import act, equals, evaluate, op_size
from padicnorm.stabilizer import filtration_level, hom_norm
from padicnorm.linalg import digit_limit
from padicnorm.valuation import BOTTOM, PRIME_LIMIT, multiplicity

import fuzz
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
        if oracles.det(basis) != 0:
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


def _dense_size(nrm, coords):
    """max_i (a_i - val(l_i)) over the nonzero coordinates l, every one valued."""
    p = nrm.cfg.prime
    weights = [a - oracles.valuation(x, p) for a, x in zip(nrm.values, coords) if x]
    return max(weights, default=BOTTOM)


def _coordinate(rng, p, far):
    """Zero, a unit, or a unit times p^k over a mixed denominator; k is 500-3000 when far."""
    kind = rng.randrange(5)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.choice((-1, 1)))
    k = rng.randint(500, 3000) if far else rng.randint(-3, 12)
    return rng.choice((-1, 1)) * rng.randint(1, 50) * Fraction(p) ** k / rng.choice((1, 2, 3, 12))


@pytest.mark.parametrize("p", [2, 3, 5, 10**18 + 3])
def test_evaluate_agrees_with_the_dense_oracle(p):
    # v = B l for chosen coordinates l, so the oracle values l itself; the bases have
    # p-power columns, and the values of one norm in three repeat, which ties row weights
    rng = random.Random(p % 1000)
    cfg = FieldConfig(p)
    for n in (0, 1, 2, 5, 8, 16):
        for trial in range(3):
            scales = [Fraction(p) ** rng.randint(-2, 2) for _ in range(n)]
            base = fuzz.invertible(rng, n) if n else ()
            basis = tuple(tuple(x * c for x, c in zip(row, scales)) for row in base)
            if trial == 0:
                values = (rng.choice((Fraction(0), Fraction(1, 2))),) * n
            else:
                values = fuzz.values(rng, n)
            nrm = SplitNorm(cfg, n, basis, values)
            coords = [(0,) * n]
            coords += [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
            coords += [tuple(_coordinate(rng, p, far) for _ in range(n)) for far in (False, True)] * 2
            for lam in coords:
                v = tuple(x for (x,) in oracles.product(basis, tuple((x,) for x in lam)))
                assert evaluate(nrm, v) == _dense_size(nrm, lam)


def test_evaluate_multiplies_out_only_the_heaviest_row(monkeypatch):
    # the unit vector of the largest value wins on the heaviest row, and no other row can
    # beat it: one dot product of n terms, where a full column makes n of them
    n = 16
    values = tuple(Fraction(k, 3) for k in random.Random(7).sample(range(-40, 40), n))
    nrm = norm_from_apartment(values, FieldConfig(3))
    e = tuple(int(a == max(values)) for a in values)
    assert evaluate(nrm, e) == max(values)  # makes the row side
    products = []

    def counted(x, y):
        products.append(1)
        return x * y

    monkeypatch.setattr(slots, "mul", counted)
    assert evaluate(nrm, e) == max(values)
    assert len(products) == n


@fuzz.needs_alarm
@pytest.mark.parametrize("gap", [10**6, 10 ** (digit_limit() - 1)], ids=["1e6", "digit-limit"])
def test_far_apart_values_build_no_power_of_p(gap):
    # a slot that beats the best weight by k valuation steps is tested mod p^k unless k
    # reaches the entry's bit length; with values this far apart p^k would not fit memory
    cfg = FieldConfig(5)
    n = 4
    basis = fuzz.invertible(random.Random(3), n)
    far = SplitNorm(cfg, n, basis, tuple(Fraction(k * gap) for k in range(n)))
    near = SplitNorm(cfg, n, oracles.identity(n), (Fraction(0),) * n)
    g = tuple(tuple(Fraction(2 * int(i == j)) for j in range(n)) for i in range(n))
    with fuzz.time_limit(1, "a slot read built a power of p past the entry's size"):
        assert evaluate(far, (1, 2, 3, 4)) >= 0
        assert evaluate(near, (1, 2, 3, 4)) == 0
        assert not equals(near, far) and not equals(far, near)
        assert op_size(near, far) >= (n - 1) * gap and op_size(far, near) <= 1
        assert filtration_level(far, g) == 0


def _prime_to(rng, bits, p):
    """A seeded integer of exactly this many bits, prime to p."""
    while True:
        u = rng.getrandbits(bits) | 1 << (bits - 1)
        if u % p:
            return u


@pytest.mark.parametrize("p", [2, 3, 5, 10**18 + 3, sympy.prevprime(PRIME_LIMIT)])
def test_gain_is_the_weight_when_it_beats_best(p):
    # x = +-u p^v with v known by construction; best is placed so that the call derives
    # k = ceil((top - best) / scale) steps, and v runs over k - 1, k and k + 1, and far
    # below k once k reaches or passes the bit length of x
    rng = random.Random(p % 1000)
    for bits in (1, 2, 64, 1000, 20_000):
        for scale in (1, 3, 12):
            for k in (1, 2, 7, 40):
                u = rng.choice((-1, 1)) * _prime_to(rng, bits, p)
                top = rng.randint(-10**6, 10**6)
                best = top - scale * k + rng.randrange(scale)
                cases = [(v, best) for v in (k - 1, k, k + 1)]
                cases += [(v, None) for v in (0, k)]
                x = u * p**2
                cases += [(2, top - scale * m) for m in (x.bit_length(), x.bit_length() + 5)]
                for v, b in cases:
                    w = top - scale * v
                    want = w if b is None or w > b else None
                    assert slots._gain(u * p**v, top, b, scale, p) == want


def test_a_slot_test_values_only_its_remainder(monkeypatch):
    # the first row sets the best weight at -2000; the second, 2000 valuation steps above
    # it, is nonzero mod 3^2000, and is valued on that remainder, not on its 10,000-bit unit
    rng = random.Random(45)
    nrm = norm_from_apartment((0, 0), FieldConfig(3))
    v = (3**2000 * _prime_to(rng, 10_000, 3), 3**1000 * _prime_to(rng, 10_000, 3))
    assert evaluate(nrm, v) == -1000  # makes the row side
    lengths = []

    def recorded(n, p):
        lengths.append(n.bit_length())
        return multiplicity(n, p)

    monkeypatch.setattr(slots, "multiplicity", recorded)
    assert evaluate(nrm, v) == -1000
    assert len(lengths) == 2 and lengths[1] < (3**2000).bit_length()
