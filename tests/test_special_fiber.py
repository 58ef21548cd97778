"""Membership decided on the special fiber, one family of g per branch.

An element g of the order is a unit exactly when its image in the Levi
quotient prod_c GL_{m_c}(F_p) is invertible.  Each family builds M in the
splitting coordinates of the norm, slot by slot, and conjugates it out as g =
B M B^-1; slot (i, j) of M holding r p^k, r a unit, weighs a_i - a_j - k.
Membership is checked against the ball oracle and the level against the
conjugation oracle, both in sympy; the rank of g - 1 and the sign of the
level are checked by the oracles too, so each family is known to take its
branch.
"""

import math
import random
from fractions import Fraction

import pytest

from padicnorm import FieldConfig, SplitNorm
from padicnorm.errors import PreconditionError, SingularMatrixError
from padicnorm.stabilizer import filtration_level, is_stabilizer_element
from padicnorm.valuation import BOTTOM

import fuzz
import oracles

F = Fraction


def _conjugated(nrm, m):
    return oracles.product(nrm.basis, oracles.product(m, oracles.inverse(nrm.basis)))


def _minus_one(g):
    return tuple(tuple(x - (i == j) for j, x in enumerate(row)) for i, row in enumerate(g))


def _oracle_level(nrm, g):
    """hom_norm(g - 1) by the conjugation oracle, None at g = 1."""
    return oracles.slot_max(nrm, nrm, _minus_one(g))


def _tail(rng, nrm):
    """Slots of weight below 0 in every position, some of them 0: the radical."""
    p, a, n = nrm.cfg.prime, nrm.values, nrm.dim
    return [
        [rng.randint(-3, 3) * F(p) ** (math.floor(a[i] - a[j]) + rng.randint(1, 2)) for j in range(n)]
        for i in range(n)
    ]


def _levi(rng, nrm, unit):
    """A Levi element plus the radical: each class block holds residues r_ij at weight 0, r
    nonsingular mod p when unit, else singular mod p, in a random class."""
    p, a, n = nrm.cfg.prime, nrm.values, nrm.dim
    m = _tail(rng, nrm)
    classes = {}
    for i, x in enumerate(a):
        classes.setdefault(x % 1, []).append(i)
    blocks = list(classes.values())
    bad = None if unit else rng.randrange(len(blocks))
    for c, idx in enumerate(blocks):
        while True:
            r = [[rng.randrange(p) for _ in idx] for _ in idx]
            if (oracles.det(r) % p != 0) is (c != bad):
                break
        for s, i in enumerate(idx):
            for t, j in enumerate(idx):
                # a residue 0 leaves the radical's entry, of weight below 0
                m[i][j] += r[s][t] * F(p) ** (a[i] - a[j])
    return m


def _draw(rng, nrm, build, level_sign, rank_one=False):
    """g = B M B^-1 from build(rng, nrm), drawn again until g is invertible, g - 1 has rank
    one (rank_one) or two or more, and the oracle level has this sign; None after 20 draws.
    At p = 2 a norm of one value per class has no unit of level 0, as GL_1(F_2) = 1."""
    for _ in range(20):
        g = _conjugated(nrm, build(rng, nrm))
        h = _minus_one(g)
        rank = oracles.rank(h)
        level = _oracle_level(nrm, g)
        if (
            oracles.det(g) != 0
            and (rank == 1 if rank_one else rank >= 2)
            and level is not None
            and (level > 0) - (level < 0) == level_sign
        ):
            return g


def _full_rank_radical(rng, nrm):
    m = _tail(rng, nrm)
    while oracles.rank(m) < nrm.dim:
        m = _tail(rng, nrm)
    return [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(m)]


def _outside(rng, nrm):
    """A Levi unit plus the radical, with one slot of weight in (0, 1]."""
    p, a, n = nrm.cfg.prime, nrm.values, nrm.dim
    m = _levi(rng, nrm, True)
    i, j = rng.randrange(n), rng.randrange(n)
    m[i][j] += fuzz.unit(rng, p) * F(p) ** (math.ceil(a[i] - a[j]) - 1)
    return m


def _rank_one(sign):
    """A builder of 1 + u phi in the splitting coordinates, u phi of p-power entries scaled
    by a power of p to a level of this sign."""

    def build(rng, nrm):
        p, a, n = nrm.cfg.prime, nrm.values, nrm.dim
        while True:
            h = fuzz.rank_one(rng, n, p)
            w = max(
                a[i] - a[j] - oracles.valuation(x, p)
                for i, row in enumerate(h)
                for j, x in enumerate(row)
                if x
            )
            if sign or w.denominator == 1:  # level 0 needs a slot of integer weight
                break
        k = {-1: math.floor(w) + 1, 0: int(w), 1: math.ceil(w) - 1}[sign]
        return [[x * F(p) ** k + (i == j) for j, x in enumerate(row)] for i, row in enumerate(h)]

    return build


FAMILIES = {
    # name: (build, sign of the level, g - 1 of rank one, member)
    "radical": (_full_rank_radical, -1, False, True),
    "levi-unit": (lambda rng, nrm: _levi(rng, nrm, True), 0, False, True),
    "levi-singular": (lambda rng, nrm: _levi(rng, nrm, False), 0, False, False),
    "outside": (_outside, 1, False, False),
}


def _check(nrm, g, member):
    assert is_stabilizer_element(nrm, g) is oracles.preserves_all_balls(nrm, g) is member
    if member:
        want = _oracle_level(nrm, g)
        assert filtration_level(nrm, g) == (BOTTOM if want is None or want <= -1 else want)
    else:
        with pytest.raises(PreconditionError, match="requires a stabilizer element"):
            filtration_level(nrm, g)


@pytest.mark.parametrize("family", FAMILIES)
def test_each_branch_matches_the_oracles(family):
    build, sign, rank_one, member = FAMILIES[family]
    rng = random.Random(f"special-fiber-{family}")
    for p in fuzz.PRIMES:
        for n in range(2, 6):
            checked = 0
            while checked < 2:
                nrm = fuzz.norm(rng, n, p)
                g = _draw(rng, nrm, build, sign, rank_one)
                if g is not None:
                    _check(nrm, g, member)
                    checked += 1


def test_rank_one_matches_the_oracles():
    # det g = 1 + phi(u) decides a unit of the order; members are root-group elements and
    # non-members are drawn at every sign of the level
    rng = random.Random(86)
    seen = set()
    for p in fuzz.PRIMES:
        for n in range(1, 6):
            nrm = fuzz.norm(rng, n, p)
            gs = [_draw(rng, nrm, _rank_one(sign), sign, True) for sign in (-1, 0, 1)]
            if n > 1:
                gs.append(fuzz.root_element(rng, nrm))
            for g in gs:
                member = oracles.preserves_all_balls(nrm, g)
                seen.add((member, oracles.valuation(oracles.det(g), p) == 0))
                _check(nrm, g, member)
    # members, and non-members both of unit and of non-unit determinant
    assert {(True, True), (False, True), (False, False)} <= seen


def test_a_singular_matrix_raises_in_each_branch():
    std = SplitNorm(FieldConfig(2), 2, oracles.identity(2), (F(0), F(0)))
    alpha = SplitNorm(FieldConfig(2), 2, oracles.identity(2), (F(0), F(1, 2)))
    std3 = SplitNorm(FieldConfig(3), 2, oracles.identity(2), (F(0), F(0)))
    cases = [
        (std, ((0, 0), (0, 1)), 1, 0),  # rank one: 1 + phi(u) = 0
        (alpha, ((0, 0), (0, 1)), 1, 0),
        (std, ((2, 2), (2, 2)), 2, 0),  # level 0, its Levi block 0 mod 2
        (std3, ((3, 3), (3, 3)), 2, 0),
        (alpha, ((1, 1), (1, 1)), 2, 1),  # level 1/2
    ]
    for nrm, g, rank, sign in cases:
        level = _oracle_level(nrm, g)
        assert oracles.rank(_minus_one(g)) == rank and (level > 0) - (level < 0) == sign
        for verb in (is_stabilizer_element, filtration_level):
            with pytest.raises(SingularMatrixError, match="matrix is singular"):
                verb(nrm, g)


def test_a_determinant_divisible_by_the_certificate_prime_is_read_exactly():
    # diag(2^61 - 1, 3) at p = 3: level 0, and its Levi block diag(1, 0) mod 3 is singular;
    # det g = 3 (2^61 - 1) vanishes modulo the certificate prime, so the exact determinant
    # tells it from a singular g
    std3 = SplitNorm(FieldConfig(3), 2, oracles.identity(2), (F(0), F(0)))
    g = ((2**61 - 1, 0), (0, 3))
    assert _oracle_level(std3, g) == 0
    _check(std3, g, False)


def test_blocks_of_one_row_are_tested():
    # two value classes of one value each at p = 3: diag(9, -9) - 1 = diag(8, -10) has level
    # 0, yet each Levi block, 9 and -9 mod 3, is 0; diag(2, -2) has units there
    nrm = SplitNorm(FieldConfig(3), 2, oracles.identity(2), (F(0), F(1, 2)))
    for g, member in ((((9, 0), (0, -9)), False), (((2, 0), (0, -2)), True)):
        assert _oracle_level(nrm, g) == 0
        _check(nrm, g, member)
