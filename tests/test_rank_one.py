"""Maps of rank one, sized by their two factors.

Hom(V, W) = V^dual (x) W carries the tensor norm, whose value on a pure tensor is the sum
of its factors' sizes: a map h = u phi of rank one has op_size(src, dst, h) = dst(u) +
dual(src)(phi).  op_size, hom_norm, membership and the filtration level read such a map
so, with no product; here they are held against oracles.slot_max, which values every
slot of dst^-1 h src with sympy's inverse, against the ball oracle of membership, and
against the tensor norm itself.  Root-group elements 1 + t E_ji, conjugated out of the
splitting coordinates, are the stabilizer elements with g - 1 of rank one.
"""

import copy
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest

from padicnorm import FieldConfig, SplitNorm, linalg, slots
from padicnorm.errors import PreconditionError, SingularMatrixError
from padicnorm.norms import dual, evaluate, op_size, tensor
from padicnorm.stabilizer import filtration_level, hom_norm, is_stabilizer_element
from padicnorm.valuation import BOTTOM

import fuzz
import oracles

F = Fraction


def _dense(src, dst, h):
    """The operator size by oracles.slot_max, bottom at h = 0."""
    w = oracles.slot_max(src, dst, h)
    return BOTTOM if w is None else w


def _shifted(h, c):
    """h + c times the identity."""
    return tuple(tuple(x + c * (i == j) for j, x in enumerate(row)) for i, row in enumerate(h))


def _check_element(nrm, g) -> str:
    """Membership and the level of g against the oracles; the kind of g it found."""
    if oracles.det(g) == 0:
        for verb in (is_stabilizer_element, filtration_level):
            with pytest.raises(SingularMatrixError, match="matrix is singular"):
                verb(nrm, g)
        return "singular"
    inside = oracles.preserves_all_balls(nrm, g)
    assert is_stabilizer_element(nrm, g) is inside
    if not inside:
        with pytest.raises(PreconditionError, match="requires a stabilizer element"):
            filtration_level(nrm, g)
        return "outside"
    level = oracles.slot_max(nrm, nrm, _shifted(g, -1))
    assert filtration_level(nrm, g) == (BOTTOM if level is None or level <= -1 else level)
    return "inside"


def test_rank_one_sizes_match_the_dense_slot_maximum():
    rng = random.Random(120)
    for n in range(1, 7):
        for p in fuzz.PRIMES:
            for _ in range(4):
                a, b = fuzz.norm(rng, n, p), fuzz.norm(rng, n, p)
                h = fuzz.rank_one(rng, n, p)
                assert op_size(a, b, h) == _dense(a, b, h)
                assert op_size(b, a, h) == _dense(b, a, h)
                assert hom_norm(a, h) == _dense(a, a, h)


def test_rank_one_membership_and_level_match_the_oracles():
    # g = 1 + u phi has det 1 + phi(u): random ones are inside, outside (often by their
    # determinant) or singular; root-group elements are inside
    rng = random.Random(121)
    kinds = Counter()
    for n in range(1, 7):
        for p in fuzz.PRIMES:
            for _ in range(3):
                nrm = fuzz.norm(rng, n, p)
                h = fuzz.rank_one(rng, n, p)
                kinds[_check_element(nrm, _shifted(h, 1))] += 1
                if n > 1:
                    assert _check_element(nrm, fuzz.root_element(rng, nrm)) == "inside"
            # 1 + u phi with phi(u) = -1 is singular
            u = fuzz.vector(rng, n, nonzero=True)
            k = next(i for i, x in enumerate(u) if x)
            g = _shifted(tuple(tuple(-x * (j == k) / u[k] for j in range(n)) for x in u), 1)
            kinds[_check_element(nrm, g)] += 1
    assert kinds["inside"] and kinds["outside"] and kinds["singular"] == 6 * len(fuzz.PRIMES)


def test_op_size_is_the_size_of_h_in_the_tensor_norm():
    # vec stacks the columns of h: entry (j, i) of h is the coordinate of e_i^dual (x) f_j
    rng = random.Random(122)
    for _ in range(40):
        n, p = rng.randint(1, 4), rng.choice(fuzz.PRIMES)
        a, b = fuzz.norm(rng, n, p), fuzz.norm(rng, n, p)
        for h in (fuzz.rank_one(rng, n, p), fuzz.elementary_product(rng, n, p)):
            vec = tuple(row[i] for i in range(n) for row in h)
            assert op_size(a, b, h) == evaluate(tensor(dual(a), b), vec)


def test_rank_one_edge_cases():
    cfg = FieldConfig(3)
    # n = 1: every nonzero map has rank one, and 9 lowers the size by 2
    one = SplitNorm(cfg, 1, ((2,),), (F(1, 2),))
    assert hom_norm(one, ((9,),)) == -2 and op_size(one, one, ((F(1, 3),),)) == 1
    assert hom_norm(one, ((0,),)).is_bottom
    assert filtration_level(one, ((2,),)) == 0 and filtration_level(one, ((10,),)).is_bottom
    assert not is_stabilizer_element(one, ((3,),))
    # h = u phi with zero leading columns and rows and a negative first entry u[k], on a
    # norm with values -1, 0, 1/2 on the columns of an invertible basis
    nrm = SplitNorm(cfg, 3, ((1, 1, 0), (0, 1, 2), (1, 0, 1)), (F(-1), F(0), F(1, 2)))
    u, phi = (0, -3, F(1, 2)), (0, 0, F(5, 9))
    h = tuple(tuple(x * y for y in phi) for x in u)
    for src, dst in ((nrm, nrm), (nrm, SplitNorm(cfg, 3, oracles.identity(3), (0, 0, 0)))):
        assert op_size(src, dst, h) == _dense(src, dst, h)
    # h = 0 is bottom, at every size
    for n in (1, 3):
        zero = ((0,) * n,) * n
        assert hom_norm(SplitNorm(cfg, n, oracles.identity(n), (0,) * n), zero).is_bottom
    # a singular g raises and a g of non-unit determinant is refused, g - 1 of rank one
    with pytest.raises(SingularMatrixError, match="matrix is singular"):
        is_stabilizer_element(nrm, ((1, 0, 0), (0, 1, 0), (0, 0, 0)))
    assert not is_stabilizer_element(nrm, ((1, 0, 0), (0, 1, 0), (0, 0, 3)))
    with pytest.raises(PreconditionError, match="requires a stabilizer element"):
        filtration_level(nrm, ((1, 0, 0), (0, 1, 0), (0, 0, 3)))


def test_the_dual_side_is_copied_with_the_norm(monkeypatch):
    # a rank-one hom_norm makes the norm's _dual_side; pickle and deepcopy carry it, and the
    # same hom_norm on a copy inverts nothing
    inverses = []
    kernel = linalg.inverse_rows
    monkeypatch.setattr(linalg, "inverse_rows", lambda cols: inverses.append(cols) or kernel(cols))
    rng = random.Random(124)
    for n in range(1, 7):
        for p in fuzz.PRIMES:
            nrm, h = fuzz.norm(rng, n, p), fuzz.rank_one(rng, n, p)
            size = hom_norm(nrm, h)
            assert "_dual_side" in vars(nrm)
            for y in (pickle.loads(pickle.dumps(nrm)), copy.deepcopy(nrm)):
                assert "_dual_side" in vars(y) and y._dual_side == nrm._dual_side
                inverses.clear()
                assert hom_norm(y, h) == size
                assert inverses == []


def test_rank_one_builds_no_product(monkeypatch):
    # a rank-one h is sized from its two factors: no product and no table scan; any other h,
    # h = 0 among them, is one product and one scan
    counts = Counter()
    product, scan = linalg.times_cleared, slots.heaviest
    monkeypatch.setattr(linalg, "times_cleared", lambda *a: counts.update(["product"]) or product(*a))
    monkeypatch.setattr(slots, "heaviest", lambda *a: counts.update(["scan"]) or scan(*a))
    rng = random.Random(123)
    for n in range(2, 7):
        for p in fuzz.PRIMES:
            a, b = fuzz.norm(rng, n, p), fuzz.norm(rng, n, p)
            h = fuzz.rank_one(rng, n, p)
            for m in (h, _shifted(h, 1), ((0,) * n,) * n):
                expected = int(oracles.rank(m) != 1)
                counts.clear()
                op_size(a, b, m)
                assert counts == Counter(product=expected, scan=expected)
