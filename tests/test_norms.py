"""Norm evaluation, category operations, balls, and equality.

The named norms here are fixed throughout the suite: alpha0 has values
(0, 1/2) on the standard basis at p = 2; beta is the standard lattice
norm of the same dimension.
"""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from padicnorm import FieldConfig, LatticeBasis, SplitNorm, io, linalg
from padicnorm.building import point_type
from padicnorm.errors import (
    ConfigMismatchError,
    DimensionMismatchError,
    PreconditionError,
    SingularMatrixError,
)
from padicnorm.norms import (
    act,
    ball_basis,
    ball_basis_open,
    common_splitting_basis,
    direct_sum,
    distance,
    dual,
    equals,
    evaluate,
    lattice_contains,
    lattice_norm,
    lattices_equal,
    op_size,
    quotient,
    restrict,
    tensor,
)
from padicnorm.splittings import norm_from_pair, pair_from_norm, translate_pair
from padicnorm.stabilizer import chain_period
from padicnorm.valuation import pval

import fuzz
import oracles

F = Fraction
CFG2 = FieldConfig(2)
ALPHA0 = SplitNorm(CFG2, 2, ((1, 0), (0, 1)), (F(0), F(1, 2)))
BETA = SplitNorm(CFG2, 2, ((1, 0), (0, 1)), (F(0), F(0)))


def dot(phi, v):
    return sum(x * y for x, y in zip(phi, v))


def in_lattice(lat, v):
    coords = oracles.image(lat.inv, v)
    return all(x.denominator % lat.cfg.prime for x in coords)


def test_evaluate_examples():
    assert evaluate(ALPHA0, (1, 1)) == F(1, 2)
    assert evaluate(ALPHA0, (0, 0)).is_bottom
    assert evaluate(BETA, (F(3, 2), 5)) == 1
    assert evaluate(ALPHA0, (0, 2)) == -F(1, 2)
    with pytest.raises(DimensionMismatchError):
        evaluate(ALPHA0, (1, 0, 0))


def test_lattice_norm_examples():
    assert evaluate(lattice_norm(LatticeBasis(CFG2, oracles.identity(2))), (1, 0)) == 0
    l = LatticeBasis(CFG2, ((2, 0), (0, 1)))
    assert evaluate(lattice_norm(l), (1, 0)) == 1
    assert lattice_norm(l).values == (F(0), F(0))


def test_ball_basis_examples():
    assert ball_basis(ALPHA0, 0).matrix == ((1, 0), (0, 2))
    assert ball_basis(ALPHA0, F(1, 2)).matrix == ((1, 0), (0, 1))
    assert ball_basis(ALPHA0, -1).matrix == ((2, 0), (0, 4))
    assert ball_basis_open(ALPHA0, 0).matrix == ((2, 0), (0, 2))
    # 2^k is refused before it is built once k log10 2 passes twice the digit limit (8,600)
    assert ball_basis(ALPHA0, -28000).matrix[0][0] == 2**28000
    for g in (-29000, -(10**10)):
        with pytest.raises(PreconditionError):
            ball_basis(ALPHA0, g)


def test_distance_of_far_values():
    """Values 0 and 100000 put the canonical common basis past the digit guard, but the
    relative position is read before any column is scaled."""
    far = SplitNorm(CFG2, 2, oracles.identity(2), (F(0), F(100000)))
    zero = SplitNorm(CFG2, 2, oracles.identity(2), (F(0), F(0)))
    assert distance(far, zero) == (F(100000), (F(0), F(-100000)))
    assert distance(zero, far) == (F(100000), (F(100000), F(0)))
    with pytest.raises(PreconditionError):
        common_splitting_basis(far, zero)


def test_ball_of_lattice_norm_recovers_lattice():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 5)
        cfg = FieldConfig(rng.choice(fuzz.PRIMES))
        l = fuzz.lattice(rng, cfg, n)
        assert lattices_equal(ball_basis(lattice_norm(l), 0), l)


def test_ball_membership_matches_evaluate():
    # independent routes: lattice membership vs the max formula, and the ball itself vs the
    # one oracles.ball builds from the basis and values alone
    rng = random.Random(32)
    for _ in range(250):
        nrm = fuzz.norm(rng)
        g = fuzz.rational(rng, 3, 4)
        v = fuzz.vector(rng, nrm.dim, nonzero=True)
        size = evaluate(nrm, v)
        assert ball_basis(nrm, g).matrix == oracles.ball(nrm, g)
        assert (size <= g) == in_lattice(ball_basis(nrm, g), v)
        assert (size < g) == in_lattice(ball_basis_open(nrm, g), v)


def test_ball_functoriality():
    rng = random.Random(33)
    for _ in range(150):
        nrm = fuzz.norm(rng)
        g = fuzz.rational(rng, 3, 4)
        p = nrm.cfg.prime
        shifted = ball_basis(nrm, g - 1)
        scaled = tuple(tuple(p * x for x in row) for row in ball_basis(nrm, g).matrix)
        assert lattices_equal(shifted, LatticeBasis(nrm.cfg, scaled))


def test_ultrametric_and_scaling():
    rng = random.Random(34)
    for _ in range(300):
        nrm = fuzz.norm(rng)
        v = fuzz.vector(rng, nrm.dim)
        w = fuzz.vector(rng, nrm.dim)
        s = tuple(x + y for x, y in zip(v, w))
        assert evaluate(nrm, s) <= max(evaluate(nrm, v), evaluate(nrm, w))
        lam = fuzz.rational(rng, 6, 6)
        if lam:
            expected = evaluate(nrm, v) + F(-pval(lam, nrm.cfg.prime))
            assert evaluate(nrm, tuple(lam * x for x in v)) == expected


def test_equals_examples():
    other = SplitNorm(CFG2, 2, ((1, 0), (2, 1)), (F(0), F(1, 2)))
    assert equals(ALPHA0, other)
    assert not equals(ALPHA0, BETA)
    assert equals(ALPHA0, ALPHA0)
    with pytest.raises(ConfigMismatchError):
        equals(ALPHA0, SplitNorm(FieldConfig(3), 2, oracles.identity(2), (0, 0)))
    with pytest.raises(DimensionMismatchError):
        equals(ALPHA0, SplitNorm(CFG2, 1, ((1,),), (F(0),)))


def test_equals_presentation_independence():
    rng = random.Random(35)
    for _ in range(60):
        nrm = fuzz.norm(rng)
        g = fuzz.stabilizer_element(rng, nrm)
        assert equals(act(g, nrm), nrm)
        # perturbing one value on the same basis must break equality
        i = rng.randrange(nrm.dim)
        tweaked = list(nrm.values)
        tweaked[i] += F(1, 7)
        assert not equals(SplitNorm(nrm.cfg, nrm.dim, nrm.basis, tuple(tweaked)), nrm)


def test_equals_matches_ball_oracle():
    rng = random.Random(41)
    for _ in range(60):
        nrm = fuzz.norm(rng)
        same = act(fuzz.stabilizer_element(rng, nrm), nrm)
        tweaked = list(same.values)
        tweaked[rng.randrange(nrm.dim)] += F(rng.choice((-1, 1)), rng.randint(1, 6))
        other = SplitNorm(nrm.cfg, nrm.dim, same.basis, tuple(tweaked))
        moved = act(fuzz.elementary_product(rng, nrm.dim, nrm.cfg.prime), nrm)
        assert equals(nrm, same) and oracles.balls_equal(nrm, same)
        assert not equals(nrm, other) and not oracles.balls_equal(nrm, other)
        assert equals(nrm, moved) == oracles.balls_equal(nrm, moved)


def test_op_size_is_the_domination_bound():
    # op_size(a, b) is the least s with b(v) <= a(v) + s, attained on a
    # splitting column of a; so op_size(a, b) <= 0 iff b <= a everywhere
    rng = random.Random(42)
    for _ in range(80):
        a = fuzz.norm(rng)
        lowered = tuple(x - rng.choice((0, 0, F(1, 2), 1)) for x in a.values)
        below = act(fuzz.stabilizer_element(rng, a), SplitNorm(a.cfg, a.dim, a.basis, lowered))
        b = rng.choice((below, fuzz.norm(rng, n=a.dim, p=a.cfg.prime)))
        s = op_size(a, b)
        columns = linalg.transpose(a.basis)
        gaps = [evaluate(b, e).mag - evaluate(a, e).mag for e in columns]
        assert s == max(gaps)
        vectors = [fuzz.vector(rng, a.dim, nonzero=True) for _ in range(10)]
        assert all(evaluate(b, v) <= evaluate(a, v) + s for v in vectors)
        dominated = all(evaluate(b, v) <= evaluate(a, v) for v in vectors + list(columns))
        assert (s <= 0) == dominated
        if b is below:
            assert s <= 0


def test_act_examples_and_equivariance():
    assert equals(act(oracles.identity(2), ALPHA0), ALPHA0)
    g = ((2, 0), (0, 1))
    moved = act(g, BETA)
    assert equals(moved, lattice_norm(LatticeBasis(CFG2, g)))
    rng = random.Random(36)
    for _ in range(80):
        nrm = fuzz.norm(rng)
        g = fuzz.elementary_product(rng, nrm.dim, nrm.cfg.prime)
        h = fuzz.elementary_product(rng, nrm.dim, nrm.cfg.prime)
        v = fuzz.vector(rng, nrm.dim)
        assert evaluate(act(g, nrm), oracles.image(g, v)) == evaluate(nrm, v)
        assert equals(act(g, act(h, nrm)), act(oracles.product(g, h), nrm))
    with pytest.raises(SingularMatrixError):
        act(((1, 1), (1, 1)), ALPHA0)


def test_tensor_examples():
    t = tensor(ALPHA0, ALPHA0)
    assert t.dim == 4
    assert sorted(t.values) == [F(0), F(1, 2), F(1, 2), F(1)]
    assert equals(tensor(BETA, BETA), lattice_norm(LatticeBasis(CFG2, oracles.identity(4))))
    v = oracles.kron_vec((1, 1), (1, 1))
    assert evaluate(t, v) == 1 == evaluate(ALPHA0, (1, 1)) + evaluate(ALPHA0, (1, 1))
    with pytest.raises(ConfigMismatchError):
        tensor(ALPHA0, SplitNorm(FieldConfig(3), 1, ((1,),), (F(0),)))


def test_tensor_cross_norm():
    rng = random.Random(37)
    for _ in range(200):
        p = rng.choice(fuzz.PRIMES)
        a = fuzz.norm(rng, n=rng.randint(1, 3), p=p)
        b = fuzz.norm(rng, n=rng.randint(1, 3), p=p)
        v = fuzz.vector(rng, a.dim)
        w = fuzz.vector(rng, b.dim)
        lhs = evaluate(tensor(a, b), oracles.kron_vec(v, w))
        assert lhs == evaluate(a, v) + evaluate(b, w)


def test_dual_examples():
    d = dual(ALPHA0)
    assert d.values == (F(0), -F(1, 2))
    dd = dual(d)
    assert dd.basis == ALPHA0.basis and dd.values == ALPHA0.values
    assert equals(dual(BETA), BETA)


def test_duality_pairing():
    rng = random.Random(38)
    for _ in range(200):
        nrm = fuzz.norm(rng)
        d = dual(nrm)
        v = fuzz.vector(rng, nrm.dim, nonzero=True)
        phi = fuzz.vector(rng, nrm.dim, nonzero=True)
        pairing = dot(phi, v)
        if pairing:
            bound = F(-pval(pairing, nrm.cfg.prime))
            assert evaluate(d, phi) + evaluate(nrm, v) >= bound
        # equality is achieved on matching basis pairs
        i = rng.randrange(nrm.dim)
        e_i = linalg.transpose(nrm.basis)[i]
        f_i = linalg.transpose(d.basis)[i]
        assert dot(f_i, e_i) == 1
        assert evaluate(d, f_i) + evaluate(nrm, e_i) == 0


def test_direct_sum():
    s = direct_sum(ALPHA0, BETA)
    assert s.values == (F(0), F(1, 2), F(0), F(0))
    assert equals(direct_sum(BETA, BETA), lattice_norm(LatticeBasis(CFG2, oracles.identity(4))))
    rng = random.Random(39)
    for _ in range(80):
        p = rng.choice(fuzz.PRIMES)
        a = fuzz.norm(rng, n=rng.randint(1, 3), p=p)
        b = fuzz.norm(rng, n=rng.randint(1, 3), p=p)
        v = fuzz.vector(rng, a.dim)
        w = fuzz.vector(rng, b.dim)
        both = evaluate(direct_sum(a, b), v + w)
        assert both == max(evaluate(a, v), evaluate(b, w))
        assert evaluate(direct_sum(a, b), v + (F(0),) * b.dim) == evaluate(a, v)


def test_lattice_containment():
    outer = LatticeBasis(CFG2, oracles.identity(2))
    inner = LatticeBasis(CFG2, ((2, 0), (0, 4)))
    assert lattice_contains(outer, inner)
    assert not lattice_contains(inner, outer)
    assert lattices_equal(outer, LatticeBasis(CFG2, ((1, 1), (0, 1))))


def test_zero_dimensional_space():
    empty = SplitNorm(CFG2, 0, (), ())
    assert evaluate(empty, ()).is_bottom
    assert equals(empty, empty)
    assert tensor(empty, empty).dim == 0
    assert direct_sum(empty, ALPHA0).dim == 2


def test_bool_dimension_rejected():
    with pytest.raises(DimensionMismatchError):
        SplitNorm(CFG2, True, ((1,),), (F(0),))
    # one value per basis column, no more and no fewer
    for values in ((), (F(0),), (F(0),) * 3):
        with pytest.raises(DimensionMismatchError, match=f"expected 2 values, got {len(values)}"):
            SplitNorm(CFG2, 2, oracles.identity(2), values)


def test_singular_basis_rejected():
    nrm = SplitNorm(CFG2, 2, ((1, 2), (2, 4)), (F(0), F(0)))
    with pytest.raises(SingularMatrixError):
        evaluate(nrm, (1, 0))


def _constructions(rng, p):
    """(norms, lattices) of every kind of construction, each fresh: no inverse or value
    class read yet."""
    a = fuzz.norm(rng, n=3, p=p)
    fresh = lambda: SplitNorm(a.cfg, 3, a.basis, a.values)
    g = fuzz.elementary_product(rng, 3, p)
    level = fuzz.rational(rng)
    pair = pair_from_norm(fresh())
    norms = [
        fresh(),
        io.norm_from_doc(io.norm_to_doc(a)),
        norm_from_pair(pair),
        norm_from_pair(io.pair_from_doc(io.pair_to_doc(pair))),
        act(g, fresh()),
        tensor(fresh(), fuzz.norm(rng, n=2, p=p)),
        dual(fresh()),
        direct_sum(fresh(), fuzz.norm(rng, n=2, p=p)),
        restrict(fresh(), fuzz.span_matrix(rng, 3, 2)),
        quotient(fresh(), fuzz.span_matrix(rng, 3, 1)),
    ]
    lattices = [
        ball_basis(fresh(), level),
        ball_basis_open(fresh(), level),
        *chain_period(fresh()).lattices,
        translate_pair(g, pair).lattice,
        io.lattice_from_doc(io.lattice_to_doc(LatticeBasis(a.cfg, a.basis))),
    ]
    return norms + [lattice_norm(lat) for lat in lattices], lattices


def test_equality_compares_presentations():
    """== and hash read the presentation, the basis and values as given, and repr shows it as
    Fractions; equals compares norms."""
    a = SplitNorm(CFG2, 2, ((1, 0), (2, 1)), (0, F(1, 2)))
    assert repr(a) == (
        "SplitNorm(cfg=FieldConfig(prime=2), dim=2, basis=((Fraction(1, 1), Fraction(0, 1)), "
        "(Fraction(2, 1), Fraction(1, 1))), values=(Fraction(0, 1), Fraction(1, 2)))"
    )
    lat = LatticeBasis(CFG2, ((1, 0), (2, 1)))
    assert repr(lat) == (
        "LatticeBasis(cfg=FieldConfig(prime=2), matrix=((Fraction(1, 1), Fraction(0, 1)), "
        "(Fraction(2, 1), Fraction(1, 1))))"
    )
    same = SplitNorm(CFG2, 2, ((F(1), F(0)), (F(2), F(1))), (F(0), F(1, 2)))
    assert a == same and hash(a) == hash(same)
    same_lat = LatticeBasis(CFG2, same.basis)
    assert lat == same_lat and hash(lat) == hash(same_lat)
    # ALPHA0 is the same norm in another basis, of the same lattice: equal as norms and
    # lattices, not as presentations
    standard = LatticeBasis(CFG2, ALPHA0.basis)
    assert equals(a, ALPHA0) and a != ALPHA0
    assert lattices_equal(lat, standard) and lat != standard


def test_norms_and_lattices_survive_pickle_and_deepcopy():
    rng = random.Random(160)
    probe_rng = random.Random(161)
    round_trips = (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy)
    for p in fuzz.PRIMES:
        # the checks read only the copies' inverses, so each state is the one named; the
        # lattices come from a second set, whose inverses the norms on them have not read
        norms, lattices = _constructions(rng, p)[0], _constructions(rng, p)[1]
        # one vector per norm, with its size read off a copy, so the norm stays fresh
        probes = [fuzz.vector(probe_rng, x.dim, nonzero=True) for x in norms]
        sizes = [evaluate(copy.deepcopy(x), v) for x, v in zip(norms, probes)]
        # fresh, then with the value classes read, then with the inverse read too, then with
        # the row side of its slot tables and evaluate's row order cached by an evaluate
        reads = (lambda x, v: None, lambda x, v: point_type(x), lambda x, v: x.inv_basis, evaluate)
        for read in reads:
            for x, v, size in zip(norms, probes, sizes):
                read(x, v)
                for y in [trip(x) for trip in round_trips]:
                    # a copy carries the cached row side, its row order included, and only
                    # once made
                    assert ("_row_side" in vars(y)) == (read is evaluate)
                    if read is evaluate:
                        assert y._row_side == x._row_side
                    assert equals(x, y) and y.values == x.values
                    assert point_type(y) == tuple(x.class_counts.values())
                    assert evaluate(y, v) == size
        for read in (lambda x: None, lambda x: x.inv):
            for x in lattices:
                read(x)
                for y in [trip(x) for trip in round_trips]:
                    assert lattices_equal(x, y)
        # a public constructor keeps no basis or matrix until it is read: a copy taken before
        # the read builds its own view, one taken after carries the view
        a = fuzz.norm(rng, n=3, p=p)
        basis = a.basis
        for x, view in (
            (SplitNorm(a.cfg, 3, basis, a.values), "basis"),
            (LatticeBasis(a.cfg, basis), "matrix"),
        ):
            for read in (False, True):
                if read:
                    getattr(x, view)
                copies = [trip(x) for trip in round_trips]
                for y in copies:
                    assert (view in vars(y)) == read
                    assert y._cols == x._cols and getattr(y, view) == basis
                    assert y == x and hash(y) == hash(x)
                    assert equals(x, y) if view == "basis" else lattices_equal(x, y)
