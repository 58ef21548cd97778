"""Restriction and quotient norms: frozen examples, the pushforward
contract, and classwise exactness."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from padicnorm import FieldConfig, SplitNorm, linalg
from padicnorm.errors import DimensionMismatchError, RankDeficiencyError
from padicnorm.norms import equals, evaluate, quotient, restrict

import fuzz
import oracles

F = Fraction
CFG2 = FieldConfig(2)
ALPHA0 = SplitNorm(CFG2, 2, oracles.identity(2), (F(0), F(1, 2)))


def test_restrict_examples():
    n3 = SplitNorm(CFG2, 3, oracles.identity(3), (F(0), F(0), F(1, 2)))
    w = linalg.transpose([(1, 1, 0), (0, 1, 1)])
    r = restrict(n3, w)
    assert r.dim == 2
    assert r.basis == oracles.identity(2)
    assert r.values == (F(0), F(1, 2))
    assert restrict(ALPHA0, linalg.transpose([(1, 0)])).values == (F(0),)
    assert restrict(ALPHA0, linalg.transpose([(1, 1)])).values == (F(1, 2),)


def test_quotient_examples():
    n3 = SplitNorm(CFG2, 3, oracles.identity(3), (F(0), F(0), F(1, 2)))
    q = quotient(n3, linalg.transpose([(1, 0, 0)]))
    assert q.dim == 2
    assert q.values == (F(0), F(1, 2))
    assert quotient(ALPHA0, ALPHA0.basis).dim == 0
    assert quotient(ALPHA0, linalg.transpose([(1, 0)])).values == (F(1, 2),)


def test_zero_dimension_edge_cases():
    # an empty span restricts to the 0-dimensional norm and quotients to
    # the ambient values in the identity basis of the complement
    lat = SplitNorm(CFG2, 2, linalg.transpose([(1, 0), (0, 2)]), (F(0), F(0)))
    zero = SplitNorm(CFG2, 0, (), ())
    for nrm in (ALPHA0, lat):
        empty = tuple(() for _ in range(nrm.dim))
        assert restrict(nrm, empty) == zero
        assert quotient(nrm, empty) == SplitNorm(CFG2, 2, oracles.identity(2), nrm.values)
    assert restrict(zero, ()) == zero
    assert quotient(zero, ()) == zero


def test_restrict_to_whole_space():
    rng = random.Random(41)
    for _ in range(30):
        nrm = fuzz.norm(rng)
        assert equals(restrict(nrm, oracles.identity(nrm.dim)), nrm)
        assert quotient(nrm, nrm.basis).dim == 0


def test_rank_deficient_span_rejected():
    with pytest.raises(RankDeficiencyError):
        restrict(ALPHA0, linalg.transpose([(1, 1), (2, 2)]))
    with pytest.raises(RankDeficiencyError):
        restrict(ALPHA0, linalg.transpose([(0, 0)]))
    with pytest.raises(RankDeficiencyError):
        quotient(ALPHA0, linalg.transpose([(1, 1), (2, 2)]))
    # a span of more columns than the dimension, or with the wrong number of rows
    n3 = SplitNorm(CFG2, 3, oracles.identity(3), (F(0), F(0), F(1, 2)))
    for fn in (restrict, quotient):
        with pytest.raises(RankDeficiencyError, match="more spanning columns than the dimension"):
            fn(ALPHA0, linalg.transpose([(1, 0), (0, 1), (1, 1)]))
        for nrm, span in ((n3, linalg.transpose([(1, 0)])), (ALPHA0, ((1, 0),) * 3)):
            msg = f"span matrix must have {nrm.dim} rows, got {len(span)}"
            with pytest.raises(DimensionMismatchError, match=msg):
                fn(nrm, span)


def test_pushforward_contract():
    # the restriction, transported along the span matrix, is the norm
    rng = random.Random(42)
    for _ in range(120):
        nrm = fuzz.norm(rng, n=rng.randint(2, 5))
        d = rng.randint(1, nrm.dim)
        w = fuzz.span_matrix(rng, nrm.dim, d)
        r = restrict(nrm, w)
        for _ in range(4):
            mu = fuzz.vector(rng, d)
            assert evaluate(r, mu) == evaluate(nrm, oracles.image(w, mu))


def test_classwise_exactness():
    # value classes of sub and quotient together recover the ambient ones
    rng = random.Random(43)
    for _ in range(150):
        nrm = fuzz.norm(rng, n=rng.randint(2, 5))
        d = rng.randint(1, nrm.dim - 1)
        w = fuzz.span_matrix(rng, nrm.dim, d)
        r = restrict(nrm, w)
        q = quotient(nrm, w)
        assert r.dim + q.dim == nrm.dim
        sub = Counter(a % 1 for a in r.values)
        quo = Counter(a % 1 for a in q.values)
        amb = Counter(a % 1 for a in nrm.values)
        assert sub + quo == amb


def test_quotient_by_splitting_columns():
    # quotient by a span of splitting vectors has the complementary
    # values: the adapted case is computable by hand
    rng = random.Random(44)
    for _ in range(80):
        nrm = fuzz.norm(rng, n=rng.randint(2, 5))
        d = rng.randint(1, nrm.dim - 1)
        picked = sorted(rng.sample(range(nrm.dim), d))
        columns = linalg.transpose(nrm.basis)
        w = linalg.transpose([columns[i] for i in picked])
        q = quotient(nrm, w)
        expected = sorted(nrm.values[i] for i in range(nrm.dim) if i not in picked)
        assert sorted(q.values) == expected
        r = restrict(nrm, w)
        assert sorted(r.values) == sorted(nrm.values[i] for i in picked)
