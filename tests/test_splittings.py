import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy

from padicnorm import FieldConfig, LatticeBasis, SplitNorm, io, linalg
from padicnorm.errors import ConfigMismatchError, DimensionMismatchError, SingularMatrixError
from padicnorm.norms import act, direct_sum, equals, lattices_equal, tensor
from padicnorm.splittings import (
    SplittingPair,
    norm_from_pair,
    pair_from_norm,
    translate_pair,
    verify_splitting,
)

import fuzz
import oracles

F = Fraction
CFG2 = FieldConfig(2)
ALPHA0 = SplitNorm(CFG2, 2, oracles.identity(2), (F(0), F(1, 2)))
BETA = SplitNorm(CFG2, 2, oracles.identity(2), (F(0), F(0)))
STD2 = LatticeBasis(CFG2, oracles.identity(2))


def test_norm_from_pair_examples():
    assert equals(norm_from_pair(SplittingPair(STD2, (F(0), F(1, 2)))), ALPHA0)
    assert equals(norm_from_pair(SplittingPair(STD2, (F(0), F(0)))), BETA)
    stretched = SplittingPair(LatticeBasis(CFG2, ((1, 0), (0, 2))), (F(0), F(1, 2)))
    target = SplitNorm(CFG2, 2, oracles.identity(2), (F(0), F(3, 2)))
    assert equals(norm_from_pair(stretched), target)


def test_pair_from_norm_examples():
    pair = pair_from_norm(ALPHA0)
    assert pair.lattice.matrix == oracles.identity(2)
    assert pair.weights == (F(0), F(1, 2))
    assert pair.is_canonical
    # canonical weights lie in [0, 1): 1 and -1/3 do not
    for weights in ((0, 1), ("-1/3", "1/2"), ("2/3", "3/2")):
        assert not SplittingPair(STD2, weights).is_canonical

    tall = SplitNorm(CFG2, 2, oracles.identity(2), (F(0), F(3, 2)))
    pair = pair_from_norm(tall)
    assert pair.lattice.matrix == ((1, 0), (0, 2))
    assert pair.weights == (F(0), F(1, 2))

    pair = pair_from_norm(BETA)
    assert pair.lattice.matrix == oracles.identity(2)
    assert pair.weights == (F(0), F(0))


def test_round_trips():
    rng = random.Random(61)
    for _ in range(150):
        nrm = fuzz.norm(rng)
        pair = pair_from_norm(nrm)
        assert pair.is_canonical
        assert equals(norm_from_pair(pair), nrm)
        # weight classes match the norm's value classes as multisets
        assert Counter(pair.weights) == Counter(a % 1 for a in nrm.values)
        again = pair_from_norm(norm_from_pair(pair))
        assert lattices_equal(again.lattice, pair.lattice)
        assert Counter(again.weights) == Counter(pair.weights)


def test_canonical_pair_uniqueness():
    # equal norms presented differently give the same canonical data
    rng = random.Random(62)
    for _ in range(60):
        nrm = fuzz.norm(rng)
        g = fuzz.stabilizer_element(rng, nrm)
        other = act(g, nrm)
        p1 = pair_from_norm(nrm)
        p2 = pair_from_norm(other)
        assert lattices_equal(p1.lattice, p2.lattice)
        assert Counter(p1.weights) == Counter(p2.weights)


def test_translate_pair():
    pair = pair_from_norm(BETA)
    assert translate_pair(oracles.identity(2), pair).lattice.matrix == pair.lattice.matrix
    g = ((2, 0), (0, 1))
    moved = translate_pair(g, pair)
    assert moved.lattice.matrix == ((2, 0), (0, 1))
    assert moved.weights == pair.weights
    with pytest.raises(SingularMatrixError):
        translate_pair(((1, 1), (1, 1)), pair)
    with pytest.raises(DimensionMismatchError):
        translate_pair(oracles.identity(3), pair)


def test_translate_commutes_with_act():
    rng = random.Random(63)
    for _ in range(80):
        nrm = fuzz.norm(rng)
        pair = pair_from_norm(nrm)
        g = fuzz.elementary_product(rng, nrm.dim, nrm.cfg.prime)
        assert equals(norm_from_pair(translate_pair(g, pair)), act(g, norm_from_pair(pair)))


def test_verify_splitting():
    assert verify_splitting(ALPHA0, pair_from_norm(ALPHA0))
    assert not verify_splitting(ALPHA0, SplittingPair(STD2, (F(0), F(0))))
    # the shear basis e1, e1+e2 still splits alpha0 with the same weights
    shear = LatticeBasis(CFG2, ((1, 1), (0, 1)))
    assert verify_splitting(ALPHA0, SplittingPair(shear, (F(0), F(1, 2))))
    # the rotated basis e1+e2, e1-e2 splits no presentation of alpha0
    rotated = LatticeBasis(CFG2, ((1, 1), (1, -1)))
    assert not verify_splitting(ALPHA0, SplittingPair(rotated, (F(0), F(1, 2))))
    assert not verify_splitting(ALPHA0, SplittingPair(rotated, (F(1, 2), F(1, 2))))


def test_verify_splitting_refuses_mismatched_pairs():
    three = SplitNorm(FieldConfig(3), 2, oracles.identity(2), (F(0), F(0)))
    with pytest.raises(ConfigMismatchError):
        verify_splitting(ALPHA0, pair_from_norm(three))
    n3 = SplitNorm(CFG2, 3, oracles.identity(3), (F(0), F(0), F(0)))
    with pytest.raises(DimensionMismatchError):
        verify_splitting(ALPHA0, pair_from_norm(n3))


def test_pair_validation():
    with pytest.raises(DimensionMismatchError):
        SplittingPair(STD2, (F(0),))


def test_presentations_reuse_known_inverses(monkeypatch):
    # every inverse, linalg.inverse included, comes from the integer kernel; a norm makes
    # at most one, on first read
    calls = []
    kernel = linalg.inverse_rows
    monkeypatch.setattr(linalg, "inverse_rows", lambda cols: calls.append(cols) or kernel(cols))
    rng = random.Random(64)
    for _ in range(20):
        nrm = fuzz.norm(rng)
        doc = io.norm_to_doc(nrm)
        pair_doc = io.pair_to_doc(pair_from_norm(nrm))
        calls.clear()
        # the load proves the basis invertible modulo a prime, with no inverse
        read = io.norm_from_doc(doc)
        assert calls == []
        read.inv_basis
        read.inv_basis
        assert len(calls) == 1
        # the canonical lattice is scaled from the norm's inverse, and so is its norm's
        calls.clear()
        assert verify_splitting(read, pair_from_norm(read))
        assert calls == []
        # the norm of a pair shares the lattice's one inverse
        pair = io.pair_from_doc(pair_doc)
        assert calls == []
        norm_from_pair(pair).inv_basis
        pair.lattice.inv
        assert len(calls) == 1
        # a move proves g invertible modulo a prime and inverts nothing; checking the moved
        # pair reads the moved norm's inverse, which inverts g once, and not the lattice's
        g = fuzz.elementary_product(rng, read.dim, read.cfg.prime)
        calls.clear()
        assert verify_splitting(act(g, read), translate_pair(g, pair_from_norm(read)))
        assert calls == [linalg.cleared(g)]
    # a determinant of 0 modulo the certificate's prime is decided by the exact inverse,
    # which the norm keeps
    q = linalg.CERTIFICATE_PRIME
    calls.clear()
    read = io.norm_from_doc(io.norm_to_doc(SplitNorm(CFG2, 2, ((q, 0), (0, 1)), (F(0), F(0)))))
    assert len(calls) == 1
    assert read.inv_basis == ((F(1, q), F(0)), (F(0), F(1)))
    assert len(calls) == 1


def test_moves_carry_the_inverse_of_the_moved_basis():
    # act and translate_pair invert g alone and carry the frame's inverse along
    rng = random.Random(65)
    for n in range(2, 9):
        for p in fuzz.PRIMES:
            nrm = fuzz.norm(rng, n, p)
            pair = pair_from_norm(nrm)
            for g in (fuzz.stabilizer_element(rng, nrm), fuzz.elementary_product(rng, n, p)):
                want = oracles.inverse(oracles.product(g, nrm.basis))
                assert linalg.from_cleared(act(g, nrm)._inv_rows) == want
                lattice = translate_pair(g, pair).lattice
                want = oracles.inverse(oracles.product(g, pair.lattice.matrix))
                assert linalg.from_cleared(lattice._inv_rows) == want


def test_move_refusals():
    pair = pair_from_norm(ALPHA0)
    for move, frame in ((act, ALPHA0), (translate_pair, pair)):
        with pytest.raises(SingularMatrixError, match="matrix is singular"):
            move(((1, 1), (1, 1)), frame)
        for g in (((1, 1, 0), (1, 1, 0), (0, 0, 1)), oracles.identity(3), ((1, 0, 0), (0, 1, 0))):
            with pytest.raises(DimensionMismatchError, match="acting matrix must be 2x2"):
                move(g, frame)


def test_act_inverts_g_itself(monkeypatch):
    calls = []
    kernel = linalg.inverse_rows
    monkeypatch.setattr(linalg, "inverse_rows", lambda cols: calls.append(cols) or kernel(cols))
    rng = random.Random(66)
    for _ in range(20):
        nrm = fuzz.norm(rng)
        nrm.inv_basis
        g = fuzz.elementary_product(rng, nrm.dim, nrm.cfg.prime)
        calls.clear()
        moved = act(g, nrm)
        assert calls == []
        # the first inverse read inverts g alone, once
        moved.inv_basis
        moved.inv_basis
        assert calls == [linalg.cleared(g)]
    # a g whose determinant vanishes modulo the certificate's prime is decided by its exact
    # inverse, which the moved norm keeps
    g = ((linalg.CERTIFICATE_PRIME, 0), (0, 1))
    calls.clear()
    moved = act(g, ALPHA0)
    assert calls == [linalg.cleared(g)]
    assert moved.inv_basis == oracles.inverse(oracles.product(g, ALPHA0.basis))
    assert len(calls) == 1


def _block_diag(a, b):
    return sympy.diag(sympy.Matrix(a), sympy.Matrix(b)).tolist()


def test_products_invert_on_first_read(monkeypatch):
    # tensor and direct_sum invert nothing; the first inverse read inverts each factor once
    calls = []
    kernel = linalg.inverse_rows
    monkeypatch.setattr(linalg, "inverse_rows", lambda cols: calls.append(cols) or kernel(cols))
    rng = random.Random(67)
    for _ in range(20):
        for build, join in ((tensor, oracles.kron), (direct_sum, _block_diag)):
            a = fuzz.norm(rng)
            b = fuzz.norm(rng, p=a.cfg.prime)
            calls.clear()
            product = build(a, b)
            assert calls == []
            assert product.inv_basis == oracles.inverse(join(a.basis, b.basis))
            assert product.inv_basis is product.inv_basis
            assert calls == [a._cols, b._cols]


def test_mismatched_pairs_are_refused_before_inverting(monkeypatch):
    calls = []
    kernel = linalg.inverse_rows
    monkeypatch.setattr(linalg, "inverse_rows", lambda cols: calls.append(cols) or kernel(cols))
    six = SplittingPair(LatticeBasis(FieldConfig(3), oracles.identity(6)), (F(0),) * 6)
    three = SplittingPair(LatticeBasis(CFG2, oracles.identity(3)), (F(0),) * 3)
    ALPHA0.inv_basis
    calls.clear()
    with pytest.raises(ConfigMismatchError, match="prime mismatch: 2 vs 3"):
        verify_splitting(ALPHA0, six)
    with pytest.raises(DimensionMismatchError, match="dimension mismatch: 2 vs 3"):
        verify_splitting(ALPHA0, three)
    assert calls == []
