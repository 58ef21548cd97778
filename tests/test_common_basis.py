"""Common splitting bases, distance, and relative position.

The Smith oracle in oracles.py recomputes integer-valued positions from
elementary divisors; the implementation must match it exactly.
"""

import random
from collections import Counter
from fractions import Fraction

from padicnorm import FieldConfig, LatticeBasis, SplitNorm, linalg, slots
from padicnorm.building import cartan_position
from padicnorm.norms import (
    act,
    common_splitting_basis,
    distance,
    equals,
    evaluate,
    lattice_norm,
    quotient,
    restrict,
)

import fuzz
import oracles

F = Fraction
CFG2 = FieldConfig(2)
ALPHA0 = SplitNorm(CFG2, 2, oracles.identity(2), (F(0), F(1, 2)))
BETA = SplitNorm(CFG2, 2, oracles.identity(2), (F(0), F(0)))


def test_common_basis_examples():
    basis, a_vals, b_vals = common_splitting_basis(ALPHA0, BETA)
    assert basis == oracles.identity(2)
    assert a_vals == (F(0), F(1, 2))
    assert b_vals == (F(0), F(0))

    b = lattice_norm(LatticeBasis(CFG2, linalg.transpose([(1, 1), (0, 2)])))
    basis, a_vals, b_vals = common_splitting_basis(BETA, b)
    assert basis == linalg.transpose([(1, 1), (0, 1)])
    assert a_vals == (F(0), F(0))
    assert b_vals == (F(0), F(1))

    diag = lattice_norm(LatticeBasis(CFG2, ((1, 0), (0, 2))))
    basis, a_vals, b_vals = common_splitting_basis(BETA, diag)
    assert basis == oracles.identity(2)
    assert a_vals == (F(0), F(0))
    assert b_vals == (F(0), F(1))


def test_common_basis_splits_both():
    rng = random.Random(51)
    for _ in range(120):
        a = fuzz.norm(rng)
        b = fuzz.norm(rng, n=a.dim, p=a.cfg.prime)
        basis, a_vals, b_vals = common_splitting_basis(a, b)
        assert equals(SplitNorm(a.cfg, a.dim, basis, a_vals), a)
        assert equals(SplitNorm(b.cfg, b.dim, basis, b_vals), b)
        assert all(0 <= v < 1 for v in a_vals)
        # spot check the values on the common columns
        for j in range(a.dim):
            col = linalg.transpose(basis)[j]
            assert evaluate(a, col) == a_vals[j]
            assert evaluate(b, col) == b_vals[j]


def test_zero_dimension():
    zero = SplitNorm(CFG2, 0, (), ())
    assert common_splitting_basis(zero, zero) == ((), (), ())
    assert distance(zero, zero) == (F(0), ())
    assert cartan_position(zero, zero) == ()


def test_distance_examples():
    assert distance(ALPHA0, ALPHA0) == (0, (F(0), F(0)))
    assert distance(ALPHA0, BETA) == (F(1, 2), (F(0), -F(1, 2)))
    l = lattice_norm(LatticeBasis(CFG2, ((1, 0), (0, 2))))
    assert distance(BETA, l) == (F(1), (F(1), F(0)))


def test_cartan_examples():
    assert cartan_position(ALPHA0, ALPHA0) == (F(0), F(0))
    l = lattice_norm(LatticeBasis(CFG2, ((1, 0), (0, 2))))
    assert cartan_position(BETA, l) == (F(1), F(0))
    assert cartan_position(BETA, ALPHA0) == (F(1, 2), F(0))


def test_cartan_matches_smith_oracle():
    rng = random.Random(52)
    for _ in range(150):
        a = fuzz.integer_norm(rng)
        b = fuzz.integer_norm(rng, n=a.dim, p=a.cfg.prime)
        assert cartan_position(a, b) == oracles.smith_cartan(a, b)


def test_swap_negates_and_reverses():
    rng = random.Random(53)
    for _ in range(80):
        a = fuzz.norm(rng)
        b = fuzz.norm(rng, n=a.dim, p=a.cfg.prime)
        fwd = cartan_position(a, b)
        bwd = cartan_position(b, a)
        assert bwd == tuple(-x for x in reversed(fwd))
        assert distance(a, b)[0] == distance(b, a)[0]


def test_distance_is_a_metric():
    rng = random.Random(54)
    for _ in range(60):
        a = fuzz.norm(rng, n=rng.randint(1, 4))
        b = fuzz.norm(rng, n=a.dim, p=a.cfg.prime)
        c = fuzz.norm(rng, n=a.dim, p=a.cfg.prime)
        dab = distance(a, b)[0]
        dbc = distance(b, c)[0]
        dac = distance(a, c)[0]
        assert dac <= dab + dbc
        assert dab >= 0
        assert (dab == 0) == equals(a, b)
    for _ in range(30):
        a = fuzz.norm(rng)
        g = fuzz.stabilizer_element(rng, a)
        assert distance(act(g, a), a) == (0, (F(0),) * a.dim)


def test_distance_act_equivariance():
    rng = random.Random(55)
    for _ in range(60):
        a = fuzz.norm(rng)
        b = fuzz.norm(rng, n=a.dim, p=a.cfg.prime)
        g = fuzz.elementary_product(rng, a.dim, a.cfg.prime)
        assert distance(act(g, a), act(g, b)) == distance(a, b)
        assert cartan_position(act(g, a), act(g, b)) == cartan_position(a, b)


def test_distance_under_value_shift():
    rng = random.Random(56)
    for _ in range(40):
        a = fuzz.norm(rng)
        delta = fuzz.rational(rng, 3, 4)
        shifted = SplitNorm(a.cfg, a.dim, a.basis, tuple(v + delta for v in a.values))
        d_inf, diffs = distance(a, shifted)
        assert diffs == (delta,) * a.dim
        assert d_inf == abs(delta)


def test_the_split_forms_two_products(monkeypatch):
    # each n x n x d product is a times_cleared or a slot table on real rows: B^-1 C is the
    # first slot table and its product with the column operations the one reconstruction
    # check; only common_splitting_basis also forms C @ combo, the columns it prints
    counts = Counter()
    product, table = linalg.times_cleared, slots.slot_table

    def counted_table(row_side, *args):
        counts.update(["product"] * (row_side[0] is not None))
        return table(row_side, *args)

    monkeypatch.setattr(linalg, "times_cleared", lambda *a: counts.update(["product"]) or product(*a))
    monkeypatch.setattr(slots, "slot_table", counted_table)
    rng = random.Random(43)
    for n in range(2, 6):
        for p in fuzz.PRIMES:
            a, b = fuzz.norm(rng, n, p), fuzz.norm(rng, n, p)
            span = fuzz.span_matrix(rng, n, rng.randint(1, n))
            a._row_side  # a's inverse, made before counting
            runs = {
                distance: (a, b), cartan_position: (a, b), restrict: (a, span),
                quotient: (a, span), common_splitting_basis: (a, b),
            }
            for run, args in runs.items():
                counts.clear()
                run(*args)
                assert counts["product"] == (3 if run is common_splitting_basis else 2), run
