"""The valuated elimination behind restrict, quotient and the common
splitting basis, pinned on its contract.

Valuations and determinants come from the oracles, and a digest of
every output over the seeded cases pins the tie-break to the lowest
(row, column) among pivots of maximal weight.  The elimination reads the
two factors of a product; handed the product itself over the identity,
it must return the same, and its first pivot must weigh what op_size's
scan, _heaviest, finds in the _slot_table of the same factors.  Both take the factors cleared:
the rows of the left one as a row side, with the row values, and the columns of the right one.
"""

import hashlib
import random
from fractions import Fraction

from padicnorm import linalg
from padicnorm.norms import _heaviest, _monomialize, _row_side_of, _slot_table

import fuzz
import oracles

F = Fraction
DIGEST = "292cddfbb0fc6d45"


def cases():
    """(row_values, rows, col_values, cols, p): the factors of restrict spans
    and common-basis transitions; the integer-valued norms tie pivot weights."""
    rng = random.Random(71)
    for p in fuzz.PRIMES:
        for _ in range(40):
            make = rng.choice((fuzz.norm, fuzz.integer_norm))
            nrm = make(rng, n=rng.randint(1, 5), p=p)
            d = rng.randint(1, nrm.dim)
            span = fuzz.span_matrix(rng, nrm.dim, d)
            yield nrm.values, nrm.inv_basis, (0,) * d, linalg.transpose(span), p
            other = make(rng, n=nrm.dim, p=p)
            yield nrm.values, nrm.inv_basis, other.values, linalg.transpose(other.basis), p


def row_side(row_values, rows, p):
    """The row side of a slot table from the row values and the Fraction rows."""
    return _row_side_of(row_values, linalg.cleared(linalg.transpose(rows)), p)


def monomialize(row_values, rows, col_values, cols, p):
    """_monomialize of Fraction factors, its column operations as a Fraction matrix."""
    sigma, split_values, col_ops = _monomialize(
        row_side(row_values, rows, p), col_values, linalg.cleared(linalg.transpose(cols)), p
    )
    return sigma, split_values, linalg.transpose(linalg.from_cleared(col_ops))


def test_tie_break_example():
    # every entry weighs 0: the pivot is (0, 0), then (1, 1)
    m = ((1, 1), (1, 2))
    sigma, split_values, col_ops = monomialize((0, 0), m, (0, 0), oracles.identity(2), 3)
    assert list(sigma.items()) == [(0, 0), (1, 1)]
    assert split_values == (F(0), F(0))
    assert col_ops == ((1, -1), (0, 1))


def test_contract():
    digest = hashlib.sha256()
    ties = 0
    for row_values, rows, col_values, cols, p in cases():
        d = len(col_values)
        m = linalg.matmul(rows, linalg.transpose(cols))
        out = monomialize(row_values, rows, col_values, cols, p)
        # repr, unlike ==, also compares the pivot order of sigma
        assert repr(out) == repr(monomialize(row_values, m, col_values, oracles.identity(d), p))
        sigma, split_values, col_ops = out
        # pivot weights never rise, so the first pivot is the slot maximum
        heaviest = max(s - b for s, b in zip(split_values, col_values))
        row_w, col_w, table, _, scale = _slot_table(
            row_side(row_values, rows, p), col_values, linalg.cleared(linalg.transpose(cols)), p
        )
        assert heaviest == F(_heaviest(row_w, col_w, table, scale, p, range(d))[0], scale)
        assert sorted(sigma) == list(range(d)) and len(set(sigma.values())) == d
        reduced = linalg.matmul(m, col_ops)
        # in pivot order, each pivot row is zero on every column pivoted after it
        order = list(sigma)
        for t, j in enumerate(order):
            assert all(reduced[sigma[j]][k] == 0 for k in order[t + 1 :])
        assert oracles.det(col_ops) == 1
        for j in range(d):
            sizes = [
                a - oracles.valuation(row[j], p) for a, row in zip(row_values, reduced) if row[j]
            ]
            assert split_values[j] == max(sizes)
            pivot = reduced[sigma[j]][j]
            assert split_values[j] == row_values[sigma[j]] - oracles.valuation(pivot, p)
        weights = [
            a - oracles.valuation(x, p) - b
            for a, row in zip(row_values, m)
            for b, x in zip(col_values, row)
            if x
        ]
        ties += weights.count(max(weights)) > 1
        digest.update(repr((sigma, split_values, col_ops)).encode())
    assert ties >= 40
    assert digest.hexdigest()[:16] == DIGEST
