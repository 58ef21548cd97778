"""The reconstruction checks behind restrict, quotient, common_splitting_basis and distance
fire when the elimination is wrong: _monomialize is wrapped to corrupt its result, its split
values read as Fractions and cleared again, its first slot table passed through."""

import random
from fractions import Fraction

import pytest

from padicnorm import FieldConfig, SplitNorm, linalg, norms, slots
from padicnorm.errors import SelfCheckError

import fuzz
import oracles

F = Fraction
CFG2 = FieldConfig(2)
ALPHA0 = SplitNorm(CFG2, 2, oracles.identity(2), (F(0), F(1, 2)))
BETA = SplitNorm(CFG2, 2, oracles.identity(2), (F(0), F(1)))
N3 = SplitNorm(CFG2, 3, oracles.identity(3), (F(0), F(0), F(1, 2)))
SPAN = linalg.transpose([(1, 1, 0), (0, 1, 1)])

CALLS = {
    "restrict": lambda: norms.restrict(N3, SPAN),
    "quotient": lambda: norms.quotient(N3, SPAN),
    "common_splitting_basis": lambda: norms.common_splitting_basis(ALPHA0, BETA),
    "distance": lambda: norms.distance(ALPHA0, BETA),
}


def _wrap(monkeypatch, corrupt):
    original = norms._monomialize

    def wrapped(*args):
        sigma, split_vals, col_ops, first = original(*args)
        values, ops = corrupt(linalg.from_cleared_vector(split_vals), col_ops)
        return sigma, linalg.cleared_vector(values), ops, first

    monkeypatch.setattr(norms, "_monomialize", wrapped)


@pytest.mark.parametrize("name", CALLS)
def test_wrong_split_value_fails_the_check(monkeypatch, name):
    _wrap(monkeypatch, lambda values, ops: ((values[0] + 1, *values[1:]), ops))
    with pytest.raises(SelfCheckError):
        CALLS[name]()


@pytest.mark.parametrize("name", ["common_splitting_basis", "distance"])
def test_permuted_columns_fail_the_second_norm(monkeypatch, name):
    # reversing the columns with their values still presents a, but pairs b's values with
    # the wrong columns: only the check of the second norm can see it
    _wrap(monkeypatch, lambda values, ops: (values[::-1], ops[::-1]))
    with pytest.raises(SelfCheckError, match="second norm"):
        CALLS[name]()


def _leaked(ops, p):
    # p^-3 times column 0 added to column 1: a change of basis, but not a value-compatible one
    (c0, e0), (c1, e1) = ops[:2]
    col = [p**3 * e0 * y + e1 * x for x, y in zip(c0, c1)]
    return [ops[0], linalg.reduced(col, p**3 * e0 * e1), *ops[2:]]


@pytest.mark.parametrize("run", [norms.common_splitting_basis, norms.distance])
def test_leaked_column_fails_the_second_norm(monkeypatch, run):
    # under a, of values (0, 4), the leaked column keeps its size 4 and the first check
    # passes; under BETA its size grows from 1 to 3
    _wrap(monkeypatch, lambda values, ops: (values, _leaked(ops, 2)))
    with pytest.raises(SelfCheckError, match="second norm"):
        run(SplitNorm(CFG2, 2, oracles.identity(2), (F(0), F(4))), BETA)


def test_second_check_reads_what_the_inverse_reads():
    # the check of the second norm, slots.fit on b's unit row side over the column operations,
    # is slots.fit of b at the common columns, on true and on leaked column operations alike
    rng = random.Random(22)
    for _ in range(60):
        a = fuzz.norm(rng, rng.randint(2, 6))
        b = fuzz.norm(rng, a.dim, a.cfg.prime)
        p = b.cfg.prime
        _, combo = norms._split_span(a, b._cols, b._vals)
        for ops in (combo, _leaked(combo, p)):
            fit = slots.fit(b._row_side, linalg.times_cleared(b._cols, ops), b._vals, p)
            unit = slots.row_side_of(b._vals, None, p)
            assert slots.fit(unit, ops, b._vals, p) == fit


def _excesses(found):
    return None if found is None else [F(t, found[1]) for t in found[0]]


def test_first_check_reads_what_the_inverse_reads():
    # the check of the first norm, slots.fit on the first slot table's unit row side over the
    # table times the column operations and d_i at each row i never pivoted, is slots.fit of
    # a at the columns themselves, C @ ops and then a's columns of those rows, on true and on
    # leaked column operations alike; besides b's basis, a span of fewer columns than the
    # dimension leaves rows unpivoted
    rng, spans = random.Random(22), random.Random(23)
    for _ in range(60):
        a = fuzz.norm(rng, rng.randint(2, 6))
        b = fuzz.norm(rng, a.dim, a.cfg.prime)
        n, p = a.dim, a.cfg.prime
        d = spans.randint(2, n)
        span = linalg.cleared(fuzz.span_matrix(spans, n, d))
        for cols, col_vals in ((b._cols, b._vals), (span, ([0] * d, 1))):
            sigma, vals, combo, (side, first) = norms._monomialize(a._row_side, col_vals, cols, p)
            rest = [i for i in range(n) if i not in sigma.values()]
            units = [([a._inv_rows[i][1] if k == i else 0 for k in range(n)], 1) for i in rest]
            ints, den = a._vals
            x, y, m = linalg.aligned(vals, ([ints[i] for i in rest], den))
            for ops in (combo, _leaked(combo, p)):
                on_table = slots.fit(side, linalg.times_cleared(first, ops) + units, (x + y, m), p)
                ambient = linalg.times_cleared(cols, ops) + [a._cols[i] for i in rest]
                found = _excesses(on_table)
                assert found == _excesses(slots.fit(a._row_side, ambient, (x + y, m), p))
                if ops is combo:
                    assert found == [0] * n
