"""The reconstruction checks behind restrict, quotient, common_splitting_basis and distance
fire when the elimination is wrong: _monomialize is wrapped to corrupt its result."""

import random
from fractions import Fraction

import pytest

from padicnorm import FieldConfig, SplitNorm, linalg, norms
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
        sigma, split_values, col_ops = original(*args)
        return (sigma, *corrupt(split_values, col_ops))

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
    # the check of the second norm, read off the column operations, is _fit of b at the
    # common columns, on true and on leaked column operations alike
    rng = random.Random(22)
    for _ in range(60):
        a = fuzz.norm(rng, rng.randint(2, 6))
        b = fuzz.norm(rng, a.dim, a.cfg.prime)
        p = b.cfg.prime
        _, combo = norms._split_span(a, b._cols, b.values)
        for ops in (combo, _leaked(combo, p)):
            fit = norms._fit(b, linalg.times_cleared(b._cols, ops), b.values)
            slots = norms._slot_table(norms._row_side_of(b.values, None, p), b.values, ops, p)
            assert norms._fit_table(slots, p) == fit
