"""The reconstruction checks behind restrict, quotient, common_splitting_basis and distance
fire when the elimination is wrong: _monomialize is wrapped to corrupt its result."""

from fractions import Fraction

import pytest

from padicnorm import FieldConfig, SplitNorm, linalg, norms
from padicnorm.errors import SelfCheckError

F = Fraction
CFG2 = FieldConfig(2)
ALPHA0 = SplitNorm(CFG2, 2, linalg.identity(2), (F(0), F(1, 2)))
BETA = SplitNorm(CFG2, 2, linalg.identity(2), (F(0), F(1)))
N3 = SplitNorm(CFG2, 3, linalg.identity(3), (F(0), F(0), F(1, 2)))
SPAN = linalg.from_columns([(1, 1, 0), (0, 1, 1)])

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
