"""The cleared integer forms behind norms and lattices.

Every producer of a norm or lattice keeps its basis as cleared columns
(integers over a positive denominator) and the inverse as cleared rows.
Here both are read back as Fractions and held against the public views,
against the construction redone in plain Fraction arithmetic, and
against sympy's inverse; none of it goes through the integer kernel.
The comparison path itself, distance and equals, builds no Fraction
matrix, and neither do graded_ball_dims and homothetic, which read the
class count and one integer slot table, nor the order layer's
is_stabilizer_element and filtration_level: their counts of new
Fractions stay linear in the dimension, and graded_ball_dims's in the
number of value classes.  Building a norm reads each Fraction entry
once, and a norm makes the row side of its slot tables once.
"""

import fractions
import math
import random
import sys
from collections import Counter
from fractions import Fraction

from padicnorm import FieldConfig, LatticeBasis, SplitNorm, io, linalg, norms
from padicnorm.base_change import graded_ball_dims
from padicnorm.building import apartment_coords, homothetic, norm_from_apartment
from padicnorm.norms import (
    _canonical,
    _common_norm,
    act,
    ball_basis,
    ball_basis_open,
    common_splitting_basis,
    direct_sum,
    distance,
    dual,
    equals,
    evaluate,
    op_size,
    quotient,
    restrict,
    tensor,
)
from padicnorm.splittings import pair_from_norm, translate_pair
from padicnorm.stabilizer import filtration_level, is_stabilizer_element
from padicnorm.valuation import multiplicity

import fuzz
import oracles


def _fractions(vectors):
    return tuple(tuple(Fraction(x, d) for x in v) for v, d in vectors)


def _columns(m):
    return tuple(zip(*m))


def _product(a, b):
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)) for row in a
    )


def _kron(a, b):
    return tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)


def _block_diag(a, b):
    """The block diagonal matrix of two square matrices."""
    zero = Fraction(0)
    return tuple(r + (zero,) * len(b) for r in a) + tuple((zero,) * len(a) + r for r in b)


def _scaled_columns(m, p, exponents):
    return tuple(tuple(x * Fraction(p) ** k for x, k in zip(row, exponents)) for row in m)


def _check(frame, view, inv_view, expected=None):
    """The cleared forms of a norm or lattice against its views, sympy, and the construction."""
    for v, d in frame._cols + frame._inv_rows:
        assert type(d) is int and d > 0 and all(type(x) is int for x in v)
    assert _fractions(frame._cols) == _columns(view)
    assert _fractions(frame._inv_rows) == inv_view == oracles.inverse(view)
    if expected is not None:
        assert view == expected


def _check_norm(nrm, expected=None):
    _check(nrm, nrm.basis, nrm.inv_basis, expected)
    assert nrm.dim == len(nrm.basis) == len(nrm.values)


def _check_lattice(lat, expected=None):
    _check(lat, lat.matrix, lat.inv, expected)
    assert lat.dim == len(lat.matrix)


def test_cleared_forms_agree_with_the_views():
    rng = random.Random(121)
    for p in fuzz.PRIMES:
        for _ in range(6):
            n = rng.randint(1, 4)
            a, b = fuzz.norm(rng, n=n, p=p), fuzz.norm(rng, n=n, p=p)
            small = fuzz.norm(rng, n=rng.randint(1, 3), p=p)
            _check_norm(a)
            g = fuzz.elementary_product(rng, n, p)
            _check_norm(act(g, a), _product(g, a.basis))
            _check_norm(tensor(a, small), _kron(a.basis, small.basis))
            _check_norm(dual(a), tuple(zip(*oracles.inverse(a.basis))))
            _check_norm(direct_sum(a, small), _block_diag(a.basis, small.basis))
            d = rng.randint(1, n)
            span = fuzz.span_matrix(rng, n, d)
            _check_norm(restrict(a, span))
            if d < n:
                _check_norm(quotient(a, span), linalg.identity(n - d))
            level = fuzz.rational(rng)
            closed = [math.ceil(x - level) for x in a.values]
            opened = [math.floor(x - level) + 1 for x in a.values]
            _check_lattice(ball_basis(a, level), _scaled_columns(a.basis, p, closed))
            _check_lattice(ball_basis_open(a, level), _scaled_columns(a.basis, p, opened))
            _check_lattice(_canonical(_common_norm(a, b))[0], common_splitting_basis(a, b)[0])
            _check_norm(io.norm_from_doc(io.norm_to_doc(a)), a.basis)
            pair = pair_from_norm(a)
            _check_lattice(pair.lattice)
            _check_lattice(translate_pair(g, pair).lattice, _product(g, pair.lattice.matrix))
            _check_lattice(LatticeBasis(a.cfg, a.basis), a.basis)


def _fraction_calls(run):
    """Calls into fractions.py during run(), by function name, counted by a profile hook."""
    target = fractions.__file__
    counts = Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == target:
            counts[code.co_name] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


def _new_fractions(run):
    """New Fractions made during run(): calls of Fraction.__new__ and, from Python 3.12 on,
    of Fraction._from_coprime_ints, through which Fraction arithmetic builds its results."""
    counts = _fraction_calls(run)
    return counts["__new__"] + counts["_from_coprime_ints"]


def test_each_entry_is_read_once_and_each_norm_weighs_its_rows_once(monkeypatch):
    """Building a norm from a Fraction basis reads each entry once, by as_integer_ratio.  The
    first evaluate makes the row side of the norm's slot tables; a second one clears only its
    vector, makes one Fraction, the size, and takes the valuation of the vector's denominator
    and of each slot at most once."""
    rng = random.Random(124)
    n = 12
    a = fuzz.norm(rng, n=n, p=3)
    basis = a.basis  # a view, built here and not in the count
    built = []
    calls = _fraction_calls(lambda: built.append(SplitNorm(a.cfg, n, basis, a.values)))
    assert sum(calls.values()) == n * n
    (fresh,) = built
    v = fuzz.vector(rng, n, nonzero=True)
    size = evaluate(fresh, v)
    assert sum(_fraction_calls(lambda: evaluate(fresh, v)).values()) <= n + 1
    valued = []

    def counted(x, p):
        valued.append(x)
        return multiplicity(x, p)

    monkeypatch.setattr(norms, "multiplicity", counted)
    assert evaluate(fresh, v) == size
    assert len(valued) <= n + 1
    coords = oracles.product(oracles.inverse(a.basis), tuple((x,) for x in v))
    assert size == max(b - oracles.valuation(c, 3) for b, (c,) in zip(a.values, coords) if c)


def _int_presentation(n):
    """An invertible n x n int matrix, unit upper triangular, and n int values."""
    rng = random.Random(126)
    entry = lambda i, j: int(i == j) + (rng.randint(-9, 9) if j > i else 0)
    matrix = tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))
    return matrix, tuple(rng.randint(-5, 5) for _ in range(n))


def test_a_norm_from_ints_makes_one_fraction_per_value():
    """SplitNorm reads an int basis by int.as_integer_ratio into cleared columns and keeps no
    Fraction basis: at n = 12 it makes one Fraction per value and calls nothing else in
    fractions.py."""
    n = 12
    matrix, values = _int_presentation(n)
    calls = _fraction_calls(lambda: SplitNorm(FieldConfig(3), n, matrix, values))
    assert calls["__new__"] <= n and sum(calls.values()) == calls["__new__"]


def test_a_lattice_from_ints_makes_no_fraction():
    n = 12
    matrix, _ = _int_presentation(n)
    assert _fraction_calls(lambda: LatticeBasis(FieldConfig(3), matrix)) == {}


def test_the_standard_apartment_clears_no_entry():
    """norm_from_apartment takes unit cleared columns, with no identity matrix to clear."""
    n = 12
    _, values = _int_presentation(n)
    calls = _fraction_calls(lambda: norm_from_apartment(values, FieldConfig(3)))
    assert calls["as_integer_ratio"] == 0


def test_basis_and_matrix_are_views_built_on_first_read():
    n = 5
    matrix, values = _int_presentation(n)
    cfg = FieldConfig(3)
    nrm, lat = SplitNorm(cfg, n, matrix, values), LatticeBasis(cfg, matrix)
    std = norm_from_apartment(values, cfg)
    assert "basis" not in vars(nrm) and "matrix" not in vars(lat) and "basis" not in vars(std)
    assert nrm.basis == lat.matrix == linalg.mat(matrix) and std.basis == linalg.identity(n)
    assert "basis" in vars(nrm) and "matrix" in vars(lat) and "basis" in vars(std)
    assert nrm.values == std.values == linalg.vec(values)


def test_outside_matrices_are_read_once(monkeypatch):
    """An acting g, an h and a frame cross the boundary in one pass, linalg.cleared_square,
    which reads a Fraction entry by as_integer_ratio alone: membership, the level, act,
    op_size and apartment_coords call linalg.to_fraction on none of the n^2 entries."""
    rng = random.Random(125)
    n = 12
    a = fuzz.norm(rng, n=n, p=3)
    g = fuzz.stabilizer_element(rng, a)  # reads a's inverse
    calls = []
    to_fraction = linalg.to_fraction
    monkeypatch.setattr(linalg, "to_fraction", lambda x: calls.append(x) or to_fraction(x))
    assert is_stabilizer_element(a, g)
    assert filtration_level(a, g) <= 0
    assert op_size(a, a, g) <= 0
    assert equals(act(g, a), a)
    assert apartment_coords(a, a.basis) == a.values
    assert calls == []


def test_comparison_path_builds_no_fraction_matrix():
    rng = random.Random(122)
    n = 12
    cfg = FieldConfig(3)
    a = fuzz.norm(rng, n=n, p=3)
    other = fuzz.norm(rng, n=n, p=3)
    # the same norm as a in another presentation, and a norm apart from it; all fresh
    same = SplitNorm(cfg, n, act(fuzz.stabilizer_element(rng, a), a).basis, a.values)
    a = SplitNorm(cfg, n, a.basis, a.values)
    assert _new_fractions(lambda: distance(a, other)) <= 10 * n
    assert _new_fractions(lambda: equals(a, same)) <= 10 * n
    assert equals(a, same) and not equals(a, other)


def test_ball_index_and_homothety_build_no_fraction_matrix():
    """graded_ball_dims reads both entries from the norm's class count and homothetic from
    one integer slot table and its determinant, so on a norm made by act neither builds a
    ball or a Fraction matrix.  graded_ball_dims makes at most 3 new Fractions per value
    class, the same at n = 12 and 24 with 8 classes each; homothetic's count stays linear in
    the dimension."""
    rng = random.Random(120)
    n = 12
    a = act(fuzz.elementary_product(rng, n, 3), fuzz.norm(rng, n=n, p=3))
    level = fuzz.rational(rng)
    for x in (a, direct_sum(a, a)):
        assert len(x.value_classes) == 8
        assert _new_fractions(lambda: graded_ball_dims(x, level)) <= 3 * 8
    b = act(fuzz.stabilizer_element(rng, a), a)
    assert _new_fractions(lambda: homothetic(a, b)) <= n
    assert homothetic(a, b)


def test_order_layer_builds_no_fraction_matrix():
    """is_stabilizer_element reads the determinant, not the inverse, and filtration_level
    moves only the diagonal by 1, so on a norm made by act neither builds a Fraction
    matrix: their counts of new Fractions stay linear in the dimension."""
    rng = random.Random(123)
    n = 12
    a = act(fuzz.elementary_product(rng, n, 3), fuzz.norm(rng, n=n, p=3))
    g = fuzz.stabilizer_element(rng, a)
    assert _new_fractions(lambda: is_stabilizer_element(a, g)) <= n
    assert _new_fractions(lambda: filtration_level(a, g)) <= 3 * n
    assert is_stabilizer_element(a, g)
