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
number of value classes, and a Value meets the ints they test it
against as ints.  Building a norm reads each Fraction entry once, and a
norm makes the row side of its slot tables once.

A norm's values are read once, as it is built, into _vals, integers
over one denominator, and a pair's weights the same way.  The balls
read only their level, the class pieces build one Fraction per
returned key, the derived norms build none until their values are
read, and a norm's document is written from the integers; a seeded
oracle in plain Fractions checks the integer computations on large
denominators, and the two integer kernels of the boundary and the
balls: clear, and the powers of p that scale a ball's columns.
"""

import fractions
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from padicnorm import FieldConfig, LatticeBasis, SplitNorm, io, linalg, norms, slots
from padicnorm.base_change import (
    VirtualExtension,
    extension_value_classes,
    graded_ball_dims,
    is_lattice_norm_over,
)
from padicnorm.building import apartment_coords, homothetic, norm_from_apartment
from padicnorm.errors import DimensionMismatchError, PreconditionError
from padicnorm.norms import (
    _common_norm,
    act,
    ball_basis,
    ball_basis_open,
    canonical,
    common_splitting_basis,
    direct_sum,
    distance,
    dual,
    equals,
    evaluate,
    norm_on,
    op_size,
    quotient,
    restrict,
    tensor,
)
from padicnorm.splittings import SplittingPair, pair_from_norm, translate_pair
from padicnorm.stabilizer import chain_period, filtration_level, graded_dims, is_stabilizer_element
from padicnorm.valuation import BOTTOM, Value, multiplicity

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
    assert nrm._vals == linalg.cleared_vector(nrm.values)


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
                _check_norm(quotient(a, span), oracles.identity(n - d))
            level = fuzz.rational(rng)
            closed = [math.ceil(x - level) for x in a.values]
            opened = [math.floor(x - level) + 1 for x in a.values]
            _check_lattice(ball_basis(a, level), _scaled_columns(a.basis, p, closed))
            _check_lattice(ball_basis_open(a, level), _scaled_columns(a.basis, p, opened))
            vals, combo = _common_norm(a, b)
            common = norm_on(a.cfg, linalg.times_cleared(b._cols, combo), vals)
            _check_lattice(canonical(common)[0], common_splitting_basis(a, b)[0])
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
    """Building a norm from a Fraction basis and values reads each entry and each value once,
    by as_integer_ratio: n^2 + n calls into fractions.py and no other.  The first evaluate
    makes the row side of the norm's slot tables; a second one clears only its vector, makes
    one Fraction, the size, and takes the valuation of the vector's denominator and of each
    slot at most once."""
    rng = random.Random(124)
    n = 12
    a = fuzz.norm(rng, n=n, p=3)
    basis, values = a.basis, a.values  # views, built here and not in the count
    built = []
    calls = _fraction_calls(lambda: built.append(SplitNorm(a.cfg, n, basis, values)))
    assert calls == {"as_integer_ratio": n * n + n}
    (fresh,) = built
    v = fuzz.vector(rng, n, nonzero=True)
    size = evaluate(fresh, v)
    assert sum(_fraction_calls(lambda: evaluate(fresh, v)).values()) <= n + 1
    valued = []

    def counted(x, p):
        valued.append(x)
        return multiplicity(x, p)

    monkeypatch.setattr(norms, "multiplicity", counted)
    monkeypatch.setattr(slots, "multiplicity", counted)
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
    """basis, matrix and values are views of the cleared forms, built on first read; bad values
    and weights are refused as they are read, each with the error of its kind."""
    n = 5
    matrix, values = _int_presentation(n)
    cfg = FieldConfig(3)
    nrm, lat = SplitNorm(cfg, n, matrix, values), LatticeBasis(cfg, matrix)
    std = norm_from_apartment(values, cfg)
    assert "basis" not in vars(nrm) and "matrix" not in vars(lat) and "basis" not in vars(std)
    assert "values" not in vars(nrm) and "values" not in vars(std)
    assert nrm.basis == lat.matrix == matrix and std.basis == oracles.identity(n)
    assert "basis" in vars(nrm) and "matrix" in vars(lat) and "basis" in vars(std)
    assert nrm.values == std.values == tuple(map(Fraction, values))
    assert "values" in vars(nrm) and "values" in vars(std)
    square = LatticeBasis(cfg, oracles.identity(2))
    for make, what in (
        (lambda x: SplitNorm(cfg, 2, oracles.identity(2), x), "values"),
        (lambda x: SplittingPair(square, x), "weights"),
    ):
        for bad, error, message in (
            ((0, 0.5), TypeError, "floats are not exact"),
            ((0,), DimensionMismatchError, f"expected 2 {what}, got 1"),
            ((0, "1e5000"), PreconditionError, "exponent beyond"),
            (7, TypeError, "not iterable"),
            ((0, "x"), ValueError, "Invalid literal"),
        ):
            with pytest.raises(error, match=message):
                make(bad)


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


def test_a_value_meets_an_int_as_an_int():
    """The order layer's tests level <= 0 and level <= -1 compare a Value with an int: they
    make no Value of the int, so no new Fraction and no numerator or denominator read."""
    v = Value(Fraction(-1, 2))
    results = []
    calls = _fraction_calls(lambda: results.extend((v <= 0, v > 0, v <= -1, v == 0, BOTTOM < -1)))
    assert results == [True, False, False, False, True]
    assert calls["__new__"] == calls["numerator"] == calls["denominator"] == 0


def _made_norms(rng, n, p):
    """A norm from the public constructor and norms the package makes."""
    a = fuzz.norm(rng, n=n, p=p)
    return [a, act(fuzz.elementary_product(rng, n, p), a), dual(a), tensor(a, a)]


def test_balls_read_only_their_level():
    """ball_basis and ball_basis_open make exactly the fractions.py calls of reading their
    level, none for an int, and chain_period, with the value classes read, makes none."""
    rng = random.Random(127)
    levels = (3, -2, "7/3", "-5/4", Fraction(11, 6), Fraction(-13, 10))
    for x in _made_norms(rng, 6, 3):
        for g in levels:
            read = _fraction_calls(lambda: linalg.ratio(g))
            assert (read == {}) == (type(g) is int)
            assert _fraction_calls(lambda: ball_basis(x, g)) == read
            assert _fraction_calls(lambda: ball_basis_open(x, g)) == read
        x.value_classes
        assert _fraction_calls(lambda: chain_period(x)) == {}


def test_class_pieces_build_one_fraction_per_key():
    """The class count, the graded ball pieces at an int level, the graded order and the
    refined classes each build one Fraction per returned key, which the result's dict hashes
    once, and call nothing else in fractions.py but, from Python 3.12 on, the cached helper of
    the hash.  Whether the norm is a lattice norm over an extension is read off the residues,
    with no call into fractions.py."""
    rng = random.Random(128)
    for x in _made_norms(rng, 6, 5):
        runs = [
            lambda: x.class_counts,
            lambda: graded_ball_dims(x, -2),
            lambda: graded_dims(x).class_dims,
        ] + [lambda e=e: extension_value_classes(x, VirtualExtension(e)) for e in (1, 2, 3, None)]
        for run in runs:
            keys = []
            calls = _fraction_calls(lambda: keys.extend(run()))
            assert calls.pop("__new__") == calls.pop("__hash__") == len(keys)
            assert set(calls) <= {"_hash_algorithm"}
        for e in (1, 2, 3, None):
            assert _fraction_calls(lambda: is_lattice_norm_over(x, VirtualExtension(e))) == {}


def test_derived_norms_build_no_values_until_read():
    """tensor, direct_sum and dual compute their values in integers from _vals: no fractions.py
    call, and no values view until it is read, which builds one Fraction per value."""
    rng = random.Random(129)
    a, b = fuzz.norm(rng, n=4, p=3), fuzz.norm(rng, n=3, p=3)
    for make, want in (
        (lambda: tensor(a, b), tuple(x + y for x in a.values for y in b.values)),
        (lambda: direct_sum(a, b), a.values + b.values),
        (lambda: dual(a), tuple(-x for x in a.values)),
    ):
        made = []
        assert _fraction_calls(lambda: made.append(make())) == {}
        (x,) = made
        assert "values" not in vars(x)
        calls = _fraction_calls(lambda: x.values)
        assert calls == {"__new__": len(want)} and x.values == want


def test_a_norm_document_is_written_from_integers():
    """io.norm_to_doc writes the values from _vals, one gcd per entry: no fractions.py call,
    for a norm from the public constructor and for one the package made."""
    rng = random.Random(130)
    for x in _made_norms(rng, 5, 2):
        assert _fraction_calls(lambda: io.norm_to_doc(x)) == {}
        assert io.norm_to_doc(x)["values"] == [str(v) for v in x.values]


def test_pair_makers_plant_their_weights():
    """pair_from_norm, io.pair_from_doc and translate_pair plant the cleared weights of the
    pair they make, as a norm the package makes is born with its values: one Fraction per
    weight, for the weights field, and no as_integer_ratio call but the n^2 entries of
    translate_pair's acting matrix."""
    rng = random.Random(3)
    n = 6
    nrm = fuzz.norm(rng, n=n, p=3)
    pair = pair_from_norm(nrm)
    doc = io.pair_to_doc(pair)
    g = fuzz.invertible(rng, n)
    for make, reads in (
        (lambda: pair_from_norm(nrm), 0),
        (lambda: io.pair_from_doc(doc), 0),
        (lambda: translate_pair(g, pair), n * n),
    ):
        made = []
        calls = _fraction_calls(lambda: made.append(make()))
        assert calls["as_integer_ratio"] == reads and calls["__new__"] <= n
        assert set(calls) <= {"as_integer_ratio", "__new__"}
        (x,) = made
        assert x._vals == linalg.cleared_vector(x.weights) == pair._vals
        assert x == SplittingPair(x.lattice, x.weights)


def _wide_norm(rng, n, p):
    """A norm with values of either sign in (-20, 20), over denominators up to 10^6."""
    def value():
        den = rng.choice((1, 2, 3, 10**6, rng.randint(1, 10**6)))
        return Fraction(rng.randint(-20 * den, 20 * den), den)

    basis = fuzz.invertible(rng, n) if n else ()
    return SplitNorm(FieldConfig(p), n, basis, [value() for _ in range(n)])


def _level(rng):
    """A level as an int, a str or a Fraction, of either sign."""
    x = Fraction(rng.randint(-30 * 10**6, 30 * 10**6), rng.randint(1, 10**6))
    return rng.choice((round(x), str(x), x))


def test_integer_values_agree_with_a_fraction_oracle():
    """Balls, class counts, graded pieces, refined classes, derived values, the common basis's
    values and the differences of distance, computed in integers, against plain Fraction
    arithmetic on the values, in dimensions 0 to 4."""
    rng = random.Random(131)
    for trial in range(60):
        n, p = trial % 5, fuzz.PRIMES[trial % 3]
        a, b = _wide_norm(rng, n, p), _wide_norm(rng, n, p)
        small = _wide_norm(rng, rng.randint(0, 2), p)
        g = _level(rng)
        made = [act(fuzz.elementary_product(rng, n, p), a) if n else a, dual(a), tensor(a, small)]
        made.append(direct_sum(a, small))
        assert made[1].values == tuple(-x for x in a.values)
        assert made[2].values == tuple(x + y for x in a.values for y in small.values)
        assert made[3].values == a.values + small.values
        assert io.norm_from_doc(io.norm_to_doc(a)).values == a.values
        for x in [a] + made:
            _check_norm(x)
            assert ball_basis(x, g).matrix == oracles.ball(x, g)
            assert ball_basis_open(x, g).matrix == oracles.ball(x, g, closed=False)
            # dict equality ignores order, so the items are compared as lists
            assert list(x.class_counts.items()) == list(oracles.class_counts(x.values).items())
            want = oracles.graded_ball_dims(x.values, g)
            assert list(graded_ball_dims(x, g).items()) == list(want.items())
            want = oracles.graded_dims(x.values)
            assert list(graded_dims(x).class_dims.items()) == list(want.items())
            for e in (1, 2, 7):
                got = extension_value_classes(x, VirtualExtension(e))
                want = oracles.extension_value_classes(x.values, e)
                assert list(got.items()) == list(want.items())
                assert all(0 <= c < Fraction(1, e) for c in got)
        _, a_vals, b_vals = common_splitting_basis(a, b)
        assert all(0 <= v < 1 for v in a_vals)
        assert oracles.class_counts(a_vals) == oracles.class_counts(a.values)
        assert oracles.class_counts(b_vals) == oracles.class_counts(b.values)
        diffs = sorted((y - x for x, y in zip(a_vals, b_vals)), reverse=True)
        assert distance(a, b) == (max(map(abs, diffs), default=0), tuple(diffs))


def _cleared_vector(rng, n, p):
    """Seeded integers over a denominator of 1, a unit, or a power of p times a unit."""
    den = rng.choice((1, 7, p**3, 12 * p**40))
    return [rng.randint(-(10**30), 10**30) for _ in range(n)], den


@pytest.mark.parametrize("p", [2, 3, 5, 10**18 + 3])
def test_powers_scale_each_vector_by_its_own_power(p):
    # one long power, then a short one per vector, against one p^k per vector, on exponents
    # that mix signs, repeat, hold 0, lie far out on one side or both, or are none
    rng = random.Random(p % 1000)
    lists = [[], [0], [0, 0, 0], [3, -3, 0, 3], [-5, -5, -7], [2, 9, 2], [-1, 1], [-3000, 3001, -3002]]
    lists += [[rng.randint(-3000, 3000) for _ in range(4)] for _ in range(4)]
    lists += [[k + rng.randint(0, 4) for _ in range(4)] for k in (-3000, 500)]
    for exponents in lists:
        vectors = [_cleared_vector(rng, 4, p) for _ in exponents]
        want = [
            linalg.reduced([x * p**k for x in ints], den) if k >= 0 else linalg.reduced(ints, den * p**-k)
            for (ints, den), k in zip(vectors, exponents)
        ]
        assert norms._powers(vectors, p, exponents) == want
        for (ints, den), k, got in zip(vectors, exponents, want):
            scaled = [Fraction(x, den) * Fraction(p) ** k for x in ints]
            assert linalg.from_cleared_vector(got) == tuple(scaled)


def test_clear_is_fraction_arithmetic():
    # the lcm of the denominators and each entry times it, in Fractions, on columns with
    # no entry, only unit denominators, mixed ones, and one long lcm among units
    rng = random.Random(45)
    columns = [[], [(0, 1)], [(3, 1), (-4, 1), (0, 1)], [(1, 2), (5, 1), (-7, 12), (0, 1)]]
    long = Fraction(rng.randint(1, 10**40), 3**3000).as_integer_ratio()
    columns.append([long] + [(rng.randint(-9, 9), 1) for _ in range(15)])
    for _ in range(20):
        column = []
        for _ in range(rng.randint(1, 16)):
            f = Fraction(rng.randint(-(10**20), 10**20), rng.choice((1, 1, 2, 6, 5**50, rng.randint(1, 10**9))))
            column.append(f.as_integer_ratio())
        columns.append(column)
    for column in columns:
        exact = [Fraction(a, b) for a, b in column]
        d = math.lcm(*(f.denominator for f in exact))
        ints, den = linalg.clear(column)
        assert den == d and ints == [f * d for f in exact]
        assert all(type(x) is int for x in ints)
