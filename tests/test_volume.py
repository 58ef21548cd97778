"""Equality as one splitting test.

equals, homothetic, apartment_coords and verify_splitting ask whether
given columns split a norm, from a single slot table: the columns split
it exactly when their leading terms are independent in the graded
pieces, value class by value class, over F_p.  Only columns that do not
split are told singular from not split, by a determinant modulo a fixed
prime, and only if that vanishes by the exact one.  Here they are held
against the independent ball oracle, with sizes from sympy's inverse,
on split, non-split and singular columns and on classes of several
values; against the parent definitions (two dominations; the frame with
the sizes of its columns); against the count of inverses they may take,
as only the norm measured against is inverted, and no basis built only
to be checked; and against the count of exact determinants, none on
nonsingular columns.
"""

import math
import random
from fractions import Fraction
from operator import mul

import pytest

from padicnorm import FieldConfig, LatticeBasis, SplitNorm, linalg, slots
from padicnorm.building import apartment_coords, cartan_position, homothetic
from padicnorm.errors import SingularMatrixError
from padicnorm.splittings import SplittingPair, norm_from_pair, pair_from_norm, verify_splitting
from padicnorm.norms import (
    act,
    ball_basis,
    common_splitting_basis,
    distance,
    equals,
    evaluate,
    lattices_equal,
    quotient,
    restrict,
)

import fuzz
import oracles

F = Fraction


def _fresh(nrm, values=None):
    """The same presentation with no inverse known yet."""
    return SplitNorm(nrm.cfg, nrm.dim, nrm.basis, nrm.values if values is None else values)


def _shifted(nrm, k):
    return _fresh(nrm, tuple(x + k for x in nrm.values))


def _sizes(nrm, frame):
    return tuple(evaluate(nrm, c).mag for c in linalg.transpose(frame))


def _pairs(rng):
    """(n, a, same, tweaked, shifted, k): same is a in another basis, tweaked has one value
    moved, shifted is a + k in another basis; all fresh."""
    for n in range(1, 9):
        for p in fuzz.PRIMES:
            a = fuzz.norm(rng, n, p)
            same = act(fuzz.stabilizer_element(rng, a), a)
            values = list(same.values)
            values[rng.randrange(n)] += F(rng.choice((-1, 1)), rng.randint(1, 6))
            k = rng.choice((-2, -1, 1, 2))
            up = _shifted(a, k)
            shifted = act(fuzz.stabilizer_element(rng, up), up)
            yield n, _fresh(a), _fresh(same), _fresh(same, tuple(values)), _fresh(shifted), k


def test_equals_matches_the_ball_oracle():
    rng = random.Random(150)
    for _, a, same, tweaked, shifted, _ in _pairs(rng):
        assert equals(a, same) and equals(same, a) and oracles.balls_equal(a, same)
        assert not equals(a, tweaked) and not equals(tweaked, a)
        assert not oracles.balls_equal(a, tweaked)
        assert not equals(a, shifted) and not oracles.balls_equal(a, shifted)
        level = fuzz.rational(rng)
        assert lattices_equal(ball_basis(a, level), ball_basis(same, level))
        # a pair presents a when its lattice columns split a at its weights
        pair = pair_from_norm(same)
        weights = list(pair.weights)
        weights[rng.randrange(len(weights))] += rng.choice((-1, 1))
        moved = SplittingPair(pair.lattice, tuple(weights))
        for other, presents in ((pair, True), (moved, False), (pair_from_norm(tweaked), False)):
            assert verify_splitting(_fresh(a), other) is presents
            assert oracles.balls_equal(a, norm_from_pair(other)) is presents


def test_homothetic_matches_the_ball_oracle():
    rng = random.Random(151)
    for n, a, same, tweaked, shifted, k in _pairs(rng):
        assert homothetic(a, shifted) and homothetic(shifted, a) and homothetic(a, same)
        assert oracles.balls_equal(a, _shifted(shifted, -k))
        # the only possible shift is the gap on one vector; the oracle decides the rest
        e = linalg.transpose(a.basis)[0]
        gap = evaluate(a, e).mag - evaluate(tweaked, e).mag
        expect = gap.denominator == 1 and oracles.balls_equal(a, _shifted(tweaked, gap))
        assert homothetic(a, tweaked) is expect
        assert homothetic(tweaked, a) is expect


def test_apartment_coords_matches_the_ball_oracle():
    rng = random.Random(152)
    splits = 0
    for n, a, same, _, _, _ in _pairs(rng):
        # the other presentation's basis splits a; a random frame mostly does not
        for frame in (same.basis, fuzz.invertible(rng, n)):
            sizes = _sizes(a, frame)
            coords = apartment_coords(_fresh(a), frame)
            assert (coords is None) is not oracles.balls_equal(SplitNorm(a.cfg, n, frame, sizes), a)
            assert coords in (None, sizes)
            splits += coords is not None
    assert 24 < splits < 48


def test_singular_bases_and_frames_are_refused():
    rng = random.Random(153)
    for n in range(1, 6):
        for p in fuzz.PRIMES:
            b = fuzz.norm(rng, n, p)
            cols = list(linalg.transpose(b.basis))
            # a zero column: it has no size and no leading term
            zero = linalg.transpose([(0,) * n] + cols[1:])
            a = SplitNorm(b.cfg, n, zero, b.values)
            # a repeated column, with values high enough that b <= a
            repeated = linalg.transpose(cols[:1] * 2 + cols[2:]) if n > 1 else zero
            top = SplitNorm(b.cfg, n, repeated, (max(b.values) + 10,) * n)
            for x in (a, top):
                for left, right in ((x, b), (b, x)):
                    with pytest.raises(SingularMatrixError, match="matrix is singular"):
                        equals(_fresh(left), _fresh(right))
                # homothetic inverts its first argument and refuses a singular second one
                for left, right in ((x, b), (b, x)):
                    with pytest.raises(SingularMatrixError, match="matrix is singular"):
                        homothetic(_fresh(left), _fresh(right))
                with pytest.raises(SingularMatrixError, match="matrix is singular"):
                    apartment_coords(_fresh(b), x.basis)
                with pytest.raises(SingularMatrixError, match="matrix is singular"):
                    apartment_coords(_fresh(x), b.basis)
            # refused before the answer too: b is not below low, and the shift of half is 1/2
            low = SplitNorm(b.cfg, n, repeated, (min(b.values) - 10,) * n)
            half = tuple(b.values[j] + F(1, 2) for j in [0, 0, *range(2, n)][:n])
            for refused in (
                lambda: equals(_fresh(low), _fresh(b)),
                lambda: homothetic(_fresh(b), SplitNorm(b.cfg, n, repeated, half)),
            ):
                with pytest.raises(SingularMatrixError, match="matrix is singular"):
                    refused()
    cfg = FieldConfig(2)
    with pytest.raises(SingularMatrixError, match="matrix is singular"):
        lattices_equal(LatticeBasis(cfg, ((1, 0), (0, 0))), LatticeBasis(cfg, oracles.identity(2)))


def _count_inverses(monkeypatch):
    calls = []
    kernel = linalg.inverse_rows
    monkeypatch.setattr(linalg, "inverse_rows", lambda cols: calls.append(cols) or kernel(cols))
    return calls


def test_only_the_measuring_norm_is_inverted(monkeypatch):
    rng = random.Random(154)
    cases = []
    for n in range(2, 7):
        for p in fuzz.PRIMES:
            a = fuzz.norm(rng, n, p)
            moved = act(fuzz.stabilizer_element(rng, a), a)
            span = fuzz.span_matrix(rng, n, rng.randint(1, n - 1))
            cases.append((a, moved, fuzz.norm(rng, n, p), span))
    calls = _count_inverses(monkeypatch)
    expected = {
        "equals": (lambda a, same, _, __: equals(a, same), 1),
        "distance": (lambda a, _, other, __: distance(a, other), 1),
        "cartan_position": (lambda a, _, other, __: cartan_position(a, other), 1),
        "common_splitting_basis": (lambda a, _, other, __: common_splitting_basis(a, other), 1),
        "restrict": (lambda a, _, __, span: restrict(a, span), 1),
        "quotient": (lambda a, _, __, span: quotient(a, span), 1),
        "homothetic": (lambda a, same, _, __: homothetic(a, _shifted(same, 1)), 1),
        "apartment_coords": (lambda a, same, _, __: apartment_coords(a, same.basis), 1),
        "verify_splitting": (lambda a, same, _, __: verify_splitting(a, pair_from_norm(same)), 1),
    }
    for a, moved, other, span in cases:
        for name, (run, count) in expected.items():
            fresh = (_fresh(a), _fresh(moved), _fresh(other), span)
            calls.clear()
            run(*fresh)
            assert len(calls) == count, name
        # equals inverts its second argument, apartment_coords and verify_splitting the norm
        # and not the frame or the pair's lattice
        a, same = _fresh(a), _fresh(moved)
        calls.clear()
        assert equals(a, same)
        assert calls == [same._cols]
        calls.clear()
        assert apartment_coords(a, moved.basis) is not None
        assert calls == [a._cols]
        norm, pair = _fresh(a), pair_from_norm(_fresh(moved))
        calls.clear()
        assert verify_splitting(norm, pair)
        assert calls == [norm._cols]
        # a common basis inverts the norm it splits the other's basis against, and reads the
        # other's check off the column operations
        for run in (distance, cartan_position, common_splitting_basis):
            first, second = _fresh(a), _fresh(other)
            calls.clear()
            run(first, second)
            assert calls == [first._cols]


def _oracle_sizes(x, frame):
    """The size under x of each column of frame, from sympy's inverse of x's basis."""
    inv, p = oracles.inverse(x.basis), x.cfg.prime
    sizes = []
    for col in zip(*frame):
        coords = [sum(map(mul, row, map(F, col))) for row in inv]
        sizes.append(max(a - oracles.valuation(c, p) for a, c in zip(x.values, coords) if c))
    return sizes


def _classed_norm(rng, p):
    """A 5-dim norm whose values fall in two classes, of two and of three values."""
    c = F(rng.randint(1, 5), 6)
    values = [F(rng.randint(-2, 2)) for _ in range(2)] + [c + rng.randint(-2, 2) for _ in range(3)]
    rng.shuffle(values)
    return SplitNorm(FieldConfig(p), 5, fuzz.invertible(rng, 5), tuple(values))


def _frames(rng, x):
    """(kind, frame) around x's basis B, values a: split (a stabilizer element times B);
    parallel, two columns B_i + p^m B_j and B_i + (1 + p) p^m B_j of one class, m = a_j - a_i,
    whose leading terms agree mod p; crowded, B_j pushed into the class of a_i as B_i + p^k
    B_j, one column more than rows there; singular, a repeated and a zero column; and random."""
    n, p, a = x.dim, x.cfg.prime, x.values
    cols = [list(c) for c in linalg.transpose(x.basis)]
    frames = [("split", act(fuzz.stabilizer_element(rng, x), x).basis)]
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    same = [(i, j) for i, j in pairs if (a[j] - a[i]).denominator == 1]
    other = [(i, j) for i, j in pairs if (a[j] - a[i]).denominator != 1]
    if same:
        i, j = rng.choice(same)
        m = int(a[j] - a[i])
        frame = [list(c) for c in cols]
        frame[i] = [u + F(p) ** m * v for u, v in zip(cols[i], cols[j])]
        frame[j] = [u + (1 + p) * F(p) ** m * v for u, v in zip(cols[i], cols[j])]
        frames.append(("parallel", linalg.transpose(frame)))
    if other:
        i, j = rng.choice(other)
        k = math.ceil(a[j] - a[i]) + rng.randint(1, 2)
        frame = [list(c) for c in cols]
        frame[j] = [u + F(p) ** k * v for u, v in zip(cols[i], cols[j])]
        frames.append(("crowded", linalg.transpose(frame)))
    if n > 1:
        i, j = rng.sample(range(n), 2)
        for col in (cols[j], [0] * n):
            frame = [list(c) for c in cols]
            frame[i] = col
            frames.append(("singular", linalg.transpose(frame)))
    frames.append(("random", fuzz.invertible(rng, n)))
    return frames


def _fit_cases(rng):
    for _ in range(6):
        for p in fuzz.PRIMES:
            for x in (_classed_norm(rng, p), fuzz.norm(rng, rng.randint(1, 5), p, max_den=2)):
                for kind, frame in _frames(rng, x):
                    yield kind, x, frame, fuzz.values(rng, x.dim, 3)


def test_fit_matches_the_oracles():
    seen = {}
    for kind, x, frame, vals in _fit_cases(random.Random(155)):
        fit = lambda: slots.fit(
            _fresh(x)._row_side, linalg.cleared(frame), linalg.cleared_vector(vals), x.cfg.prime
        )
        if oracles.det(frame) == 0:
            with pytest.raises(SingularMatrixError, match="matrix is singular"):
                fit()
            outcome = "singular"
        else:
            sizes = _oracle_sizes(x, frame)
            if oracles.balls_equal(SplitNorm(x.cfg, x.dim, frame, sizes), x):
                t, scale = fit()
                assert [F(w, scale) for w in t] == [s - v for s, v in zip(sizes, vals)]
                outcome = "split"
            else:
                assert fit() is None
                outcome = "not split"
        seen.setdefault(kind, set()).add(outcome)
    assert seen == {
        "split": {"split"},
        "parallel": {"not split"},
        "crowded": {"not split"},
        "singular": {"singular"},
        "random": {"split", "not split"},
    }


def test_equality_takes_no_exact_determinant(monkeypatch):
    rng = random.Random(156)
    cases = []
    for n in range(2, 7):
        for p in fuzz.PRIMES:
            for a in (fuzz.norm(rng, n, p), fuzz.integer_norm(rng, n, p)):
                same = act(fuzz.stabilizer_element(rng, a), a)
                # unequal norms: one value moved, and all moved by 1/2, split by a's columns
                values = list(same.values)
                values[rng.randrange(n)] += rng.choice((-1, 1))
                unequal = (_fresh(same, tuple(values)), _shifted(same, F(1, 2)))
                span = fuzz.span_matrix(rng, n, rng.randint(1, n - 1))
                cases.append((a, same, unequal, fuzz.norm(rng, n, p), span))
    calls = []
    kernel = linalg.det_cleared
    monkeypatch.setattr(linalg, "det_cleared", lambda cols: calls.append(cols) or kernel(cols))
    for a, same, unequal, other, span in cases:
        assert equals(_fresh(a), _fresh(same))
        assert not any(equals(_fresh(a), _fresh(b)) for b in unequal)
        common_splitting_basis(_fresh(a), _fresh(other))
        restrict(_fresh(a), span)
    assert calls == []
    # a determinant the fixed prime q divides is the one nonsingular case read exactly: the
    # columns (1, 1) and (1, 1 + 2q) do not split the unit norm at p = 2, and det = 2q
    q = linalg.CERTIFICATE_PRIME
    x = SplitNorm(FieldConfig(2), 2, oracles.identity(2), (F(0), F(0)))
    assert apartment_coords(x, ((1, 1), (1, 1 + 2 * q))) is None
    assert len(calls) == 1
