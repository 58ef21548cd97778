"""Equality as one splitting test.

equals, homothetic, apartment_coords and verify_splitting ask whether
given columns split a norm, from a single slot table and its
determinant: the columns at their sizes dominate the norm, and then
split it exactly when the two give e_1 ^ ... ^ e_n the same size.  Here
they are held against the independent ball oracle, against the parent
definitions (two dominations; the frame with the sizes of its columns),
and against the count of inverses they may take: only the norm measured
against is inverted, and no basis built only to be checked.
"""

import random
from fractions import Fraction

import pytest

from padicnorm import FieldConfig, LatticeBasis, SplitNorm, linalg
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
            # a zero column: every other slot weighs 0, so b <= a, and the volume is undefined
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
