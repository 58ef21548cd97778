"""Seeded generators for the property suites, and the suites' one time limit.

Every generator takes an explicit random.Random so a failing case is
reproducible from the module seed alone.  Entries are Fractions
throughout; nothing here ever touches floats.
"""

from __future__ import annotations

import contextlib
import math
import random
import signal
from fractions import Fraction

import pytest

from padicnorm import FieldConfig, LatticeBasis, SplitNorm, linalg

import oracles

PRIMES = (2, 3, 5)
needs_alarm = pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


@contextlib.contextmanager
def time_limit(seconds, failure):
    """Run the block under SIGALRM, and fail the test with the text failure when it is still
    running after seconds; a test that uses it is marked needs_alarm."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except _Timeout:
        pytest.fail(failure)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def rational(rng: random.Random, span: int = 8, max_den: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def vector(rng, n, span=8, max_den=6, nonzero=False):
    while True:
        v = tuple(rational(rng, span, max_den) for _ in range(n))
        if not nonzero or any(v):
            return v


def values(rng, n, max_den=6):
    return tuple(rational(rng, 6, max_den) for _ in range(n))


def invertible(rng, n):
    """Random product of elementary column operations; invertibility
    holds by construction."""
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(2 * n + rng.randint(0, 3)):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            c = Fraction(rng.choice((1, -1, 2, 3)), rng.choice((1, 2)))
            for k in range(n):
                m[k][i] *= c
        else:
            c = rational(rng, 3, 3)
            for k in range(n):
                m[k][i] += c * m[k][j]
    return tuple(tuple(row) for row in m)


def norm(rng, n=None, p=None, max_den=6):
    if n is None:
        n = rng.randint(1, 5)
    if p is None:
        p = rng.choice(PRIMES)
    return SplitNorm(FieldConfig(p), n, invertible(rng, n), values(rng, n, max_den))


def integer_norm(rng, n=None, p=None):
    """Norm with integer splitting values, i.e. a shifted lattice norm."""
    if n is None:
        n = rng.randint(1, 5)
    if p is None:
        p = rng.choice(PRIMES)
    vals = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
    return SplitNorm(FieldConfig(p), n, invertible(rng, n), vals)


def lattice(rng, cfg, n):
    return LatticeBasis(cfg, invertible(rng, n))


def span_matrix(rng, n, d):
    """n x d matrix of full column rank d."""
    return linalg.transpose(linalg.transpose(invertible(rng, n))[:d])


def unit(rng, p):
    # a scalar of valuation zero
    while True:
        u = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if u != 0 and u.numerator % p and u.denominator % p:
            return u


def stabilizer_element(rng, nrm):
    """A matrix fixing the norm: a product h of diagonal units and
    slot-legal elementary factors, conjugated out of the splitting
    coordinates as B h B^-1, with the oracles' product and inverse."""
    n = nrm.dim
    p = nrm.cfg.prime
    a = nrm.values
    h = tuple(
        tuple(unit(rng, p) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )
    for _ in range(2 * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        # the slot at row j, column i tolerates valuation >= a_j - a_i
        k = math.ceil(a[j] - a[i]) + rng.randint(0, 1)
        factor = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
        factor[j][i] = Fraction(p) ** k * rng.choice((1, -1, 1 + p))
        h = oracles.product(h, factor)
    return oracles.product(nrm.basis, oracles.product(h, oracles.inverse(nrm.basis)))


def root_element(rng, nrm):
    """A root-group element fixing the norm, n >= 2: one slot-legal elementary factor 1 + t
    E_ji, conjugated out of the splitting coordinates as B (1 + t E_ji) B^-1, so g - 1 has
    rank one."""
    n, p, a = nrm.dim, nrm.cfg.prime, nrm.values
    i, j = rng.sample(range(n), 2)
    # the slot at row j, column i tolerates valuation >= a_j - a_i
    t = Fraction(p) ** (math.ceil(a[j] - a[i]) + rng.randint(0, 1)) * unit(rng, p)
    factor = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    factor[j][i] = t
    return oracles.product(nrm.basis, oracles.product(factor, oracles.inverse(nrm.basis)))


def rank_one(rng, n, p):
    """u phi for random nonzero vectors u and phi of p-power entries, each with a random
    number of leading zeros: an n x n matrix of rank one, whose first rows or columns may
    be 0."""

    def factor():
        zeros = rng.randrange(n)
        tail = [rational(rng) * Fraction(p) ** rng.randint(-2, 3) for _ in range(n - zeros)]
        return [Fraction(0)] * zeros + tail

    while True:
        u, phi = factor(), factor()
        if any(u) and any(phi):
            return tuple(tuple(x * y for y in phi) for x in u)


def elementary_product(rng, n, p):
    """Random invertible matrix mixing p-power scalings, shears, and
    swaps; membership in any given stabilizer is accidental."""
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(1, 2 * n + 2)):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = Fraction(rng.randint(-2, 2)) * Fraction(p) ** rng.randint(-1, 2)
            for k in range(n):
                m[k][i] += c * m[k][j]
        elif kind == 1:
            c = rng.choice((1, -1)) * Fraction(p) ** rng.randint(-2, 2)
            for k in range(n):
                m[k][i] *= c
        elif i != j:
            for k in range(n):
                m[k][i], m[k][j] = m[k][j], m[k][i]
    return tuple(tuple(row) for row in m)


def diagonal(rng, n, p):
    """Diagonal torus element: unit times p-power entries."""
    return tuple(
        tuple(
            unit(rng, p) * Fraction(p) ** rng.randint(-2, 2) if i == j else Fraction(0)
            for j in range(n)
        )
        for i in range(n)
    )
