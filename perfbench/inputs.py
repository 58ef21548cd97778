"""Seeded input generators owned by the benchmark.

These start from the property-suite generators in tests/fuzz.py but are
copied here, so that an edit to the tests can never change the inputs
on one side of a before/after comparison.  Every generator takes an
explicit random.Random; entries are Fractions and nothing is a float.

Most inputs are built around a hidden splitting basis B with known
values, together with its inverse, so that the expected answer of each
operation follows from the construction rather than from the library.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields, is_dataclass
from fractions import Fraction

PRIMES = (2, 3, 5)
# Value classes mod 1 with denominator at most 6.  A norm uses exactly
# NORM_CLASSES of them (fewer when n is smaller): the number of classes
# sets how many ball levels `equals` compares, so fixing it keeps the
# cost of an operation from swinging between seeds.
CLASSES = tuple(sorted({Fraction(j, d) for d in range(1, 7) for j in range(d)}))
NORM_CLASSES = 4


def rational(rng, span=8, max_den=6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def unit(rng, p) -> Fraction:
    """A scalar of valuation zero."""
    while True:
        u = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if u != 0 and u.numerator % p and u.denominator % p:
            return u


def frac_part(x: Fraction) -> Fraction:
    return x - math.floor(x)


def pval(x: Fraction, p: int) -> int:
    """Valuation of a nonzero rational, computed independently of the
    library (used for expected answers only, never timed)."""
    x = Fraction(x)
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def values(rng, n) -> tuple[Fraction, ...]:
    classes = rng.sample(CLASSES, min(n, NORM_CLASSES))
    picks = [classes[i % len(classes)] for i in range(n)]
    rng.shuffle(picks)
    return tuple(c + rng.randint(-3, 3) for c in picks)


def _freeze(rows):
    return tuple(tuple(r) for r in rows)


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def invertible_pair(rng, n):
    """Random product of elementary column operations, with its inverse
    (the matching row operations applied in reverse)."""
    m = _identity(n)
    inv = _identity(n)
    for _ in range(2 * n + 2):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            c = Fraction(rng.choice((1, -1, 2, 3)), rng.choice((1, 2)))
            for k in range(n):
                m[k][i] *= c
                inv[i][k] /= c
        else:
            c = rational(rng, 3, 3)
            for k in range(n):
                m[k][i] += c * m[k][j]
                inv[j][k] -= c * inv[i][k]
    return _freeze(m), _freeze(inv)


def isometric_basis(rng, basis, vals, p):
    """Another splitting basis of the norm (basis, vals): basis @ h for an
    isometry h of diagonal units and slot-legal shears, as in
    tests/fuzz.stabilizer_element but applied as column operations."""
    n = len(vals)
    m = [list(r) for r in basis]
    for i in range(n):
        u = unit(rng, p)
        for r in range(n):
            m[r][i] *= u
    for _ in range(2 * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        # column i += c * column j is legal when val(c) >= vals[j] - vals[i]
        k = math.ceil(vals[j] - vals[i]) + rng.randint(0, 1)
        c = Fraction(p) ** k * rng.choice((1, -1, 1 + p))
        for r in range(n):
            m[r][i] += c * m[r][j]
    return _freeze(m)


def shear(basis, basis_inv, i, j, c, g=None):
    """g @ (I + c * column j of basis * row i of basis_inv): a shear
    moving splitting vector i by c times splitting vector j, in ambient
    coordinates.  Costs O(n^2), no matrix product."""
    n = len(basis)
    if g is None:
        g = _identity(n)
    gu = [sum((g[r][k] * basis[k][j] for k in range(n)), Fraction(0)) for r in range(n)]
    row = basis_inv[i]
    return [[g[r][s] + c * gu[r] * row[s] for s in range(n)] for r in range(n)]


def stabilizer_element(rng, basis, basis_inv, vals, p, shears=3):
    """A unit scalar times a few legal shears, in ambient coordinates."""
    n = len(vals)
    u = unit(rng, p)
    g = [[x * u for x in row] for row in _identity(n)]
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        k = math.ceil(vals[j] - vals[i]) + rng.randint(0, 1)
        g = shear(basis, basis_inv, i, j, Fraction(p) ** k * rng.choice((1, -1, 1 + p)), g)
    return _freeze(g)


def scaling(basis, basis_inv, i, p):
    """Ambient matrix multiplying splitting vector i by p: never a
    stabilizer element."""
    return _freeze(shear(basis, basis_inv, i, i, Fraction(p - 1)))


def elementary_product(rng, n, p):
    """Random invertible matrix mixing p-power scalings, shears and swaps
    (tests/fuzz.elementary_product)."""
    m = _identity(n)
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
    return _freeze(m)


def combination(rng, basis, vals, p, n_terms=None, min_val=-2, max_val=3):
    """A vector sum c_i * (column i of basis) and its size under the norm
    split by basis with values vals.

    The nonzero c_i are units times p^k with k drawn from [min_val,
    max_val], so the size max(vals[i] - k) is known without computing a
    valuation."""
    n = len(basis)
    coeffs = [Fraction(0)] * n
    size = None
    for i in rng.sample(range(n), n_terms or rng.randint(1, n)):
        k = rng.randint(min_val, max_val)
        coeffs[i] = unit(rng, p) * Fraction(p) ** k
        size = vals[i] - k if size is None else max(size, vals[i] - k)
    vec = tuple(sum((basis[r][i] * coeffs[i] for i in range(n)), Fraction(0)) for r in range(n))
    return vec, size


def size_from_coeffs(vals, coeffs, p) -> Fraction:
    """Norm of sum c_i e_i over a splitting basis e with values vals."""
    return max(a - pval(c, p) for a, c in zip(vals, coeffs) if c != 0)


def class_counts(vals) -> dict[Fraction, int]:
    counts: dict[Fraction, int] = {}
    for a in vals:
        c = frac_part(a)
        counts[c] = counts.get(c, 0) + 1
    return dict(sorted(counts.items()))


def canonical(x):
    """Canonical JSON-ready form of an input or result: rationals and
    values as strings, dataclasses as field maps, tuples as lists."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (tuple, list)):
        return [canonical(y) for y in x]
    if isinstance(x, dict):
        return [[canonical(k), canonical(v)] for k, v in x.items()]
    if is_dataclass(x):
        return {f.name: canonical(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, BaseException):
        return f"raised {type(x).__name__}"
    return str(x)


def dumps(x) -> str:
    return json.dumps(canonical(x), sort_keys=True, separators=(",", ":"))


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
