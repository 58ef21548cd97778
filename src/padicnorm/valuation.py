"""Exact arithmetic in the additive value group of the p-adic rationals.

Everything downstream works additively: the size of a vector is the
base-p logarithm of its multiplicative norm.  Under that convention

* the valuation of the prime p is 1, so a uniformizer has size -1,
* nonzero rational scalars have sizes in Z, the full value group is Q,
* the norm of the zero vector is a bottom element below every rational,
  written "-inf" in serialized form,
* the multiplicative interval (|p|, 1] of filtration degrees becomes
  the additive interval (-1, 0], one rule in two forms: `degree_rep`
  for a rational and `by_degree` for residues mod q, in integers.

All quantities are `fractions.Fraction`; floats never appear: every
outside scalar passes the one gate, `linalg.to_fraction`, which says
what it refuses.  Each multiplicative inequality is translated to the
additive convention once in this module and nowhere else.

Valuations of integers far from the base point, hundreds or thousands
of digits long, come from one gcd rather than a ladder of divisions.
For odd p and v the exponent of p in n, g = gcd(n, p^k) divides p^k, so
g = p^min(v, k), which is p^v exactly for any k >= v; k is bounded from
the bit length of n.  Then 2^(b-1) <= p^v < 2^b for b = g.bit_length(),
and with c = floor(D log2 p), read exactly off the bit length of p^D, v
is the unique integer in the interval [(b-1)D/(c+1), bD/c) while its
length D(b+c)/(c(c+1)) is below 1.  No float is involved.  Three
windows p^w, of about 32, 512 and 8,192 bits, are divided out while
they divide n, which keeps the gcd small when the part of n prime to p
is large; what they leave takes the one gcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, total_ordering
from math import gcd

from .errors import PreconditionError
from .linalg import to_fraction

__all__ = ["FieldConfig", "Value", "BOTTOM", "val"]

Rational = Fraction | int
TOO_LARGE = "result has a rational too large to print"  # past the int-to-str digit limit


# Miller-Rabin with the first 13 primes as bases is proven correct for
# every n below PRIME_LIMIT (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic primality for n < PRIME_LIMIT."""
    if n < 2 or any(n % q == 0 for q in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:  # n - 1 = d * 2^s with d odd; a witnesses compositeness
        if pow(a, d, n) != 1 and all(pow(a, d << r, n) != n - 1 for r in range(s)):
            return False
    return True


@dataclass(frozen=True)
class FieldConfig:
    """The base field Q together with the prime fixing its valuation."""

    prime: int

    def __post_init__(self) -> None:
        if isinstance(self.prime, int) and self.prime >= PRIME_LIMIT:
            raise PreconditionError(f"prime must be below {PRIME_LIMIT}, got {self.prime}")
        if not isinstance(self.prime, int) or not _is_prime(self.prime):
            raise PreconditionError(f"prime must be a prime number, got {self.prime!r}")


@total_ordering
class Value:
    """An element of the value group Q, or the bottom element.

    Bottom is the size of the zero vector: it is strictly smaller than
    every rational value and absorbing under addition.
    """

    __slots__ = ("mag",)

    def __init__(self, mag: Fraction | None):
        object.__setattr__(self, "mag", None if mag is None else to_fraction(mag))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Value is immutable")

    @property
    def is_bottom(self) -> bool:
        return self.mag is None

    @staticmethod
    def _mag(other):  # a Value's mag, an int or Fraction as it is: no new Value or Fraction
        if isinstance(other, Value):
            return other.mag
        if isinstance(other, (int, Fraction)):
            return other
        return NotImplemented

    def __eq__(self, other) -> bool:
        o = self._mag(other)
        if o is NotImplemented:
            return NotImplemented
        return self.mag == o

    def __lt__(self, other) -> bool:
        o = self._mag(other)
        if o is NotImplemented:
            return NotImplemented
        if self.mag is None:
            return o is not None
        return o is not None and self.mag < o

    def __add__(self, other) -> "Value":
        o = self._mag(other)
        if o is NotImplemented:
            return NotImplemented
        if self.mag is None or o is None:
            return BOTTOM
        return Value(self.mag + o)

    __radd__ = __add__

    def __hash__(self) -> int:
        return hash(self.mag)

    def __str__(self) -> str:
        return "-inf" if self.mag is None else str(self.mag)

    def __repr__(self) -> str:
        return f"Value({self})"


BOTTOM = Value(None)


# Integers longer than this many bits take the gcd kernel of `multiplicity`.
_LADDER_BITS = 512
# p^D has about this many bits in the per-prime bracket of log2 p.
_BRACKET_BITS = 1 << 16


@lru_cache(maxsize=64)
def _bracket(p: int) -> tuple[int, int]:
    """(D, c) with c = floor(D log2 p), so c/D < log2 p < (c+1)/D for odd p."""
    d = max(1, _BRACKET_BITS // p.bit_length())
    return d, (p**d).bit_length() - 1


@lru_cache(maxsize=256)
def _window(p: int, j: int) -> tuple[int, int]:
    """(w, p^w) for the j-th of the three windows, j = 0, 1, 2: p^w has about 32 * 16^j
    bits, that is 32, 512 and 8,192."""
    w = max(1, (32 << 4 * j) // p.bit_length())
    return w, p**w


def _strip_windows(n: int, p: int) -> tuple[int, int]:
    """(s, p^(v - s)) for v = multiplicity(n, p): n loses the three windows p^w while they
    divide it, and the first that does not leaves gcd(r, p^w) = p^min(v - s, w) in the
    remainder.  Past them, or once a window passes the bound k on v - s read off the bit
    length of n, one gcd with the tight power p^k strips the rest: a long p^v costs one gcd,
    not divisions by ever longer windows, each quadratic in CPython."""
    d, c = _bracket(p)
    s = 0
    for j in range(3):
        w, pw = _window(p, j)
        if w >= n.bit_length() * d // c:
            break
        q, r = divmod(n, pw)
        if r:
            return s, gcd(r, pw)
        n, s = q, s + w
    return s, gcd(n, p ** (n.bit_length() * d // c))  # p^(v-s) <= |n| < 2^bits bounds v - s


def _bracket_exponent(g: int, p: int) -> int | None:
    """v for g = p^v, the largest integer below bD/c for b = g.bit_length(), or None where
    [(b-1)D/(c+1), bD/c) may hold two integers (see `multiplicity`)."""
    d, c = _bracket(p)
    b = g.bit_length()
    return (b * d - 1) // c if d * (b + c) < c * (c + 1) else None


def multiplicity(n: int, p: int) -> int:
    """Exponent v of the prime p in the nonzero int n.

    p = 2 reads the lowest set bit.  For odd p, a unit, n not divisible
    by p, returns 0 after one remainder, as most slot entries are units;
    then small n divide by p, p^2, p^4, ...  Longer n take gcds instead:
    g = gcd(n, p^k) divides p^k, so g = p^min(v, k), which is p^v exactly
    once k >= v.  With b the bit length of g and the per-prime bracket
    c/D < log2 p < (c+1)/D, v is the unique integer in [(b-1)D/(c+1), bD/c)
    while D(b+c) < c(c+1); past that, the division ladder runs on g.
    """
    if not n:
        raise PreconditionError("multiplicity is undefined at 0")
    if p == 2:
        return (n & -n).bit_length() - 1
    if n % p:
        return 0
    v = 0
    if n.bit_length() > _LADDER_BITS:
        v, n = _strip_windows(n, p)
        rest = _bracket_exponent(n, p)
        if rest is not None:
            return v + rest
    powers = []
    q = p
    while n % q == 0:  # divide by p, p^2, p^4, ... while exact
        n //= q
        v += 1 << len(powers)
        powers.append(q)
        q *= q
    for i in reversed(range(len(powers))):  # the exponent left is below 2^len(powers)
        if n % powers[i] == 0:
            n //= powers[i]
            v += 1 << i
    return v


def pval(x: Rational, p: int) -> int:
    """p-adic valuation of a nonzero rational, as a plain int."""
    if x.numerator == 0:
        raise PreconditionError("pval is undefined at 0")
    return multiplicity(x.numerator, p) or -multiplicity(x.denominator, p)


def val(x: Rational, cfg: FieldConfig) -> Value:
    """Valuation of a rational scalar; bottom at 0.

    val(8) is 3 and val(3/4) is -2 for the prime 2.
    """
    x = to_fraction(x)
    if x == 0:
        return BOTTOM
    return Value(Fraction(pval(x, cfg.prime)))


def degree_rep(x: Rational) -> Fraction:
    """Representative of x modulo Z in the degree interval (-1, 0], -((-num) mod den) / den,
    built as one new Fraction from x's integers."""
    num, den = to_fraction(x).as_integer_ratio()
    return Fraction(-(-num % den), den)


def by_degree(counts: dict, q: int) -> dict:
    """Entries keyed by residues k mod q, the classes k / q, keyed instead by the classes'
    representatives in (-1, 0], (k - q) / q or 0, descending: one Fraction per key."""
    degrees = sorted(((k - q if k else 0, v) for k, v in counts.items()), reverse=True)
    return {Fraction(d, q): v for d, v in degrees}
