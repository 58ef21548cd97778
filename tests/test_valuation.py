import math
import operator
import random
import time
from fractions import Fraction

import pytest

from padicnorm import BOTTOM, FieldConfig, Value, val
from padicnorm.errors import PreconditionError
from padicnorm import valuation
from padicnorm.valuation import (
    PRIME_LIMIT,
    _bracket,
    _bracket_exponent,
    _is_prime,
    degree_rep,
    multiplicity,
    pval,
)

import fuzz

CFG2 = FieldConfig(2)
# the largest prime below the proven Miller-Rabin limit
PRIME_BELOW_LIMIT = next(q for q in range(PRIME_LIMIT - 2, 0, -2) if _is_prime(q))


def test_pval_examples():
    assert pval(8, 2) == 3
    assert pval(Fraction(3, 4), 2) == -2
    assert pval(6, 3) == 1
    assert pval(Fraction(1, 5), 5) == -1
    assert pval(-12, 2) == 2
    assert pval(7, 2) == 0
    with pytest.raises(PreconditionError):
        pval(0, 2)


def test_val_examples():
    assert val(8, CFG2) == Value(Fraction(3))
    assert val(Fraction(3, 4), CFG2) == Value(Fraction(-2))
    assert val(0, CFG2).is_bottom
    assert str(val(0, CFG2)) == "-inf"
    assert str(val(Fraction(3, 4), CFG2)) == "-2"


def test_prime_validation():
    for bad in (1, 0, -2, 4, 6, 9):
        with pytest.raises(PreconditionError):
            FieldConfig(bad)
    FieldConfig(2)
    FieldConfig(97)


def test_large_prime_validation():
    start = time.perf_counter()
    FieldConfig(1000000000000000003)
    assert time.perf_counter() - start < 1
    # strong pseudoprimes to the first few bases, and Carmichael numbers: 1152271 = 43 * 127 *
    # 211, 3 mod 4 and with no factor among the bases, passes a Fermat test to every base
    for bad in (561, 2047, 3215031751, 3825123056546413051, 1000000000000000001, 1152271):
        with pytest.raises(PreconditionError):
            FieldConfig(bad)
    # the first strong pseudoprime to all 13 bases marks the proven limit
    with pytest.raises(PreconditionError, match="below"):
        FieldConfig(PRIME_LIMIT)
    with pytest.raises(PreconditionError, match="below"):
        FieldConfig(3317044064679887385962123)  # a prime above the limit
    naive = lambda n: n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))
    assert all(_is_prime(n) == naive(n) for n in range(5000))


def test_value_ordering():
    assert BOTTOM < Value(Fraction(-10**9))
    assert not BOTTOM < BOTTOM
    assert BOTTOM == Value(None)
    assert Value(1) == 1 == True
    assert Value(Fraction(1, 2)) == Fraction(1, 2)
    assert Value(Fraction(1, 2)) < 1
    assert Value(Fraction(1, 2)) <= Fraction(1, 2)
    assert Value(Fraction(3)) > Value(Fraction(5, 2))
    assert sorted([Value(Fraction(1)), BOTTOM, Value(Fraction(-2))])[0].is_bottom


def test_values_compare_only_with_numbers():
    # a Value orders and adds with Values, ints and Fractions; anything else is refused
    for v in (Value(Fraction(1, 2)), BOTTOM):
        for other in ("1", "x", None, [1], 1.5, 0.5):
            for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.add):
                with pytest.raises(TypeError):
                    op(v, other)
                with pytest.raises(TypeError):
                    op(other, v)
            assert v != other and (v == other) is False


def test_values_hash_and_print():
    # equal values hash equal, so a Value, bottom included, works as a dict key
    assert hash(Value(1)) == hash(Value(Fraction(2, 2))) == hash(1)
    assert hash(Value(None)) == hash(BOTTOM)
    table = {BOTTOM: "bottom", Value(Fraction(1, 2)): "half"}
    assert table[Value(None)] == "bottom" and table[Value(Fraction(2, 4))] == "half"
    assert repr(Value(Fraction(1, 2))) == "Value(1/2)"
    assert repr(BOTTOM) == "Value(-inf)"


def test_value_addition_absorbs_bottom():
    assert Value(Fraction(1, 3)) + Value(Fraction(1, 6)) == Value(Fraction(1, 2))
    assert (BOTTOM + Value(Fraction(5))).is_bottom
    assert (Value(Fraction(5)) + BOTTOM).is_bottom
    assert Value(Fraction(1, 2)) + Fraction(1, 2) == Value(Fraction(1))
    assert Fraction(1, 2) + Value(Fraction(1, 2)) == Value(Fraction(1))
    half = 1 + Value(Fraction(-1, 2))
    assert type(half) is Value and type(half.mag) is Fraction and half == Value(Fraction(1, 2))
    assert (Value(Fraction(-1, 2)) + BOTTOM).is_bottom and (BOTTOM + 1).is_bottom


def test_floats_are_refused():
    # a float is a binary approximation: val(0.1) would read 2^-55 off it
    for call in (
        lambda: Value(0.1),
        lambda: val(0.1, CFG2),
        lambda: degree_rep(0.5),
    ):
        with pytest.raises(TypeError, match="floats are not exact"):
            call()


def test_value_immutable():
    v = Value(Fraction(1))
    with pytest.raises(AttributeError):
        v.mag = Fraction(2)


def test_degree_rep_examples():
    assert degree_rep(Fraction(0)) == 0
    assert degree_rep(Fraction(1, 2)) == Fraction(-1, 2)
    assert degree_rep(Fraction(2, 3)) == Fraction(-1, 3)
    # any rational, not only a representative in [0, 1)
    assert degree_rep(Fraction(3, 2)) == Fraction(-1, 2)
    assert degree_rep(Fraction(-1, 3)) == Fraction(-1, 3)
    assert degree_rep(5) == 0
    assert degree_rep(Fraction(-7, 3)) == Fraction(-1, 3)


def naive_pval(x: Fraction, p: int) -> int:
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def test_pval_agrees_with_stripping():
    rng = random.Random(2004)
    for p in (2, 3, 5, 7, 10**18 + 3):
        for _ in range(300):
            k = rng.randint(0, 70)
            num = rng.choice((-1, 1)) * rng.randint(1, 10**6) * p ** rng.randint(0, k)
            den = rng.randint(1, 10**6) * p ** rng.randint(0, k)
            x = Fraction(num, den)
            assert pval(x, p) == naive_pval(x, p)
            assert pval(num, p) == naive_pval(Fraction(num), p)
        assert pval(p ** 64, p) == 64 and pval(-(p ** 63), p) == 63
        assert pval(Fraction(1, p ** 65), p) == -65


def test_pval_is_fast_on_large_valuations():
    start = time.perf_counter()
    total = (
        pval(10**32000, 2)
        + pval(10**32000, 5)
        + pval(-(10**32000), 5)
        + pval(Fraction(1, 10**32000), 2)
    )
    assert total == 64000
    assert time.perf_counter() - start < 0.5


def test_degree_rep_lands_in_the_degree_interval():
    rng = random.Random(2003)
    for _ in range(300):
        d = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        rep = degree_rep(d)
        assert (-1 < d <= 0) == (rep == d)
        assert -1 < rep <= 0 and (rep - d).denominator == 1


def test_val_is_a_valuation():
    rng = random.Random(2001)
    for _ in range(400):
        p = rng.choice((2, 3, 5))
        cfg = FieldConfig(p)
        x = Fraction(rng.randint(-40, 40), rng.randint(1, 24))
        y = Fraction(rng.randint(-40, 40), rng.randint(1, 24))
        # multiplicativity, with bottom absorbing the zero cases
        assert val(x * y, cfg) == val(x, cfg) + val(y, cfg)
        if x + y == 0:
            assert val(x + y, cfg).is_bottom
        elif x != 0 and y != 0:
            assert val(x + y, cfg) >= min(val(x, cfg), val(y, cfg))


@fuzz.needs_alarm
@pytest.mark.parametrize("p", [2, 3, 10**18 + 3])
def test_multiplicity_refuses_zero(p):
    # 0 is divisible by every power of p, so the squaring loop would never stop
    failure = f"multiplicity(0, {p}) still running after 1 s"
    with pytest.raises(PreconditionError, match="undefined at 0"), fuzz.time_limit(1, failure):
        multiplicity(0, p)


def unit(rng, bits: int, p: int) -> int:
    """A random int of exactly the given bit length that p does not divide."""
    while True:
        u = rng.getrandbits(bits) | 1 << (bits - 1)
        if u % p:
            return u


UNIT_BITS = (1, 30, 200, 5000, 20000, 60000)
VALUATIONS = (0, 1, 5, 60, 300, 3000, 5000)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 10**18 + 3, PRIME_BELOW_LIMIT])
def test_multiplicity_agrees_with_stripping_far_from_the_base_point(p):
    rng = random.Random(p % 1000)
    for bits in UNIT_BITS:
        u = unit(rng, bits, p)
        for v in VALUATIONS:
            n = (-1) ** (bits + v) * p**v * u  # both signs along every row and column
            if n.bit_length() > 1 << 17:
                continue  # the large primes past v = 300: see the test below
            stripped = naive_pval(Fraction(n), p)
            assert multiplicity(n, p) == stripped == v
            small = unit(rng, 40, p)
            # p^v in the numerator, then in the denominator
            assert pval(Fraction(n, small), p) == stripped
            assert pval(Fraction(small, n), p) == -stripped


@pytest.mark.parametrize("p", [10**18 + 3, PRIME_BELOW_LIMIT])
def test_multiplicity_of_large_primes_to_high_powers(p):
    # 180,000 to 470,000 bits: stripping one factor at a time would take seconds, so the
    # exponent is checked against the definition, for units short and long beside p^v
    rng = random.Random(p % 1000)
    for bits in (1, 200, 5000, 20000, 60000):
        u = unit(rng, bits, p)
        for v in (3000, 5000):
            n = (-1) ** v * p**v * u
            assert n % p**v == 0 and n // p**v % p
            assert multiplicity(n, p) == -pval(Fraction(1, n), p) == v


@pytest.mark.parametrize("p", [3, 5, 7])
def test_bracket_reads_exponents_up_to_its_edge(p):
    d, c = _bracket(p)
    assert 2**c < p**d < 2 ** (c + 1)
    widest = (c * (c + 1) - 1) // d - c  # the largest bit length with D(b + c) < c(c + 1)
    edge = widest * d // c  # p^edge has about that many bits
    outcomes = set()
    for v in range(edge - 3, edge + 4):
        g = p**v
        got = _bracket_exponent(g, p)
        assert got == (v if g.bit_length() <= widest else None)
        outcomes.add(got is None)
        assert multiplicity(g, p) == multiplicity(g * unit(random.Random(v), 64, p), p) == v
    assert outcomes == {False, True}


def test_multiplicity_falls_back_past_the_bracket(monkeypatch):
    read = []
    kernel = valuation._bracket_exponent
    monkeypatch.setattr(
        valuation, "_bracket_exponent", lambda g, p: read.append(kernel(g, p)) or read[-1]
    )
    u = unit(random.Random(7), 30, 3)
    for p, v in ((3, 60000), (5, 50000)):
        assert multiplicity(p**v, p) == multiplicity(-(p**v) * u, p) == v
    assert None in read


@fuzz.needs_alarm
@pytest.mark.parametrize("p", [3, 5, 10**18 + 3])
def test_multiplicity_is_fast_on_a_large_unit(p):
    # p times a 200,000-bit unit: one gcd with a power of p as long as n takes 75-85 ms on a
    # 2-vCPU x86-64 host under CPython 3.11, so ten of them overrun the limit
    n = p * unit(random.Random(p), 200000, p)
    with fuzz.time_limit(0.25, f"10 calls on {p} * unit still running after 0.25 s"):
        for _ in range(10):
            multiplicity(n, p)
    assert multiplicity(n, p) == 1


@fuzz.needs_alarm
@pytest.mark.parametrize("p", [10**18 + 3, PRIME_BELOW_LIMIT])
def test_multiplicity_strips_a_long_power_in_one_gcd(p):
    # 7 p^20000, 1.2 to 1.6 million bits: past the three windows one gcd strips the rest in
    # 0.1 to 0.2 s on a 2-vCPU x86-64 host under CPython 3.11, where windows that keep growing
    # 4-fold take 0.9 to 1.8 s, one quadratic divmod each
    n = 7 * p**20000
    with fuzz.time_limit(0.5, f"multiplicity of 7 * {p}^20000 still running after 0.5 s"):
        assert multiplicity(n, p) == 20000


@fuzz.needs_alarm
def test_first_call_with_a_large_prime_is_cheap():
    p = PRIME_BELOW_LIMIT
    n = p**40 * unit(random.Random(5), 3000, p)
    valuation._bracket.cache_clear()
    valuation._window.cache_clear()
    failure = "the first call with a prime near the limit still running after 0.05 s"
    with fuzz.time_limit(0.05, failure):
        multiplicity(n, p)
    assert multiplicity(n, p) == 40
